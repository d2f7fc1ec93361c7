// Heap census of the FFN's saved activations and of a training epoch's
// optimizer state. This binary replaces the global operator new/delete with
// a counter of live and peak heap bytes, so it runs alone: no other test
// shares its allocator.

#include <malloc.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "autograd/ops.h"
#include "core/slime4rec.h"
#include "data/batcher.h"
#include "data/synthetic.h"
#include "nn/feed_forward.h"
#include "reference_ops.h"
#include "train/trainer.h"

namespace {

std::atomic<int64_t> live_bytes{0};
std::atomic<int64_t> peak_bytes{0};
// Live blocks whose usable size is `watched_size` (0: none watched).
std::atomic<int64_t> watched_size{0};
std::atomic<int64_t> watched_live{0};

void* Counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  const int64_t size = static_cast<int64_t>(malloc_usable_size(p));
  const int64_t now = live_bytes.fetch_add(size) + size;
  int64_t peak = peak_bytes.load();
  while (now > peak && !peak_bytes.compare_exchange_weak(peak, now)) {
  }
  if (size == watched_size.load()) watched_live.fetch_add(1);
  return p;
}

void Uncounted(void* p) {
  if (p == nullptr) return;
  const int64_t size = static_cast<int64_t>(malloc_usable_size(p));
  live_bytes.fetch_sub(size);
  if (size == watched_size.load()) watched_live.fetch_sub(1);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return Counted(std::malloc(n ? n : 1)); }
void* operator new[](std::size_t n) { return Counted(std::malloc(n ? n : 1)); }
void operator delete(void* p) noexcept { Uncounted(p); }
void operator delete[](void* p) noexcept { Uncounted(p); }
void operator delete(void* p, std::size_t) noexcept { Uncounted(p); }
void operator delete[](void* p, std::size_t) noexcept { Uncounted(p); }

namespace slime {
namespace {

using autograd::Variable;

/// Bytes that `fn`'s result keeps alive (its value and the graph behind it).
template <typename Fn>
int64_t LiveBytesKeptBy(Fn fn) {
  const int64_t before = live_bytes.load();
  const Variable y = fn();
  return live_bytes.load() - before;
}

/// Peak heap growth while `fn` runs.
template <typename Fn>
int64_t PeakBytesDuring(Fn fn) {
  const int64_t before = live_bytes.load();
  peak_bytes.store(before);
  fn();
  return peak_bytes.load() - before;
}

/// Blocks of `bytes`' usable size (a float tensor's buffer of that many
/// bytes) that `fn`'s result keeps alive.
template <typename Fn>
int64_t BlocksKeptBy(int64_t bytes, Fn fn) {
  void* probe = std::malloc(static_cast<size_t>(bytes));  // not counted
  watched_size.store(static_cast<int64_t>(malloc_usable_size(probe)));
  std::free(probe);
  const int64_t before = watched_live.load();
  const Variable y = fn();
  const int64_t kept = watched_live.load() - before;
  watched_size.store(0);
  return kept;
}

TEST(HeapCensusTest, FeedForwardKeepsOnePlaneFewerThanTheComposedChain) {
  const int64_t batch = 16, len = 50, dim = 64;
  const int64_t plane = batch * len * dim * int64_t{sizeof(float)};
  Rng init(3);
  nn::FeedForward ffn(dim, 0.1f, &init);
  const std::vector<Variable> params = ffn.Parameters();
  const Variable x = autograd::Param(Tensor::Randn({batch, len, dim}, &init));
  Rng rng(4);
  const auto fused_pass = [&] { return ffn.Forward(x, &rng); };
  const auto chain_pass = [&] {
    return reference::FeedForwardChain(x, params, 0.1f, true, &rng);
  };
  fused_pass();  // warm-up: one-time allocations count for neither side
  chain_pass();
  const int64_t fused = LiveBytesKeptBy(fused_pass);
  const int64_t chain = LiveBytesKeptBy(chain_pass);
  // The chain's MatMul keeps the (rows, hidden) dropout output, which the
  // fused op recomputes. The rest differs by a few graph nodes (under 1 KiB
  // here) and by the allocator's rounding of the plane (under a page).
  EXPECT_GE(chain - fused, plane) << "fused " << fused << " chain " << chain;
  EXPECT_LT(chain - fused, plane + 16384)
      << "fused " << fused << " chain " << chain;
}

TEST(HeapCensusTest, GeluDropoutMatMulWritesOverAGivenUpBufferUnderNoGrad) {
  const int64_t rows = 800, k = 96, n = 32;
  const int64_t pre_plane = rows * k * int64_t{sizeof(float)};
  const int64_t out_plane = rows * n * int64_t{sizeof(float)};
  Rng rng(5);
  const Variable w = autograd::Constant(Tensor::Randn({k, n}, &rng));
  autograd::NoGradScope no_grad;
  const Variable kept = autograd::Constant(Tensor::Randn({rows, k}, &rng));
  Variable given_up = autograd::Constant(kept.value().Clone());
  autograd::GeluDropoutMatMul(kept, w, 0.1f, false, nullptr);  // warm-up
  const int64_t over_kept = PeakBytesDuring([&] {
    autograd::GeluDropoutMatMul(kept, w, 0.1f, false, nullptr);
  });
  const int64_t over_given_up = PeakBytesDuring([&] {
    autograd::GeluDropoutMatMul(std::move(given_up), w, 0.1f, false, nullptr);
  });
  // A kept input needs a fresh GELU plane; a given-up one is overwritten.
  EXPECT_GE(over_kept, pre_plane + out_plane);
  EXPECT_LT(over_given_up, pre_plane);
  EXPECT_GE(over_given_up, out_plane);
}

TEST(HeapCensusTest, TrainingLossKeepsNoFullPlaneOfTheFinalBlock) {
  // The final block runs on row N-1 only in training too: a one-block
  // model's Loss (three encoder passes: CE, dropout view, positive view)
  // keeps no more (B, N, d) planes than the embedding stem alone (L = 0)
  // does. The filter's saved spectrum is (B, M, d) complex, another size.
  data::SyntheticConfig data_config;
  data_config.num_users = 16;
  data_config.num_items = 300;
  data_config.min_len = 6;
  data_config.max_len = 20;
  data_config.seed = 9;
  const data::SplitDataset split(data::GenerateSynthetic(data_config), 1);
  core::Slime4RecConfig c;
  c.num_items = split.num_items();
  c.num_users = split.num_users();
  c.max_len = 11;
  c.hidden_dim = 24;
  c.seed = 10;
  const int64_t batch_size = 4;
  const int64_t plane =
      batch_size * c.max_len * c.hidden_dim * int64_t{sizeof(float)};
  Rng batch_rng(11);
  data::TrainBatcher batcher(&split, batch_size, c.max_len,
                             /*with_positives=*/true, &batch_rng);
  const data::Batch batch = batcher.Epoch().front();
  ASSERT_EQ(batch.size, batch_size);

  const auto planes_kept = [&](int64_t layers) {
    c.num_layers = layers;
    core::Slime4Rec model(c);
    model.SetTraining(true);
    model.Loss(batch);  // warm-up: FFT plans and other one-time state
    return BlocksKeptBy(plane, [&] { return model.Loss(batch); });
  };
  const int64_t stem = planes_kept(0);
  const int64_t one_block = planes_kept(1);
  EXPECT_GT(stem, 0) << "the census sees the stem's planes";
  EXPECT_EQ(one_block - stem, 0)
      << "stem " << stem << " stem + final block " << one_block;
}

TEST(HeapCensusTest, OneEpochFitAddsUnderTwoParameterCopiesToItsStep) {
  data::SyntheticConfig data_config;
  data_config.num_users = 64;
  data_config.num_items = 3000;
  data_config.min_len = 10;
  data_config.max_len = 30;
  data_config.seed = 6;
  const data::SplitDataset split(data::GenerateSynthetic(data_config), 1);
  core::Slime4RecConfig c;
  c.num_items = split.num_items();
  c.num_users = split.num_users();
  c.max_len = 20;
  c.hidden_dim = 32;
  c.num_layers = 2;
  c.seed = 7;
  train::TrainConfig tc;
  tc.max_epochs = 1;
  tc.batch_size = 1 << 20;  // one batch: the epoch is one step
  tc.seed = 8;

  // A bare Loss + Backward of the Fit's one batch, on a same-seed twin.
  core::Slime4Rec stepped(c);
  int64_t param_bytes = 0;
  for (const Variable& p : stepped.Parameters()) {
    param_bytes += p.value().numel() * int64_t{sizeof(float)};
  }
  Rng batch_rng(tc.seed);
  data::TrainBatcher batcher(&split, tc.batch_size, c.max_len,
                             stepped.needs_positives(), &batch_rng);
  const data::Batch batch = batcher.Epoch().front();
  stepped.SetTraining(true);
  {
    core::Slime4Rec warm_up(c);  // one-time allocations count for neither
    warm_up.SetTraining(true);
    warm_up.Loss(batch).Backward();
  }
  const int64_t step =
      PeakBytesDuring([&] { stepped.Loss(batch).Backward(); });

  core::Slime4Rec fitted(c);
  const int64_t fit = PeakBytesDuring(
      [&] { ASSERT_TRUE(train::Trainer(tc).Fit(&fitted, split).ok()); });
  // The step's activations set both peaks. Beside them Fit holds only its
  // rollback snapshot's parameter copy: a never-stepped Adam has no moments
  // for itself or the snapshot to hold.
  EXPECT_LT(fit - step, 2 * param_bytes)
      << "fit " << fit << " step " << step << " parameters " << param_bytes;
}

}  // namespace
}  // namespace slime
