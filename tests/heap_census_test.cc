// Heap census of the FFN's saved activations. This binary replaces the
// global operator new/delete with a counter of live and peak heap bytes, so
// it runs alone: no other test shares its allocator.

#include <malloc.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "autograd/ops.h"
#include "nn/feed_forward.h"
#include "reference_ops.h"

namespace {

std::atomic<int64_t> live_bytes{0};
std::atomic<int64_t> peak_bytes{0};

void* Counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  const int64_t size = static_cast<int64_t>(malloc_usable_size(p));
  const int64_t now = live_bytes.fetch_add(size) + size;
  int64_t peak = peak_bytes.load();
  while (now > peak && !peak_bytes.compare_exchange_weak(peak, now)) {
  }
  return p;
}

void Uncounted(void* p) {
  if (p == nullptr) return;
  live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)));
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

}  // namespace
}  // namespace slime
