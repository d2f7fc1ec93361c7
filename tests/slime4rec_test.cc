#include "core/slime4rec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "compute/backend.h"
#include "data/batcher.h"
#include "optim/adam.h"

namespace slime {
namespace core {
namespace {

Slime4RecConfig SmallConfig() {
  Slime4RecConfig c;
  c.num_items = 20;
  c.num_users = 10;
  c.max_len = 8;
  c.hidden_dim = 16;
  c.num_layers = 2;
  c.dropout = 0.1f;
  c.emb_dropout = 0.1f;
  c.mixer.alpha = 0.5;
  c.seed = 11;
  return c;
}

data::Batch SmallBatch(bool with_positives, int64_t max_len = 8) {
  data::Batch b;
  b.size = 3;
  b.max_len = max_len;
  b.user_ids = {0, 1, 2};
  b.targets = {5, 7, 2};
  b.raw_prefixes = {{1, 2, 3}, {4, 5, 6, 7}, {1}};
  for (const auto& raw : b.raw_prefixes) {
    const auto padded = data::PadTruncate(raw, max_len);
    b.input_ids.insert(b.input_ids.end(), padded.begin(), padded.end());
    if (with_positives) {
      b.positive_input_ids.insert(b.positive_input_ids.end(), padded.begin(),
                                  padded.end());
    }
  }
  return b;
}

TEST(Slime4RecTest, EncodeShapes) {
  Slime4Rec model(SmallConfig());
  const data::Batch b = SmallBatch(true);
  autograd::Variable h = model.Encode(b.input_ids, b.size);
  EXPECT_EQ(h.shape(), (std::vector<int64_t>{3, 8, 16}));
  autograd::Variable last = model.EncodeLast(b.input_ids, b.size);
  EXPECT_EQ(last.shape(), (std::vector<int64_t>{3, 16}));
}

/// The bit patterns of `count` floats, so EXPECT_EQ compares bits.
std::vector<uint32_t> Bits(const float* p, int64_t count) {
  std::vector<uint32_t> out(count);
  std::memcpy(out.data(), p, count * sizeof(float));
  return out;
}

std::vector<uint32_t> Bits(const Tensor& t) {
  return Bits(t.data(), t.numel());
}

/// Row N-1 of `h` (B, N, d), as bit patterns.
std::vector<uint32_t> LastRow(const Tensor& h) {
  const int64_t n = h.size(1);
  const int64_t d = h.size(2);
  std::vector<uint32_t> out;
  for (int64_t b = 0; b < h.size(0); ++b) {
    const std::vector<uint32_t> row = Bits(h.data() + (b * n + n - 1) * d, d);
    out.insert(out.end(), row.begin(), row.end());
  }
  return out;
}

TEST(Slime4RecTest, EvalEncodeLastEqualsLastRowOfEncode) {
  // Eval mode computes only position N-1 after the final irFFT; the row
  // must equal Encode's bit for bit, with and without a graph.
  Slime4Rec model(SmallConfig());
  model.SetTraining(false);
  const data::Batch b = SmallBatch(false);
  const std::vector<uint32_t> want =
      LastRow(model.Encode(b.input_ids, b.size).value());
  EXPECT_EQ(Bits(model.EncodeLast(b.input_ids, b.size).value()), want);
  autograd::NoGradScope no_grad;
  EXPECT_EQ(Bits(model.EncodeLast(b.input_ids, b.size).value()), want);
}

/// A training pass that backpropagates a fixed weighted sum of the user
/// vector h_t^L: its bits, every parameter gradient and the generator after.
struct TrainingRow {
  std::vector<uint32_t> row;
  std::vector<std::pair<std::string, std::vector<uint32_t>>> grads;
  RngState rng;
};

TrainingRow RunTrainingRow(const Slime4RecConfig& c, bool tail) {
  Slime4Rec model(c);
  const data::Batch b = SmallBatch(false, c.max_len);
  const int64_t n = c.max_len;
  const autograd::Variable row =
      tail ? model.EncodeLast(b.input_ids, b.size)
           : autograd::Reshape(
                 autograd::Slice(model.Encode(b.input_ids, b.size), 1, n - 1,
                                 n),
                 {b.size, c.hidden_dim});
  Rng weights(13);
  autograd::Sum(autograd::MulConst(row, Tensor::Randn(row.shape(), &weights)))
      .Backward();
  TrainingRow out{Bits(row.value()), {}, model.rng()->state()};
  for (const auto& [name, p] : model.NamedParameters()) {
    out.grads.emplace_back(name, Bits(p.grad()));
  }
  return out;
}

TEST(Slime4RecTest, TrainingEncodeLastKeepsEncodesDropoutStream) {
  // Training runs the final block on row N-1 only, its dropouts drawing
  // over all N rows and keeping the last row's bits. Against Encode + Slice
  // on a same-seed twin: the same row, the same generator state afterwards
  // and every parameter gradient bit-identical.
  struct Variant {
    const char* name;
    double alpha;
    bool use_dynamic;
    bool use_static;
  };
  const Variant variants[] = {{"dfs+sfs", 0.5, true, true},
                              {"dfs-only", 0.5, true, false},
                              {"sfs-only", 0.5, false, true},
                              {"alpha=1", 1.0, true, true}};
  struct TierGuard {
    ~TierGuard() { compute::SetKernelBackend("scalar").value(); }
  } guard;
  for (const auto& backend : compute::AvailableKernelBackends()) {
    compute::SetKernelBackend(backend).value();
    for (const Variant& v : variants) {
      for (const int64_t n : {8, 13}) {
        Slime4RecConfig c = SmallConfig();
        c.max_len = n;
        c.mixer.alpha = v.alpha;
        c.mixer.use_dynamic = v.use_dynamic;
        c.mixer.use_static = v.use_static;
        const std::string label =
            backend + " " + v.name + " N=" + std::to_string(n);
        const TrainingRow want = RunTrainingRow(c, /*tail=*/false);
        const TrainingRow got = RunTrainingRow(c, /*tail=*/true);
        for (int i = 0; i < 4; ++i) {
          EXPECT_EQ(got.rng.s[i], want.rng.s[i]) << label << " word " << i;
        }
        EXPECT_EQ(got.rng.have_cached_gaussian, want.rng.have_cached_gaussian)
            << label;
        EXPECT_EQ(got.row, want.row) << label;
        ASSERT_EQ(got.grads.size(), want.grads.size()) << label;
        for (size_t i = 0; i < want.grads.size(); ++i) {
          EXPECT_EQ(got.grads[i], want.grads[i])
              << label << " " << want.grads[i].first;
        }
      }
    }
  }
}

TEST(Slime4RecTest, ScoreAllShapeIncludesPaddingColumn) {
  Slime4Rec model(SmallConfig());
  model.SetTraining(false);
  const Tensor scores = model.ScoreAll(SmallBatch(false));
  EXPECT_EQ(scores.shape(), (std::vector<int64_t>{3, 21}));
}

TEST(Slime4RecTest, LossIsFiniteAndBackpropagates) {
  Slime4Rec model(SmallConfig());
  autograd::Variable loss = model.Loss(SmallBatch(true));
  EXPECT_EQ(loss.numel(), 1);
  EXPECT_TRUE(std::isfinite(loss.value()[0]));
  loss.Backward();
  int64_t with_grad = 0;
  for (const auto& p : model.Parameters()) {
    if (p.has_grad()) ++with_grad;
  }
  // Every parameter participates (embeddings, filters, FFN, norms).
  EXPECT_EQ(with_grad, static_cast<int64_t>(model.Parameters().size()));
}

TEST(Slime4RecTest, ContrastiveTermChangesLoss) {
  Slime4RecConfig with_cl = SmallConfig();
  Slime4RecConfig no_cl = SmallConfig();
  no_cl.use_contrastive = false;
  Slime4Rec m1(with_cl);
  Slime4Rec m2(no_cl);
  // Same seeds -> same parameters; evaluate losses in eval mode so dropout
  // cannot differ.
  m1.SetTraining(false);
  m2.SetTraining(false);
  const data::Batch b = SmallBatch(true);
  const float l1 = m1.Loss(b).value()[0];
  const float l2 = m2.Loss(b).value()[0];
  EXPECT_GT(l1, l2);  // InfoNCE adds a positive term (lambda > 0)
}

TEST(Slime4RecTest, WithoutContrastiveNeedsNoPositives) {
  Slime4RecConfig c = SmallConfig();
  c.use_contrastive = false;
  Slime4Rec model(c);
  EXPECT_FALSE(model.needs_positives());
  autograd::Variable loss = model.Loss(SmallBatch(false));
  EXPECT_TRUE(std::isfinite(loss.value()[0]));
}

TEST(Slime4RecTest, NumLayersMatchesBlocks) {
  Slime4RecConfig c = SmallConfig();
  c.num_layers = 4;
  c.mixer.alpha = 0.2;
  Slime4Rec model(c);
  EXPECT_EQ(model.blocks().size(), 4u);
}

TEST(Slime4RecTest, OverfitsTinyDatasetWithAdam) {
  // Ten steps of Adam on a fixed batch must drive the loss down sharply —
  // the canonical end-to-end learn test for the whole stack (embedding,
  // FFT filters, FFN, CE, contrastive, optimizer).
  Slime4RecConfig c = SmallConfig();
  c.dropout = 0.0f;
  c.emb_dropout = 0.0f;
  Slime4Rec model(c);
  optim::Adam adam(model.Parameters(), {.lr = 0.02f});
  const data::Batch b = SmallBatch(true);
  const float initial = model.Loss(b).value()[0];
  float final_loss = initial;
  for (int step = 0; step < 30; ++step) {
    autograd::Variable loss = model.Loss(b);
    final_loss = loss.value()[0];
    loss.Backward();
    adam.Step();
  }
  EXPECT_LT(final_loss, initial * 0.5f);
}

TEST(Slime4RecTest, TrainedModelRanksTargetHigher) {
  Slime4RecConfig c = SmallConfig();
  c.dropout = 0.0f;
  c.emb_dropout = 0.0f;
  Slime4Rec model(c);
  optim::Adam adam(model.Parameters(), {.lr = 0.02f});
  const data::Batch b = SmallBatch(true);
  auto target_rank = [&](int64_t row) {
    model.SetTraining(false);
    const Tensor scores = model.ScoreAll(b);
    model.SetTraining(true);
    const int64_t cols = scores.size(1);
    const float ts = scores.At({row, b.targets[row]});
    int64_t above = 0;
    for (int64_t j = 1; j < cols; ++j) {
      if (scores.At({row, j}) > ts) ++above;
    }
    return above + 1;
  };
  for (int step = 0; step < 40; ++step) {
    autograd::Variable loss = model.Loss(b);
    loss.Backward();
    adam.Step();
  }
  // After overfitting, each target should rank at the very top.
  for (int64_t row = 0; row < b.size; ++row) {
    EXPECT_LE(target_rank(row), 2) << "row " << row;
  }
}

TEST(Slime4RecTest, DeterministicForFixedSeed) {
  Slime4Rec m1(SmallConfig());
  Slime4Rec m2(SmallConfig());
  m1.SetTraining(false);
  m2.SetTraining(false);
  const data::Batch b = SmallBatch(false);
  const Tensor s1 = m1.ScoreAll(b);
  const Tensor s2 = m2.ScoreAll(b);
  for (int64_t i = 0; i < s1.numel(); ++i) {
    EXPECT_FLOAT_EQ(s1[i], s2[i]);
  }
}

TEST(Slime4RecTest, FactoryNameAndConfigRoundTrip) {
  Slime4Rec model(SmallConfig());
  EXPECT_EQ(model.name(), "SLIME4Rec");
  EXPECT_TRUE(model.needs_positives());
  EXPECT_DOUBLE_EQ(model.slime_config().mixer.alpha, 0.5);
}

}  // namespace
}  // namespace core
}  // namespace slime
