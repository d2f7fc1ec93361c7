#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "autograd/gradcheck.h"
#include "compute/backend.h"
#include "compute/thread_pool.h"
#include "tensor/tensor_ops.h"
#include "autograd/ops.h"
#include "nn/attention.h"
#include "nn/conv.h"
#include "nn/dropout.h"
#include "nn/embedding.h"
#include "nn/feed_forward.h"
#include "nn/gru.h"
#include "nn/init.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "reference_ops.h"

namespace slime {
namespace nn {
namespace {

using autograd::Param;
using autograd::Sum;
using autograd::Variable;

TEST(ModuleTest, ParameterRegistrationIsRecursive) {
  Rng rng(1);
  FeedForward ffn(8, 0.1f, &rng);
  // w1 (w+b) + w2 (w+b) = 4 parameter tensors.
  EXPECT_EQ(ffn.Parameters().size(), 4u);
  const auto named = ffn.NamedParameters();
  ASSERT_EQ(named.size(), 4u);
  EXPECT_EQ(named[0].first, "w1.weight");
  EXPECT_EQ(named[1].first, "w1.bias");
}

TEST(ModuleTest, SetTrainingPropagates) {
  Rng rng(2);
  FeedForward ffn(4, 0.5f, &rng);
  EXPECT_TRUE(ffn.training());
  ffn.SetTraining(false);
  EXPECT_FALSE(ffn.training());
}

TEST(ModuleTest, ParameterCountIsExact) {
  Rng rng(3);
  Linear lin(5, 7, &rng);
  EXPECT_EQ(lin.ParameterCount(), 5 * 7 + 7);
  Linear nobias(5, 7, &rng, /*use_bias=*/false);
  EXPECT_EQ(nobias.ParameterCount(), 5 * 7);
}

TEST(LinearTest, KnownAffineMap) {
  Rng rng(4);
  Linear lin(2, 2, &rng);
  // Overwrite with known weights.
  lin.Parameters()[0].mutable_value() =
      Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  lin.Parameters()[1].mutable_value() = Tensor::FromVector({2}, {10, 20});
  Variable x = Param(Tensor::FromVector({1, 2}, {1, 1}));
  Variable y = lin.Forward(x);
  EXPECT_FLOAT_EQ(y.value()[0], 1 + 3 + 10);
  EXPECT_FLOAT_EQ(y.value()[1], 2 + 4 + 20);
}

TEST(LinearTest, ThreeDInputKeepsLeadingDims) {
  Rng rng(5);
  Linear lin(4, 6, &rng);
  Variable x = Param(Tensor::Randn({2, 3, 4}, &rng));
  Variable y = lin.Forward(x);
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{2, 3, 6}));
}

TEST(LinearTest, GradientsFlowToParameters) {
  Rng rng(6);
  Linear lin(3, 2, &rng);
  Variable x = Param(Tensor::Randn({4, 3}, &rng));
  Sum(lin.Forward(x)).Backward();
  for (const auto& p : lin.Parameters()) {
    EXPECT_TRUE(p.has_grad());
  }
}

TEST(EmbeddingTest, LookupMatchesRows) {
  Rng rng(7);
  Embedding emb(5, 3, &rng);
  Variable e = emb.Forward({2, 0, 2}, {3});
  EXPECT_EQ(e.shape(), (std::vector<int64_t>{3, 3}));
  for (int64_t j = 0; j < 3; ++j) {
    EXPECT_FLOAT_EQ(e.value()[j], emb.weight().value().At({2, j}));
    EXPECT_FLOAT_EQ(e.value()[3 + j], emb.weight().value().At({0, j}));
    EXPECT_FLOAT_EQ(e.value()[6 + j], e.value()[j]);
  }
}

TEST(LayerNormTest, NormalizesLastDim) {
  LayerNorm ln(4);
  Variable x = Param(Tensor::FromVector({2, 4}, {1, 2, 3, 4, 10, 20, 30, 40}));
  Variable y = ln.Forward(x);
  // With gamma=1, beta=0 every row has mean 0 and variance 1.
  for (int64_t r = 0; r < 2; ++r) {
    double mean = 0.0;
    double var = 0.0;
    for (int64_t i = 0; i < 4; ++i) mean += y.value()[r * 4 + i];
    mean /= 4;
    for (int64_t i = 0; i < 4; ++i) {
      const double c = y.value()[r * 4 + i] - mean;
      var += c * c;
    }
    var /= 4;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(DropoutTest, EvalModePassesThrough) {
  Rng rng(8);
  Dropout drop(0.9f);
  drop.SetTraining(false);
  Variable x = Param(Tensor::Ones({100}));
  Variable y = drop.Forward(x, &rng);
  for (int64_t i = 0; i < 100; ++i) EXPECT_FLOAT_EQ(y.value()[i], 1.0f);
}

TEST(FeedForwardTest, ShapePreservedAndNonLinear) {
  Rng rng(9);
  FeedForward ffn(6, 0.0f, &rng);
  ffn.SetTraining(false);
  Variable x = Param(Tensor::Randn({2, 5, 6}, &rng));
  Variable y = ffn.Forward(x, &rng);
  EXPECT_EQ(y.shape(), x.shape());
  // Non-linearity: f(2x) != 2*f(x) in general.
  Variable x2 = Param(ops::MulScalar(x.value(), 2.0f));
  Variable y2 = ffn.Forward(x2, &rng);
  double diff = 0.0;
  for (int64_t i = 0; i < y.numel(); ++i) {
    diff += std::abs(y2.value()[i] - 2.0f * y.value()[i]);
  }
  EXPECT_GT(diff / y.numel(), 1e-4);
}

TEST(AttentionTest, CausalMaskBlocksFuture) {
  const Tensor mask = CausalMask(4);
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      if (j > i) {
        EXPECT_LT(mask.At({i, j}), -1e8f);
      } else {
        EXPECT_FLOAT_EQ(mask.At({i, j}), 0.0f);
      }
    }
  }
}

TEST(AttentionTest, OutputShapeAndGradients) {
  Rng rng(10);
  MultiHeadSelfAttention attn(8, 2, 0.0f, &rng);
  attn.SetTraining(false);
  Variable x = Param(Tensor::Randn({2, 5, 8}, &rng));
  Variable y = attn.Forward(x, true, Tensor(), &rng);
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{2, 5, 8}));
  Sum(y).Backward();
  for (const auto& p : attn.Parameters()) EXPECT_TRUE(p.has_grad());
}

TEST(AttentionTest, CausalityFuturePositionDoesNotAffectPast) {
  Rng rng(11);
  MultiHeadSelfAttention attn(4, 1, 0.0f, &rng);
  attn.SetTraining(false);
  Tensor base = Tensor::Randn({1, 4, 4}, &rng);
  Variable y1 = attn.Forward(Param(base.Clone()), true, Tensor(), &rng);
  // Perturb the last position only.
  Tensor mod = base.Clone();
  for (int64_t j = 0; j < 4; ++j) mod.At({0, 3, j}) += 5.0f;
  Variable y2 = attn.Forward(Param(mod), true, Tensor(), &rng);
  // Outputs at positions 0..2 must be identical; position 3 must change.
  for (int64_t t = 0; t < 3; ++t) {
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(y1.value().At({0, t, j}), y2.value().At({0, t, j}), 1e-5);
    }
  }
  double last_diff = 0.0;
  for (int64_t j = 0; j < 4; ++j) {
    last_diff += std::abs(y1.value().At({0, 3, j}) - y2.value().At({0, 3, j}));
  }
  EXPECT_GT(last_diff, 1e-3);
}

TEST(AttentionTest, BidirectionalSeesFuture) {
  Rng rng(12);
  MultiHeadSelfAttention attn(4, 1, 0.0f, &rng);
  attn.SetTraining(false);
  Tensor base = Tensor::Randn({1, 4, 4}, &rng);
  Variable y1 = attn.Forward(Param(base.Clone()), false, Tensor(), &rng);
  Tensor mod = base.Clone();
  for (int64_t j = 0; j < 4; ++j) mod.At({0, 3, j}) += 5.0f;
  Variable y2 = attn.Forward(Param(mod), false, Tensor(), &rng);
  double first_diff = 0.0;
  for (int64_t j = 0; j < 4; ++j) {
    first_diff +=
        std::abs(y1.value().At({0, 0, j}) - y2.value().At({0, 0, j}));
  }
  EXPECT_GT(first_diff, 1e-4);
}

TEST(GruTest, ShapesAndLastState) {
  Rng rng(13);
  Gru gru(3, 5, &rng);
  Variable x = Param(Tensor::Randn({2, 4, 3}, &rng));
  Variable all = gru.Forward(x);
  EXPECT_EQ(all.shape(), (std::vector<int64_t>{2, 4, 5}));
  Variable last = gru.ForwardLast(x);
  EXPECT_EQ(last.shape(), (std::vector<int64_t>{2, 5}));
  for (int64_t b = 0; b < 2; ++b) {
    for (int64_t j = 0; j < 5; ++j) {
      EXPECT_FLOAT_EQ(last.value().At({b, j}), all.value().At({b, 3, j}));
    }
  }
}

TEST(GruTest, GradientsFlowThroughTime) {
  Rng rng(14);
  Gru gru(2, 3, &rng);
  Variable x = Param(Tensor::Randn({1, 6, 2}, &rng));
  Sum(gru.ForwardLast(x)).Backward();
  EXPECT_TRUE(x.has_grad());
  // The earliest timestep must receive gradient through the recurrence.
  double early = 0.0;
  for (int64_t j = 0; j < 2; ++j) {
    early += std::abs(x.grad().At({0, 0, j}));
  }
  EXPECT_GT(early, 0.0);
  for (const auto& p : gru.Parameters()) EXPECT_TRUE(p.has_grad());
}

TEST(GruTest, GradcheckThroughRecurrence) {
  Rng rng(15);
  Gru gru(2, 2, &rng);
  Variable x = Param(Tensor::Randn({1, 3, 2}, &rng, 0.5f));
  auto params = gru.Parameters();
  std::vector<Variable> inputs = {x};
  const auto result = autograd::CheckGradients(
      [&gru](const std::vector<Variable>& in) {
        return Sum(gru.ForwardLast(in[0]));
      },
      inputs, 1e-3, 3e-2);
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(ConvTest, HorizontalBankOutputDim) {
  Rng rng(16);
  HorizontalConvBank bank(6, {2, 3}, 4, &rng);
  EXPECT_EQ(bank.output_dim(), 8);
  Variable x = Param(Tensor::Randn({3, 7, 6}, &rng));
  Variable y = bank.Forward(x);
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{3, 8}));
}

TEST(ConvTest, VerticalConvMatchesManualWeightedSum) {
  Rng rng(17);
  VerticalConv vert(3, 1, &rng);
  vert.Parameters()[0].mutable_value() =
      Tensor::FromVector({1, 3}, {1, 2, 3});
  Variable x = Param(Tensor::FromVector({1, 3, 2}, {1, 0, 0, 1, 1, 1}));
  Variable y = vert.Forward(x);
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{1, 2}));
  // column 0: 1*1 + 2*0 + 3*1 = 4; column 1: 1*0 + 2*1 + 3*1 = 5.
  EXPECT_FLOAT_EQ(y.value()[0], 4.0f);
  EXPECT_FLOAT_EQ(y.value()[1], 5.0f);
}

TEST(InitTest, XavierBoundsRespected) {
  Rng rng(18);
  const Tensor w = XavierUniform({64, 64}, &rng);
  const float bound = std::sqrt(6.0f / 128.0f);
  for (int64_t i = 0; i < w.numel(); ++i) {
    EXPECT_LE(std::abs(w[i]), bound);
  }
}

// ---- Under a NoGradScope, Linear adds its bias into the matmul output and
// FeedForward's GELU runs over its own input. Outputs must keep the
// graph-recording path's bits, and the caller's input must stay intact.

struct BackendGuard {
  ~BackendGuard() { compute::SetKernelBackend("scalar").value(); }
};

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

TEST(NoGradReuseTest, LinearFeedForwardLayerNormMatchGraphBitForBit) {
  BackendGuard guard;
  for (const auto& backend : compute::AvailableKernelBackends()) {
    compute::SetKernelBackend(backend).value();
    Rng rng(71);
    Linear lin(13, 7, &rng);
    lin.Parameters()[1].mutable_value() = Tensor::Randn({7}, &rng);
    FeedForward ffn(13, 0.1f, &rng);
    ffn.SetTraining(false);
    for (auto& p : ffn.Parameters()) {
      if (p.value().dim() == 1) p.mutable_value() = Tensor::Randn({13}, &rng);
    }
    LayerNorm norm(13);
    const Tensor x3 = Tensor::Randn({5, 40, 13}, &rng);
    const Tensor x2 = Tensor::Randn({9, 13}, &rng);
    const Variable in3 = autograd::Constant(x3.Clone());
    const Variable in2 = autograd::Constant(x2.Clone());
    const Tensor lin3 = lin.Forward(in3).value();
    const Tensor lin2 = lin.Forward(in2).value();
    const Tensor ffn3 = ffn.Forward(in3, &rng).value();
    const Tensor norm3 = norm.Forward(in3).value();
    for (int threads : {1, 2, 8}) {
      compute::ComputeContext ctx(threads);
      const std::string label = backend + " threads=" + std::to_string(threads);
      autograd::NoGradScope no_grad;
      EXPECT_TRUE(BitEqual(lin.Forward(in3).value(), lin3)) << label;
      EXPECT_TRUE(BitEqual(lin.Forward(in2).value(), lin2)) << label;
      EXPECT_TRUE(BitEqual(ffn.Forward(in3, &rng).value(), ffn3)) << label;
      EXPECT_TRUE(BitEqual(norm.Forward(in3).value(), norm3)) << label;
      EXPECT_TRUE(BitEqual(in3.value(), x3)) << label;
      EXPECT_TRUE(BitEqual(in2.value(), x2)) << label;
    }
  }
}

// ---- FeedForward runs GELU, the inner dropout and W2 as one op
// (autograd::GeluDropoutMatMul). Its outputs and gradients must be the bits
// of the composed chain it replaced (reference::FeedForwardChain), also when
// several passes share one Backward().

struct FfnRun {
  std::vector<Tensor> outputs;
  std::vector<Tensor> grads;  // dx, dW1, db1, dW2, db2
};

FfnRun RunFeedForward(bool fused, float p, int passes) {
  Rng init(81);
  FeedForward ffn(13, p, &init, /*hidden_multiplier=*/2);
  const std::vector<Variable> params = ffn.Parameters();
  for (Variable v : params) {
    if (v.value().dim() == 1) {
      v.mutable_value() = Tensor::Randn(v.shape(), &init);
    }
  }
  Variable x = Param(Tensor::Randn({5, 40, 13}, &init));
  Rng rng(82);
  FfnRun run;
  Variable loss;
  for (int i = 0; i < passes; ++i) {
    Variable y = fused ? ffn.Forward(x, &rng)
                       : reference::FeedForwardChain(x, params, p,
                                                     /*training=*/true, &rng);
    Variable term = Sum(autograd::MulConst(y, Tensor::Randn(y.shape(), &init)));
    loss = i == 0 ? term : autograd::Add(loss, term);
    run.outputs.push_back(y.value());
  }
  loss.Backward();
  run.grads.push_back(x.grad());
  for (const Variable& v : params) run.grads.push_back(v.grad());
  return run;
}

TEST(FeedForwardTest, FusedOpEqualsComposedChainBitForBit) {
  BackendGuard guard;
  for (const auto& backend : compute::AvailableKernelBackends()) {
    compute::SetKernelBackend(backend).value();
    for (const float p : {0.0f, 0.1f}) {
      for (const int passes : {1, 3}) {
        for (const int threads : {1, 2, 8}) {
          compute::ComputeContext ctx(threads);
          const std::string label =
              backend + " p=" + std::to_string(p) + " passes=" +
              std::to_string(passes) + " threads=" + std::to_string(threads);
          const FfnRun fused = RunFeedForward(true, p, passes);
          const FfnRun chain = RunFeedForward(false, p, passes);
          for (int i = 0; i < passes; ++i) {
            EXPECT_TRUE(BitEqual(fused.outputs[i], chain.outputs[i]))
                << label << " pass " << i;
          }
          const char* names[] = {"dx", "dW1", "db1", "dW2", "db2"};
          for (int i = 0; i < 5; ++i) {
            EXPECT_TRUE(BitEqual(fused.grads[i], chain.grads[i]))
                << label << " " << names[i];
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace nn
}  // namespace slime
