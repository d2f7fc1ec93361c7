#include "autograd/ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <thread>

#include "autograd/gradcheck.h"
#include "autograd/variable.h"
#include "compute/backend.h"
#include "compute/thread_pool.h"
#include "fft/spectral_ops.h"
#include "optim/adam.h"
#include "tensor/tensor_ops.h"

namespace slime {
namespace autograd {
namespace {

using Fn = std::function<Variable(const std::vector<Variable>&)>;

void ExpectGradOk(const Fn& fn, std::vector<Variable> inputs,
                  double tol = 2e-2) {
  const GradCheckResult r = CheckGradients(fn, std::move(inputs), 1e-3, tol);
  EXPECT_TRUE(r.ok) << r.message << " (max_abs_err=" << r.max_abs_err
                    << ", max_rel_err=" << r.max_rel_err << ")";
}

Variable RandParam(std::vector<int64_t> shape, uint64_t seed,
                   float scale = 1.0f) {
  Rng rng(seed);
  return Param(Tensor::Randn(std::move(shape), &rng, scale));
}

TEST(AutogradTest, BackwardOnScalarAccumulatesOnes) {
  Variable x = Param(Tensor::Scalar(2.0f));
  Variable y = MulScalar(x, 3.0f);
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 3.0f);
}

TEST(AutogradTest, GradAccumulatesAcrossUses) {
  Variable x = Param(Tensor::Scalar(2.0f));
  // y = x * x uses x twice: dy/dx = 2x = 4.
  Variable y = Mul(x, x);
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 4.0f);
}

TEST(AutogradTest, ZeroGradClears) {
  Variable x = Param(Tensor::Scalar(1.0f));
  Variable y = MulScalar(x, 5.0f);
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 5.0f);
  x.ZeroGrad();
  EXPECT_FALSE(x.has_grad());
}

TEST(AutogradTest, ConstantsReceiveNoGradient) {
  Variable c = Constant(Tensor::Scalar(3.0f));
  Variable x = Param(Tensor::Scalar(2.0f));
  Variable y = Mul(c, x);
  y.Backward();
  EXPECT_FALSE(c.has_grad());
  EXPECT_FLOAT_EQ(x.grad()[0], 3.0f);
}

TEST(AutogradTest, DiamondGraphTopologicalOrder) {
  // z = (x*2) + (x*3); dz/dx = 5.
  Variable x = Param(Tensor::Scalar(1.0f));
  Variable a = MulScalar(x, 2.0f);
  Variable b = MulScalar(x, 3.0f);
  Variable z = Add(a, b);
  z.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 5.0f);
}

TEST(AutogradGradcheck, AddBroadcast) {
  ExpectGradOk(
      [](const std::vector<Variable>& in) {
        return Sum(Add(in[0], in[1]));
      },
      {RandParam({2, 3}, 1), RandParam({3}, 2)});
}

TEST(AutogradGradcheck, SubBroadcastColumn) {
  ExpectGradOk(
      [](const std::vector<Variable>& in) {
        return Sum(Sub(in[0], in[1]));
      },
      {RandParam({2, 3}, 3), RandParam({2, 1}, 4)});
}

TEST(AutogradGradcheck, MulBroadcast) {
  ExpectGradOk(
      [](const std::vector<Variable>& in) {
        return Sum(Mul(in[0], in[1]));
      },
      {RandParam({2, 3}, 5), RandParam({1, 3}, 6)});
}

TEST(AutogradGradcheck, DivisionAwayFromZero) {
  Rng rng(7);
  Tensor denom = Tensor::RandUniform({2, 3}, &rng, 1.0f, 2.0f);
  ExpectGradOk(
      [](const std::vector<Variable>& in) {
        return Sum(Div(in[0], in[1]));
      },
      {RandParam({2, 3}, 8), Param(denom)});
}

TEST(AutogradGradcheck, MatMul) {
  ExpectGradOk(
      [](const std::vector<Variable>& in) {
        return Sum(MatMul(in[0], in[1]));
      },
      {RandParam({3, 4}, 9), RandParam({4, 2}, 10)});
}

TEST(AutogradGradcheck, MatMulTransB) {
  ExpectGradOk(
      [](const std::vector<Variable>& in) {
        return Sum(MatMulTransB(in[0], in[1]));
      },
      {RandParam({3, 4}, 11), RandParam({5, 4}, 12)});
}

TEST(AutogradGradcheck, BatchMatMul) {
  ExpectGradOk(
      [](const std::vector<Variable>& in) {
        return Sum(BatchMatMul(in[0], in[1]));
      },
      {RandParam({2, 3, 4}, 13), RandParam({2, 4, 2}, 14)});
}

TEST(AutogradGradcheck, BatchMatMulTransB) {
  ExpectGradOk(
      [](const std::vector<Variable>& in) {
        return Sum(BatchMatMulTransB(in[0], in[1]));
      },
      {RandParam({2, 3, 4}, 15), RandParam({2, 5, 4}, 16)});
}

TEST(AutogradGradcheck, BroadcastMatMul) {
  ExpectGradOk(
      [](const std::vector<Variable>& in) {
        return Sum(BroadcastMatMul(in[0], in[1]));
      },
      {RandParam({3, 4}, 17), RandParam({2, 4, 5}, 18)});
}

TEST(AutogradGradcheck, GeluDropoutMatMul) {
  Rng crng(23);
  const Tensor c = Tensor::Randn({12, 3}, &crng);
  for (const float p : {0.0f, 0.3f}) {
    ExpectGradOk(
        [&c, p](const std::vector<Variable>& in) {
          Rng rng(24);  // the same mask on every call
          return Sum(MulConst(GeluDropoutMatMul(in[0], in[1], p, true, &rng),
                              c));
        },
        {RandParam({3, 4, 5}, 25), RandParam({5, 3}, 26)});
  }
}

TEST(AutogradGradcheck, UnaryNonlinearities) {
  ExpectGradOk(
      [](const std::vector<Variable>& in) { return Sum(Gelu(in[0])); },
      {RandParam({2, 5}, 19)});
  ExpectGradOk(
      [](const std::vector<Variable>& in) { return Sum(Sigmoid(in[0])); },
      {RandParam({2, 5}, 20)});
  ExpectGradOk(
      [](const std::vector<Variable>& in) { return Sum(Tanh(in[0])); },
      {RandParam({2, 5}, 21)});
  ExpectGradOk(
      [](const std::vector<Variable>& in) { return Sum(Exp(in[0])); },
      {RandParam({2, 5}, 22, 0.5f)});
}

TEST(AutogradGradcheck, LogAndSqrtPositiveDomain) {
  Rng rng(23);
  ExpectGradOk(
      [](const std::vector<Variable>& in) { return Sum(Log(in[0])); },
      {Param(Tensor::RandUniform({2, 4}, &rng, 0.5f, 2.0f))});
  ExpectGradOk(
      [](const std::vector<Variable>& in) { return Sum(Sqrt(in[0])); },
      {Param(Tensor::RandUniform({2, 4}, &rng, 0.5f, 2.0f))});
}

TEST(AutogradGradcheck, ReluAwayFromKink) {
  Rng rng(24);
  Tensor t = Tensor::Randn({2, 5}, &rng);
  // Keep values away from 0 so finite differences are valid.
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (std::abs(t[i]) < 0.1f) t[i] = 0.5f;
  }
  ExpectGradOk(
      [](const std::vector<Variable>& in) { return Sum(Relu(in[0])); },
      {Param(t)});
}

TEST(AutogradGradcheck, ReshapeSliceConcat) {
  ExpectGradOk(
      [](const std::vector<Variable>& in) {
        return Sum(Reshape(in[0], {6, 2}));
      },
      {RandParam({3, 4}, 25)});
  ExpectGradOk(
      [](const std::vector<Variable>& in) {
        return Sum(Slice(in[0], 1, 1, 3));
      },
      {RandParam({2, 4, 3}, 26)});
  ExpectGradOk(
      [](const std::vector<Variable>& in) {
        return Sum(Concat({in[0], in[1]}, 1));
      },
      {RandParam({2, 3}, 27), RandParam({2, 2}, 28)});
}

TEST(AutogradGradcheck, Reductions) {
  ExpectGradOk(
      [](const std::vector<Variable>& in) { return Mean(in[0]); },
      {RandParam({3, 4}, 30)});
  ExpectGradOk(
      [](const std::vector<Variable>& in) {
        return Sum(Mul(SumAxis(in[0], 1, true), SumAxis(in[0], 1, true)));
      },
      {RandParam({2, 3, 2}, 31)});
}

TEST(AutogradGradcheck, Softmax) {
  ExpectGradOk(
      [](const std::vector<Variable>& in) {
        // Weighted sum to make the gradient non-uniform.
        Rng rng(100);
        Tensor w = Tensor::Randn({2, 5}, &rng);
        return Sum(MulConst(Softmax(in[0]), w));
      },
      {RandParam({2, 5}, 32)});
}

TEST(AutogradGradcheck, CrossEntropy) {
  const std::vector<int64_t> targets = {1, 3, 0};
  ExpectGradOk(
      [targets](const std::vector<Variable>& in) {
        return CrossEntropy(in[0], targets);
      },
      {RandParam({3, 5}, 34)});
}

TEST(AutogradGradcheck, CrossEntropyWithIgnoredRows) {
  const std::vector<int64_t> targets = {1, -100, 2};
  ExpectGradOk(
      [targets](const std::vector<Variable>& in) {
        return CrossEntropy(in[0], targets, -100);
      },
      {RandParam({3, 4}, 35)});
}

TEST(AutogradGradcheck, EmbeddingLookupScatterAdd) {
  const std::vector<int64_t> ids = {0, 2, 2, 1};
  ExpectGradOk(
      [ids](const std::vector<Variable>& in) {
        Rng rng(102);
        Tensor w = Tensor::Randn({2, 2, 3}, &rng);
        return Sum(MulConst(EmbeddingLookup(in[0], ids, {2, 2}), w));
      },
      {RandParam({4, 3}, 36)});
}

TEST(AutogradGradcheck, LayerNormAllInputs) {
  ExpectGradOk(
      [](const std::vector<Variable>& in) {
        Rng rng(103);
        Tensor w = Tensor::Randn({2, 4}, &rng);
        return Sum(MulConst(LayerNorm(in[0], in[1], in[2]), w));
      },
      {RandParam({2, 4}, 37), RandParam({4}, 38, 0.3f),
       RandParam({4}, 39, 0.3f)},
      4e-2);
}

TEST(AutogradGradcheck, MaxPoolAxis1) {
  ExpectGradOk(
      [](const std::vector<Variable>& in) {
        return Sum(MaxPoolAxis1(in[0]));
      },
      {RandParam({2, 4, 3}, 40)});
}

TEST(AutogradGradcheck, HorizontalConv) {
  ExpectGradOk(
      [](const std::vector<Variable>& in) {
        return Sum(HorizontalConv(in[0], in[1], in[2]));
      },
      {RandParam({2, 5, 3}, 41), RandParam({2, 2, 3}, 42),
       RandParam({2}, 43)});
}

TEST(AutogradTest, CrossEntropyMatchesManual) {
  // Two rows, uniform logits: loss = log(V).
  Variable logits = Param(Tensor::Zeros({2, 4}));
  Variable loss = CrossEntropy(logits, {0, 3});
  EXPECT_NEAR(loss.value()[0], std::log(4.0), 1e-5);
}

TEST(AutogradTest, DropoutEvalIsIdentity) {
  Rng rng(44);
  Variable x = RandParam({3, 3}, 45);
  Variable y = Dropout(x, 0.5f, /*training=*/false, &rng);
  EXPECT_EQ(y.node().get(), x.node().get());
}

TEST(AutogradTest, DropoutTrainScalesSurvivors) {
  Rng rng(46);
  Variable x = Param(Tensor::Ones({4, 25, 10}));
  Variable y = Dropout(x, 0.25f, /*training=*/true, &rng);
  ASSERT_EQ(y.shape(), x.shape());
  int64_t zeros = 0;
  double sum = 0.0;
  for (int64_t i = 0; i < 1000; ++i) {
    const float v = y.value()[i];
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0f / 0.75f, 1e-5);
      sum += v;
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 1000.0, 0.25, 0.06);
  EXPECT_NEAR(sum / 1000.0, 1.0, 0.1);
}

bool SameRngState(const RngState& a, const RngState& b) {
  return std::memcmp(a.s, b.s, sizeof(a.s)) == 0 &&
         a.have_cached_gaussian == b.have_cached_gaussian &&
         a.cached_gaussian == b.cached_gaussian;
}

TEST(AutogradTest, DropoutMatchesFloatMaskBitForBit) {
  // Reference: the float mask of {0, 1/keep} drawn from a twin generator
  // (one threshold test per element, in order), applied with ops::Mul.
  const float p = 0.3f;
  const float keep = 1.0f - p;
  const uint64_t threshold =
      static_cast<uint64_t>(keep * 18446744073709551616.0);
  for (int64_t n : {105, 1000, 4096}) {
    Rng rng(70 + n), twin(70 + n);
    Variable x = RandParam({n}, 71);
    Variable y = Dropout(x, p, /*training=*/true, &rng);
    Tensor mask({n});
    for (int64_t i = 0; i < n; ++i)
      mask[i] = twin.NextUint64() < threshold ? 1.0f / keep : 0.0f;
    EXPECT_TRUE(SameRngState(rng.state(), twin.state())) << n;
    const Tensor y_ref = ops::Mul(x.value(), mask);
    EXPECT_EQ(std::memcmp(y.value().data(), y_ref.data(), n * sizeof(float)),
              0)
        << n;
    Rng grng(72);
    const Tensor g = Tensor::Randn({n}, &grng);
    Sum(Mul(y, Constant(g))).Backward();
    const Tensor dx_ref = ops::Mul(g, mask);
    EXPECT_EQ(std::memcmp(x.grad().data(), dx_ref.data(), n * sizeof(float)),
              0)
        << n;
  }
}

TEST(AutogradTest, DropoutTinyRateKeepsEverything) {
  // keep = 1 - 1e-9 rounds to 1: every element survives at scale 1, and
  // the generator still advances one draw per element.
  const int64_t n = 300;
  Rng rng(73), twin(73);
  Variable x = RandParam({3, n / 3}, 74);
  Variable y = Dropout(x, 1e-9f, /*training=*/true, &rng);
  EXPECT_EQ(std::memcmp(y.value().data(), x.value().data(), n * sizeof(float)),
            0);
  for (int64_t i = 0; i < n; ++i) twin.NextUint64();
  EXPECT_TRUE(SameRngState(rng.state(), twin.state()));
}

/// Every `positions`-th row of `t` read as rows of `row` floats, starting at
/// row positions - 1: the last position of each sequence of a (B, N, row)
/// tensor, as one contiguous (B, row) block.
Tensor LastPositions(const Tensor& t, int64_t positions, int64_t row) {
  const int64_t b = t.numel() / (positions * row);
  Tensor out({b, row});
  for (int64_t i = 0; i < b; ++i) {
    std::memcpy(out.data() + i * row,
                t.data() + ((i + 1) * positions - 1) * row,
                row * sizeof(float));
  }
  return out;
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// `weights` on row N-1 of each sequence of a (B, N, row) tensor, zeros on
/// the other rows: the gradient a full op receives when only its last row
/// is read.
Tensor OnLastPositions(const Tensor& weights, int64_t positions, int64_t row) {
  const int64_t b = weights.numel() / row;
  Tensor out = Tensor::Zeros({b * positions, row});
  for (int64_t i = 0; i < b; ++i) {
    std::memcpy(out.data() + ((i + 1) * positions - 1) * row,
                weights.data() + i * row, row * sizeof(float));
  }
  return out;
}

TEST(AutogradTest, TailOpsDrawTheFullMaskAndKeepItsLastRow) {
  // Dropout and GeluDropoutMatMul on a (B, 1, d) tail with N positions
  // drawn, against the last row of the same op on (B, N, d) under a twin
  // generator: output, input gradient, weight gradient and generator state
  // all identical. The element counts are not multiples of 64, so kept
  // rows straddle mask words.
  struct BackendGuard {
    ~BackendGuard() { compute::SetKernelBackend("scalar").value(); }
  } guard;
  const float p = 0.3f;
  struct Shape {
    int64_t b, n, d;
  };
  for (const auto& backend : compute::AvailableKernelBackends()) {
    compute::SetKernelBackend(backend).value();
    for (const Shape s : {Shape{3, 7, 13}, Shape{5, 11, 29}}) {
      for (const int threads : {1, 2, 8}) {
        compute::ComputeContext ctx(threads);
        const std::string label =
            backend + " B=" + std::to_string(s.b) + " N=" +
            std::to_string(s.n) + " d=" + std::to_string(s.d) +
            " threads=" + std::to_string(threads);
        Rng init(90);
        const Tensor x_full = Tensor::Randn({s.b, s.n, s.d}, &init);
        const Tensor x_last = LastPositions(x_full, s.n, s.d)
                                  .Reshape({s.b, 1, s.d});
        const Tensor w = Tensor::Randn({s.d, 6}, &init);
        const Tensor g_drop = Tensor::Randn({s.b, 1, s.d}, &init);
        const Tensor g_mm = Tensor::Randn({s.b, 6}, &init);

        {  // Dropout
          Rng rng(91), twin(91);
          Variable full = Param(x_full.Clone());
          Variable tail = Param(x_last.Clone());
          Variable y_full = Dropout(full, p, true, &rng);
          Variable y_tail = Dropout(tail, p, true, &twin, s.n);
          EXPECT_TRUE(SameRngState(twin.state(), rng.state())) << label;
          EXPECT_TRUE(SameBits(y_tail.value(),
                               LastPositions(y_full.value(), s.n, s.d)))
              << label;
          Sum(MulConst(y_full, OnLastPositions(g_drop, s.n, s.d)
                                   .Reshape({s.b, s.n, s.d})))
              .Backward();
          Sum(MulConst(y_tail, g_drop)).Backward();
          EXPECT_TRUE(
              SameBits(tail.grad(), LastPositions(full.grad(), s.n, s.d)))
              << label;
        }
        {  // GeluDropoutMatMul
          Rng rng(92), twin(92);
          Variable full = Param(x_full.Clone());
          Variable tail = Param(x_last.Clone());
          Variable w_full = Param(w.Clone());
          Variable w_tail = Param(w.Clone());
          Variable y_full = GeluDropoutMatMul(full, w_full, p, true, &rng);
          Variable y_tail =
              GeluDropoutMatMul(tail, w_tail, p, true, &twin, s.n);
          EXPECT_TRUE(SameRngState(twin.state(), rng.state())) << label;
          EXPECT_TRUE(
              SameBits(y_tail.value(), LastPositions(y_full.value(), s.n, 6)))
              << label;
          Sum(MulConst(y_full, OnLastPositions(g_mm, s.n, 6))).Backward();
          Sum(MulConst(y_tail, g_mm)).Backward();
          EXPECT_TRUE(
              SameBits(tail.grad(), LastPositions(full.grad(), s.n, s.d)))
              << label;
          EXPECT_TRUE(SameBits(w_tail.grad(), w_full.grad())) << label;
        }
      }
    }
  }
}

TEST(AutogradTest, MulConstBackwardUsesMask) {
  Variable x = Param(Tensor::Ones({3}));
  Tensor mask = Tensor::FromVector({3}, {0.0f, 2.0f, 1.0f});
  Variable y = Sum(MulConst(x, mask));
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
  EXPECT_FLOAT_EQ(x.grad()[1], 2.0f);
  EXPECT_FLOAT_EQ(x.grad()[2], 1.0f);
}

TEST(AutogradTest, BackwardConsumesGraphButKeepsLeafGrads) {
  // y = sum((x w)^2): dx = 2 h w^T, dw = x^T 2h with h = x w.
  Variable x = RandParam({2, 3}, 47);
  Variable w = RandParam({3, 2}, 48);
  Tensor h;
  Tensor sq;
  std::shared_ptr<Node> hn;
  Variable y;
  {
    Variable hv = MatMul(x, w);
    Variable sqv = Mul(hv, hv);
    h = hv.value();
    sq = sqv.value();
    hn = hv.node();
    y = Sum(sqv);
  }
  y.Backward();
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t k = 0; k < 3; ++k) {
      float dx = 0.0f;
      for (int64_t j = 0; j < 2; ++j) {
        dx += 2.0f * h[i * 2 + j] * w.value()[k * 2 + j];
      }
      EXPECT_NEAR(x.grad()[i * 3 + k], dx, 1e-5f);
    }
  }
  for (int64_t k = 0; k < 3; ++k) {
    for (int64_t j = 0; j < 2; ++j) {
      float dw = 0.0f;
      for (int64_t i = 0; i < 2; ++i) {
        dw += x.value()[i * 3 + k] * 2.0f * h[i * 2 + j];
      }
      EXPECT_NEAR(w.grad()[k * 2 + j], dw, 1e-5f);
    }
  }
  // Op outputs gave up their gradient and closure once propagated.
  EXPECT_FALSE(hn->grad.defined());
  EXPECT_FALSE(y.has_grad());
  EXPECT_FALSE(hn->backward_fn);
  EXPECT_FALSE(y.node()->backward_fn);
  // With the loss still alive, no intermediate's storage survives: the
  // square died with its Variable, h with the Mul closure that read it.
  EXPECT_TRUE(h.UniqueStorage());
  EXPECT_TRUE(sq.UniqueStorage());
  EXPECT_EQ(hn->shape, (std::vector<int64_t>{2, 2}));
}

TEST(AutogradDeathTest, SecondBackwardOnConsumedGraphDies) {
  Variable x = Param(Tensor::Scalar(2.0f));
  Variable y = MulScalar(Mul(x, x), 3.0f);
  y.Backward();
  EXPECT_DEATH(y.Backward(), "already consumed");
  // A new loss over a consumed subgraph would silently starve x.
  Variable h = Mul(x, x);
  MulScalar(h, 2.0f).Backward();
  Variable z = MulScalar(h, 5.0f);
  EXPECT_DEATH(z.Backward(), "already consumed");
}

TEST(GraphRetentionTest, OutputNoBackwardReadsDiesWithItsVariable) {
  // Neither MulScalar's nor Irfft's backward reads its input, so the graph
  // edge to that input keeps no value alive.
  Variable x = RandParam({2, 4, 3}, 60);
  Variable a = Add(x, x);
  const Tensor added = a.value();
  Variable y = MulScalar(a, 2.0f);
  a = Variable();
  EXPECT_TRUE(added.UniqueStorage());
  fft::SpectralPair spectrum = fft::Rfft(y);
  const Tensor re = spectrum.re.value();
  const Tensor im = spectrum.im.value();
  Variable loss = Sum(fft::Irfft(spectrum, 4));
  spectrum = {};
  y = Variable();
  EXPECT_TRUE(re.UniqueStorage());
  EXPECT_TRUE(im.UniqueStorage());
  loss.Backward();
  // irfft(rfft(y)) = y and y = 4x, so every element of dx is 4.
  for (int64_t i = 0; i < x.numel(); ++i) EXPECT_NEAR(x.grad()[i], 4.0f, 1e-5f);
}

TEST(GraphRetentionTest, ValueABackwardReadsLivesUntilBackward) {
  Variable x = RandParam({3, 4}, 61);
  Variable w = RandParam({4, 2}, 62);
  Variable h = MulScalar(x, 1.5f);
  Variable a = MulScalar(x, 0.5f);
  const Tensor gelu_in = h.value();
  const Tensor matmul_a = a.value();
  // Gelu's backward reads its input; MatMul's dW reads A.
  Variable loss = Add(Sum(Gelu(h)), Sum(MatMul(a, w)));
  h = Variable();
  a = Variable();
  EXPECT_FALSE(gelu_in.UniqueStorage());
  EXPECT_FALSE(matmul_a.UniqueStorage());
  loss.Backward();
  EXPECT_TRUE(gelu_in.UniqueStorage());
  EXPECT_TRUE(matmul_a.UniqueStorage());
  EXPECT_TRUE(w.has_grad());
}

TEST(GraphRetentionDeathTest, WrongShapeGradientIntoReleasedOutputNamesBoth) {
  Variable x = RandParam({2, 3}, 65);
  std::shared_ptr<Node> hn = MulScalar(x, 2.0f).node();
  // The Variable is gone, so is its value; the node's recorded shape is
  // what the message reports.
  EXPECT_DEATH(AccumulateGrad(hn, Tensor::Ones({3, 2})),
               "gradient shape \\[3, 2\\] != value shape \\[2, 3\\]");
}

TEST(NoGradScopeTest, OpOutputsBuildNoGraph) {
  Variable x = RandParam({2, 3}, 49);
  Variable w = RandParam({3, 2}, 50);
  NoGradScope no_grad;
  Variable y = Sum(Gelu(MatMul(x, w)));
  EXPECT_FALSE(y.requires_grad());
  EXPECT_TRUE(y.node()->parents.empty());
  EXPECT_FALSE(y.node()->backward_fn);
  EXPECT_TRUE(x.requires_grad());  // leaves keep their flag
}

TEST(NoGradScopeTest, NestedScopesRestoreOuterState) {
  Variable x = Param(Tensor::Scalar(2.0f));
  {
    NoGradScope outer;
    {
      NoGradScope inner;
      EXPECT_FALSE(MulScalar(x, 3.0f).requires_grad());
    }
    EXPECT_FALSE(MulScalar(x, 3.0f).requires_grad());
  }
  Variable y = MulScalar(x, 3.0f);
  EXPECT_TRUE(y.requires_grad());
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 3.0f);
}

TEST(NoGradScopeTest, FlagIsPerThread) {
  NoGradScope no_grad;
  bool worker_builds_graph = false;
  GradCheckResult r;
  // The worker runs entirely while this thread is inside its scope.
  std::thread worker([&] {
    Variable a = RandParam({3, 4}, 51);
    Variable b = RandParam({4, 2}, 52);
    worker_builds_graph = MatMul(a, b).requires_grad();
    r = CheckGradients(
        [](const std::vector<Variable>& in) {
          return Sum(Gelu(MatMul(in[0], in[1])));
        },
        {a, b}, 1e-3, 2e-2);
  });
  worker.join();
  EXPECT_TRUE(worker_builds_graph);
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_FALSE(MulScalar(RandParam({2}, 53), 2.0f).requires_grad());
}

// ---- Reshape is a view; in-place ops reuse only buffers nothing else sees.

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

TEST(ReshapeViewTest, SharesStorageInForwardAndNoGrad) {
  Variable x = RandParam({2, 6}, 54);
  Variable y = Reshape(x, {3, 4});
  EXPECT_TRUE(y.value().SharesStorage(x.value()));
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{3, 4}));
  Rng rng(55);
  Variable c = Constant(Tensor::Randn({3, 4}, &rng));
  Sum(Mul(y, c)).Backward();
  // d/dx sum(reshape(x) * c) = c, laid out in x's shape.
  EXPECT_TRUE(BitEqual(x.grad(), c.value().Reshape({2, 6})));
  NoGradScope no_grad;
  EXPECT_TRUE(Reshape(x, {12}).value().SharesStorage(x.value()));
}

TEST(ReshapeViewTest, GradsThroughAViewSurviveInPlaceAdamSteps) {
  Variable w = RandParam({2, 3}, 56);
  optim::Adam adam({w});
  for (int step = 0; step < 3; ++step) {
    Variable view = Reshape(w, {3, 2});
    ASSERT_TRUE(view.value().SharesStorage(w.value()));
    Variable copy = Param(w.value().Clone().Reshape({3, 2}));
    Sum(Mul(view, view)).Backward();
    Sum(Mul(copy, copy)).Backward();
    // The view's gradient lands in w's own (copied) grad, equal to the one
    // through an independent copy of the current weights.
    EXPECT_TRUE(BitEqual(w.grad(), copy.grad().Reshape({2, 3}))) << step;
    EXPECT_FALSE(w.grad().SharesStorage(copy.grad()));
    const Tensor before = w.value().Clone();
    adam.Step();  // writes w in place: the view sees the new weights
    EXPECT_FALSE(BitEqual(w.value(), before)) << step;
    EXPECT_TRUE(BitEqual(view.value().Reshape({2, 3}), w.value())) << step;
  }
}

TEST(InPlaceOpsTest, ReuseTheBufferOnlyUnderNoGradWhenUnshared) {
  Rng rng(57);
  const Tensor at = Tensor::Randn({4, 5, 3}, &rng);
  const Tensor bias = Tensor::Randn({3}, &rng);
  const Tensor same = Tensor::Randn({4, 5, 3}, &rng);
  const Tensor column = Tensor::Randn({4, 5, 1}, &rng);
  const Tensor middle = Tensor::Randn({4, 1, 3}, &rng);
  const Variable b = Constant(bias);
  // One operand per broadcast path of ops::Add.
  for (const Tensor& other : {bias, same, column, middle}) {
    const Tensor want = ops::Add(at, other);
    // Recording a graph: a fresh output, the operand untouched.
    Variable a = Param(at.Clone());
    const float* buf = a.value().data();
    Variable y = AddInPlace(std::move(a), Constant(other));
    EXPECT_NE(y.value().data(), buf);
    EXPECT_TRUE(y.requires_grad());
    EXPECT_TRUE(BitEqual(y.value(), want));
    NoGradScope no_grad;
    Variable u = Constant(at.Clone());
    buf = u.value().data();
    y = AddInPlace(std::move(u), Constant(other));
    EXPECT_EQ(y.value().data(), buf);
    EXPECT_TRUE(BitEqual(y.value(), want));
  }
  NoGradScope no_grad;
  // Another handle on the node, or a view of the buffer: no reuse.
  Variable kept = Constant(at.Clone());
  Variable alias = kept;
  Variable y = AddInPlace(alias, b);
  EXPECT_TRUE(BitEqual(kept.value(), at));
  EXPECT_TRUE(BitEqual(y.value(), ops::Add(at, bias)));
  Variable base = Constant(at.Clone());
  y = AddInPlace(Reshape(base, {20, 3}), b);
  EXPECT_TRUE(BitEqual(base.value(), at));
  EXPECT_FALSE(y.value().SharesStorage(base.value()));
  // GeluDropoutMatMul's GELU leaves a view of a kept buffer alone. Over a
  // given-up buffer it runs in place (heap_census_test sees no second
  // plane), with exactly Gelu's bits either way.
  const Variable w = Constant(Tensor::Randn({3, 2}, &rng));
  const Tensor want =
      ops::MatMul(Gelu(Constant(at)).value().Reshape({20, 3}), w.value());
  y = GeluDropoutMatMul(Reshape(base, {20, 3}), w, 0.1f, false, nullptr);
  EXPECT_TRUE(BitEqual(base.value(), at));
  EXPECT_TRUE(BitEqual(y.value(), want));
  y = GeluDropoutMatMul(Constant(at.Clone()), w, 0.1f, false, nullptr);
  EXPECT_TRUE(BitEqual(y.value(), want));
}

TEST(GradHandOffTest, ASharedUpstreamGradientIsCopiedIntoEachParent) {
  // Add hands one upstream gradient to both a and b before Mul(a, c2)
  // accumulates into a: a's later sum must not reach b's gradient.
  Rng rng(58);
  const Tensor c = Tensor::Randn({2, 3}, &rng);
  const Tensor c2 = Tensor::Randn({2, 3}, &rng);
  Variable a = Param(Tensor::Randn({2, 3}, &rng));
  Variable b = Param(Tensor::Randn({2, 3}, &rng));
  Sum(Add(Mul(a, Constant(c2)), Mul(Add(a, b), Constant(c)))).Backward();
  EXPECT_TRUE(BitEqual(b.grad(), c));
  EXPECT_TRUE(BitEqual(a.grad(), ops::Add(c, c2)));
  EXPECT_FALSE(a.grad().SharesStorage(b.grad()));
}

/// Doubles its input; its backward hands its own gradient buffer up with
/// std::move and records where that buffer lives.
Variable DoubleRecordingGradBuffer(const Variable& x, const float** buf) {
  auto xn = x.node();
  return MakeOpVariable(ops::MulScalar(x.value(), 2.0f), {xn},
                        [xn, buf](const Tensor& g) {
                          Tensor dx = ops::MulScalar(g, 2.0f);
                          *buf = dx.data();
                          AccumulateGrad(xn, std::move(dx));
                        });
}

TEST(GradHandOffTest, ReshapeAndAddHandTheirGradientUpWithoutACopy) {
  // Backward() moves each node's gradient into its closure, so Reshape's
  // parent and Add's second parent adopt the buffer the op below them made;
  // Add's first parent still gets an unshared copy.
  Rng rng(59);
  const Tensor c = Tensor::Randn({2, 3}, &rng);
  Variable x = Param(Tensor::Randn({2, 3}, &rng));
  const float* buf = nullptr;
  Sum(MulConst(DoubleRecordingGradBuffer(Reshape(x, {3, 2}), &buf),
               c.Reshape({3, 2})))
      .Backward();
  EXPECT_TRUE(BitEqual(x.grad(), ops::MulScalar(c, 2.0f)));
  EXPECT_EQ(x.grad().data(), buf);

  Variable a = Param(Tensor::Randn({2, 3}, &rng));
  Variable b = Param(Tensor::Randn({2, 3}, &rng));
  Sum(MulConst(DoubleRecordingGradBuffer(Add(a, b), &buf), c)).Backward();
  const Tensor want = ops::MulScalar(c, 2.0f);
  EXPECT_TRUE(BitEqual(a.grad(), want));
  EXPECT_TRUE(BitEqual(b.grad(), want));
  EXPECT_EQ(b.grad().data(), buf);
  EXPECT_FALSE(a.grad().SharesStorage(b.grad()));
}

}  // namespace
}  // namespace autograd
}  // namespace slime
