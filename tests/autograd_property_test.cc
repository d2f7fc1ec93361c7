// Property-style sweeps over the autograd op library: random shapes and
// seeds, checking gradients against finite differences and algebraic
// identities that must hold for any input.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "tensor/tensor_ops.h"

namespace slime {
namespace autograd {
namespace {

class BroadcastShapeSweep
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int>> {};

TEST_P(BroadcastShapeSweep, MulGradcheckAllBroadcastDirections) {
  const auto [rows, cols, variant] = GetParam();
  Rng rng(1000 + rows * 31 + cols * 7 + variant);
  std::vector<int64_t> b_shape;
  switch (variant) {
    case 0:
      b_shape = {rows, cols};  // same shape
      break;
    case 1:
      b_shape = {cols};  // row vector
      break;
    default:
      b_shape = {rows, 1};  // column vector
      break;
  }
  Variable a = Param(Tensor::Randn({rows, cols}, &rng));
  Variable b = Param(Tensor::Randn(b_shape, &rng));
  const auto result = CheckGradients(
      [](const std::vector<Variable>& in) {
        return Sum(Mul(in[0], in[1]));
      },
      {a, b});
  EXPECT_TRUE(result.ok) << result.message;
}

TEST_P(BroadcastShapeSweep, AddThenReduceMatchesManualSum) {
  const auto [rows, cols, variant] = GetParam();
  (void)variant;
  Rng rng(2000 + rows * 13 + cols);
  const Tensor a = Tensor::Randn({rows, cols}, &rng);
  const Tensor b = Tensor::Randn({cols}, &rng);
  const Tensor c = ops::Add(a, b);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t j = 0; j < cols; ++j) {
      EXPECT_NEAR(c.At({r, j}), a.At({r, j}) + b[j], 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastShapeSweep,
    ::testing::Combine(::testing::Values<int64_t>(1, 2, 5),
                       ::testing::Values<int64_t>(1, 3, 7),
                       ::testing::Values(0, 1, 2)));

class MatmulShapeSweep
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {
};

TEST_P(MatmulShapeSweep, ForwardMatchesNaiveTripleLoop) {
  const auto [m, k, n] = GetParam();
  Rng rng(3000 + m * 100 + k * 10 + n);
  const Tensor a = Tensor::Randn({m, k}, &rng);
  const Tensor b = Tensor::Randn({k, n}, &rng);
  const Tensor c = ops::MatMul(a, b);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += double(a.At({i, kk})) * b.At({kk, j});
      }
      EXPECT_NEAR(c.At({i, j}), acc, 1e-4) << m << "x" << k << "x" << n;
    }
  }
}

TEST_P(MatmulShapeSweep, TransposeVariantsAgree) {
  const auto [m, k, n] = GetParam();
  Rng rng(4000 + m * 100 + k * 10 + n);
  const Tensor a = Tensor::Randn({m, k}, &rng);
  const Tensor b = Tensor::Randn({k, n}, &rng);
  const Tensor reference = ops::MatMul(a, b);
  const Tensor via_tb = ops::MatMulTransB(a, ops::TransposeLastTwo(b));
  const Tensor via_ta = ops::MatMulTransA(ops::TransposeLastTwo(a), b);
  for (int64_t i = 0; i < reference.numel(); ++i) {
    EXPECT_NEAR(reference[i], via_tb[i], 1e-4);
    EXPECT_NEAR(reference[i], via_ta[i], 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulShapeSweep,
    ::testing::Combine(::testing::Values<int64_t>(1, 3, 8),
                       ::testing::Values<int64_t>(1, 4, 9),
                       ::testing::Values<int64_t>(1, 2, 7)));

TEST(AutogradIdentityTest, SoftmaxRowsSumToOneAnyShape) {
  Rng rng(7);
  for (const auto& shape :
       std::vector<std::vector<int64_t>>{{3, 5}, {2, 3, 4}, {1, 9}}) {
    Variable x = Param(Tensor::Randn(shape, &rng, 2.0f));
    const Tensor y = Softmax(x).value();
    const int64_t d = shape.back();
    const int64_t rows = y.numel() / d;
    for (int64_t r = 0; r < rows; ++r) {
      double sum = 0.0;
      for (int64_t j = 0; j < d; ++j) sum += y[r * d + j];
      EXPECT_NEAR(sum, 1.0, 1e-5);
    }
  }
}

TEST(AutogradIdentityTest, SoftmaxInvariantToRowShift) {
  Rng rng(9);
  const Tensor x = Tensor::Randn({2, 5}, &rng);
  const Tensor shifted = ops::AddScalar(x, 123.0f);
  const Tensor a = Softmax(Param(x.Clone())).value();
  const Tensor b = Softmax(Param(shifted)).value();
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-5);
  }
}

TEST(AutogradIdentityTest, GeluBetweenZeroAndIdentity) {
  Rng rng(10);
  Variable x = Param(Tensor::Randn({100}, &rng, 2.0f));
  const Tensor y = Gelu(x).value();
  for (int64_t i = 0; i < 100; ++i) {
    const float v = x.value()[i];
    if (v >= 0) {
      EXPECT_GE(y[i], 0.0f);
      EXPECT_LE(y[i], v + 1e-6f);
    } else {
      EXPECT_LE(y[i], 0.0f);
      EXPECT_GE(y[i], v - 1e-6f);
    }
  }
}

TEST(AutogradIdentityTest, CrossEntropyAtLeastLogOfInverseConfidence) {
  // CE of a perfectly confident correct prediction approaches 0; of a
  // uniform prediction equals log(V).
  Tensor confident = Tensor::Zeros({1, 6});
  confident.At({0, 2}) = 50.0f;
  EXPECT_NEAR(CrossEntropy(Param(confident), {2}).value()[0], 0.0f, 1e-4);
  EXPECT_NEAR(CrossEntropy(Param(Tensor::Zeros({1, 6})), {2}).value()[0],
              std::log(6.0), 1e-5);
}

TEST(AutogradIdentityTest, ConcatSliceRoundTrip) {
  Rng rng(11);
  Variable a = Param(Tensor::Randn({2, 3}, &rng));
  Variable b = Param(Tensor::Randn({2, 4}, &rng));
  Variable cat = Concat({a, b}, 1);
  Variable a2 = Slice(cat, 1, 0, 3);
  Variable b2 = Slice(cat, 1, 3, 7);
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_FLOAT_EQ(a2.value()[i], a.value()[i]);
  }
  for (int64_t i = 0; i < b.numel(); ++i) {
    EXPECT_FLOAT_EQ(b2.value()[i], b.value()[i]);
  }
}

}  // namespace
}  // namespace autograd
}  // namespace slime
