#include <gtest/gtest.h>


#include "autograd/ops.h"
#include "optim/adam.h"
#include "tensor/tensor_ops.h"

namespace slime {
namespace optim {
namespace {

using autograd::Param;
using autograd::Sub;
using autograd::Sum;
using autograd::Variable;

/// Quadratic bowl loss ||x - target||^2.
Variable Quadratic(const Variable& x, const Tensor& target) {
  Variable d = autograd::AddConst(x, ops::MulScalar(target, -1.0f));
  return Sum(autograd::Mul(d, d));
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Rng rng(1);
  Variable x = Param(Tensor::Randn({8}, &rng, 2.0f));
  const Tensor target = Tensor::Randn({8}, &rng);
  Adam adam({x}, {.lr = 0.05f});
  for (int step = 0; step < 400; ++step) {
    Quadratic(x, target).Backward();
    adam.Step();
  }
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(x.value()[i], target[i], 1e-2);
  }
}

TEST(AdamTest, StepClearsGradients) {
  Variable x = Param(Tensor::Ones({3}));
  Adam adam({x});
  Sum(autograd::Mul(x, x)).Backward();
  EXPECT_TRUE(x.has_grad());
  adam.Step();
  EXPECT_FALSE(x.has_grad());
}

TEST(AdamTest, FirstStepMagnitudeIsLr) {
  // With bias correction, the first Adam step has magnitude ~lr regardless
  // of gradient scale.
  Variable x = Param(Tensor::Full({1}, 100.0f));
  Adam adam({x}, {.lr = 0.01f});
  autograd::MulScalar(x, 1000.0f).Backward();
  adam.Step();
  EXPECT_NEAR(x.value()[0], 100.0f - 0.01f, 1e-4);
}

TEST(ClipGradNormTest, LargeGradientsAreScaled) {
  Variable x = Param(Tensor::Full({4}, 1.0f));
  autograd::MulScalar(Sum(autograd::Mul(x, x)), 100.0f).Backward();
  // grad = 200 per element -> norm 400.
  Adam adam({x});
  adam.ClipGradNorm(1.0);
  EXPECT_NEAR(ops::Norm(x.grad()), 1.0, 1e-4);
}

TEST(ClipGradNormTest, SmallGradientsUntouched) {
  Variable x = Param(Tensor::Full({4}, 0.001f));
  Sum(autograd::Mul(x, x)).Backward();
  const Tensor before = x.grad().Clone();
  Adam adam({x});
  adam.ClipGradNorm(10.0);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(x.grad()[i], before[i]);
  }
}

TEST(AdamTest, SharedHandleUpdatesModelParameters) {
  // The optimizer sees the same storage the "model" holds.
  Variable model_param = Param(Tensor::Full({2}, 5.0f));
  Variable opt_handle = model_param;  // copy shares the node
  Adam adam({opt_handle}, {.lr = 0.5f});
  Sum(model_param).Backward();
  adam.Step();
  EXPECT_LT(model_param.value()[0], 5.0f);
}

}  // namespace
}  // namespace optim
}  // namespace slime
