#include <gtest/gtest.h>

#include <cstring>
#include <vector>

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

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

bool AllBitEqual(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!BitEqual(a[i], b[i])) return false;
  }
  return true;
}

std::vector<Tensor> ZerosLike(const std::vector<Variable>& params) {
  std::vector<Tensor> out;
  for (const Variable& p : params) out.push_back(Tensor::Zeros(p.shape()));
  return out;
}

/// Two parameters: a matrix the loss reaches and a vector it does not.
std::vector<Variable> TwoParams(uint64_t seed) {
  Rng rng(seed);
  return {Param(Tensor::Randn({2, 3}, &rng)), Param(Tensor::Randn({4}, &rng))};
}

void QuadraticStep(Adam* adam, const Tensor& target) {
  Quadratic(adam->params()[0], target).Backward();
  adam->Step();
}

TEST(AdamTest, FreshOptimizerHasNoMomentsUntilItsFirstStep) {
  const std::vector<Variable> params = TwoParams(2);
  Adam adam(params);
  EXPECT_TRUE(adam.first_moments().empty());
  EXPECT_TRUE(adam.second_moments().empty());
  EXPECT_EQ(adam.step_count(), 0);
  QuadraticStep(&adam, Tensor::Zeros({2, 3}));
  // Every parameter gets its moments, the one without a gradient too.
  ASSERT_EQ(adam.first_moments().size(), 2u);
  ASSERT_EQ(adam.second_moments().size(), 2u);
  EXPECT_TRUE(BitEqual(adam.first_moments()[1], Tensor::Zeros({4})));
  EXPECT_EQ(adam.second_moments()[0].shape(), params[0].shape());
  EXPECT_EQ(adam.step_count(), 1);
}

TEST(AdamTest, FirstStepsEqualThoseFromRestoredZeroMoments) {
  const std::vector<Variable> lazy_params = TwoParams(3);
  const std::vector<Variable> zeroed_params = TwoParams(3);
  Adam lazy(lazy_params, {.lr = 0.05f});
  Adam zeroed(zeroed_params, {.lr = 0.05f});
  ASSERT_TRUE(zeroed
                  .RestoreState(0, ZerosLike(zeroed_params),
                                ZerosLike(zeroed_params))
                  .ok());
  Rng rng(4);
  for (int step = 1; step <= 3; ++step) {
    const Tensor target = Tensor::Randn({2, 3}, &rng);
    QuadraticStep(&lazy, target);
    QuadraticStep(&zeroed, target);
    for (size_t i = 0; i < 2; ++i) {
      EXPECT_TRUE(BitEqual(lazy_params[i].value(), zeroed_params[i].value()))
          << "step " << step << " parameter " << i;
    }
    EXPECT_TRUE(AllBitEqual(lazy.first_moments(), zeroed.first_moments()))
        << step;
    EXPECT_TRUE(AllBitEqual(lazy.second_moments(), zeroed.second_moments()))
        << step;
  }
}

TEST(AdamTest, RestoringEmptyMomentsAtStepZeroLeavesTheOptimizerFresh) {
  const std::vector<Variable> params = TwoParams(5);
  Adam adam(params);
  QuadraticStep(&adam, Tensor::Zeros({2, 3}));
  ASSERT_TRUE(adam.RestoreState(0, {}, {}).ok());
  EXPECT_EQ(adam.step_count(), 0);
  EXPECT_TRUE(adam.first_moments().empty());
  EXPECT_TRUE(adam.second_moments().empty());
  // Its next step is a first step: bias-corrected to magnitude ~lr.
  const Tensor before = params[0].value().Clone();
  QuadraticStep(&adam, Tensor::Full({2, 3}, 100.0f));
  EXPECT_EQ(adam.step_count(), 1);
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(params[0].value()[i], before[i] + 1e-3f, 1e-5);
  }
}

TEST(AdamTest, RestoreRejectsEmptyMomentsAfterStepZeroAndHalfAState) {
  const std::vector<Variable> params = TwoParams(6);
  Adam adam(params);
  QuadraticStep(&adam, Tensor::Zeros({2, 3}));
  QuadraticStep(&adam, Tensor::Zeros({2, 3}));
  const std::vector<Tensor> m = ZerosLike(params);
  std::vector<Tensor> m_before, v_before;
  for (const Tensor& t : adam.first_moments()) m_before.push_back(t.Clone());
  for (const Tensor& t : adam.second_moments()) v_before.push_back(t.Clone());
  EXPECT_EQ(adam.RestoreState(3, {}, {}).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(adam.RestoreState(0, m, {}).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(adam.step_count(), 2);
  EXPECT_TRUE(AllBitEqual(adam.first_moments(), m_before));
  EXPECT_TRUE(AllBitEqual(adam.second_moments(), v_before));
  // A fresh optimizer stays fresh.
  Adam fresh(params);
  EXPECT_EQ(fresh.RestoreState(3, {}, {}).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(fresh.RestoreState(0, m, {}).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(fresh.step_count(), 0);
  EXPECT_TRUE(fresh.first_moments().empty());
  EXPECT_TRUE(fresh.second_moments().empty());
}

}  // namespace
}  // namespace optim
}  // namespace slime
