#include "optim/adam.h"

#include <cmath>

#include "compute/kernels.h"
#include "tensor/tensor_ops.h"

namespace slime {
namespace optim {
namespace {

constexpr float kBeta1 = 0.9f;
constexpr float kBeta2 = 0.999f;
constexpr float kEps = 1e-8f;

}  // namespace

double Adam::GradNorm() const {
  double total = 0.0;
  for (const auto& p : params_) {
    if (!p.has_grad()) continue;
    const double n = ops::Norm(p.grad());
    total += n * n;
  }
  return std::sqrt(total);
}

void Adam::ClipGradNorm(double max_norm, double total) {
  if (total <= max_norm || total == 0.0) return;
  const float scale = static_cast<float>(max_norm / total);
  for (auto& p : params_) {
    if (!p.has_grad()) continue;
    Tensor g = p.grad();  // shares the node's grad storage
    ops::ScaleInPlace(&g, scale);
  }
}

Adam::Adam(std::vector<autograd::Variable> params)
    : Adam(std::move(params), Options()) {}

Adam::Adam(std::vector<autograd::Variable> params, Options options)
    : params_(std::move(params)), options_(options) {}

Status Adam::RestoreState(int64_t step_count, std::vector<Tensor> m,
                          std::vector<Tensor> v) {
  if (step_count < 0) {
    return Status::InvalidArgument("negative Adam step count " +
                                   std::to_string(step_count));
  }
  // Full lists restore any step; empty ones only a never-stepped optimizer.
  const bool full = m.size() == params_.size() && v.size() == params_.size();
  if (!full && !(step_count == 0 && m.empty() && v.empty())) {
    return Status::InvalidArgument(
        "Adam state at step " + std::to_string(step_count) + " has " +
        std::to_string(m.size()) + "/" + std::to_string(v.size()) +
        " moment tensors, optimizer has " + std::to_string(params_.size()) +
        " parameters");
  }
  for (size_t i = 0; i < m.size(); ++i) {
    if (m[i].shape() != params_[i].value().shape() ||
        v[i].shape() != params_[i].value().shape()) {
      return Status::InvalidArgument(
          "Adam moment shape mismatch at parameter " + std::to_string(i) +
          ": " + m[i].ShapeString() + " vs " +
          params_[i].value().ShapeString());
    }
  }
  t_ = step_count;
  m_ = std::move(m);
  v_ = std::move(v);
  return Status::OK();
}

void Adam::Step() {
  if (m_.empty()) {
    m_.reserve(params_.size());
    v_.reserve(params_.size());
    for (const auto& p : params_) {
      m_.emplace_back(Tensor::Zeros(p.value().shape()));
      v_.emplace_back(Tensor::Zeros(p.value().shape()));
    }
  }
  ++t_;
  compute::AdamStepParams step;
  step.beta1 = kBeta1;
  step.beta2 = kBeta2;
  step.bias_corr1 = 1.0f - std::pow(kBeta1, static_cast<float>(t_));
  step.bias_corr2 = 1.0f - std::pow(kBeta2, static_cast<float>(t_));
  step.lr = options_.lr;
  step.eps = kEps;
  const auto& kt = compute::Dispatch();
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    if (!p.has_grad()) continue;
    Tensor& value = p.mutable_value();
    kt.adam_step(value.data(), m_[i].data(), v_[i].data(), p.grad().data(),
                 value.numel(), step);
  }
  ZeroGrad();
}

}  // namespace optim
}  // namespace slime
