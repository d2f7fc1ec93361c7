#include "core/learnable_filter.h"

#include <cmath>

#include "nn/init.h"
#include "tensor/tensor_ops.h"

namespace slime {
namespace core {

namespace {

constexpr float kInitStddev = 0.02f;

}  // namespace

LearnableFilter::LearnableFilter(int64_t num_bins, int64_t dim, Rng* rng) {
  w_.re = RegisterParameter(
      "w_re",
      autograd::Param(nn::NormalInit({num_bins, dim}, rng, kInitStddev)));
  w_.im = RegisterParameter(
      "w_im",
      autograd::Param(nn::NormalInit({num_bins, dim}, rng, kInitStddev)));
}

Tensor LearnableFilter::Amplitude() const {
  const Tensor& re = w_.re.value();
  const Tensor& im = w_.im.value();
  return ops::Map(ops::Add(ops::Mul(re, re), ops::Mul(im, im)),
                  [](float v) { return std::sqrt(v); });
}

}  // namespace core
}  // namespace slime
