#include "nn/linear.h"

#include "autograd/ops.h"
#include "nn/init.h"

namespace slime {
namespace nn {

Linear::Linear(int64_t in_features, int64_t out_features, Rng* rng,
               bool use_bias)
    : in_features_(in_features),
      out_features_(out_features),
      use_bias_(use_bias) {
  weight_ = RegisterParameter(
      "weight",
      autograd::Param(XavierUniform({in_features, out_features}, rng)));
  if (use_bias_) {
    bias_ = RegisterParameter(
        "bias", autograd::Param(Tensor::Zeros({out_features})));
  }
}

autograd::Variable Linear::Forward(const autograd::Variable& x) const {
  using autograd::AddInPlace;
  using autograd::MatMul;
  using autograd::Reshape;
  const auto& shape = x.shape();
  SLIME_CHECK_GE(shape.size(), 2u);
  SLIME_CHECK_EQ(shape.back(), in_features_);
  autograd::Variable flat = x;
  const bool need_reshape = shape.size() != 2;
  if (need_reshape) flat = Reshape(x, {-1, in_features_});
  autograd::Variable y = MatMul(flat, weight_);
  if (use_bias_) y = AddInPlace(std::move(y), bias_);
  if (need_reshape) {
    std::vector<int64_t> out_shape(shape.begin(), shape.end() - 1);
    out_shape.push_back(out_features_);
    y = Reshape(y, out_shape);
  }
  return y;
}

}  // namespace nn
}  // namespace slime
