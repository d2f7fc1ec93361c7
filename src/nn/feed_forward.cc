#include "nn/feed_forward.h"

#include "autograd/ops.h"

namespace slime {
namespace nn {

FeedForward::FeedForward(int64_t dim, float dropout, Rng* rng,
                         int64_t hidden_multiplier) {
  const int64_t hidden = dim * hidden_multiplier;
  w1_ = RegisterModule("w1", std::make_shared<Linear>(dim, hidden, rng));
  w2_ = RegisterModule("w2", std::make_shared<Linear>(hidden, dim, rng));
  inner_dropout_ =
      RegisterModule("inner_dropout", std::make_shared<Dropout>(dropout));
  out_dropout_ =
      RegisterModule("out_dropout", std::make_shared<Dropout>(dropout));
}

autograd::Variable FeedForward::Forward(const autograd::Variable& x, Rng* rng,
                                        int64_t positions) const {
  autograd::Variable h = autograd::GeluDropoutMatMul(
      w1_->Forward(x), w2_->weight(), inner_dropout_->p(),
      inner_dropout_->training(), rng, positions);
  h = autograd::AddInPlace(std::move(h), w2_->bias());
  h = autograd::Reshape(h, x.shape());
  return out_dropout_->Forward(h, rng, positions);
}

}  // namespace nn
}  // namespace slime
