#include "models/caser.h"

#include "autograd/ops.h"

namespace slime {
namespace models {

Caser::Caser(const ModelConfig& config)
    : NextItemRecommender(config, config.num_items + 1) {
  SLIME_CHECK_GT(config.num_users, 0);
  const int64_t d = config.hidden_dim;
  user_emb_ = RegisterModule(
      "user_emb", std::make_shared<nn::Embedding>(config.num_users, d, &rng_));
  dropout_ =
      RegisterModule("dropout", std::make_shared<nn::Dropout>(config.dropout));
  // Window sizes {2,3,4} with d/4 filters each, 2 vertical filters: small
  // scaled-down variant of the original (16, 4).
  const int64_t fh = std::max<int64_t>(4, d / 4);
  horizontal_ = RegisterModule(
      "horizontal",
      std::make_shared<nn::HorizontalConvBank>(
          d, std::vector<int64_t>{2, 3, 4}, fh, &rng_));
  const int64_t fv = 2;
  vertical_ = RegisterModule(
      "vertical", std::make_shared<nn::VerticalConv>(config.max_len, fv,
                                                     &rng_));
  fc_ = RegisterModule(
      "fc", std::make_shared<nn::Linear>(
                horizontal_->output_dim() + vertical_->output_dim(d), d,
                &rng_));
  out_ = RegisterModule("out", std::make_shared<nn::Linear>(2 * d, d, &rng_));
}

autograd::Variable Caser::UserVector(const data::Batch& batch) {
  using autograd::Concat;
  using autograd::Relu;
  using autograd::Variable;
  Variable e =
      item_emb_->Forward(batch.input_ids, {batch.size, config_.max_len});
  e = dropout_->Forward(e, &rng_);
  Variable h = horizontal_->Forward(e);                    // (B, Fh)
  Variable v = vertical_->Forward(e);                      // (B, Fv*d)
  Variable z = Relu(fc_->Forward(Concat({h, v}, 1)));      // (B, d)
  z = dropout_->Forward(z, &rng_);
  Variable u = user_emb_->Forward(batch.user_ids, {batch.size});  // (B, d)
  return out_->Forward(Concat({z, u}, 1));                 // (B, d)
}

}  // namespace models
}  // namespace slime
