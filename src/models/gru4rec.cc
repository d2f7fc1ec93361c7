#include "models/gru4rec.h"

#include "autograd/ops.h"

namespace slime {
namespace models {

Gru4Rec::Gru4Rec(const ModelConfig& config)
    : NextItemRecommender(config, config.num_items + 1) {
  const int64_t d = config.hidden_dim;
  emb_dropout_ = RegisterModule(
      "emb_dropout", std::make_shared<nn::Dropout>(config.emb_dropout));
  gru_ = RegisterModule("gru", std::make_shared<nn::Gru>(d, d, &rng_));
}

autograd::Variable Gru4Rec::UserVector(const data::Batch& batch) {
  autograd::Variable e =
      item_emb_->Forward(batch.input_ids, {batch.size, config_.max_len});
  e = emb_dropout_->Forward(e, &rng_);
  return gru_->ForwardLast(e);
}

}  // namespace models
}  // namespace slime
