#include "models/recommender.h"

#include "autograd/ops.h"
#include "nn/init.h"

namespace slime {
namespace models {

autograd::Variable SequentialRecommender::EmbeddingStem::Forward(
    const std::vector<int64_t>& input_ids, int64_t batch_size,
    Rng* rng) const {
  const int64_t n = pos_emb.size(0);
  SLIME_CHECK_EQ(static_cast<int64_t>(input_ids.size()), batch_size * n);
  autograd::Variable e = item_emb->Forward(input_ids, {batch_size, n});
  e = autograd::Add(e, pos_emb);  // (B,N,d) + (N,d) broadcasts
  e = norm->Forward(e);
  return dropout->Forward(e, rng);
}

SequentialRecommender::EmbeddingStem
SequentialRecommender::RegisterEmbeddingStem(int64_t vocab) {
  const int64_t d = config_.hidden_dim;
  EmbeddingStem stem;
  stem.item_emb = RegisterModule(
      "item_emb", std::make_shared<nn::Embedding>(vocab, d, &rng_));
  stem.pos_emb = RegisterParameter(
      "pos_emb",
      autograd::Param(nn::NormalInit({config_.max_len, d}, &rng_, 0.02f)));
  stem.norm = RegisterModule("emb_norm", std::make_shared<nn::LayerNorm>(d));
  stem.dropout = RegisterModule(
      "emb_dropout", std::make_shared<nn::Dropout>(config_.emb_dropout));
  return stem;
}

}  // namespace models
}  // namespace slime
