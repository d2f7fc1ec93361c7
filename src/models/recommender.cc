#include "models/recommender.h"

#include <algorithm>
#include <type_traits>

#include "autograd/ops.h"
#include "core/contrastive.h"
#include "nn/init.h"

namespace slime {
namespace models {
namespace {

/// Rows [lo, lo + rows) of every per-sequence field of `batch`.
data::Batch Rows(const data::Batch& batch, int64_t lo, int64_t rows) {
  const auto slice = [&](const auto& v) {
    using V = std::decay_t<decltype(v)>;
    if (v.empty()) return V();
    const int64_t width = static_cast<int64_t>(v.size()) / batch.size;
    return V(v.begin() + lo * width, v.begin() + (lo + rows) * width);
  };
  data::Batch part;
  part.size = rows;
  part.max_len = batch.max_len;
  part.user_ids = slice(batch.user_ids);
  part.input_ids = slice(batch.input_ids);
  part.targets = slice(batch.targets);
  part.raw_prefixes = slice(batch.raw_prefixes);
  part.positive_input_ids = slice(batch.positive_input_ids);
  return part;
}

}  // namespace

NextItemRecommender::NextItemRecommender(const ModelConfig& config,
                                         int64_t vocab)
    : SequentialRecommender(config) {
  item_emb_ = RegisterModule(
      "item_emb",
      std::make_shared<nn::Embedding>(vocab, config.hidden_dim, &rng_));
}

autograd::Variable NextItemRecommender::Loss(const data::Batch& batch) {
  using autograd::Variable;
  Variable h = UserVector(batch);
  Variable rec = autograd::CrossEntropy(PredictLogits(h), batch.targets);
  const auto views = ContrastiveViews(batch);
  if (!views) return rec;
  Variable cl =
      core::InfoNceLoss(views->first, views->second, config_.cl_temperature);
  return autograd::Add(rec, autograd::MulScalar(cl, config_.cl_weight));
}

int64_t NextItemRecommender::ScoreGroupSize() const {
  // 2^17 floats: the 512 KB budget of one (G, N, d) activation.
  constexpr int64_t kGroupFloats = int64_t{1} << 17;
  return std::max<int64_t>(
      1, kGroupFloats / (config_.max_len * config_.hidden_dim));
}

Tensor NextItemRecommender::ScoreAll(const data::Batch& batch) {
  const int64_t width = config_.num_items + 1;
  const int64_t group = ScoreGroupSize();
  SLIME_CHECK_EQ(static_cast<int64_t>(batch.input_ids.size()),
                 batch.size * config_.max_len);
  if (batch.size <= group) {
    // One group: its logits are the scores, with no second B x |V| buffer.
    return PredictLogits(UserVector(batch)).value();
  }
  Tensor scores({batch.size, width});
  for (int64_t lo = 0; lo < batch.size; lo += group) {
    const int64_t rows = std::min(group, batch.size - lo);
    const Tensor part =
        PredictLogits(UserVector(Rows(batch, lo, rows))).value();
    std::copy(part.data(), part.data() + rows * width,
              scores.data() + lo * width);
  }
  return scores;
}

autograd::Variable NextItemRecommender::PredictLogits(
    const autograd::Variable& h) const {
  return autograd::MatMulTransB(h, item_emb_->weight());
}

autograd::Variable NextItemRecommender::EmbeddingStem::Forward(
    const std::vector<int64_t>& input_ids, int64_t batch_size,
    Rng* rng) const {
  const int64_t n = pos_emb.size(0);
  SLIME_CHECK_EQ(static_cast<int64_t>(input_ids.size()), batch_size * n);
  autograd::Variable e = item_emb->Forward(input_ids, {batch_size, n});
  e = autograd::Add(e, pos_emb);  // (B,N,d) + (N,d) broadcasts
  e = norm->Forward(e);
  return dropout->Forward(e, rng);
}

NextItemRecommender::EmbeddingStem
NextItemRecommender::RegisterEmbeddingStem() {
  const int64_t d = config_.hidden_dim;
  EmbeddingStem stem;
  stem.item_emb = item_emb_;
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
