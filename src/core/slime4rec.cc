#include "core/slime4rec.h"

#include <algorithm>

#include "autograd/ops.h"
#include "core/contrastive.h"

namespace slime {
namespace core {

Slime4Rec::Slime4Rec(const Slime4RecConfig& config)
    : models::SequentialRecommender(config),
      slime_config_(config),
      stem_(RegisterEmbeddingStem(config.num_items + 1)) {
  const int64_t d = config.hidden_dim;
  const int64_t n = config.max_len;
  for (int64_t l = 0; l < config.num_layers; ++l) {
    blocks_.push_back(RegisterModule(
        "block" + std::to_string(l),
        std::make_shared<FilterMixerBlock>(n, d, config.num_layers, l,
                                           config.mixer, config.dropout,
                                           &rng_)));
  }
}

autograd::Variable Slime4Rec::EncodeAt(const std::vector<int64_t>& input_ids,
                                       int64_t batch_size,
                                       Positions positions) {
  // Eq. 9 + Eq. 10: item embedding + positional embedding, LN, dropout.
  autograd::Variable h = stem_.Forward(input_ids, batch_size, &rng_);
  for (size_t l = 0; l < blocks_.size(); ++l) {
    const bool final_block = l + 1 == blocks_.size();
    h = blocks_[l]->Forward(h, &rng_,
                            final_block ? positions : Positions::kAll);
  }
  return h;
}

autograd::Variable Slime4Rec::Encode(const std::vector<int64_t>& input_ids,
                                     int64_t batch_size) {
  return EncodeAt(input_ids, batch_size, Positions::kAll);
}

autograd::Variable Slime4Rec::EncodeLast(
    const std::vector<int64_t>& input_ids, int64_t batch_size) {
  using autograd::Reshape;
  using autograd::Slice;
  const int64_t n = config_.max_len;
  const int64_t d = config_.hidden_dim;
  if (!training() && !blocks_.empty()) {
    return Reshape(EncodeAt(input_ids, batch_size, Positions::kLast),
                   {batch_size, d});
  }
  autograd::Variable h = Encode(input_ids, batch_size);
  // Left padding places the most recent item at position N-1.
  return Reshape(Slice(h, 1, n - 1, n), {batch_size, d});
}

autograd::Variable Slime4Rec::PredictLogits(
    const autograd::Variable& h) const {
  return autograd::MatMulTransB(h, stem_.item_emb->weight());
}

autograd::Variable Slime4Rec::Loss(const data::Batch& batch) {
  return DuoRecLoss(*this, batch, slime_config_.use_contrastive);
}

int64_t Slime4Rec::ScoreGroupSize() const {
  // 2^17 floats: the 512 KB budget of one (G, N, d) activation.
  constexpr int64_t kGroupFloats = int64_t{1} << 17;
  return std::max<int64_t>(
      1, kGroupFloats / (config_.max_len * config_.hidden_dim));
}

Tensor Slime4Rec::ScoreAll(const data::Batch& batch) {
  const int64_t n = config_.max_len;
  const int64_t width = config_.num_items + 1;
  const int64_t group = ScoreGroupSize();
  SLIME_CHECK_EQ(static_cast<int64_t>(batch.input_ids.size()), batch.size * n);
  if (batch.size <= group) {
    // One group: its logits are the scores, with no second B x |V| buffer.
    return PredictLogits(EncodeLast(batch.input_ids, batch.size)).value();
  }
  Tensor scores({batch.size, width});
  for (int64_t lo = 0; lo < batch.size; lo += group) {
    const int64_t rows = std::min(group, batch.size - lo);
    const auto ids = batch.input_ids.begin() + lo * n;
    const Tensor part =
        PredictLogits(EncodeLast({ids, ids + rows * n}, rows)).value();
    std::copy(part.data(), part.data() + rows * width,
              scores.data() + lo * width);
  }
  return scores;
}

}  // namespace core
}  // namespace slime
