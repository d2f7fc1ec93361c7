#include "core/slime4rec.h"

#include "autograd/ops.h"

namespace slime {
namespace core {

Slime4Rec::Slime4Rec(const Slime4RecConfig& config)
    : models::NextItemRecommender(config, config.num_items + 1),
      slime_config_(config),
      stem_(RegisterEmbeddingStem()) {
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

std::optional<std::pair<autograd::Variable, autograd::Variable>>
Slime4Rec::ContrastiveViews(const data::Batch& batch) {
  if (!slime_config_.use_contrastive) return std::nullopt;
  SLIME_CHECK_MSG(!batch.positive_input_ids.empty(),
                  "contrastive training needs batch positives");
  autograd::Variable h_unsup = EncodeLast(batch.input_ids, batch.size);
  autograd::Variable h_sup = EncodeLast(batch.positive_input_ids, batch.size);
  return std::make_pair(h_unsup, h_sup);
}

}  // namespace core
}  // namespace slime
