#include "models/fmlp_rec.h"

#include "autograd/ops.h"

namespace slime {
namespace models {

FmlpRec::FmlpRec(const ModelConfig& config)
    : NextItemRecommender(config, config.num_items + 1),
      stem_(RegisterEmbeddingStem()) {
  const int64_t d = config.hidden_dim;
  const int64_t n = config.max_len;
  // Global filter = the filter mixer with alpha = 1, DFS only.
  core::FilterMixerOptions options;
  options.alpha = 1.0;
  options.use_static = false;
  for (int64_t l = 0; l < config.num_layers; ++l) {
    Block b;
    b.filter = RegisterModule(
        "filter" + std::to_string(l),
        std::make_shared<core::FilterMixerLayer>(n, d, config.num_layers, l,
                                                 options, config.dropout,
                                                 &rng_));
    b.ffn = RegisterModule(
        "ffn" + std::to_string(l),
        std::make_shared<nn::FeedForward>(d, config.dropout, &rng_));
    b.ffn_norm = RegisterModule("ffn_norm" + std::to_string(l),
                                std::make_shared<nn::LayerNorm>(d));
    blocks_.push_back(std::move(b));
  }
}

autograd::Variable FmlpRec::EncodeLast(const std::vector<int64_t>& input_ids,
                                       int64_t batch_size) {
  using autograd::Add;
  using autograd::Reshape;
  using autograd::Slice;
  using autograd::Variable;
  const int64_t n = config_.max_len;
  Variable h = stem_.Forward(input_ids, batch_size, &rng_);
  for (const auto& b : blocks_) {
    Variable filtered = b.filter->Forward(h, &rng_);  // includes residual+LN
    Variable f = b.ffn->Forward(filtered, &rng_);
    h = b.ffn_norm->Forward(Add(filtered, f));
  }
  return Reshape(Slice(h, 1, n - 1, n), {batch_size, config_.hidden_dim});
}

}  // namespace models
}  // namespace slime
