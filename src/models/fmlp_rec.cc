#include "models/fmlp_rec.h"

#include "autograd/ops.h"
#include "nn/init.h"

namespace slime {
namespace models {

FmlpRec::FmlpRec(const ModelConfig& config) : SequentialRecommender(config) {
  const int64_t d = config.hidden_dim;
  const int64_t n = config.max_len;
  item_emb_ = RegisterModule(
      "item_emb",
      std::make_shared<nn::Embedding>(config.num_items + 1, d, &rng_));
  pos_emb_ = RegisterParameter(
      "pos_emb", autograd::Param(nn::NormalInit({n, d}, &rng_, 0.02f)));
  emb_norm_ = RegisterModule("emb_norm", std::make_shared<nn::LayerNorm>(d));
  emb_dropout_ = RegisterModule(
      "emb_dropout", std::make_shared<nn::Dropout>(config.emb_dropout));
  // Global filter = the filter mixer with alpha = 1, full spectrum, DFS
  // only.
  core::FilterMixerOptions options;
  options.alpha = 1.0;
  options.use_dynamic = true;
  options.use_static = false;
  options.full_spectrum = true;
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
  Variable e = item_emb_->Forward(input_ids, {batch_size, n});
  e = Add(e, pos_emb_);
  e = emb_norm_->Forward(e);
  e = emb_dropout_->Forward(e, &rng_);
  Variable h = e;
  for (const auto& b : blocks_) {
    Variable filtered = b.filter->Forward(h, &rng_);  // includes residual+LN
    Variable f = b.ffn->Forward(filtered, &rng_);
    h = b.ffn_norm->Forward(Add(filtered, f));
  }
  return Reshape(Slice(h, 1, n - 1, n), {batch_size, config_.hidden_dim});
}

autograd::Variable FmlpRec::Loss(const data::Batch& batch) {
  autograd::Variable h = EncodeLast(batch.input_ids, batch.size);
  autograd::Variable logits = autograd::MatMulTransB(h, item_emb_->weight());
  return autograd::CrossEntropy(logits, batch.targets);
}

Tensor FmlpRec::ScoreAll(const data::Batch& batch) {
  autograd::Variable h = EncodeLast(batch.input_ids, batch.size);
  return autograd::MatMulTransB(h, item_emb_->weight()).value();
}

}  // namespace models
}  // namespace slime
