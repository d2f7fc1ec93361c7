#include "models/sasrec.h"

#include "autograd/ops.h"

namespace slime {
namespace models {
namespace {

/// Additive key-padding mask (B, N): 0 for real items, -1e9 for pads.
Tensor PaddingMask(const std::vector<int64_t>& input_ids, int64_t batch_size,
                   int64_t n) {
  Tensor mask({batch_size, n});
  float* p = mask.data();
  for (int64_t i = 0; i < batch_size * n; ++i) {
    p[i] = input_ids[i] == 0 ? -1e9f : 0.0f;
  }
  return mask;
}

}  // namespace

SasRec::SasRec(const ModelConfig& config)
    : SasRec(config, /*causal=*/true, config.num_items + 1) {}

SasRec::SasRec(const ModelConfig& config, bool causal, int64_t vocab)
    : NextItemRecommender(config, vocab),
      causal_(causal),
      stem_(RegisterEmbeddingStem()) {
  const int64_t d = config.hidden_dim;
  for (int64_t l = 0; l < config.num_layers; ++l) {
    Block b;
    b.attn = RegisterModule(
        "attn" + std::to_string(l),
        std::make_shared<nn::MultiHeadSelfAttention>(d, config.num_heads,
                                                     config.dropout, &rng_));
    b.attn_norm = RegisterModule("attn_norm" + std::to_string(l),
                                 std::make_shared<nn::LayerNorm>(d));
    b.ffn = RegisterModule(
        "ffn" + std::to_string(l),
        std::make_shared<nn::FeedForward>(d, config.dropout, &rng_));
    b.ffn_norm = RegisterModule("ffn_norm" + std::to_string(l),
                                std::make_shared<nn::LayerNorm>(d));
    blocks_.push_back(std::move(b));
  }
}

autograd::Variable SasRec::Encode(const std::vector<int64_t>& input_ids,
                                  int64_t batch_size) {
  using autograd::Add;
  using autograd::Variable;
  Variable h = stem_.Forward(input_ids, batch_size, &rng_);
  const Tensor padding = PaddingMask(input_ids, batch_size, config_.max_len);
  for (const auto& b : blocks_) {
    Variable a = b.attn->Forward(h, causal_, padding, &rng_);
    h = b.attn_norm->Forward(Add(h, a));
    Variable f = b.ffn->Forward(h, &rng_);
    h = b.ffn_norm->Forward(Add(h, f));
  }
  return h;
}

autograd::Variable SasRec::EncodeLast(const std::vector<int64_t>& input_ids,
                                      int64_t batch_size) {
  using autograd::Reshape;
  using autograd::Slice;
  const int64_t n = config_.max_len;
  autograd::Variable h = Encode(input_ids, batch_size);
  return Reshape(Slice(h, 1, n - 1, n), {batch_size, config_.hidden_dim});
}

}  // namespace models
}  // namespace slime
