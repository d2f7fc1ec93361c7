#include "models/bert4rec.h"

#include "autograd/ops.h"

namespace slime {
namespace models {

autograd::Variable Bert4Rec::Loss(const data::Batch& batch) {
  using autograd::CrossEntropy;
  using autograd::Reshape;
  using autograd::Variable;
  const int64_t n = config_.max_len;
  constexpr int64_t kIgnore = -100;
  // Cloze training over the full sequence (prefix + target item): mask a
  // random subset of the real positions, always including the final one so
  // the objective stays aligned with next-item evaluation.
  std::vector<int64_t> masked(batch.size * n, 0);
  std::vector<int64_t> labels(batch.size * n, kIgnore);
  for (int64_t i = 0; i < batch.size; ++i) {
    std::vector<int64_t> full = batch.raw_prefixes[i];
    full.push_back(batch.targets[i]);
    const std::vector<int64_t> padded = data::PadTruncate(full, n);
    for (int64_t t = 0; t < n; ++t) {
      const int64_t id = padded[t];
      const int64_t idx = i * n + t;
      if (id == 0) continue;
      const bool is_last = t == n - 1;
      if (is_last || rng_.Bernoulli(mask_prob_)) {
        masked[idx] = mask_token();
        labels[idx] = id;
      } else {
        masked[idx] = id;
      }
    }
  }
  Variable h = Encode(masked, batch.size);  // (B, N, d)
  Variable logits = PredictLogits(
      Reshape(h, {batch.size * n, config_.hidden_dim}));  // (B*N, V+2)
  return CrossEntropy(logits, labels, kIgnore);
}

Tensor Bert4Rec::ScoreAll(const data::Batch& batch) {
  const int64_t n = config_.max_len;
  // Append [MASK] to each sequence and predict at the final position.
  std::vector<int64_t> masked(batch.size * n, 0);
  for (int64_t i = 0; i < batch.size; ++i) {
    std::vector<int64_t> input = batch.raw_prefixes[i];
    input.push_back(mask_token());
    const std::vector<int64_t> padded = data::PadTruncate(input, n);
    for (int64_t t = 0; t < n; ++t) masked[i * n + t] = padded[t];
  }
  const Tensor full = PredictLogits(EncodeLast(masked, batch.size)).value();
  // Drop the [MASK] column: return (B, num_items + 1).
  Tensor out({batch.size, config_.num_items + 1});
  for (int64_t i = 0; i < batch.size; ++i) {
    const float* src = full.data() + i * (config_.num_items + 2);
    float* dst = out.data() + i * (config_.num_items + 1);
    std::copy(src, src + config_.num_items + 1, dst);
  }
  return out;
}

}  // namespace models
}  // namespace slime
