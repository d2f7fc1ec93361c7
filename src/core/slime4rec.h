#ifndef SLIME4REC_CORE_SLIME4REC_H_
#define SLIME4REC_CORE_SLIME4REC_H_

#include <memory>
#include <string>
#include <vector>

#include "core/filter_mixer.h"
#include "models/recommender.h"
#include "nn/embedding.h"

namespace slime {
namespace core {

/// Full configuration of SLIME4Rec: the shared sequential-model options
/// plus the filter-mixer options and the contrastive-learning switch.
struct Slime4RecConfig : models::ModelConfig {
  FilterMixerOptions mixer;
  /// Enables the contrastive objective of Eqs. 33-36; disabling yields the
  /// SLIME4Rec_w/oC ablation variant.
  bool use_contrastive = true;
};

/// The paper's model (Sec. III): an attention-free transformer encoder
/// whose self-attention sublayer is replaced by the slide filter mixer,
/// trained with next-item cross-entropy plus the DuoRec-style contrastive
/// regulariser (unsupervised dropout views + supervised same-target
/// positives, in-batch negatives).
class Slime4Rec : public models::SequentialRecommender {
 public:
  explicit Slime4Rec(const Slime4RecConfig& config);

  autograd::Variable Loss(const data::Batch& batch) override;

  /// Scores (B, num_items + 1): EncodeLast + PredictLogits over consecutive
  /// groups of ScoreGroupSize() sequences, each group's rows written into
  /// the one output (a batch of one group returns its logits as they are).
  /// Peak activations are O(G * N * d) plus the B x |V| output, not
  /// O(B * N * d). Every op treats sequences independently,
  /// so in eval mode the scores equal one whole-batch pass bit for bit, in
  /// graph and no-grad mode alike. (In training mode a group's dropout
  /// draws follow the previous group's, not the whole batch's.)
  Tensor ScoreAll(const data::Batch& batch) override;

  /// G = max(1, floor(2^17 / (N * d))): the sequences whose (G, N, d)
  /// activation fits a 512 KB budget, so one ScoreAll group stays
  /// cache-sized. Fixed by the model's shape: 10 at (N, d) = (200, 64).
  int64_t ScoreGroupSize() const;

  std::string name() const override { return "SLIME4Rec"; }
  bool needs_positives() const override {
    return slime_config_.use_contrastive;
  }

  /// Runs the embedding layer (Eqs. 9-10) and the L filter-mixer blocks;
  /// `input_ids` is a flat (batch_size * max_len) id buffer. Returns the
  /// full hidden states H^L of shape (B, N, d).
  autograd::Variable Encode(const std::vector<int64_t>& input_ids,
                            int64_t batch_size);

  /// Last-position user representation h_t^L, shape (B, d). In eval mode
  /// the final block keeps only position N-1 after its irFFT (mixer
  /// dropout, residual, LayerNorm, FFN, dense residual, block LayerNorm),
  /// bit-identical to the last row of Encode. Training keeps all rows:
  /// that tail's dropout draws B * N * d numbers, and fewer draws would
  /// shift every later mask.
  autograd::Variable EncodeLast(const std::vector<int64_t>& input_ids,
                                int64_t batch_size);

  /// Recommendation logits over the item vocabulary (Eq. 31, pre-softmax):
  /// (B, num_items + 1) sharing the item embedding matrix.
  autograd::Variable PredictLogits(const autograd::Variable& h) const;

  const Slime4RecConfig& slime_config() const { return slime_config_; }
  const std::vector<std::shared_ptr<FilterMixerBlock>>& blocks() const {
    return blocks_;
  }
  const nn::Embedding& item_embedding() const { return *item_emb_; }

 private:
  /// The embedding layer and the L blocks, the final block at `positions`:
  /// (B, N, d) for kAll, (B, 1, d) for kLast.
  autograd::Variable EncodeAt(const std::vector<int64_t>& input_ids,
                              int64_t batch_size, Positions positions);

  Slime4RecConfig slime_config_;
  std::shared_ptr<nn::Embedding> item_emb_;
  autograd::Variable pos_emb_;  // (N, d)
  std::shared_ptr<nn::LayerNorm> emb_norm_;
  std::shared_ptr<nn::Dropout> emb_dropout_;
  std::vector<std::shared_ptr<FilterMixerBlock>> blocks_;
};

}  // namespace core
}  // namespace slime

#endif  // SLIME4REC_CORE_SLIME4REC_H_
