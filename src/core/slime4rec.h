#ifndef SLIME4REC_CORE_SLIME4REC_H_
#define SLIME4REC_CORE_SLIME4REC_H_

#include <memory>
#include <string>
#include <vector>

#include "core/filter_mixer.h"
#include "models/recommender.h"

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
/// positives, in-batch negatives). The shared next-item head computes both
/// terms; this class supplies the encoder and the views.
class Slime4Rec : public models::NextItemRecommender {
 public:
  explicit Slime4Rec(const Slime4RecConfig& config);

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

  autograd::Variable UserVector(const data::Batch& batch) override {
    return EncodeLast(batch.input_ids, batch.size);
  }

  const Slime4RecConfig& slime_config() const { return slime_config_; }
  const std::vector<std::shared_ptr<FilterMixerBlock>>& blocks() const {
    return blocks_;
  }

 protected:
  /// DuoRec's views: h', a second pass over the same ids, and h_s, a pass
  /// over the same-target positives. None without use_contrastive
  /// (SLIME4Rec_w/oC), whose loss is the cross-entropy alone.
  std::optional<std::pair<autograd::Variable, autograd::Variable>>
  ContrastiveViews(const data::Batch& batch) override;

 private:
  /// The embedding layer and the L blocks, the final block at `positions`:
  /// (B, N, d) for kAll, (B, 1, d) for kLast.
  autograd::Variable EncodeAt(const std::vector<int64_t>& input_ids,
                              int64_t batch_size, Positions positions);

  Slime4RecConfig slime_config_;
  EmbeddingStem stem_;
  std::vector<std::shared_ptr<FilterMixerBlock>> blocks_;
};

}  // namespace core
}  // namespace slime

#endif  // SLIME4REC_CORE_SLIME4REC_H_
