#ifndef SLIME4REC_MODELS_BERT4REC_H_
#define SLIME4REC_MODELS_BERT4REC_H_

#include <string>

#include "models/sasrec.h"

namespace slime {
namespace models {

/// BERT4Rec (Sun et al., CIKM'19): SASRec's encoder with bidirectional
/// self-attention, trained with the Cloze (masked item) objective. Item id
/// num_items+1 is the [MASK] token, one extra embedding row. Inference
/// appends [MASK] after the sequence and predicts at that position.
class Bert4Rec : public SasRec {
 public:
  explicit Bert4Rec(const ModelConfig& config)
      : SasRec(config, /*causal=*/false, config.num_items + 2) {}

  autograd::Variable Loss(const data::Batch& batch) override;
  Tensor ScoreAll(const data::Batch& batch) override;
  std::string name() const override { return "BERT4Rec"; }

 private:
  int64_t mask_token() const { return config_.num_items + 1; }

  float mask_prob_ = 0.3f;
};

}  // namespace models
}  // namespace slime

#endif  // SLIME4REC_MODELS_BERT4REC_H_
