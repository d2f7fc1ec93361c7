#ifndef SLIME4REC_MODELS_DUOREC_H_
#define SLIME4REC_MODELS_DUOREC_H_

#include <string>

#include "models/sasrec.h"

namespace slime {
namespace models {

/// DuoRec (Qiu et al., WSDM'22), the paper's strongest baseline: SASRec
/// trained with next-item cross-entropy plus a contrastive regulariser
/// combining an *unsupervised* model-level view (the same sequence passed
/// through the encoder again, differing only by dropout) and a
/// *supervised* semantic view (another training sequence with the same
/// target item), with in-batch negatives. SLIME4Rec adopts exactly these
/// views on top of its filter-mixer encoder.
class DuoRec : public SasRec {
 public:
  explicit DuoRec(const ModelConfig& config) : SasRec(config) {}

  std::string name() const override { return "DuoRec"; }
  bool needs_positives() const override { return true; }

 protected:
  /// h', a second pass over the same ids that differs only by its dropout
  /// draws, and h_s, a pass over the same-target positives.
  std::optional<std::pair<autograd::Variable, autograd::Variable>>
  ContrastiveViews(const data::Batch& batch) override {
    SLIME_CHECK_MSG(!batch.positive_input_ids.empty(),
                    "contrastive training needs batch positives");
    autograd::Variable h_unsup = EncodeLast(batch.input_ids, batch.size);
    autograd::Variable h_sup =
        EncodeLast(batch.positive_input_ids, batch.size);
    return std::make_pair(h_unsup, h_sup);
  }
};

}  // namespace models
}  // namespace slime

#endif  // SLIME4REC_MODELS_DUOREC_H_
