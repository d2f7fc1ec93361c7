#ifndef SLIME4REC_MODELS_DUOREC_H_
#define SLIME4REC_MODELS_DUOREC_H_

#include <string>

#include "core/contrastive.h"
#include "models/sasrec.h"

namespace slime {
namespace models {

/// DuoRec (Qiu et al., WSDM'22), the paper's strongest baseline: SASRec
/// trained with next-item cross-entropy plus a contrastive regulariser
/// combining an *unsupervised* model-level view (the same sequence passed
/// through the encoder again, differing only by dropout) and a
/// *supervised* semantic view (another training sequence with the same
/// target item), with in-batch negatives. SLIME4Rec adopts exactly this
/// objective on top of its filter-mixer encoder: both call
/// core::DuoRecLoss.
class DuoRec : public SasRec {
 public:
  explicit DuoRec(const ModelConfig& config) : SasRec(config) {}

  autograd::Variable Loss(const data::Batch& batch) override {
    return core::DuoRecLoss(*this, batch, /*contrastive=*/true);
  }
  std::string name() const override { return "DuoRec"; }
  bool needs_positives() const override { return true; }
};

}  // namespace models
}  // namespace slime

#endif  // SLIME4REC_MODELS_DUOREC_H_
