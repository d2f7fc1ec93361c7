#ifndef SLIME4REC_CORE_CONTRASTIVE_H_
#define SLIME4REC_CORE_CONTRASTIVE_H_

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "data/batcher.h"

namespace slime {
namespace core {

/// L2-normalises the rows of a (B, d) Variable (differentiably).
autograd::Variable NormalizeRows(const autograd::Variable& x,
                                 float eps = 1e-8f);

/// Symmetric InfoNCE between two views (Eqs. 33-34): rows of `h1` and `h2`
/// are positives of each other; every other row of the concatenated
/// 2B-view batch is a negative. Similarity is the cosine scaled by
/// 1/temperature. Returns the mean loss over the 2B anchors (which covers
/// both directions of Eq. 33).
autograd::Variable InfoNceLoss(const autograd::Variable& h1,
                               const autograd::Variable& h2,
                               float temperature);

/// DuoRec's objective (Qiu et al., WSDM'22), which SLIME4Rec adopts
/// (Eqs. 31-36): next-item cross-entropy on h = EncodeLast(ids) plus
/// cl_weight * InfoNCE(h', h_s). h' is a second pass over the same ids that
/// differs only by its dropout draws; h_s is a pass over the same-target
/// positives. The passes run in the order h, h', h_s. With `contrastive`
/// false it is the cross-entropy alone (SLIME4Rec_w/oC). `model` is a
/// SasRec or a Slime4Rec: anything with EncodeLast, PredictLogits and
/// config().
template <typename Model>
autograd::Variable DuoRecLoss(Model& model, const data::Batch& batch,
                              bool contrastive) {
  using autograd::Variable;
  Variable h = model.EncodeLast(batch.input_ids, batch.size);
  Variable rec =
      autograd::CrossEntropy(model.PredictLogits(h), batch.targets);
  if (!contrastive) return rec;
  SLIME_CHECK_MSG(!batch.positive_input_ids.empty(),
                  "contrastive training needs batch positives");
  Variable h_unsup = model.EncodeLast(batch.input_ids, batch.size);
  Variable h_sup = model.EncodeLast(batch.positive_input_ids, batch.size);
  Variable cl =
      InfoNceLoss(h_unsup, h_sup, model.config().cl_temperature);
  return autograd::Add(rec, autograd::MulScalar(cl, model.config().cl_weight));
}

}  // namespace core
}  // namespace slime

#endif  // SLIME4REC_CORE_CONTRASTIVE_H_
