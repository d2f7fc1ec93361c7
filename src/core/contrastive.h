#ifndef SLIME4REC_CORE_CONTRASTIVE_H_
#define SLIME4REC_CORE_CONTRASTIVE_H_

#include "autograd/variable.h"

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

}  // namespace core
}  // namespace slime

#endif  // SLIME4REC_CORE_CONTRASTIVE_H_
