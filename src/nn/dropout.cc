#include "nn/dropout.h"

#include "autograd/ops.h"

namespace slime {
namespace nn {

autograd::Variable Dropout::Forward(const autograd::Variable& x, Rng* rng,
                                    int64_t positions) const {
  return autograd::Dropout(x, p_, training(), rng, positions);
}

}  // namespace nn
}  // namespace slime
