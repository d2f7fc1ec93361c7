#ifndef SLIME4REC_NN_DROPOUT_H_
#define SLIME4REC_NN_DROPOUT_H_

#include "nn/module.h"

namespace slime {
namespace nn {

/// Inverted dropout layer; active only while the module is in training
/// mode. The caller supplies the RNG so whole-model runs stay reproducible.
class Dropout : public Module {
 public:
  explicit Dropout(float p) : p_(p) {}

  /// `positions` > 1: x is the last of that many rows per sequence, and the
  /// mask is drawn as over all of them (autograd::Dropout).
  autograd::Variable Forward(const autograd::Variable& x, Rng* rng,
                             int64_t positions = 1) const;

  float p() const { return p_; }

 private:
  float p_;
};

}  // namespace nn
}  // namespace slime

#endif  // SLIME4REC_NN_DROPOUT_H_
