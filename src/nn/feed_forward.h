#ifndef SLIME4REC_NN_FEED_FORWARD_H_
#define SLIME4REC_NN_FEED_FORWARD_H_

#include <memory>

#include "nn/dropout.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace slime {
namespace nn {

/// The paper's point-wise feed-forward network (Eq. 29):
///   FFN(x) = GELU(x W1 + b1) W2 + b2,
/// with W1, W2 in R^{d x d} (hidden multiplier 1 per the paper), an inner
/// dropout after the activation and an output dropout, matching the
/// reference implementation. GELU, the inner dropout and the W2 product run
/// as one op (autograd::GeluDropoutMatMul), so a training graph keeps the
/// pre-activation x W1 + b1 but not the dropout output.
class FeedForward : public Module {
 public:
  FeedForward(int64_t dim, float dropout, Rng* rng,
              int64_t hidden_multiplier = 1);

  /// `positions` > 1: x is the last of that many rows per sequence, and both
  /// dropout masks are drawn as over all of them (autograd::Dropout).
  autograd::Variable Forward(const autograd::Variable& x, Rng* rng,
                             int64_t positions = 1) const;

 private:
  std::shared_ptr<Linear> w1_;
  std::shared_ptr<Linear> w2_;
  std::shared_ptr<Dropout> inner_dropout_;
  std::shared_ptr<Dropout> out_dropout_;
};

}  // namespace nn
}  // namespace slime

#endif  // SLIME4REC_NN_FEED_FORWARD_H_
