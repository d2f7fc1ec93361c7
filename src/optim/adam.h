#ifndef SLIME4REC_OPTIM_ADAM_H_
#define SLIME4REC_OPTIM_ADAM_H_

#include <vector>

#include "autograd/variable.h"
#include "common/status.h"
#include "tensor/tensor.h"

namespace slime {
namespace optim {

/// Adam (Kingma & Ba) with bias correction over a fixed parameter list
/// (beta1 0.9, beta2 0.999, eps 1e-8). Parameters are shared Variable
/// handles; Step() reads their accumulated gradients, updates values in
/// place and clears the gradients. The default lr mirrors the paper's
/// training setup (1e-3).
///
/// The moments m and v exist only once the optimizer has stepped: the
/// constructor allocates nothing, and the first Step() zero-fills one m and
/// one v per parameter. Step() runs after Backward(), so the two moment
/// planes never sit next to a step's activations.
class Adam {
 public:
  struct Options {
    float lr = 1e-3f;
  };

  Adam(std::vector<autograd::Variable> params, Options options);
  explicit Adam(std::vector<autograd::Variable> params);

  /// Applies one update from the current gradients and clears them.
  void Step();

  /// Clears all parameter gradients.
  void ZeroGrad() {
    for (auto& p : params_) p.ZeroGrad();
  }

  /// The global L2 norm over all parameter gradients (sqrt of the sum of
  /// squared per-parameter norms). Telemetry reads this pre-clip.
  double GradNorm() const;

  /// Global-norm gradient clipping; a no-op if the norm is under
  /// `max_norm`. Call before Step().
  void ClipGradNorm(double max_norm) { ClipGradNorm(max_norm, GradNorm()); }

  /// Same, with the norm precomputed by GradNorm() — callers that already
  /// read the norm (the trainer, for telemetry) avoid a second pass.
  void ClipGradNorm(double max_norm, double total_norm);

  const std::vector<autograd::Variable>& params() const { return params_; }
  void set_lr(float lr) { options_.lr = lr; }

  /// Serialisable optimizer state, exposed so train-state snapshots can
  /// persist the moments and bias-correction step across a crash/resume.
  /// Both moment lists are empty until the first Step().
  int64_t step_count() const { return t_; }
  const std::vector<Tensor>& first_moments() const { return m_; }
  const std::vector<Tensor>& second_moments() const { return v_; }

  /// Restores state captured from an identically-parameterised Adam. The
  /// moment lists either match the parameter list element-for-element in
  /// count and shape (any step count), or are both empty with step_count 0,
  /// which returns the optimizer to its never-stepped state. Anything else
  /// (empty lists at a later step, one list empty and the other not, a
  /// count or shape mismatch, a negative step) is rejected with
  /// InvalidArgument and leaves the optimizer unchanged.
  Status RestoreState(int64_t step_count, std::vector<Tensor> m,
                      std::vector<Tensor> v);

 private:
  std::vector<autograd::Variable> params_;
  Options options_;
  int64_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace optim
}  // namespace slime

#endif  // SLIME4REC_OPTIM_ADAM_H_
