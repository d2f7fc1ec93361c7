#ifndef SLIME4REC_CORE_LEARNABLE_FILTER_H_
#define SLIME4REC_CORE_LEARNABLE_FILTER_H_

#include "fft/spectral_ops.h"
#include "nn/module.h"

namespace slime {
namespace core {

/// A learnable complex filter W in C^{M x d} (Eqs. 14/21/25), held as two
/// real (M, d) parameters. fft::FilterMix applies it to a spectrum.
class LearnableFilter : public nn::Module {
 public:
  /// Complex weights initialised N(0, 0.02) per component, the FMLP-Rec
  /// reference initialisation.
  LearnableFilter(int64_t num_bins, int64_t dim, Rng* rng);

  /// Amplitude |W| of the learned filter, shape (M, d); used by the
  /// Fig. 7 visualisation bench.
  Tensor Amplitude() const;

  /// The weights W, real and imaginary parts, each (M, d).
  const fft::SpectralPair& weight() const { return w_; }

 private:
  fft::SpectralPair w_;
};

}  // namespace core
}  // namespace slime

#endif  // SLIME4REC_CORE_LEARNABLE_FILTER_H_
