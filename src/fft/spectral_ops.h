#ifndef SLIME4REC_FFT_SPECTRAL_OPS_H_
#define SLIME4REC_FFT_SPECTRAL_OPS_H_

#include <vector>

#include "autograd/variable.h"

namespace slime {
namespace fft {

/// A complex tensor in the frequency domain, stored as separate real and
/// imaginary Variables of identical shape (B, M, d).
struct SpectralPair {
  autograd::Variable re;
  autograd::Variable im;
};

/// Differentiable real FFT along axis 1 (the sequence axis) of a (B, N, d)
/// tensor, matching Eq. (12) of the paper: each of the B*d length-N series
/// is transformed independently. Returns (B, M, d) real/imag parts with
/// M = RfftBins(N). Forward and backward both run the packed half-spectrum
/// plan (VerticalRfftPlan); the backward is its exact adjoint.
SpectralPair Rfft(const autograd::Variable& x);

/// Differentiable inverse real FFT along axis 1: (B, M, d) spectrum back to
/// a (B, n, d) time-domain tensor (Eq. 27). `n` must satisfy
/// RfftBins(n) == M.
autograd::Variable Irfft(const SpectralPair& spectrum, int64_t n);

/// One FilterMix term: a filter W_t (M, d), its frequency window sigma_t
/// (M, 1) (undefined: the whole spectrum) and its mixing weight c_t, which
/// a lone term ignores.
struct FilterTerm {
  SpectralPair weight;
  Tensor window;
  float coeff = 1.0f;
};

/// The filter step of Eqs. 21, 25 and 26 as one op on a (B, M, d) spectrum:
/// sum_t c_t * (sigma_t (.) (X (.) W_t)) over one or two terms. Values and
/// gradients round exactly as the composed chain of complex product,
/// window mask, MulScalar and Add does. Its two graph nodes have X and
/// every W_t as parents. Under a NoGradScope, when
/// autograd::CanReuse holds for X, the result overwrites X's buffers.
SpectralPair FilterMix(SpectralPair x, const std::vector<FilterTerm>& terms);

}  // namespace fft
}  // namespace slime

#endif  // SLIME4REC_FFT_SPECTRAL_OPS_H_
