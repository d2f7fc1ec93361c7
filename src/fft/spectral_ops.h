#ifndef SLIME4REC_FFT_SPECTRAL_OPS_H_
#define SLIME4REC_FFT_SPECTRAL_OPS_H_

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

/// Complex elementwise product of two spectra (the filtering operation of
/// Eqs. 14/21/25): (a.re + i*a.im) * (b.re + i*b.im), as one fused kernel.
/// `b` must be non-empty and either a's shape or a suffix of it (the
/// learnable filter (M, d) tiled over a (B, M, d) spectrum); any other
/// shape aborts.
SpectralPair ComplexMul(const SpectralPair& a, const SpectralPair& b);

/// Scales both components by a constant real mask (broadcastable), used for
/// the indicator windows sigma(omega).
SpectralPair MaskSpectrum(const SpectralPair& a, const Tensor& mask);

/// (1 - gamma) * a + gamma * b, the DFS/SFS mixing of Eq. (26).
SpectralPair MixSpectra(const SpectralPair& a, const SpectralPair& b,
                        float gamma);

}  // namespace fft
}  // namespace slime

#endif  // SLIME4REC_FFT_SPECTRAL_OPS_H_
