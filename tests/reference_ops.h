#ifndef SLIME4REC_TESTS_REFERENCE_OPS_H_
#define SLIME4REC_TESTS_REFERENCE_OPS_H_

#include <complex>
#include <cstdint>
#include <vector>

#include "autograd/variable.h"
#include "common/random.h"
#include "fft/spectral_ops.h"
#include "tensor/tensor.h"

/// Plain reference implementations that only the tests use: the library's
/// fused kernels and ops are checked against graphs and products built
/// from these.
namespace slime {
namespace reference {

/// Swaps the last two dimensions (rank >= 2): the explicit transpose that
/// MatMulTransA/MatMulTransB fold into their kernels.
Tensor TransposeLastTwo(const Tensor& a);

/// rfft of one real series by the direct DFT (fft::NaiveDft): bins
/// 0..RfftBins(n)-1 of its forward transform, in double precision.
std::vector<std::complex<double>> NaiveRfft(const std::vector<float>& x);

/// irfft of one half spectrum, re and im of length RfftBins(n), by the
/// direct DFT: the real part of fft::NaiveDft's inverse of the
/// conjugate-symmetric length-n extension, times 1/n. The DC and (even n)
/// Nyquist imaginary parts fall out of the real part, as
/// VerticalRfftPlan::Inverse ignores them.
std::vector<double> NaiveIrfft(const std::vector<float>& re,
                               const std::vector<float>& im, int64_t n);

/// Complex elementwise product of two spectra as an autograd op:
/// (a.re + i*a.im) * (b.re + i*b.im), forward through the active kernel
/// tier's complex_mul. `b` must be non-empty and either a's shape or a
/// suffix of it (a (M, d) filter tiled over a (B, M, d) spectrum); any
/// other shape aborts. Its gradients round as fft::FilterMix's do, so the
/// composed filter chain built from it is FilterMix's bit-exact reference.
fft::SpectralPair ComplexMul(const fft::SpectralPair& a,
                             const fft::SpectralPair& b);

/// nn::FeedForward's forward as the composed chain that
/// autograd::GeluDropoutMatMul replaced: x (..., d) flattened, then MatMul
/// W1, Add b1, Gelu, Dropout(p), Reshape, MatMul W2, Add b2, Reshape back,
/// Dropout(p). `params` are (W1, b1, W2, b2), FeedForward::Parameters()'s
/// order. Every op records the graph that chain recorded.
autograd::Variable FeedForwardChain(
    const autograd::Variable& x, const std::vector<autograd::Variable>& params,
    float p, bool training, Rng* rng);

}  // namespace reference
}  // namespace slime

#endif  // SLIME4REC_TESTS_REFERENCE_OPS_H_
