#ifndef SLIME4REC_TESTS_REFERENCE_OPS_H_
#define SLIME4REC_TESTS_REFERENCE_OPS_H_

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

/// Complex elementwise product of two spectra as an autograd op:
/// (a.re + i*a.im) * (b.re + i*b.im), forward through the active kernel
/// tier's complex_mul. `b` must be non-empty and either a's shape or a
/// suffix of it (a (M, d) filter tiled over a (B, M, d) spectrum); any
/// other shape aborts. Its gradients round as fft::FilterMix's do, so the
/// composed filter chain built from it is FilterMix's bit-exact reference.
fft::SpectralPair ComplexMul(const fft::SpectralPair& a,
                             const fft::SpectralPair& b);

}  // namespace reference
}  // namespace slime

#endif  // SLIME4REC_TESTS_REFERENCE_OPS_H_
