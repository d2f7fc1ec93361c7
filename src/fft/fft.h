#ifndef SLIME4REC_FFT_FFT_H_
#define SLIME4REC_FFT_FFT_H_

#include <complex>
#include <cstdint>
#include <vector>

namespace slime {
namespace fft {

/// Number of independent rFFT bins for a real signal of length n:
/// floor(n/2) + 1. (The paper's Eq. 13 writes ceil(N/2)+1, which equals this
/// for even N; for odd N the paper's formula over-counts by one bin, and
/// torch.fft.rfft — used by the authors' code — produces floor(n/2)+1, so we
/// follow the standard definition. See DESIGN.md.)
int64_t RfftBins(int64_t n);

/// In-place unnormalised complex DFT of length data.size().
///   forward:  X_k = sum_n x_n e^{-2*pi*i*n*k/N}
///   inverse:  X_n = sum_k x_k e^{+2*pi*i*n*k/N}   (NO 1/N factor)
/// Uses iterative radix-2 Cooley-Tukey when N is a power of two and
/// Bluestein's chirp-z algorithm otherwise, so any length is O(N log N).
void Fft(std::vector<std::complex<double>>* data, bool inverse);

/// Naive O(N^2) reference DFT with identical conventions; used by tests.
void NaiveDft(const std::vector<std::complex<double>>& in,
              std::vector<std::complex<double>>* out, bool inverse);

/// Real-to-complex forward transform: out_re/out_im receive RfftBins(n)
/// values of X_k = sum_n x_n e^{-2*pi*i*n*k/N}.
void RfftForward(const float* x, int64_t n, float* out_re, float* out_im);

/// Adjoint (transpose) of RfftForward viewed as a real-linear map
/// R^n -> R^{2M}: given cotangents (g_re, g_im) produces the cotangent on x.
/// This is the exact backward operator for the autograd Rfft op.
void RfftAdjoint(const float* g_re, const float* g_im, int64_t n, float* g_x);

/// Complex-to-real inverse transform of a half spectrum: treats
/// (re, im)[0..M) as the non-negative-frequency bins of a conjugate-
/// symmetric length-n spectrum (mirroring bins 1..; the given values of the
/// DC and, for even n, Nyquist bins are used as-is) and emits
/// x_n = Re( (1/N) * sum_k X~_k e^{+2*pi*i*n*k/N} ).
void IrfftForward(const float* re, const float* im, int64_t n, float* x);

/// Adjoint of IrfftForward: given the cotangent on x (length n), produces
/// cotangents on (re, im) (length M each). Exact backward operator for the
/// autograd Irfft op.
void IrfftAdjoint(const float* g_x, int64_t n, float* g_re, float* g_im);

/// A "vertical" (channel-parallel) complex FFT plan: transforms d
/// independent length-n series stored column-wise in row-major (n, d)
/// buffers. Each butterfly operates on contiguous rows of d floats, which
/// the compiler vectorises. It is the inner transform of VerticalRfftPlan,
/// which the spectral autograd ops run (the scalar functions above remain
/// as the reference implementation; tests check they agree).
///
/// Power-of-two sizes run iterative radix-2 directly; other sizes run a
/// vertical Bluestein transform over an internal power-of-two plan.
/// Conventions match Fft(): forward is e^{-i...}, inverse is unnormalised.
class VerticalFftPlan {
 public:
  explicit VerticalFftPlan(int64_t n);
  ~VerticalFftPlan();
  VerticalFftPlan(const VerticalFftPlan&) = delete;
  VerticalFftPlan& operator=(const VerticalFftPlan&) = delete;

  int64_t n() const { return n_; }

  /// In-place transform of the (n, d) complex buffer pair.
  void Transform(float* re, float* im, int64_t d, bool inverse) const;

 private:
  void TransformPow2(float* re, float* im, int64_t d, bool inverse) const;
  void TransformBluestein(float* re, float* im, int64_t d,
                          bool inverse) const;

  int64_t n_;
  bool pow2_;
  // Radix-2 tables (pow2 path and the inner plan of the Bluestein path).
  std::vector<int64_t> bitrev_;
  std::vector<float> tw_re_;  // e^{-2 pi i j / n}, j in [0, n/2)
  std::vector<float> tw_im_;
  // Bluestein tables.
  int64_t padded_ = 0;
  std::vector<float> chirp_re_;  // e^{-i pi j^2 / n}, j in [0, n)
  std::vector<float> chirp_im_;
  std::vector<float> bfft_re_;  // forward FFT of the chirp kernel b
  std::vector<float> bfft_im_;
  VerticalFftPlan* inner_ = nullptr;
};

/// A real-input "vertical" transform plan: the half-spectrum fast path for
/// the filter mixer's FFT -> ComplexMul -> iFFT hot loop. Computes the
/// forward rfft of an (n, d) real block into (m, d) half-spectrum planes
/// (m = RfftBins(n)) and the matching half-spectrum inverse, doing roughly
/// half the butterfly work of the full complex VerticalFftPlan:
///
/// - even n packs adjacent time samples z_j = x_{2j} + i*x_{2j+1} through a
///   length-n/2 complex transform and recombines X_k = E_k + w^k O_k from
///   the even/odd sub-spectra via conjugate symmetry (the classic packed
///   real-FFT trick; see docs/MATH_NOTES.md section 8);
/// - odd n > 1 runs a real-input Bluestein variant: adjacent *columns* are
///   packed z = col_{2p} + i*col_{2p+1} through the full-length complex
///   (Bluestein) plan and the two interleaved half spectra are separated
///   with X1_k = (Z_k + conj(Z_{n-k}))/2, X2_k = (Z_k - conj(Z_{n-k}))/(2i),
///   halving the number of transformed columns.
///
/// Neither direction materialises the mirrored bins k >= m of any single
/// column's spectrum. Conventions match the scalar reference ops:
/// Forward == RfftForward per column; Inverse with scale = 1/n ==
/// IrfftForward per column (the DC and, for even n, Nyquist imaginary
/// inputs are ignored, exactly like the full-spectrum operator). The exact
/// adjoints of both directions are linear-time rescalings of these same two
/// entry points (MATH_NOTES.md section 8), so autograd backward passes ride
/// the fast path too.
class VerticalRfftPlan {
 public:
  explicit VerticalRfftPlan(int64_t n);
  ~VerticalRfftPlan();
  VerticalRfftPlan(const VerticalRfftPlan&) = delete;
  VerticalRfftPlan& operator=(const VerticalRfftPlan&) = delete;

  int64_t n() const { return n_; }
  int64_t bins() const { return m_; }

  /// Forward rfft of the (n, d) real row-major block `x` into the (m, d)
  /// half-spectrum planes. `x` is left untouched; outputs must not alias it.
  void Forward(const float* x, int64_t d, float* out_re, float* out_im) const;

  /// Half-spectrum inverse: (m, d) planes -> (n, d) real block, with every
  /// output multiplied by `scale` (pass 1.0f/n for irfft, 1.0f for the
  /// unnormalised conjugate-symmetric inverse used by the Rfft adjoint).
  /// The imaginary parts of the DC and (even n) Nyquist rows are ignored,
  /// matching IrfftForward. `x` must not alias the inputs.
  void Inverse(const float* re, const float* im, int64_t d, float* x,
               float scale) const;

  /// Rough flop count per transformed column, for grain planning
  /// (compute::GrainForWork). Depends only on n.
  int64_t CostPerColumn() const;

 private:
  int64_t n_;
  int64_t m_;
  bool even_;
  // Even path: length-n/2 complex plan + recombination twiddles
  // w_k = e^{-2 pi i k / n}, k in [0, n/2].
  VerticalFftPlan* half_ = nullptr;
  std::vector<float> w_re_;
  std::vector<float> w_im_;
  // Odd path: full-length complex (Bluestein) plan fed packed column pairs.
  VerticalFftPlan* full_ = nullptr;
};

/// Returns a process-cached plan for length n. The cache is shared by all
/// threads (plans are immutable after construction and Transform is const).
const VerticalFftPlan& GetVerticalPlan(int64_t n);

/// Process-cached real-input plan for length n; same sharing contract.
const VerticalRfftPlan& GetVerticalRfftPlan(int64_t n);

}  // namespace fft
}  // namespace slime

#endif  // SLIME4REC_FFT_FFT_H_
