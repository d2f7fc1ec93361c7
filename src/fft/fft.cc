#include "fft/fft.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>

#include "common/macros.h"

namespace slime {
namespace fft {
namespace {

constexpr double kPi = 3.14159265358979323846;

bool IsPowerOfTwo(int64_t n) { return n > 0 && (n & (n - 1)) == 0; }

int64_t NextPowerOfTwo(int64_t n) {
  int64_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

int64_t RfftBins(int64_t n) {
  SLIME_CHECK_GT(n, 0);
  return n / 2 + 1;
}

void NaiveDft(const std::vector<std::complex<double>>& in,
              std::vector<std::complex<double>>* out, bool inverse) {
  const int64_t n = static_cast<int64_t>(in.size());
  out->assign(n, {0.0, 0.0});
  const double sign = inverse ? 1.0 : -1.0;
  for (int64_t k = 0; k < n; ++k) {
    std::complex<double> acc(0.0, 0.0);
    for (int64_t j = 0; j < n; ++j) {
      const double ang = sign * 2.0 * kPi * static_cast<double>(j) *
                         static_cast<double>(k) / static_cast<double>(n);
      acc += in[j] * std::complex<double>(std::cos(ang), std::sin(ang));
    }
    (*out)[k] = acc;
  }
}

VerticalFftPlan::VerticalFftPlan(int64_t n) : n_(n) {
  SLIME_CHECK_GE(n, 1);
  pow2_ = (n & (n - 1)) == 0;
  if (pow2_) {
    bitrev_.resize(n);
    for (int64_t i = 1, j = 0; i < n; ++i) {
      int64_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      bitrev_[i] = j;
    }
    tw_re_.resize(std::max<int64_t>(1, n / 2));
    tw_im_.resize(std::max<int64_t>(1, n / 2));
    for (int64_t j = 0; j < n / 2; ++j) {
      const double ang = -2.0 * kPi * static_cast<double>(j) /
                         static_cast<double>(n);
      tw_re_[j] = static_cast<float>(std::cos(ang));
      tw_im_[j] = static_cast<float>(std::sin(ang));
    }
    return;
  }
  // Bluestein: pad to a power of two >= 2n - 1 with an inner pow2 plan.
  padded_ = NextPowerOfTwo(2 * n - 1);
  inner_ = new VerticalFftPlan(padded_);
  chirp_re_.resize(n);
  chirp_im_.resize(n);
  for (int64_t j = 0; j < n; ++j) {
    const int64_t e = static_cast<int64_t>(
        (static_cast<unsigned long long>(j) * j) % (2ull * n));
    const double ang = -kPi * static_cast<double>(e) / static_cast<double>(n);
    chirp_re_[j] = static_cast<float>(std::cos(ang));
    chirp_im_[j] = static_cast<float>(std::sin(ang));
  }
  // b_j = conj(chirp_j) wrapped symmetrically; precompute its forward FFT
  // (d = 1 column through the inner plan).
  std::vector<float> bre(padded_, 0.0f);
  std::vector<float> bim(padded_, 0.0f);
  bre[0] = chirp_re_[0];
  bim[0] = -chirp_im_[0];
  for (int64_t j = 1; j < n; ++j) {
    bre[j] = chirp_re_[j];
    bim[j] = -chirp_im_[j];
    bre[padded_ - j] = bre[j];
    bim[padded_ - j] = bim[j];
  }
  inner_->Transform(bre.data(), bim.data(), 1, /*inverse=*/false);
  bfft_re_ = std::move(bre);
  bfft_im_ = std::move(bim);
}

VerticalFftPlan::~VerticalFftPlan() { delete inner_; }

void VerticalFftPlan::TransformPow2(float* re, float* im, int64_t d,
                                    bool inverse) const {
  const int64_t n = n_;
  // Bit-reversal permutation of rows.
  for (int64_t i = 1; i < n; ++i) {
    const int64_t j = bitrev_[i];
    if (i < j) {
      std::swap_ranges(re + i * d, re + (i + 1) * d, re + j * d);
      std::swap_ranges(im + i * d, im + (i + 1) * d, im + j * d);
    }
  }
  const float isign = inverse ? -1.0f : 1.0f;  // conjugate twiddles
  for (int64_t len = 2; len <= n; len <<= 1) {
    const int64_t half = len / 2;
    const int64_t stride = n / len;
    for (int64_t base = 0; base < n; base += len) {
      for (int64_t j = 0; j < half; ++j) {
        const float wr = tw_re_[j * stride];
        const float wi = isign * tw_im_[j * stride];
        float* ur = re + (base + j) * d;
        float* ui = im + (base + j) * d;
        float* vr = re + (base + j + half) * d;
        float* vi = im + (base + j + half) * d;
        for (int64_t f = 0; f < d; ++f) {
          const float tr = vr[f] * wr - vi[f] * wi;
          const float ti = vr[f] * wi + vi[f] * wr;
          vr[f] = ur[f] - tr;
          vi[f] = ui[f] - ti;
          ur[f] += tr;
          ui[f] += ti;
        }
      }
    }
  }
}

void VerticalFftPlan::TransformBluestein(float* re, float* im, int64_t d,
                                         bool inverse) const {
  const int64_t n = n_;
  const int64_t m = padded_;
  // inverse(x) = conj(forward(conj(x))): conjugate the data around the
  // forward pipeline (the chirp/kernel constants stay untouched).
  if (inverse) {
    for (int64_t i = 0; i < n * d; ++i) im[i] = -im[i];
  }
  static thread_local std::vector<float> are;
  static thread_local std::vector<float> aim;
  are.assign(m * d, 0.0f);
  aim.assign(m * d, 0.0f);
  for (int64_t j = 0; j < n; ++j) {
    const float cr = chirp_re_[j];
    const float ci = chirp_im_[j];
    const float* xr = re + j * d;
    const float* xi = im + j * d;
    float* ar = are.data() + j * d;
    float* ai = aim.data() + j * d;
    for (int64_t f = 0; f < d; ++f) {
      ar[f] = xr[f] * cr - xi[f] * ci;
      ai[f] = xr[f] * ci + xi[f] * cr;
    }
  }
  inner_->TransformPow2(are.data(), aim.data(), d, false);
  // Row-wise multiply by the precomputed kernel spectrum.
  for (int64_t j = 0; j < m; ++j) {
    const float br = bfft_re_[j];
    const float bi = bfft_im_[j];
    float* ar = are.data() + j * d;
    float* ai = aim.data() + j * d;
    for (int64_t f = 0; f < d; ++f) {
      const float vr = ar[f];
      const float vi = ai[f];
      ar[f] = vr * br - vi * bi;
      ai[f] = vr * bi + vi * br;
    }
  }
  inner_->TransformPow2(are.data(), aim.data(), d, true);
  const float inv_m = 1.0f / static_cast<float>(m);
  const float osign = inverse ? -1.0f : 1.0f;  // output conjugation
  for (int64_t k = 0; k < n; ++k) {
    const float cr = chirp_re_[k];
    const float ci = chirp_im_[k];
    const float* ar = are.data() + k * d;
    const float* ai = aim.data() + k * d;
    float* xr = re + k * d;
    float* xi = im + k * d;
    for (int64_t f = 0; f < d; ++f) {
      const float vr = ar[f] * inv_m;
      const float vi = ai[f] * inv_m;
      xr[f] = vr * cr - vi * ci;
      xi[f] = osign * (vr * ci + vi * cr);
    }
  }
}

void VerticalFftPlan::Transform(float* re, float* im, int64_t d,
                                bool inverse) const {
  if (n_ <= 1) return;
  if (pow2_) {
    TransformPow2(re, im, d, inverse);
  } else {
    TransformBluestein(re, im, d, inverse);
  }
}

// ---------------------------------------------------------------------------
// VerticalRfftPlan: the half-spectrum real-input fast path.
// ---------------------------------------------------------------------------

namespace {

/// Per-thread packed planes for the real-input transforms. Grow-only and
/// fully overwritten before every transform, so no zero-fill is needed.
/// Distinct from TransformBluestein's scratch, which may be live in the same
/// call stack when the inner complex plan is a Bluestein plan.
struct PackedScratch {
  std::vector<float> re;
  std::vector<float> im;
  void Ensure(int64_t size) {
    if (static_cast<int64_t>(re.size()) < size) {
      re.resize(size);
      im.resize(size);
    }
  }
};

PackedScratch& GetPackedScratch() {
  static thread_local PackedScratch s;
  return s;
}

}  // namespace

VerticalRfftPlan::VerticalRfftPlan(int64_t n) : n_(n), m_(RfftBins(n)) {
  SLIME_CHECK_GE(n, 1);
  even_ = (n % 2 == 0);
  if (n == 1) return;  // trivial: X_0 = x_0
  if (even_) {
    const int64_t h = n / 2;
    half_ = new VerticalFftPlan(h);
    // Recombination twiddles w_k = e^{-2 pi i k / n}, k = 0..h. Computed in
    // double so w_0 = (1, 0) exactly (keeps the DC bin's imaginary part an
    // exact zero, as in NaiveDft).
    w_re_.resize(h + 1);
    w_im_.resize(h + 1);
    for (int64_t k = 0; k <= h; ++k) {
      const double ang = -2.0 * kPi * static_cast<double>(k) /
                         static_cast<double>(n);
      w_re_[k] = static_cast<float>(std::cos(ang));
      w_im_[k] = static_cast<float>(std::sin(ang));
    }
  } else {
    // Odd n > 1 is never a power of two, so this is the Bluestein plan; the
    // real-input saving comes from packing column pairs through it.
    full_ = new VerticalFftPlan(n);
  }
}

VerticalRfftPlan::~VerticalRfftPlan() {
  delete half_;
  delete full_;
}

void VerticalRfftPlan::Forward(const float* x, int64_t d, float* out_re,
                               float* out_im) const {
  if (n_ == 1) {
    std::copy(x, x + d, out_re);
    std::fill(out_im, out_im + d, 0.0f);
    return;
  }
  PackedScratch& s = GetPackedScratch();
  if (even_) {
    const int64_t h = n_ / 2;
    s.Ensure(h * d);
    float* zr = s.re.data();
    float* zi = s.im.data();
    // Pack adjacent time samples: z_j = x_{2j} + i * x_{2j+1}.
    for (int64_t j = 0; j < h; ++j) {
      std::copy(x + (2 * j) * d, x + (2 * j + 1) * d, zr + j * d);
      std::copy(x + (2 * j + 1) * d, x + (2 * j + 2) * d, zi + j * d);
    }
    half_->Transform(zr, zi, d, /*inverse=*/false);
    // Recombine: E_k = (Z_k + conj(Z_{h-k}))/2, O_k = (Z_k - conj(Z_{h-k}))
    // / (2i), X_k = E_k + w^k O_k. One ascending pass writing each output
    // row once: sequential store streams beat the load savings of
    // mirror-pair processing on store-bound hosts (rows k and h-k both
    // reload, but loads are cheap next to scattered stores).
    {
      // k = 0 and k = h both read only Z_0; their imaginary parts are
      // exactly zero (real input), so write them as such.
      const float* SLIME_RESTRICT ar = zr;
      const float* SLIME_RESTRICT ai = zi;
      float* SLIME_RESTRICT dc_r = out_re;
      float* SLIME_RESTRICT ny_r = out_re + h * d;
      float* SLIME_RESTRICT dc_i = out_im;
      float* SLIME_RESTRICT ny_i = out_im + h * d;
      for (int64_t f = 0; f < d; ++f) {
        dc_r[f] = ar[f] + ai[f];
        ny_r[f] = ar[f] - ai[f];
        dc_i[f] = 0.0f;
        ny_i[f] = 0.0f;
      }
    }
    for (int64_t k = 1; k < h; ++k) {
      const float wr = w_re_[k];
      const float wi = w_im_[k];
      const float* SLIME_RESTRICT ar = zr + k * d;
      const float* SLIME_RESTRICT ai = zi + k * d;
      const float* SLIME_RESTRICT br = zr + (h - k) * d;
      const float* SLIME_RESTRICT bi = zi + (h - k) * d;
      float* SLIME_RESTRICT xr = out_re + k * d;
      float* SLIME_RESTRICT xi = out_im + k * d;
      // With sr = ar + br, dr = ar - br, si = ai + bi, di = ai - bi:
      // X_k = ((sr + wr*si + wi*dr)/2, (di - wr*dr + wi*si)/2).
      for (int64_t f = 0; f < d; ++f) {
        const float sr = ar[f] + br[f];
        const float dr = ar[f] - br[f];
        const float si = ai[f] + bi[f];
        const float di = ai[f] - bi[f];
        xr[f] = 0.5f * (sr + wr * si + wi * dr);
        xi[f] = 0.5f * (di - wr * dr + wi * si);
      }
    }
    return;
  }
  // Odd path: pack adjacent columns z = col_{2p} + i * col_{2p+1} and run
  // the full-length Bluestein plan once over ceil(d/2) columns.
  const int64_t dp = (d + 1) / 2;
  s.Ensure(n_ * dp);
  float* zr = s.re.data();
  float* zi = s.im.data();
  for (int64_t j = 0; j < n_; ++j) {
    const float* row = x + j * d;
    float* r = zr + j * dp;
    float* i = zi + j * dp;
    for (int64_t p = 0; p < dp; ++p) {
      r[p] = row[2 * p];
      i[p] = (2 * p + 1 < d) ? row[2 * p + 1] : 0.0f;
    }
  }
  full_->Transform(zr, zi, dp, /*inverse=*/false);
  // Separate the two interleaved real spectra from the packed transform:
  // X1_k = (Z_k + conj(Z_{n-k}))/2, X2_k = (Z_k - conj(Z_{n-k}))/(2i).
  for (int64_t k = 0; k < m_; ++k) {
    const int64_t krev = (n_ - k) % n_;
    const float* ar = zr + k * dp;
    const float* ai = zi + k * dp;
    const float* br = zr + krev * dp;
    const float* bi = zi + krev * dp;
    float* xr = out_re + k * d;
    float* xi = out_im + k * d;
    for (int64_t p = 0; p < dp; ++p) {
      const float x1r = 0.5f * (ar[p] + br[p]);
      const float x1i = 0.5f * (ai[p] - bi[p]);
      xr[2 * p] = x1r;
      xi[2 * p] = x1i;
      if (2 * p + 1 < d) {
        xr[2 * p + 1] = 0.5f * (ai[p] + bi[p]);
        xi[2 * p + 1] = 0.5f * (br[p] - ar[p]);
      }
    }
  }
}

void VerticalRfftPlan::Inverse(const float* re, const float* im, int64_t d,
                               float* x, float scale) const {
  if (n_ == 1) {
    for (int64_t f = 0; f < d; ++f) x[f] = re[f] * scale;
    return;
  }
  PackedScratch& s = GetPackedScratch();
  if (even_) {
    const int64_t h = n_ / 2;
    s.Ensure(h * d);
    float* zr = s.re.data();
    float* zi = s.im.data();
    // Build the packed spectrum Z_k = E'_k + i O'_k with
    //   E'_k = X~_k + X~_{k+h},  O'_k = (X~_k - X~_{k+h}) * conj(w_k),
    // where X~ is the conjugate-symmetric extension (DC / Nyquist imaginary
    // parts ignored). Row 0 is the only row touching DC and Nyquist:
    // Z_0 = (re_0 + re_h) + i (re_0 - re_h).
    {
      const float* r0 = re;
      const float* rn = re + h * d;
      for (int64_t f = 0; f < d; ++f) {
        zr[f] = r0[f] + rn[f];
        zi[f] = r0[f] - rn[f];
      }
    }
    // One ascending pass writing each packed row once (sequential store
    // streams; see the forward recombination note).
    for (int64_t k = 1; k < h; ++k) {
      const float wr = w_re_[k];
      const float wi = w_im_[k];
      const float* SLIME_RESTRICT ar = re + k * d;        // X_k
      const float* SLIME_RESTRICT ai = im + k * d;
      const float* SLIME_RESTRICT br = re + (h - k) * d;  // X_{h-k};
      const float* SLIME_RESTRICT bi = im + (h - k) * d;  // X~_{k+h} = conj
      float* SLIME_RESTRICT r = zr + k * d;
      float* SLIME_RESTRICT i = zi + k * d;
      for (int64_t f = 0; f < d; ++f) {
        const float dr = ar[f] - br[f];
        const float di = ai[f] + bi[f];
        // O' = (dr, di) * (wr, -wi)
        const float opr = dr * wr + di * wi;
        const float opi = di * wr - dr * wi;
        r[f] = (ar[f] + br[f]) - opi;
        i[f] = (ai[f] - bi[f]) + opr;
      }
    }
    half_->Transform(zr, zi, d, /*inverse=*/true);
    // Unpack: x_{2j} = Re z_j, x_{2j+1} = Im z_j (times scale).
    for (int64_t j = 0; j < h; ++j) {
      const float* SLIME_RESTRICT r = zr + j * d;
      const float* SLIME_RESTRICT i = zi + j * d;
      float* SLIME_RESTRICT even_row = x + (2 * j) * d;
      float* SLIME_RESTRICT odd_row = x + (2 * j + 1) * d;
      for (int64_t f = 0; f < d; ++f) {
        even_row[f] = r[f] * scale;
        odd_row[f] = i[f] * scale;
      }
    }
    return;
  }
  // Odd path: reconstruct the packed pair spectrum Z~ = X~1 + i X~2 for
  // column pairs and invert once through the full-length plan. The mirrored
  // rows k >= m are filled from the stored bins of *both* packed columns, so
  // per column this still reads only the half spectrum.
  const int64_t dp = (d + 1) / 2;
  s.Ensure(n_ * dp);
  float* zr = s.re.data();
  float* zi = s.im.data();
  {
    // Row 0 (DC): imaginary inputs ignored.
    const float* row = re;
    float* r = zr;
    float* i = zi;
    for (int64_t p = 0; p < dp; ++p) {
      r[p] = row[2 * p];
      i[p] = (2 * p + 1 < d) ? row[2 * p + 1] : 0.0f;
    }
  }
  for (int64_t k = 1; k < n_; ++k) {
    const bool stored = k < m_;
    const int64_t src = stored ? k : n_ - k;
    const float* r1 = re + src * d;
    const float* i1 = im + src * d;
    float* r = zr + k * dp;
    float* i = zi + k * dp;
    const float sgn = stored ? 1.0f : -1.0f;  // conjugate for mirrored rows
    for (int64_t p = 0; p < dp; ++p) {
      const float x1r = r1[2 * p];
      const float x1i = sgn * i1[2 * p];
      const float x2r = (2 * p + 1 < d) ? r1[2 * p + 1] : 0.0f;
      const float x2i = (2 * p + 1 < d) ? sgn * i1[2 * p + 1] : 0.0f;
      // Z~ = X~1 + i X~2
      r[p] = x1r - x2i;
      i[p] = x1i + x2r;
    }
  }
  full_->Transform(zr, zi, dp, /*inverse=*/true);
  for (int64_t j = 0; j < n_; ++j) {
    const float* r = zr + j * dp;
    const float* i = zi + j * dp;
    float* row = x + j * d;
    for (int64_t p = 0; p < dp; ++p) {
      row[2 * p] = r[p] * scale;
      if (2 * p + 1 < d) row[2 * p + 1] = i[p] * scale;
    }
  }
}

namespace {

/// Rough flop count per column of a VerticalFftPlan of length n.
int64_t VerticalPlanCostPerColumn(int64_t n) {
  if (n <= 1) return 1;
  if (IsPowerOfTwo(n)) {
    int64_t log2n = 0;
    for (int64_t v = n; v > 1; v >>= 1) ++log2n;
    return 5 * n * log2n;
  }
  // Bluestein: chirp pre/post multiplies plus two padded pow2 transforms
  // and the kernel multiply.
  const int64_t p = NextPowerOfTwo(2 * n - 1);
  return 12 * n + 6 * p + 2 * VerticalPlanCostPerColumn(p);
}

}  // namespace

int64_t VerticalRfftPlan::CostPerColumn() const {
  if (n_ == 1) return 1;
  if (even_) return VerticalPlanCostPerColumn(n_ / 2) + 10 * m_;
  // Column pairs share one full-length transform.
  return VerticalPlanCostPerColumn(n_) / 2 + 10 * m_;
}

// ---------------------------------------------------------------------------
// Plan caches. One process-wide mutex-guarded cache per plan kind: plans are
// immutable after construction and Transform/Forward/Inverse are const and
// use per-thread scratch, so a single instance is safe to share across every
// pool and backward thread. (The old per-thread caches rebuilt identical
// twiddle/chirp tables once per calling thread per length.) Both maps are
// deliberately leaked so worker threads may still use plans during static
// destruction at shutdown.
// ---------------------------------------------------------------------------

const VerticalFftPlan& GetVerticalPlan(int64_t n) {
  static std::mutex* mu = new std::mutex;
  static std::map<int64_t, std::unique_ptr<VerticalFftPlan>>* plans =
      new std::map<int64_t, std::unique_ptr<VerticalFftPlan>>();
  std::lock_guard<std::mutex> lock(*mu);
  auto it = plans->find(n);
  if (it == plans->end()) {
    it = plans->emplace(n, std::make_unique<VerticalFftPlan>(n)).first;
  }
  return *it->second;
}

const VerticalRfftPlan& GetVerticalRfftPlan(int64_t n) {
  static std::mutex* mu = new std::mutex;
  static std::map<int64_t, std::unique_ptr<VerticalRfftPlan>>* plans =
      new std::map<int64_t, std::unique_ptr<VerticalRfftPlan>>();
  std::lock_guard<std::mutex> lock(*mu);
  auto it = plans->find(n);
  if (it == plans->end()) {
    it = plans->emplace(n, std::make_unique<VerticalRfftPlan>(n)).first;
  }
  return *it->second;
}

}  // namespace fft
}  // namespace slime
