#include "fft/spectral_ops.h"

#include <algorithm>
#include <vector>

#include "autograd/ops.h"
#include "compute/kernels.h"
#include "compute/thread_pool.h"
#include "fft/fft.h"

namespace slime {
namespace fft {
namespace {

using autograd::AccumulateGrad;
using autograd::MakeOpVariable;
using autograd::Variable;
using compute::GrainForWork;
using compute::ParallelFor;

/// Per-thread scratch pair for the Rfft backward's half-spectrum staging.
/// Grow-only and never zero-filled here: the backward clears the component
/// it does not fill and overwrites every row of the one it does.
struct Scratch2D {
  std::vector<float> re;
  std::vector<float> im;
  void Ensure(int64_t size) {
    if (static_cast<int64_t>(re.size()) < size) {
      re.resize(size);
      im.resize(size);
    }
  }
};

Scratch2D& GetScratch() {
  static thread_local Scratch2D s;
  return s;
}

/// Grain for the per-batch-item loops: batches tiny transforms into one
/// chunk, keeps big ones at one item per chunk. Depends only on (n, d), so
/// the decomposition stays thread-count-invariant.
int64_t BatchGrain(const VerticalRfftPlan& plan, int64_t d) {
  return GrainForWork(plan.CostPerColumn() * d);
}

}  // namespace

SpectralPair Rfft(const Variable& x) {
  const Tensor& xt = x.value();
  SLIME_CHECK_EQ(xt.dim(), 3);
  const int64_t b = xt.size(0);
  const int64_t n = xt.size(1);
  const int64_t d = xt.size(2);
  const int64_t m = RfftBins(n);
  const VerticalRfftPlan& plan = GetVerticalRfftPlan(n);
  const int64_t grain = BatchGrain(plan, d);
  Tensor re({b, m, d});
  Tensor im({b, m, d});
  // Every batch item is an independent transform into a disjoint output
  // slice.
  ParallelFor(0, b, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t bi = lo; bi < hi; ++bi) {
      plan.Forward(xt.data() + bi * n * d, d, re.data() + bi * m * d,
                   im.data() + bi * m * d);
    }
  });
  auto xn = x.node();
  // The two outputs are independent linear functions of x; each backward
  // applies the adjoint with the other component's cotangent set to zero:
  // g_x = Re(IDFT_unnormalised(zero-pad(g))). By the half-spectrum identity
  // of MATH_NOTES.md section 8 that is: halve the mirrored cotangent bins
  // (drop the DC/Nyquist imaginary parts) and run the unnormalised
  // half-spectrum inverse — no full complex plan anywhere.
  // Cached plans live for the whole process, so the closures may point at
  // one.
  auto make_backward = [xn, b, n, d, m, grain,
                        plan = &plan](bool imag_component) {
    return [xn, b, n, d, m, grain, plan, imag_component](const Tensor& g) {
      Tensor dx({b, n, d});
      ParallelFor(0, b, grain, [&](int64_t lo, int64_t hi) {
        Scratch2D& s = GetScratch();
        s.Ensure(m * d);
        float* fill = imag_component ? s.im.data() : s.re.data();
        float* zero = imag_component ? s.re.data() : s.im.data();
        std::fill(zero, zero + m * d, 0.0f);
        for (int64_t bi = lo; bi < hi; ++bi) {
          const float* gsrc = g.data() + bi * m * d;
          for (int64_t k = 0; k < m; ++k) {
            const bool mirrored = (k >= 1 && k < (n + 1) / 2);
            const float scale = mirrored ? 0.5f : 1.0f;
            const float* src = gsrc + k * d;
            float* dst = fill + k * d;
            for (int64_t f = 0; f < d; ++f) dst[f] = src[f] * scale;
          }
          plan->Inverse(s.re.data(), s.im.data(), d, dx.data() + bi * n * d,
                        /*scale=*/1.0f);
        }
      });
      AccumulateGrad(xn, dx);
    };
  };
  Variable vre = MakeOpVariable(std::move(re), {xn}, make_backward(false));
  Variable vim = MakeOpVariable(std::move(im), {xn}, make_backward(true));
  return {vre, vim};
}

Variable Irfft(const SpectralPair& spectrum, int64_t n) {
  const Tensor& re = spectrum.re.value();
  const Tensor& im = spectrum.im.value();
  SLIME_CHECK(re.shape() == im.shape());
  SLIME_CHECK_EQ(re.dim(), 3);
  const int64_t b = re.size(0);
  const int64_t m = re.size(1);
  const int64_t d = re.size(2);
  SLIME_CHECK_EQ(RfftBins(n), m);
  const VerticalRfftPlan& plan = GetVerticalRfftPlan(n);
  const int64_t grain = BatchGrain(plan, d);
  const float inv_n = 1.0f / static_cast<float>(n);
  Tensor x({b, n, d});
  ParallelFor(0, b, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t bi = lo; bi < hi; ++bi) {
      plan.Inverse(re.data() + bi * m * d, im.data() + bi * m * d, d,
                   x.data() + bi * n * d, inv_n);
    }
  });
  auto rn = spectrum.re.node();
  auto in_ = spectrum.im.node();
  return MakeOpVariable(
      std::move(x), {rn, in_},
      [rn, in_, b, n, d, m, grain, plan = &plan](const Tensor& g) {
        // Adjoint: G = (1/n) DFT(g); mirrored bins add Re(G_{n-k}) and
        // subtract Im(G_{n-k}). For real g that collapses to doubling the
        // mirrored bins of the forward rfft of g (MATH_NOTES.md section 8),
        // so the backward is "rfft, then rescale rows".
        const float inv_n2 = 1.0f / static_cast<float>(n);
        Tensor dre({b, m, d});
        Tensor dim({b, m, d});
        ParallelFor(0, b, grain, [&](int64_t lo, int64_t hi) {
          for (int64_t bi = lo; bi < hi; ++bi) {
            float* out_r = dre.data() + bi * m * d;
            float* out_i = dim.data() + bi * m * d;
            plan->Forward(g.data() + bi * n * d, d, out_r, out_i);
            for (int64_t k = 0; k < m; ++k) {
              const bool mirrored = (k >= 1 && k < (n + 1) / 2);
              const float scale = mirrored ? 2.0f * inv_n2 : inv_n2;
              float* r = out_r + k * d;
              float* i = out_i + k * d;
              for (int64_t f = 0; f < d; ++f) {
                r[f] *= scale;
                // The forward never reads the DC/Nyquist imaginary
                // inputs, so their cotangents are exactly zero.
                i[f] = mirrored ? i[f] * scale : 0.0f;
              }
            }
          }
        });
        AccumulateGrad(rn, dre);
        AccumulateGrad(in_, dim);
      });
}

namespace {

/// True if `bsh` equals the trailing dims of `ash` (so b tiles a as a
/// repeated suffix block).
bool IsSuffixShape(const std::vector<int64_t>& ash,
                   const std::vector<int64_t>& bsh) {
  if (bsh.size() > ash.size()) return false;
  const size_t off = ash.size() - bsh.size();
  for (size_t i = 0; i < bsh.size(); ++i) {
    if (bsh[i] != ash[off + i]) return false;
  }
  return true;
}

/// Backward of one output component of the fused complex product. For the
/// real output (g = g_re): d_ar = g*br, d_ai = -g*bi, d_br = sum_r g*ar,
/// d_bi = -sum_r g*ai. For the imaginary output (g = g_im): d_ar = g*bi,
/// d_ai = g*br, d_bi = sum_r g*ar, d_br = sum_r g*ai. Both reduce to the
/// same kernel with swapped/negated b-plane roles, so `sign` (-1 for the
/// real component's imaginary-plane terms) and a swap flag cover both.
struct ComplexMulGrads {
  std::shared_ptr<autograd::Node> arn, ain, brn, bin;
  Tensor ar, ai, br, bi;  // forward operand values (shared storage)
  int64_t repeats = 0;
  int64_t block = 0;

  void Apply(const Tensor& g, bool imag_component) const {
    const float* pg = g.data();
    const float* par = ar.data();
    const float* pai = ai.data();
    const float* pbr = br.data();
    const float* pbi = bi.data();
    const int64_t n = repeats * block;
    // a-side gradients: elementwise with b broadcast over the suffix block.
    const bool need_ar = arn && arn->requires_grad;
    const bool need_ai = ain && ain->requires_grad;
    if (need_ar || need_ai) {
      Tensor dar(need_ar ? ar.shape() : std::vector<int64_t>{0});
      Tensor dai(need_ai ? ai.shape() : std::vector<int64_t>{0});
      float* pdar = need_ar ? dar.data() : nullptr;
      float* pdai = need_ai ? dai.data() : nullptr;
      ParallelFor(0, n, compute::kElementwiseGrain,
                  [&](int64_t lo, int64_t hi) {
                    int64_t j = lo % block;
                    for (int64_t f = lo; f < hi; ++f) {
                      const float gv = pg[f];
                      if (imag_component) {
                        if (pdar) pdar[f] = gv * pbi[j];
                        if (pdai) pdai[f] = gv * pbr[j];
                      } else {
                        if (pdar) pdar[f] = gv * pbr[j];
                        if (pdai) pdai[f] = -(gv * pbi[j]);
                      }
                      if (++j == block) j = 0;
                    }
                  });
      if (need_ar) AccumulateGrad(arn, dar);
      if (need_ai) AccumulateGrad(ain, dai);
    }
    // b-side gradients: reduce over the repeats, column-parallel with the
    // repeat index ascending per column (bit-identical to a serial
    // row-major reduction, at any thread count).
    const bool need_br = brn && brn->requires_grad;
    const bool need_bi = bin && bin->requires_grad;
    if (need_br || need_bi) {
      Tensor dbr(need_br ? br.shape() : std::vector<int64_t>{0});
      Tensor dbi(need_bi ? bi.shape() : std::vector<int64_t>{0});
      float* pdbr = need_br ? dbr.data() : nullptr;
      float* pdbi = need_bi ? dbi.data() : nullptr;
      ParallelFor(0, block, GrainForWork(4 * repeats),
                  [&](int64_t lo, int64_t hi) {
                    for (int64_t j = lo; j < hi; ++j) {
                      float acc_r = 0.0f;
                      float acc_i = 0.0f;
                      for (int64_t r = 0; r < repeats; ++r) {
                        const float gv = pg[r * block + j];
                        acc_r += gv * par[r * block + j];
                        acc_i += gv * pai[r * block + j];
                      }
                      if (imag_component) {
                        if (pdbi) pdbi[j] = acc_r;
                        if (pdbr) pdbr[j] = acc_i;
                      } else {
                        if (pdbr) pdbr[j] = acc_r;
                        if (pdbi) pdbi[j] = -acc_i;
                      }
                    }
                  });
      if (need_br) AccumulateGrad(brn, dbr);
      if (need_bi) AccumulateGrad(bin, dbi);
    }
  }
};

}  // namespace

SpectralPair ComplexMul(const SpectralPair& a, const SpectralPair& b) {
  const Tensor& art = a.re.value();
  const Tensor& ait = a.im.value();
  const Tensor& brt = b.re.value();
  const Tensor& bit = b.im.value();
  SLIME_CHECK(art.shape() == ait.shape());
  SLIME_CHECK(brt.shape() == bit.shape());
  // b is a's shape or a repeated suffix block of it (the learnable-filter
  // case (B,M,d) * (M,d)); the numel guard keeps `repeats` well defined.
  SLIME_CHECK(IsSuffixShape(art.shape(), brt.shape()) && brt.numel() > 0);
  const int64_t block = brt.numel();
  const int64_t repeats = art.numel() / block;
  Tensor re(art.shape());
  Tensor im(art.shape());
  compute::Dispatch().complex_mul(art.data(), ait.data(), brt.data(),
                                  bit.data(), re.data(), im.data(), repeats,
                                  block);
  ComplexMulGrads grads{a.re.node(), a.im.node(), b.re.node(),
                        b.im.node(), art,         ait,
                        brt,         bit,         repeats,
                        block};
  std::vector<std::shared_ptr<autograd::Node>> parents{grads.arn, grads.ain,
                                                       grads.brn, grads.bin};
  Variable vre = MakeOpVariable(
      std::move(re), parents,
      [grads](const Tensor& g) { grads.Apply(g, /*imag_component=*/false); });
  Variable vim = MakeOpVariable(
      std::move(im), parents,
      [grads](const Tensor& g) { grads.Apply(g, /*imag_component=*/true); });
  return {vre, vim};
}

SpectralPair MaskSpectrum(const SpectralPair& a, const Tensor& mask) {
  return {autograd::MulConst(a.re, mask), autograd::MulConst(a.im, mask)};
}

SpectralPair MixSpectra(const SpectralPair& a, const SpectralPair& b,
                        float gamma) {
  using autograd::Add;
  using autograd::MulScalar;
  return {Add(MulScalar(a.re, 1.0f - gamma), MulScalar(b.re, gamma)),
          Add(MulScalar(a.im, 1.0f - gamma), MulScalar(b.im, gamma))};
}

}  // namespace fft
}  // namespace slime
