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
      AccumulateGrad(xn, std::move(dx));
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
        AccumulateGrad(rn, std::move(dre));
        AccumulateGrad(in_, std::move(dim));
      });
}

namespace {

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
      if (need_ar) AccumulateGrad(arn, std::move(dar));
      if (need_ai) AccumulateGrad(ain, std::move(dai));
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
      if (need_br) AccumulateGrad(brn, std::move(dbr));
      if (need_bi) AccumulateGrad(bin, std::move(dbi));
    }
  }
};

/// One FilterMix term's backward: the complex-product gradients, and the
/// window and coefficient its cotangent is scaled by.
struct FilterTermGrads {
  ComplexMulGrads product;
  Tensor window;  // (M, 1), or undefined: 1 everywhere
  float coeff;    // 1 for a lone term
};

}  // namespace

SpectralPair FilterMix(SpectralPair x, const std::vector<FilterTerm>& terms) {
  SLIME_CHECK(terms.size() == 1 || terms.size() == 2);
  SLIME_CHECK(x.re.shape() == x.im.shape() && x.re.value().dim() == 3);
  const int64_t b = x.re.size(0);
  const int64_t m = x.re.size(1);
  const int64_t d = x.re.size(2);
  const int64_t block = m * d;
  const bool mix = terms.size() == 2;
  // Asked before `grads` and `parents` take their own handles on X.
  const bool in_place = autograd::CanReuse(x.re) && autograd::CanReuse(x.im);
  std::vector<std::shared_ptr<autograd::Node>> parents{x.re.node(),
                                                       x.im.node()};
  std::vector<FilterTermGrads> grads;
  for (const FilterTerm& t : terms) {
    SLIME_CHECK(t.weight.re.shape() == (std::vector<int64_t>{m, d}) &&
                t.weight.im.shape() == t.weight.re.shape() &&
                (!t.window.defined() || t.window.numel() == m));
    grads.push_back({{x.re.node(), x.im.node(), t.weight.re.node(),
                      t.weight.im.node(), x.re.value(), x.im.value(),
                      t.weight.re.value(), t.weight.im.value(), b, block},
                     t.window,
                     mix ? t.coeff : 1.0f});
    parents.push_back(t.weight.re.node());
    parents.push_back(t.weight.im.node());
  }
  Tensor re = in_place ? x.re.value() : Tensor(x.re.shape());
  Tensor im = in_place ? x.im.value() : Tensor(x.re.shape());
  const auto& kt = compute::Dispatch();
  // One batch item at a time: every term into scratch planes, then the
  // item's output (which may be X's own item). Per element, (v * sigma) * c
  // and the add round as the window mask, MulScalar and Add would; a
  // factor of 1 is exact.
  ParallelFor(0, b, GrainForWork(8 * block), [&](int64_t lo, int64_t hi) {
    std::vector<float> scratch(2 * terms.size() * block);
    for (int64_t off = lo * block; off < hi * block; off += block) {
      for (size_t t = 0; t < terms.size(); ++t) {
        float* tr = scratch.data() + 2 * t * block;
        float* ti = tr + block;
        const ComplexMulGrads& p = grads[t].product;
        kt.complex_mul(p.ar.data() + off, p.ai.data() + off, p.br.data(),
                       p.bi.data(), tr, ti, /*repeats=*/1, block);
        const Tensor& window = grads[t].window;
        const float* sigma = window.defined() ? window.data() : nullptr;
        const float c = grads[t].coeff;
        for (int64_t row = 0; row < m; ++row) {
          const float s = sigma ? sigma[row] : 1.0f;
          for (int64_t j = row * d; j < (row + 1) * d; ++j) {
            tr[j] = tr[j] * s * c;
            ti[j] = ti[j] * s * c;
          }
        }
      }
      const float* s0 = scratch.data();
      if (mix) {
        kt.add(s0, s0 + 2 * block, re.data() + off, block);
        kt.add(s0 + block, s0 + 3 * block, im.data() + off, block);
      } else {
        std::copy(s0, s0 + block, re.data() + off);
        std::copy(s0 + block, s0 + 2 * block, im.data() + off);
      }
    }
  });
  // Terms last to first, as a graph of Add(term_0, term_1) runs them. Each
  // cotangent is (g * c) * sigma, rounded as MulScalar and the mask would.
  const auto backward = [grads, m, d](bool imag_component) {
    return [grads, m, d, imag_component](const Tensor& g) {
      Tensor cot(g.shape());
      const float* pg = g.data();
      float* pc = cot.data();
      for (size_t t = grads.size(); t-- > 0;) {
        const Tensor& window = grads[t].window;
        const float* sigma = window.defined() ? window.data() : nullptr;
        const float c = grads[t].coeff;
        ParallelFor(0, g.numel() / d, GrainForWork(2 * d),
                    [&](int64_t lo, int64_t hi) {
                      for (int64_t row = lo; row < hi; ++row) {
                        const float s = sigma ? sigma[row % m] : 1.0f;
                        for (int64_t j = row * d; j < (row + 1) * d; ++j) {
                          pc[j] = pg[j] * c * s;
                        }
                      }
                    });
        grads[t].product.Apply(cot, imag_component);
      }
    };
  };
  return {MakeOpVariable(std::move(re), parents, backward(false)),
          MakeOpVariable(std::move(im), parents, backward(true))};
}

}  // namespace fft
}  // namespace slime
