#include "core/filter_mixer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "compute/backend.h"
#include "compute/thread_pool.h"
#include "fft/fft.h"
#include "fft/spectral_ops.h"
#include "reference_ops.h"

namespace slime {
namespace core {
namespace {

using autograd::Param;
using autograd::Sum;
using autograd::Variable;

FilterMixerOptions DefaultOptions() {
  FilterMixerOptions o;
  o.alpha = 0.4;
  o.gamma = 0.5;
  return o;
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

TEST(FilterMixTest, OneTermMatchesManualComplexProduct) {
  Rng rng(1);
  LearnableFilter filter(3, 2, &rng);
  Variable re = Param(Tensor::Randn({1, 3, 2}, &rng));
  Variable im = Param(Tensor::Randn({1, 3, 2}, &rng));
  const fft::SpectralPair out =
      fft::FilterMix({re, im}, {{filter.weight(), Tensor()}});
  const Tensor& wre = filter.weight().re.value();
  const Tensor& wim = filter.weight().im.value();
  for (int64_t i = 0; i < 6; ++i) {
    const float xr = re.value()[i];
    const float xi = im.value()[i];
    EXPECT_NEAR(out.re.value()[i], xr * wre[i] - xi * wim[i], 1e-5);
    EXPECT_NEAR(out.im.value()[i], xr * wim[i] + xi * wre[i], 1e-5);
  }
}

TEST(FilterMixTest, WindowZeroesOutsideIt) {
  Rng rng(2);
  LearnableFilter filter(4, 1, &rng);
  Variable re = Param(Tensor::Ones({1, 4, 1}));
  Variable im = Param(Tensor::Ones({1, 4, 1}));
  Tensor mask = Tensor::FromVector({4, 1}, {0, 1, 1, 0});
  const fft::SpectralPair out =
      fft::FilterMix({re, im}, {{filter.weight(), mask}});
  EXPECT_FLOAT_EQ(out.re.value()[0], 0.0f);
  EXPECT_FLOAT_EQ(out.im.value()[0], 0.0f);
  EXPECT_FLOAT_EQ(out.re.value()[3], 0.0f);
  EXPECT_NE(out.re.value()[1], 0.0f);
}

TEST(LearnableFilterTest, AmplitudeIsComplexModulus) {
  Rng rng(3);
  LearnableFilter filter(2, 2, &rng);
  const Tensor amp = filter.Amplitude();
  const Tensor& wre = filter.weight().re.value();
  const Tensor& wim = filter.weight().im.value();
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(amp[i], std::sqrt(wre[i] * wre[i] + wim[i] * wim[i]), 1e-6);
  }
}

TEST(FilterMixerLayerTest, ShapePreservedAndGradientsFlow) {
  Rng rng(4);
  FilterMixerLayer layer(8, 4, 2, 0, DefaultOptions(), 0.0f, &rng);
  layer.SetTraining(false);
  Variable x = Param(Tensor::Randn({2, 8, 4}, &rng));
  Variable y = layer.Forward(x, &rng);
  EXPECT_EQ(y.shape(), x.shape());
  Sum(y).Backward();
  EXPECT_TRUE(x.has_grad());
  for (const auto& p : layer.Parameters()) {
    EXPECT_TRUE(p.has_grad());
  }
}

TEST(FilterMixerLayerTest, AblationVariantsHaveExpectedParameters) {
  Rng rng(5);
  FilterMixerOptions both = DefaultOptions();
  FilterMixerOptions no_static = DefaultOptions();
  no_static.use_static = false;
  FilterMixerOptions no_dynamic = DefaultOptions();
  no_dynamic.use_dynamic = false;
  FilterMixerLayer l_both(8, 4, 2, 0, both, 0.0f, &rng);
  FilterMixerLayer l_d(8, 4, 2, 0, no_static, 0.0f, &rng);
  FilterMixerLayer l_s(8, 4, 2, 0, no_dynamic, 0.0f, &rng);
  // Each LearnableFilter has 2 tensors; layer norm has 2 more.
  EXPECT_EQ(l_both.Parameters().size(), 6u);
  EXPECT_EQ(l_d.Parameters().size(), 4u);
  EXPECT_EQ(l_s.Parameters().size(), 4u);
}

TEST(FilterMixerLayerDeathTest, RejectsGammaOutsideUnitInterval) {
  for (const double gamma : {-0.1, 1.5, std::nan("")}) {
    FilterMixerOptions o = DefaultOptions();
    o.gamma = gamma;
    Rng rng(12);
    EXPECT_DEATH(FilterMixerLayer(8, 4, 2, 0, o, 0.0f, &rng),
                 "gamma must be in");
  }
  // The ends are the single-branch mixes Eq. 26 allows.
  for (const double gamma : {0.0, 1.0}) {
    FilterMixerOptions o = DefaultOptions();
    o.gamma = gamma;
    Rng rng(12);
    FilterMixerLayer layer(8, 4, 2, 0, o, 0.0f, &rng);
  }
}

TEST(FilterMixerLayerTest, WindowsFollowRampStructure) {
  Rng rng(6);
  FilterMixerOptions o = DefaultOptions();
  o.alpha = 0.25;
  const int64_t n = 16;
  const int64_t m = fft::RfftBins(n);
  FilterMixerLayer top(n, 4, 4, 0, o, 0.0f, &rng);
  FilterMixerLayer bottom(n, 4, 4, 3, o, 0.0f, &rng);
  // Mode-4 default: layer 0 ends at the top of the spectrum, the deepest
  // layer starts at DC.
  EXPECT_EQ(top.dynamic_window().end, m);
  EXPECT_EQ(bottom.dynamic_window().begin, 0);
}

TEST(FilterMixerLayerTest, AlphaOneDynamicWindowCoversAllBins) {
  // FMLP-Rec's global filter: at alpha = 1 every layer's DFS window is the
  // whole spectrum, so the layer applies no mask.
  Rng rng(7);
  FilterMixerOptions o;
  o.alpha = 1.0;
  o.use_static = false;
  const int64_t m = fft::RfftBins(8);
  for (int64_t l = 0; l < 2; ++l) {
    FilterMixerLayer layer(8, 4, 2, l, o, 0.0f, &rng);
    EXPECT_EQ(layer.dynamic_window().begin, 0) << l;
    EXPECT_EQ(layer.dynamic_window().end, m) << l;
    EXPECT_TRUE(BitEqual(layer.MaskedDynamicAmplitude(),
                         layer.dynamic_filter().Amplitude()))
        << l;
  }
}

TEST(FilterMixerLayerTest, OnlyWindowFrequenciesPassTheDynamicBranch) {
  // Build a layer whose dynamic window excludes high bins and disable the
  // static branch; a pure high-frequency tone must be filtered down to the
  // residual path only (the filtered component contributes nothing).
  Rng rng(8);
  const int64_t n = 16;
  FilterMixerOptions o;
  o.alpha = 0.25;  // layer 1 of 2 covers low bins only
  o.use_static = false;
  FilterMixerLayer layer(n, 1, 2, 1, o, 0.0f, &rng);
  layer.SetTraining(false);
  const FilterWindow w = layer.dynamic_window();
  // Find a frequency outside the window.
  int64_t out_bin = -1;
  for (int64_t k = 1; k < fft::RfftBins(n) - 1; ++k) {
    if (!w.Contains(k)) {
      out_bin = k;
      break;
    }
  }
  ASSERT_GE(out_bin, 0);
  Tensor x({1, n, 1});
  for (int64_t t = 0; t < n; ++t) {
    x.data()[t] = std::cos(2.0 * M_PI * out_bin * t / n);
  }
  // With the tone fully outside the window, irfft(filtered spectrum) == 0,
  // so the layer output equals LayerNorm(x + 0) = LayerNorm(x).
  Variable y = layer.Forward(Param(x.Clone()), &rng);
  // Compare against a LayerNorm of x alone using the layer's own norm
  // parameters (fresh LN has gamma=1, beta=0).
  nn::LayerNorm ln(1);
  // d == 1 makes LayerNorm degenerate (variance 0 -> output beta = 0), so
  // instead verify the invariant differently: the filtered time signal is
  // zero. Recompute it manually.
  const fft::SpectralPair spec = fft::Rfft(Param(x.Clone()));
  Tensor mask({fft::RfftBins(n), 1});
  for (int64_t k = 0; k < fft::RfftBins(n); ++k) {
    mask.data()[k] = w.Contains(k) ? 1.0f : 0.0f;
  }
  const fft::SpectralPair pass{Param(Tensor::Ones({fft::RfftBins(n), 1})),
                               Param(Tensor::Zeros({fft::RfftBins(n), 1}))};
  Variable filtered = fft::Irfft(fft::FilterMix(spec, {{pass, mask}}), n);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_NEAR(filtered.value()[i], 0.0f, 1e-4);
  }
  (void)y;
}

TEST(FilterMixerBlockTest, ShapeAndGradients) {
  Rng rng(9);
  FilterMixerBlock block(8, 4, 2, 0, DefaultOptions(), 0.1f, &rng);
  Variable x = Param(Tensor::Randn({2, 8, 4}, &rng));
  Variable y = block.Forward(x, &rng);
  EXPECT_EQ(y.shape(), x.shape());
  Sum(y).Backward();
  for (const auto& p : block.Parameters()) {
    EXPECT_TRUE(p.has_grad());
  }
}

TEST(FilterMixerBlockTest, EvalDeterministicTrainStochastic) {
  Rng rng(10);
  FilterMixerBlock block(8, 4, 2, 0, DefaultOptions(), 0.5f, &rng);
  Variable x = Param(Tensor::Randn({1, 8, 4}, &rng));
  block.SetTraining(false);
  Variable e1 = block.Forward(x, &rng);
  Variable e2 = block.Forward(x, &rng);
  for (int64_t i = 0; i < e1.numel(); ++i) {
    EXPECT_FLOAT_EQ(e1.value()[i], e2.value()[i]);
  }
  block.SetTraining(true);
  Variable t1 = block.Forward(x, &rng);
  Variable t2 = block.Forward(x, &rng);
  double diff = 0.0;
  for (int64_t i = 0; i < t1.numel(); ++i) {
    diff += std::abs(t1.value()[i] - t2.value()[i]);
  }
  EXPECT_GT(diff, 1e-3);
}

TEST(FilterMixerLayerTest, MaskedAmplitudeZeroOutsideWindows) {
  Rng rng(11);
  FilterMixerOptions o = DefaultOptions();
  o.alpha = 0.3;
  FilterMixerLayer layer(16, 4, 4, 1, o, 0.0f, &rng);
  const Tensor damp = layer.MaskedDynamicAmplitude();
  const FilterWindow w = layer.dynamic_window();
  const int64_t m = fft::RfftBins(16);
  ASSERT_EQ(damp.shape(), (std::vector<int64_t>{m, 4}));
  for (int64_t k = 0; k < m; ++k) {
    for (int64_t j = 0; j < 4; ++j) {
      if (!w.Contains(k)) {
        EXPECT_FLOAT_EQ(damp.At({k, j}), 0.0f);
      }
    }
  }
}

// ---- No-grad filter step: under a NoGradScope the layer filters and mixes
// the spectrum over its own buffers, one batch item at a time. It must give
// the graph-recording pass's bits exactly, for every mixer variant, on
// planes that straddle the kernels' work chunks, under both backends and at
// any thread count.

struct BackendGuard {
  ~BackendGuard() { compute::SetKernelBackend("scalar").value(); }
};

struct Variant {
  std::string name;
  FilterMixerOptions options;
  int64_t num_layers = 2;  // the variant's layer is the last one, L - 1
};

std::vector<Variant> MixerVariants() {
  std::vector<Variant> out;
  out.push_back({"dfs+sfs", DefaultOptions()});
  FilterMixerOptions dfs = DefaultOptions();
  dfs.use_static = false;
  out.push_back({"dfs-only", dfs});
  FilterMixerOptions sfs = DefaultOptions();
  sfs.use_dynamic = false;
  out.push_back({"sfs-only", sfs});
  // Windows over all M bins, which the layer leaves unmasked: both
  // filters at alpha = 1 with L = 1, and FMLP-Rec's DFS-only alpha = 1.
  FilterMixerOptions full = DefaultOptions();
  full.alpha = 1.0;
  out.push_back({"dfs+sfs alpha=1 L=1", full, 1});
  FilterMixerOptions global = dfs;
  global.alpha = 1.0;
  out.push_back({"dfs-only alpha=1", global});
  return out;
}

TEST(NoGradFilterStepTest, LayerAndBlockMatchGraphOpsBitForBit) {
  BackendGuard guard;
  struct Shape {
    int64_t b, n, d;
  };
  // (100, 50, 13): 26 x 13 planes over 33,800 elements, so kElementwiseGrain
  // chunk edges fall inside items and d leaves SIMD tails. (6, 200, 64) is
  // the long-sequence shape.
  const std::vector<Shape> shapes = {{3, 8, 4}, {100, 50, 13}, {6, 200, 64}};
  for (const auto& backend : compute::AvailableKernelBackends()) {
    compute::SetKernelBackend(backend).value();
    for (const Variant& variant : MixerVariants()) {
      for (const Shape& shape : shapes) {
        Rng rng(61);
        FilterMixerBlock block(shape.n, shape.d, variant.num_layers,
                               variant.num_layers - 1, variant.options, 0.1f,
                               &rng);
        block.SetTraining(false);
        const Tensor xt = Tensor::Randn({shape.b, shape.n, shape.d}, &rng);
        const Variable x = autograd::Constant(xt.Clone());
        const Tensor mixer_ref = block.mixer().Forward(x, &rng).value();
        const Tensor block_ref = block.Forward(x, &rng).value();
        for (int threads : {1, 2, 8}) {
          compute::ComputeContext ctx(threads);
          const std::string label = backend + " " + variant.name + " b=" +
                                    std::to_string(shape.b) + " d=" +
                                    std::to_string(shape.d) + " threads=" +
                                    std::to_string(threads);
          autograd::NoGradScope no_grad;
          EXPECT_TRUE(
              BitEqual(block.mixer().Forward(x, &rng).value(), mixer_ref))
              << label;
          EXPECT_TRUE(BitEqual(block.Forward(x, &rng).value(), block_ref))
              << label;
          EXPECT_TRUE(BitEqual(x.value(), xt)) << label;  // input untouched
        }
      }
    }
  }
}

// ---- FilterMix, the filter step as one op: its values and its gradients
// into X, W_d and W_s must equal the graph composed from ComplexMul, the
// window mask (MulConst), MulScalar and Add that it replaced, bit for bit,
// for every mixer variant, under both backends and at any thread count.

/// The (M, 1) 0/1 mask of `w` over `m` bins, or none when `w` covers them
/// all, as the layer builds it.
Tensor MaskOf(const FilterWindow& w, int64_t m) {
  if (w.size() == m) return Tensor();
  Tensor mask({m, 1});
  for (int64_t k = 0; k < m; ++k) mask.data()[k] = w.Contains(k) ? 1.0f : 0.0f;
  return mask;
}

/// The layer's filter terms, dynamic then static, as its Forward builds
/// them.
std::vector<fft::FilterTerm> TermsOf(const FilterMixerLayer& layer,
                                     const FilterMixerOptions& o, int64_t m) {
  const float gamma = static_cast<float>(o.gamma);
  std::vector<fft::FilterTerm> terms;
  if (o.use_dynamic) {
    terms.push_back({layer.dynamic_filter().weight(),
                     MaskOf(layer.dynamic_window(), m), 1.0f - gamma});
  }
  if (o.use_static) {
    terms.push_back({layer.static_filter().weight(),
                     MaskOf(layer.static_window(), m), gamma});
  }
  return terms;
}

/// The composed reference: per term ComplexMul, then the window mask; two
/// terms are then mixed as c_0 * a + c_1 * b.
fft::SpectralPair ComposedFilterMix(const fft::SpectralPair& x,
                                    const std::vector<fft::FilterTerm>& terms) {
  using autograd::MulConst;
  using autograd::MulScalar;
  std::vector<fft::SpectralPair> filtered;
  for (const fft::FilterTerm& t : terms) {
    fft::SpectralPair p = reference::ComplexMul(x, t.weight);
    if (t.window.defined()) {
      p = {MulConst(p.re, t.window), MulConst(p.im, t.window)};
    }
    filtered.push_back(p);
  }
  if (filtered.size() == 1) return filtered[0];
  const float c0 = terms[0].coeff;
  const float c1 = terms[1].coeff;
  return {autograd::Add(MulScalar(filtered[0].re, c0),
                        MulScalar(filtered[1].re, c1)),
          autograd::Add(MulScalar(filtered[0].im, c0),
                        MulScalar(filtered[1].im, c1))};
}

/// Forward values (re, im per pass) and gradients (every x, then every
/// weight component) of one run.
struct FilterRun {
  std::vector<Tensor> values;
  std::vector<Tensor> grads;
};

/// Filters rfft(x_k) for every k with the fused op or the composed chain,
/// projects each irfft onto a fixed random tensor, sums, and runs one
/// Backward(): several passes are the contrastive step's pattern, where
/// every pass folds into the same W gradients.
FilterRun RunFilter(bool fused, const std::vector<Variable>& xs,
                    const std::vector<fft::FilterTerm>& terms,
                    const std::vector<Tensor>& projections) {
  FilterRun run;
  Variable loss;
  for (size_t k = 0; k < xs.size(); ++k) {
    const int64_t n = xs[k].size(1);
    fft::SpectralPair y = fused ? fft::FilterMix(fft::Rfft(xs[k]), terms)
                                : ComposedFilterMix(fft::Rfft(xs[k]), terms);
    run.values.push_back(y.re.value());
    run.values.push_back(y.im.value());
    Variable part = Sum(autograd::MulConst(fft::Irfft(y, n), projections[k]));
    loss = loss.defined() ? autograd::Add(loss, part) : part;
  }
  loss.Backward();
  for (Variable x : xs) {
    run.grads.push_back(x.grad());
    x.ZeroGrad();
  }
  for (const fft::FilterTerm& t : terms) {
    for (Variable w : {t.weight.re, t.weight.im}) {
      run.grads.push_back(w.grad());
      w.ZeroGrad();
    }
  }
  return run;
}

TEST(FilterMixTest, ValuesAndGradientsEqualComposedChainBitForBit) {
  BackendGuard guard;
  struct Shape {
    int64_t b, n, d;
  };
  const std::vector<Shape> shapes = {{3, 8, 4}, {100, 50, 13}, {6, 200, 64}};
  for (const auto& backend : compute::AvailableKernelBackends()) {
    compute::SetKernelBackend(backend).value();
    for (const Variant& variant : MixerVariants()) {
      for (const Shape& shape : shapes) {
        Rng rng(71);
        FilterMixerLayer layer(shape.n, shape.d, variant.num_layers,
                               variant.num_layers - 1, variant.options, 0.0f,
                               &rng);
        const std::vector<fft::FilterTerm> terms =
            TermsOf(layer, variant.options, fft::RfftBins(shape.n));
        std::vector<Variable> xs;
        std::vector<Tensor> projections;
        for (int pass = 0; pass < 3; ++pass) {
          xs.push_back(Param(Tensor::Randn({shape.b, shape.n, shape.d}, &rng)));
          projections.push_back(
              Tensor::Randn({shape.b, shape.n, shape.d}, &rng));
        }
        for (int threads : {1, 2, 8}) {
          compute::ComputeContext ctx(threads);
          for (const size_t passes : {size_t{1}, size_t{3}}) {
            const std::string label =
                backend + " " + variant.name + " b=" +
                std::to_string(shape.b) + " d=" + std::to_string(shape.d) +
                " threads=" + std::to_string(threads) +
                " passes=" + std::to_string(passes);
            const std::vector<Variable> run_xs(xs.begin(),
                                               xs.begin() + passes);
            const FilterRun fused =
                RunFilter(true, run_xs, terms, projections);
            const FilterRun composed =
                RunFilter(false, run_xs, terms, projections);
            ASSERT_EQ(fused.values.size(), composed.values.size()) << label;
            for (size_t i = 0; i < fused.values.size(); ++i) {
              EXPECT_TRUE(BitEqual(fused.values[i], composed.values[i]))
                  << label << " value " << i;
            }
            ASSERT_EQ(fused.grads.size(), composed.grads.size()) << label;
            for (size_t i = 0; i < fused.grads.size(); ++i) {
              EXPECT_TRUE(BitEqual(fused.grads[i], composed.grads[i]))
                  << label << " grad " << i;
            }
          }
        }
      }
    }
  }
}

// The layer leaves a window over all M bins unmasked because multiplying
// by 1 is exact: FilterMix with all-ones windows must give the values and
// gradients of no windows, bit for bit.
TEST(FilterMixTest, AllOnesWindowsEqualNoWindowsBitForBit) {
  BackendGuard guard;
  for (const auto& backend : compute::AvailableKernelBackends()) {
    compute::SetKernelBackend(backend).value();
    Rng rng(77);
    FilterMixerOptions o = DefaultOptions();
    o.alpha = 1.0;
    FilterMixerLayer layer(50, 13, 1, 0, o, 0.0f, &rng);
    const int64_t m = fft::RfftBins(50);
    const std::vector<fft::FilterTerm> unmasked = TermsOf(layer, o, m);
    std::vector<fft::FilterTerm> ones = unmasked;
    for (fft::FilterTerm& t : ones) {
      ASSERT_FALSE(t.window.defined()) << backend;
      t.window = Tensor::Ones({m, 1});
    }
    std::vector<Variable> xs;
    std::vector<Tensor> projections;
    for (int pass = 0; pass < 3; ++pass) {
      xs.push_back(Param(Tensor::Randn({4, 50, 13}, &rng)));
      projections.push_back(Tensor::Randn({4, 50, 13}, &rng));
    }
    const FilterRun a = RunFilter(true, xs, ones, projections);
    const FilterRun b = RunFilter(true, xs, unmasked, projections);
    for (size_t i = 0; i < a.values.size(); ++i) {
      EXPECT_TRUE(BitEqual(a.values[i], b.values[i])) << backend << " " << i;
    }
    for (size_t i = 0; i < a.grads.size(); ++i) {
      EXPECT_TRUE(BitEqual(a.grads[i], b.grads[i])) << backend << " " << i;
    }
  }
}

TEST(FilterMixTest, GradcheckSpectrumAndBothFilters) {
  Rng rng(72);
  std::vector<Variable> in;
  for (int i = 0; i < 2; ++i) {
    in.push_back(Param(Tensor::Randn({2, 5, 3}, &rng, 0.5f)));
  }
  for (int i = 0; i < 4; ++i) {
    in.push_back(Param(Tensor::Randn({5, 3}, &rng, 0.5f)));
  }
  const Tensor dynamic_window = Tensor::FromVector({5, 1}, {1, 1, 0, 0, 1});
  const Tensor static_window = Tensor::FromVector({5, 1}, {0, 1, 1, 1, 0});
  const auto result = autograd::CheckGradients(
      [&](const std::vector<Variable>& v) {
        const fft::SpectralPair y =
            fft::FilterMix({v[0], v[1]}, {{{v[2], v[3]}, dynamic_window, 0.7f},
                                          {{v[4], v[5]}, static_window, 0.3f}});
        Rng wrng(73);
        const Tensor r1 = Tensor::Randn({2, 5, 3}, &wrng);
        const Tensor r2 = Tensor::Randn({2, 5, 3}, &wrng);
        return autograd::Add(Sum(autograd::MulConst(y.re, r1)),
                             Sum(autograd::MulConst(y.im, r2)));
      },
      in);
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(FilterMixTest, OutputNodesHaveSpectrumAndWeightsAsParents) {
  Rng rng(74);
  const fft::SpectralPair x{Param(Tensor::Randn({2, 5, 3}, &rng)),
                            Param(Tensor::Randn({2, 5, 3}, &rng))};
  const fft::SpectralPair wd{Param(Tensor::Randn({5, 3}, &rng)),
                             Param(Tensor::Randn({5, 3}, &rng))};
  const fft::SpectralPair ws{Param(Tensor::Randn({5, 3}, &rng)),
                             Param(Tensor::Randn({5, 3}, &rng))};
  const Tensor window = Tensor::FromVector({5, 1}, {0, 1, 1, 0, 0});
  const fft::SpectralPair y =
      fft::FilterMix(x, {{wd, window, 0.5f}, {ws, window, 0.5f}});
  const std::vector<std::shared_ptr<autograd::Node>> parents = {
      x.re.node(),  x.im.node(),  wd.re.node(),
      wd.im.node(), ws.re.node(), ws.im.node()};
  EXPECT_EQ(y.re.node()->parents, parents);
  EXPECT_EQ(y.im.node()->parents, parents);
}

TEST(FilterMixTest, OverwritesOnlyASpectrumNothingElseHolds) {
  Rng rng(75);
  const Tensor xr = Tensor::Randn({2, 5, 3}, &rng);
  const Tensor xi = Tensor::Randn({2, 5, 3}, &rng);
  const fft::SpectralPair w{Param(Tensor::Randn({5, 3}, &rng)),
                            Param(Tensor::Randn({5, 3}, &rng))};
  const Tensor window = Tensor::FromVector({5, 1}, {1, 1, 0, 1, 0});
  const std::vector<fft::FilterTerm> terms = {{w, window}};
  const fft::SpectralPair graph = fft::FilterMix(
      {autograd::Constant(xr.Clone()), autograd::Constant(xi.Clone())},
      terms);
  autograd::NoGradScope no_grad;
  // Held by the caller: new planes, the spectrum untouched.
  const fft::SpectralPair held{autograd::Constant(xr.Clone()),
                               autograd::Constant(xi.Clone())};
  const fft::SpectralPair out = fft::FilterMix(held, terms);
  EXPECT_FALSE(out.re.value().SharesStorage(held.re.value()));
  EXPECT_TRUE(BitEqual(held.re.value(), xr));
  EXPECT_TRUE(BitEqual(held.im.value(), xi));
  EXPECT_TRUE(BitEqual(out.re.value(), graph.re.value()));
  EXPECT_TRUE(BitEqual(out.im.value(), graph.im.value()));
  // Given up by the caller: the result lands in the spectrum's buffers.
  fft::SpectralPair given{autograd::Constant(xr.Clone()),
                          autograd::Constant(xi.Clone())};
  const float* buffer_re = given.re.value().data();
  const float* buffer_im = given.im.value().data();
  const fft::SpectralPair reused = fft::FilterMix(std::move(given), terms);
  EXPECT_EQ(reused.re.value().data(), buffer_re);
  EXPECT_EQ(reused.im.value().data(), buffer_im);
  EXPECT_TRUE(BitEqual(reused.re.value(), graph.re.value()));
  EXPECT_TRUE(BitEqual(reused.im.value(), graph.im.value()));
}

/// Op nodes (nodes with parents) reachable from `root`.
std::vector<const autograd::Node*> OpNodes(
    const std::shared_ptr<autograd::Node>& root) {
  std::set<const autograd::Node*> seen;
  std::vector<const autograd::Node*> stack = {root.get()};
  std::vector<const autograd::Node*> ops;
  while (!stack.empty()) {
    const autograd::Node* node = stack.back();
    stack.pop_back();
    if (!seen.insert(node).second) continue;
    if (!node->parents.empty()) ops.push_back(node);
    for (const auto& p : node->parents) stack.push_back(p.get());
  }
  return ops;
}

TEST(FilterMixerLayerTest, FilterStepRecordsTwoNodesPerLayerPass) {
  for (const Variant& variant : MixerVariants()) {
    Rng rng(76);
    FilterMixerLayer layer(8, 4, variant.num_layers, variant.num_layers - 1,
                           variant.options, 0.0f, &rng);
    layer.SetTraining(false);
    const Variable x = Param(Tensor::Randn({2, 8, 4}, &rng));
    const Variable y = layer.Forward(x, &rng);
    const std::vector<const autograd::Node*> ops = OpNodes(y.node());
    // rFFT (re, im), the filter step (re, im), irFFT, residual add,
    // LayerNorm.
    EXPECT_EQ(ops.size(), 7u) << variant.name;
    const LearnableFilter& filter = variant.options.use_dynamic
                                        ? layer.dynamic_filter()
                                        : layer.static_filter();
    const autograd::Node* w = filter.weight().re.node().get();
    int64_t filter_nodes = 0;
    for (const autograd::Node* node : ops) {
      for (const auto& p : node->parents) filter_nodes += p.get() == w;
    }
    EXPECT_EQ(filter_nodes, 2) << variant.name;
  }
}

}  // namespace
}  // namespace core
}  // namespace slime
