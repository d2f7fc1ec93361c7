#include "core/filter_mixer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "compute/backend.h"
#include "compute/thread_pool.h"
#include "fft/fft.h"
#include "fft/spectral_ops.h"

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

TEST(LearnableFilterTest, ApplyMatchesManualComplexProduct) {
  Rng rng(1);
  LearnableFilter filter(3, 2, &rng);
  Variable re = Param(Tensor::Randn({1, 3, 2}, &rng));
  Variable im = Param(Tensor::Randn({1, 3, 2}, &rng));
  const fft::SpectralPair out = filter.Apply({re, im}, Tensor());
  const Tensor& wre = filter.weight_re().value();
  const Tensor& wim = filter.weight_im().value();
  for (int64_t i = 0; i < 6; ++i) {
    const float xr = re.value()[i];
    const float xi = im.value()[i];
    EXPECT_NEAR(out.re.value()[i], xr * wre[i] - xi * wim[i], 1e-5);
    EXPECT_NEAR(out.im.value()[i], xr * wim[i] + xi * wre[i], 1e-5);
  }
}

TEST(LearnableFilterTest, MaskZeroesOutsideWindow) {
  Rng rng(2);
  LearnableFilter filter(4, 1, &rng);
  Variable re = Param(Tensor::Ones({1, 4, 1}));
  Variable im = Param(Tensor::Ones({1, 4, 1}));
  Tensor mask = Tensor::FromVector({4, 1}, {0, 1, 1, 0});
  const fft::SpectralPair out = filter.Apply({re, im}, mask);
  EXPECT_FLOAT_EQ(out.re.value()[0], 0.0f);
  EXPECT_FLOAT_EQ(out.im.value()[0], 0.0f);
  EXPECT_FLOAT_EQ(out.re.value()[3], 0.0f);
  EXPECT_NE(out.re.value()[1], 0.0f);
}

TEST(LearnableFilterTest, AmplitudeIsComplexModulus) {
  Rng rng(3);
  LearnableFilter filter(2, 2, &rng);
  const Tensor amp = filter.Amplitude();
  const Tensor& wre = filter.weight_re().value();
  const Tensor& wim = filter.weight_im().value();
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

TEST(FilterMixerLayerTest, FullSpectrumDisablesMasks) {
  Rng rng(7);
  FilterMixerOptions o;
  o.alpha = 1.0;
  o.use_static = false;
  o.full_spectrum = true;
  FilterMixerLayer layer(8, 4, 2, 1, o, 0.0f, &rng);
  const int64_t m = fft::RfftBins(8);
  EXPECT_EQ(layer.dynamic_window().begin, 0);
  EXPECT_EQ(layer.dynamic_window().end, m);
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
  const fft::SpectralPair masked = fft::MaskSpectrum(spec, mask);
  Variable filtered = fft::Irfft(masked, n);
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
// the composed, graph-recording ops' bits exactly, for every mixer variant,
// on planes that straddle the kernels' work chunks, under both backends and
// at any thread count.

struct BackendGuard {
  ~BackendGuard() { compute::SetKernelBackend("scalar").value(); }
};

struct Variant {
  std::string name;
  FilterMixerOptions options;
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
  FilterMixerOptions full = DefaultOptions();
  full.full_spectrum = true;
  out.push_back({"full_spectrum", full});
  FilterMixerOptions global = dfs;
  global.alpha = 1.0;
  global.full_spectrum = true;
  out.push_back({"full_spectrum dfs-only", global});
  return out;
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
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
        FilterMixerBlock block(shape.n, shape.d, 2, 1, variant.options, 0.1f,
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

}  // namespace
}  // namespace core
}  // namespace slime
