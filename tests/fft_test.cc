#include "fft/fft.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <thread>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "fft/spectral_ops.h"

namespace slime {
namespace fft {
namespace {

using autograd::Param;
using autograd::Sum;
using autograd::Variable;

std::vector<std::complex<double>> RandomComplex(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::complex<double>> v(n);
  for (auto& c : v) c = {rng.Gaussian(), rng.Gaussian()};
  return v;
}

class FftSizeTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(FftSizeTest, MatchesNaiveDft) {
  const int64_t n = GetParam();
  const auto input = RandomComplex(n, 1000 + n);
  std::vector<std::complex<double>> fast = input;
  Fft(&fast, false);
  std::vector<std::complex<double>> naive;
  NaiveDft(input, &naive, false);
  for (int64_t k = 0; k < n; ++k) {
    EXPECT_NEAR(fast[k].real(), naive[k].real(), 1e-8 * n) << "bin " << k;
    EXPECT_NEAR(fast[k].imag(), naive[k].imag(), 1e-8 * n) << "bin " << k;
  }
}

TEST_P(FftSizeTest, InverseRoundTrip) {
  const int64_t n = GetParam();
  const auto input = RandomComplex(n, 2000 + n);
  std::vector<std::complex<double>> buf = input;
  Fft(&buf, false);
  Fft(&buf, true);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_NEAR(buf[i].real() / n, input[i].real(), 1e-9 * n);
    EXPECT_NEAR(buf[i].imag() / n, input[i].imag(), 1e-9 * n);
  }
}

TEST_P(FftSizeTest, ParsevalHolds) {
  const int64_t n = GetParam();
  const auto input = RandomComplex(n, 3000 + n);
  double time_energy = 0.0;
  for (const auto& c : input) time_energy += std::norm(c);
  std::vector<std::complex<double>> buf = input;
  Fft(&buf, false);
  double freq_energy = 0.0;
  for (const auto& c : buf) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy / n, time_energy, 1e-8 * n);
}

// Powers of two exercise Radix2; other sizes exercise Bluestein. 25, 50,
// 75, 100 are the paper's candidate sequence lengths (Sec. IV-D).
INSTANTIATE_TEST_SUITE_P(AllSizes, FftSizeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16, 25,
                                           32, 50, 64, 75, 100, 128));

TEST(RfftBinsTest, MatchesStandardDefinition) {
  EXPECT_EQ(RfftBins(1), 1);
  EXPECT_EQ(RfftBins(2), 2);
  EXPECT_EQ(RfftBins(8), 5);
  EXPECT_EQ(RfftBins(25), 13);
  EXPECT_EQ(RfftBins(50), 26);   // paper Eq. 13 for even N: N/2 + 1
  EXPECT_EQ(RfftBins(100), 51);
}

class RfftSizeTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(RfftSizeTest, ConjugateSymmetryRecoversSignal) {
  // irfft(rfft(x)) == x for any real x: the half spectrum holds the full
  // information (Sec. II-B of the paper).
  const int64_t n = GetParam();
  Rng rng(4000 + n);
  std::vector<float> x(n);
  for (auto& v : x) v = rng.Gaussian();
  const int64_t m = RfftBins(n);
  std::vector<float> re(m);
  std::vector<float> im(m);
  RfftForward(x.data(), n, re.data(), im.data());
  std::vector<float> recovered(n);
  IrfftForward(re.data(), im.data(), n, recovered.data());
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_NEAR(recovered[i], x[i], 1e-4) << "n=" << n << " i=" << i;
  }
}

TEST_P(RfftSizeTest, DcBinIsSumOfSignal) {
  const int64_t n = GetParam();
  Rng rng(5000 + n);
  std::vector<float> x(n);
  double sum = 0.0;
  for (auto& v : x) {
    v = rng.Gaussian();
    sum += v;
  }
  const int64_t m = RfftBins(n);
  std::vector<float> re(m);
  std::vector<float> im(m);
  RfftForward(x.data(), n, re.data(), im.data());
  EXPECT_NEAR(re[0], sum, 1e-3);
  EXPECT_NEAR(im[0], 0.0, 1e-4);
}

TEST_P(RfftSizeTest, RfftAdjointIsTransposeOfForward) {
  // <F x, g> == <x, F^T g> for random x, g (the defining property of the
  // adjoint, which is what backward must implement).
  const int64_t n = GetParam();
  const int64_t m = RfftBins(n);
  Rng rng(6000 + n);
  std::vector<float> x(n);
  for (auto& v : x) v = rng.Gaussian();
  std::vector<float> g_re(m);
  std::vector<float> g_im(m);
  for (auto& v : g_re) v = rng.Gaussian();
  for (auto& v : g_im) v = rng.Gaussian();
  std::vector<float> fx_re(m);
  std::vector<float> fx_im(m);
  RfftForward(x.data(), n, fx_re.data(), fx_im.data());
  std::vector<float> ftg(n);
  RfftAdjoint(g_re.data(), g_im.data(), n, ftg.data());
  double lhs = 0.0;
  for (int64_t k = 0; k < m; ++k) {
    lhs += double(fx_re[k]) * g_re[k] + double(fx_im[k]) * g_im[k];
  }
  double rhs = 0.0;
  for (int64_t i = 0; i < n; ++i) rhs += double(x[i]) * ftg[i];
  EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::abs(lhs)));
}

TEST_P(RfftSizeTest, IrfftAdjointIsTransposeOfForward) {
  const int64_t n = GetParam();
  const int64_t m = RfftBins(n);
  Rng rng(7000 + n);
  std::vector<float> re(m);
  std::vector<float> im(m);
  for (auto& v : re) v = rng.Gaussian();
  for (auto& v : im) v = rng.Gaussian();
  std::vector<float> g(n);
  for (auto& v : g) v = rng.Gaussian();
  std::vector<float> x(n);
  IrfftForward(re.data(), im.data(), n, x.data());
  std::vector<float> gt_re(m);
  std::vector<float> gt_im(m);
  IrfftAdjoint(g.data(), n, gt_re.data(), gt_im.data());
  double lhs = 0.0;
  for (int64_t i = 0; i < n; ++i) lhs += double(x[i]) * g[i];
  double rhs = 0.0;
  for (int64_t k = 0; k < m; ++k) {
    rhs += double(re[k]) * gt_re[k] + double(im[k]) * gt_im[k];
  }
  EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::abs(lhs)));
}

INSTANTIATE_TEST_SUITE_P(AllSizes, RfftSizeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 12, 16, 25, 32,
                                           50, 64, 75, 100));

TEST(SpectralOpsTest, RfftShapes) {
  Rng rng(1);
  Variable x = Param(Tensor::Randn({2, 8, 3}, &rng));
  const SpectralPair s = Rfft(x);
  EXPECT_EQ(s.re.shape(), (std::vector<int64_t>{2, 5, 3}));
  EXPECT_EQ(s.im.shape(), (std::vector<int64_t>{2, 5, 3}));
}

TEST(SpectralOpsTest, RfftIrfftRoundTripBatched) {
  Rng rng(2);
  Variable x = Param(Tensor::Randn({3, 10, 4}, &rng));
  Variable y = Irfft(Rfft(x), 10);
  ASSERT_EQ(y.shape(), x.shape());
  for (int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_NEAR(y.value()[i], x.value()[i], 1e-4);
  }
}

TEST(SpectralOpsTest, RfftGradcheck) {
  Rng rng(3);
  Variable x = Param(Tensor::Randn({2, 6, 2}, &rng, 0.5f));
  const auto result = autograd::CheckGradients(
      [](const std::vector<Variable>& in) {
        const SpectralPair s = Rfft(in[0]);
        // Use both components with distinct weights so each adjoint path
        // is exercised.
        Rng wrng(99);
        Tensor w1 = Tensor::Randn({2, 4, 2}, &wrng);
        Tensor w2 = Tensor::Randn({2, 4, 2}, &wrng);
        return autograd::Add(Sum(autograd::MulConst(s.re, w1)),
                             Sum(autograd::MulConst(s.im, w2)));
      },
      {x});
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(SpectralOpsTest, IrfftGradcheck) {
  Rng rng(4);
  Variable re = Param(Tensor::Randn({2, 4, 2}, &rng, 0.5f));
  Variable im = Param(Tensor::Randn({2, 4, 2}, &rng, 0.5f));
  const auto result = autograd::CheckGradients(
      [](const std::vector<Variable>& in) {
        Rng wrng(98);
        Tensor w = Tensor::Randn({2, 6, 2}, &wrng);
        return Sum(autograd::MulConst(Irfft({in[0], in[1]}, 6), w));
      },
      {re, im});
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(SpectralOpsTest, FilterPipelineGradcheck) {
  // The exact op composition of the paper's filter step (Eq. 21):
  // irfft(mask . (rfft(x) . W)).
  Rng rng(5);
  Variable x = Param(Tensor::Randn({1, 6, 2}, &rng, 0.5f));
  Variable wre = Param(Tensor::Randn({4, 2}, &rng, 0.5f));
  Variable wim = Param(Tensor::Randn({4, 2}, &rng, 0.5f));
  Tensor mask = Tensor::FromVector({4, 1}, {0, 1, 1, 0});
  const auto result = autograd::CheckGradients(
      [mask](const std::vector<Variable>& in) {
        const SpectralPair s = Rfft(in[0]);
        const SpectralPair filtered =
            MaskSpectrum(ComplexMul(s, {in[1], in[2]}), mask);
        return Sum(Irfft(filtered, 6));
      },
      {x, wre, wim});
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(SpectralOpsTest, ComplexMulMatchesManual) {
  // (1 + 2i) * (3 + 4i) = -5 + 10i.
  Variable ar = Param(Tensor::FromVector({1, 1, 1}, {1}));
  Variable ai = Param(Tensor::FromVector({1, 1, 1}, {2}));
  Variable br = Param(Tensor::FromVector({1, 1, 1}, {3}));
  Variable bi = Param(Tensor::FromVector({1, 1, 1}, {4}));
  const SpectralPair p = ComplexMul({ar, ai}, {br, bi});
  EXPECT_FLOAT_EQ(p.re.value()[0], -5.0f);
  EXPECT_FLOAT_EQ(p.im.value()[0], 10.0f);
}

TEST(SpectralOpsDeathTest, ComplexMulRejectsNonSuffixShape) {
  // b must be a's shape or a trailing block of it; (3, 4) is neither for a
  // (2, 4, 3) spectrum.
  Rng rng(6);
  const SpectralPair a{Param(Tensor::Randn({2, 4, 3}, &rng)),
                       Param(Tensor::Randn({2, 4, 3}, &rng))};
  const SpectralPair b{Param(Tensor::Randn({3, 4}, &rng)),
                       Param(Tensor::Randn({3, 4}, &rng))};
  EXPECT_DEATH(ComplexMul(a, b), "IsSuffixShape");
}

TEST(SpectralOpsTest, MixSpectraConvexCombination) {
  Variable a = Param(Tensor::FromVector({1, 1, 1}, {1}));
  Variable b = Param(Tensor::FromVector({1, 1, 1}, {3}));
  const SpectralPair mixed = MixSpectra({a, a}, {b, b}, 0.25f);
  EXPECT_FLOAT_EQ(mixed.re.value()[0], 1.5f);
  EXPECT_FLOAT_EQ(mixed.im.value()[0], 1.5f);
}

TEST(SpectralOpsTest, PureToneConcentratesInOneBin) {
  // x_t = cos(2 pi k t / N) has energy only in bin k.
  const int64_t n = 16;
  const int64_t k = 3;
  Tensor x({1, n, 1});
  for (int64_t t = 0; t < n; ++t) {
    x.data()[t] = std::cos(2.0 * M_PI * k * t / n);
  }
  const SpectralPair s = Rfft(Param(x));
  const int64_t m = RfftBins(n);
  for (int64_t bin = 0; bin < m; ++bin) {
    const float re = s.re.value()[bin];
    const float im = s.im.value()[bin];
    const float amp = std::sqrt(re * re + im * im);
    if (bin == k) {
      EXPECT_NEAR(amp, n / 2.0, 1e-3);
    } else {
      EXPECT_NEAR(amp, 0.0, 1e-3) << "bin " << bin;
    }
  }
}

}  // namespace
}  // namespace fft
}  // namespace slime

namespace slime {
namespace fft {
namespace {

class VerticalPlanTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(VerticalPlanTest, AgreesWithScalarReferenceForwardAndInverse) {
  const int64_t n = GetParam();
  const int64_t d = 3;
  Rng rng(8000 + n);
  std::vector<float> re(n * d);
  std::vector<float> im(n * d);
  for (auto& v : re) v = rng.Gaussian();
  for (auto& v : im) v = rng.Gaussian();
  for (const bool inverse : {false, true}) {
    std::vector<float> vre = re;
    std::vector<float> vim = im;
    GetVerticalPlan(n).Transform(vre.data(), vim.data(), d, inverse);
    for (int64_t f = 0; f < d; ++f) {
      std::vector<std::complex<double>> col(n);
      for (int64_t t = 0; t < n; ++t) {
        col[t] = {re[t * d + f], im[t * d + f]};
      }
      Fft(&col, inverse);
      for (int64_t t = 0; t < n; ++t) {
        EXPECT_NEAR(vre[t * d + f], col[t].real(), 2e-3 * n)
            << "n=" << n << " inv=" << inverse << " t=" << t;
        EXPECT_NEAR(vim[t * d + f], col[t].imag(), 2e-3 * n);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSizes, VerticalPlanTest,
                         ::testing::Values(1, 2, 4, 8, 16, 25, 32, 50, 64,
                                           75, 100, 128));

// ---------------------------------------------------------------------------
// VerticalRfftPlan: the packed half-spectrum fast path (ISSUE 9 tentpole).
// The size list deliberately straddles every boundary of the mirror
// classification k < (n+1)/2: n=1 (no mirrored bins), n=2 (DC+Nyquist only),
// odd n (no Nyquist), pow2 and Bluestein lengths.
// ---------------------------------------------------------------------------

class VerticalRfftPlanTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(VerticalRfftPlanTest, ForwardMatchesNaiveDft) {
  const int64_t n = GetParam();
  const int64_t d = 3;
  const int64_t m = RfftBins(n);
  Rng rng(9000 + n);
  std::vector<float> x(n * d);
  for (auto& v : x) v = rng.Gaussian();
  std::vector<float> re(m * d);
  std::vector<float> im(m * d);
  GetVerticalRfftPlan(n).Forward(x.data(), d, re.data(), im.data());
  for (int64_t f = 0; f < d; ++f) {
    std::vector<std::complex<double>> col(n);
    for (int64_t t = 0; t < n; ++t) col[t] = {x[t * d + f], 0.0};
    std::vector<std::complex<double>> naive;
    NaiveDft(col, &naive, false);
    for (int64_t k = 0; k < m; ++k) {
      EXPECT_NEAR(re[k * d + f], naive[k].real(), 1e-4 * std::max<int64_t>(n, 8))
          << "n=" << n << " k=" << k;
      EXPECT_NEAR(im[k * d + f], naive[k].imag(), 1e-4 * std::max<int64_t>(n, 8))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST_P(VerticalRfftPlanTest, ForwardMatchesScalarReference) {
  const int64_t n = GetParam();
  const int64_t d = 4;
  const int64_t m = RfftBins(n);
  Rng rng(9100 + n);
  std::vector<float> x(n * d);
  for (auto& v : x) v = rng.Gaussian();
  std::vector<float> re(m * d);
  std::vector<float> im(m * d);
  GetVerticalRfftPlan(n).Forward(x.data(), d, re.data(), im.data());
  std::vector<float> col(n);
  std::vector<float> sre(m);
  std::vector<float> sim(m);
  for (int64_t f = 0; f < d; ++f) {
    for (int64_t t = 0; t < n; ++t) col[t] = x[t * d + f];
    RfftForward(col.data(), n, sre.data(), sim.data());
    for (int64_t k = 0; k < m; ++k) {
      EXPECT_NEAR(re[k * d + f], sre[k], 2e-3) << "n=" << n << " k=" << k;
      EXPECT_NEAR(im[k * d + f], sim[k], 2e-3) << "n=" << n << " k=" << k;
    }
  }
}

TEST_P(VerticalRfftPlanTest, InverseMatchesScalarReference) {
  // Random half spectra, including nonzero DC/Nyquist imaginary parts: the
  // plan must ignore them exactly like IrfftForward does.
  const int64_t n = GetParam();
  const int64_t d = 4;
  const int64_t m = RfftBins(n);
  Rng rng(9200 + n);
  std::vector<float> re(m * d);
  std::vector<float> im(m * d);
  for (auto& v : re) v = rng.Gaussian();
  for (auto& v : im) v = rng.Gaussian();
  std::vector<float> x(n * d);
  GetVerticalRfftPlan(n).Inverse(re.data(), im.data(), d, x.data(),
                                 1.0f / static_cast<float>(n));
  std::vector<float> cre(m);
  std::vector<float> cim(m);
  std::vector<float> sx(n);
  for (int64_t f = 0; f < d; ++f) {
    for (int64_t k = 0; k < m; ++k) {
      cre[k] = re[k * d + f];
      cim[k] = im[k * d + f];
    }
    IrfftForward(cre.data(), cim.data(), n, sx.data());
    for (int64_t t = 0; t < n; ++t) {
      EXPECT_NEAR(x[t * d + f], sx[t], 2e-3) << "n=" << n << " t=" << t;
    }
  }
}

TEST_P(VerticalRfftPlanTest, RoundTripRecoversSignal) {
  const int64_t n = GetParam();
  const int64_t d = 5;
  const int64_t m = RfftBins(n);
  Rng rng(9300 + n);
  std::vector<float> x(n * d);
  for (auto& v : x) v = rng.Gaussian();
  std::vector<float> re(m * d);
  std::vector<float> im(m * d);
  const VerticalRfftPlan& plan = GetVerticalRfftPlan(n);
  ASSERT_EQ(plan.n(), n);
  ASSERT_EQ(plan.bins(), m);
  plan.Forward(x.data(), d, re.data(), im.data());
  std::vector<float> back(n * d);
  plan.Inverse(re.data(), im.data(), d, back.data(),
               1.0f / static_cast<float>(n));
  for (int64_t i = 0; i < n * d; ++i) {
    EXPECT_NEAR(back[i], x[i], 1e-4) << "n=" << n << " i=" << i;
  }
}

TEST_P(VerticalRfftPlanTest, InverseIgnoresDcAndNyquistImaginary) {
  // The irfft operator contract: x = Re(...) kills the DC and (even n)
  // Nyquist imaginary inputs, so perturbing them must not change a single
  // output bit. This is what makes the exact-adjoint routing sound
  // (MATH_NOTES.md section 8).
  const int64_t n = GetParam();
  const int64_t d = 2;
  const int64_t m = RfftBins(n);
  Rng rng(9400 + n);
  std::vector<float> re(m * d);
  std::vector<float> im(m * d, 0.0f);
  for (auto& v : re) v = rng.Gaussian();
  const VerticalRfftPlan& plan = GetVerticalRfftPlan(n);
  std::vector<float> x0(n * d);
  plan.Inverse(re.data(), im.data(), d, x0.data(), 1.0f);
  for (int64_t f = 0; f < d; ++f) {
    im[f] = 42.0f;  // DC imaginary
    if (n % 2 == 0 && n > 1) im[(m - 1) * d + f] = -17.0f;  // Nyquist
  }
  std::vector<float> x1(n * d);
  plan.Inverse(re.data(), im.data(), d, x1.data(), 1.0f);
  for (int64_t i = 0; i < n * d; ++i) {
    EXPECT_EQ(x0[i], x1[i]) << "n=" << n << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSizes, VerticalRfftPlanTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 50, 64,
                                           75, 100, 128, 200));

TEST(VerticalRfftPlanTest, PlanCachesSurviveConcurrentFirstUse) {
  // Race the process-wide plan caches on purpose (this test runs under TSan
  // in CI): many threads request overlapping lengths and immediately use
  // the returned plans.
  const int64_t lengths[] = {6, 9, 20, 27, 33};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([t, &lengths]() {
      for (int64_t n : lengths) {
        const int64_t m = RfftBins(n);
        const int64_t d = 2;
        std::vector<float> x(n * d, 0.25f * static_cast<float>(t + 1));
        std::vector<float> re(m * d);
        std::vector<float> im(m * d);
        const VerticalRfftPlan& plan = GetVerticalRfftPlan(n);
        plan.Forward(x.data(), d, re.data(), im.data());
        std::vector<float> back(n * d);
        plan.Inverse(re.data(), im.data(), d, back.data(),
                     1.0f / static_cast<float>(n));
        for (int64_t i = 0; i < n * d; ++i) {
          EXPECT_NEAR(back[i], x[i], 1e-4);
        }
        std::vector<float> cre(n * d, 1.0f);
        std::vector<float> cim(n * d, 0.0f);
        GetVerticalPlan(n).Transform(cre.data(), cim.data(), d, false);
      }
    });
  }
  for (auto& th : threads) th.join();
}

// ---------------------------------------------------------------------------
// The differentiable Rfft/Irfft ops at boundary sizes and at the paper's
// sequence lengths (25, 50, 100, 200): forward against the per-column scalar
// references, backward through the adjoint identity and gradcheck.
// ---------------------------------------------------------------------------

class SpectralOpsSizeTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(SpectralOpsSizeTest, ForwardMatchesScalarReference) {
  const int64_t n = GetParam();
  const int64_t b = 2;
  const int64_t d = 3;
  const int64_t m = RfftBins(n);
  Rng rng(9500 + n);
  Tensor xt = Tensor::Randn({b, n, d}, &rng);
  const SpectralPair sp = Rfft(Param(xt));
  const Variable y = Irfft(sp, n);
  std::vector<float> col(n);
  std::vector<float> sre(m);
  std::vector<float> sim(m);
  std::vector<float> sx(n);
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t f = 0; f < d; ++f) {
      for (int64_t t = 0; t < n; ++t) col[t] = xt[(bi * n + t) * d + f];
      RfftForward(col.data(), n, sre.data(), sim.data());
      for (int64_t k = 0; k < m; ++k) {
        EXPECT_NEAR(sp.re.value()[(bi * m + k) * d + f], sre[k], 2e-3)
            << "n=" << n << " b=" << bi << " k=" << k;
        EXPECT_NEAR(sp.im.value()[(bi * m + k) * d + f], sim[k], 2e-3)
            << "n=" << n << " b=" << bi << " k=" << k;
      }
      // The inverse of the op's own spectrum, column by column.
      for (int64_t k = 0; k < m; ++k) {
        sre[k] = sp.re.value()[(bi * m + k) * d + f];
        sim[k] = sp.im.value()[(bi * m + k) * d + f];
      }
      IrfftForward(sre.data(), sim.data(), n, sx.data());
      for (int64_t t = 0; t < n; ++t) {
        EXPECT_NEAR(y.value()[(bi * n + t) * d + f], sx[t], 2e-3)
            << "n=" << n << " b=" << bi << " t=" << t;
      }
    }
  }
}

TEST_P(SpectralOpsSizeTest, RfftAdjointIdentity) {
  // <F x, g> == <x, F^T g> through the actual autograd backward, so the op
  // adjoint (not just the plan) is what is being checked.
  const int64_t n = GetParam();
  const int64_t m = RfftBins(n);
  Rng rng(9600 + n);
  Variable x = Param(Tensor::Randn({1, n, 2}, &rng));
  Tensor g_re = Tensor::Randn({1, m, 2}, &rng);
  Tensor g_im = Tensor::Randn({1, m, 2}, &rng);
  const SpectralPair s = Rfft(x);
  Variable loss = autograd::Add(Sum(autograd::MulConst(s.re, g_re)),
                                Sum(autograd::MulConst(s.im, g_im)));
  loss.Backward();
  double lhs = 0.0;
  for (int64_t i = 0; i < s.re.numel(); ++i) {
    lhs += double(s.re.value()[i]) * g_re[i] +
           double(s.im.value()[i]) * g_im[i];
  }
  double rhs = 0.0;
  for (int64_t i = 0; i < x.numel(); ++i) {
    rhs += double(x.value()[i]) * x.grad()[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::abs(lhs))) << "n=" << n;
}

TEST_P(SpectralOpsSizeTest, IrfftAdjointIdentity) {
  const int64_t n = GetParam();
  const int64_t m = RfftBins(n);
  Rng rng(9700 + n);
  Variable re = Param(Tensor::Randn({1, m, 2}, &rng));
  Variable im = Param(Tensor::Randn({1, m, 2}, &rng));
  Tensor g = Tensor::Randn({1, n, 2}, &rng);
  Variable y = Irfft({re, im}, n);
  Sum(autograd::MulConst(y, g)).Backward();
  double lhs = 0.0;
  for (int64_t i = 0; i < y.numel(); ++i) {
    lhs += double(y.value()[i]) * g[i];
  }
  double rhs = 0.0;
  for (int64_t i = 0; i < re.numel(); ++i) {
    rhs += double(re.value()[i]) * re.grad()[i] +
           double(im.value()[i]) * im.grad()[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::abs(lhs))) << "n=" << n;
}

TEST_P(SpectralOpsSizeTest, Gradcheck) {
  const int64_t n = GetParam();
  const int64_t m = RfftBins(n);
  Rng rng(9800 + n);
  Variable x = Param(Tensor::Randn({1, n, 2}, &rng, 0.5f));
  const auto result = autograd::CheckGradients(
      [n, m](const std::vector<Variable>& in) {
        const SpectralPair s = Rfft(in[0]);
        Rng wrng(97);
        Tensor w1 = Tensor::Randn({1, m, 2}, &wrng);
        Tensor w2 = Tensor::Randn({1, m, 2}, &wrng);
        Tensor w3 = Tensor::Randn({1, n, 2}, &wrng);
        const SpectralPair weighted{autograd::MulConst(s.re, w1),
                                    autograd::MulConst(s.im, w2)};
        return Sum(autograd::MulConst(Irfft(weighted, n), w3));
      },
      {x});
  EXPECT_TRUE(result.ok) << "n=" << n << " " << result.message;
}

INSTANTIATE_TEST_SUITE_P(AllSizes, SpectralOpsSizeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 25, 50, 64,
                                           100, 200));

}  // namespace
}  // namespace fft
}  // namespace slime
