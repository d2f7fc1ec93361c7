#include "fft/fft.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <thread>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "fft/spectral_ops.h"
#include "reference_ops.h"

namespace slime {
namespace fft {
namespace {

using autograd::Param;
using autograd::Sum;
using autograd::Variable;

TEST(RfftBinsTest, MatchesStandardDefinition) {
  EXPECT_EQ(RfftBins(1), 1);
  EXPECT_EQ(RfftBins(2), 2);
  EXPECT_EQ(RfftBins(8), 5);
  EXPECT_EQ(RfftBins(25), 13);
  EXPECT_EQ(RfftBins(50), 26);   // paper Eq. 13 for even N: N/2 + 1
  EXPECT_EQ(RfftBins(100), 51);
}

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
  // The paper's filter step end to end (Eqs. 21, 25, 26):
  // irfft(c_d * (mask_d . (rfft(x) . W_d)) + c_s * (mask_s . (rfft(x) . W_s))).
  Rng rng(5);
  Variable x = Param(Tensor::Randn({1, 6, 2}, &rng, 0.5f));
  std::vector<Variable> in = {x};
  for (int i = 0; i < 4; ++i) {
    in.push_back(Param(Tensor::Randn({4, 2}, &rng, 0.5f)));
  }
  Tensor mask_d = Tensor::FromVector({4, 1}, {0, 1, 1, 0});
  Tensor mask_s = Tensor::FromVector({4, 1}, {1, 0, 1, 1});
  const auto result = autograd::CheckGradients(
      [mask_d, mask_s](const std::vector<Variable>& in) {
        const SpectralPair filtered =
            FilterMix(Rfft(in[0]), {{{in[1], in[2]}, mask_d, 0.6f},
                                    {{in[3], in[4]}, mask_s, 0.4f}});
        Rng wrng(97);
        Tensor w = Tensor::Randn({1, 6, 2}, &wrng);
        return Sum(autograd::MulConst(Irfft(filtered, 6), w));
      },
      in);
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(SpectralOpsTest, ComplexMulMatchesManual) {
  // (1 + 2i) * (3 + 4i) = -5 + 10i.
  Variable ar = Param(Tensor::FromVector({1, 1, 1}, {1}));
  Variable ai = Param(Tensor::FromVector({1, 1, 1}, {2}));
  Variable br = Param(Tensor::FromVector({1, 1, 1}, {3}));
  Variable bi = Param(Tensor::FromVector({1, 1, 1}, {4}));
  const SpectralPair p = reference::ComplexMul({ar, ai}, {br, bi});
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
  EXPECT_DEATH(reference::ComplexMul(a, b), "IsSuffixShape");
}

TEST(SpectralOpsTest, FilterMixConvexCombination) {
  // x = 1 + 2i through W_a = 1 and W_b = 3 mixed 0.75 / 0.25: 1.5 * x.
  Variable xr = Param(Tensor::FromVector({1, 1, 1}, {1}));
  Variable xi = Param(Tensor::FromVector({1, 1, 1}, {2}));
  Variable zero = Param(Tensor::FromVector({1, 1}, {0}));
  Variable a = Param(Tensor::FromVector({1, 1}, {1}));
  Variable b = Param(Tensor::FromVector({1, 1}, {3}));
  const SpectralPair mixed =
      FilterMix({xr, xi}, {{{a, zero}, Tensor(), 0.75f},
                           {{b, zero}, Tensor(), 0.25f}});
  EXPECT_FLOAT_EQ(mixed.re.value()[0], 1.5f);
  EXPECT_FLOAT_EQ(mixed.im.value()[0], 3.0f);
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

TEST_P(VerticalPlanTest, MatchesNaiveDftForwardAndInverse) {
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
      std::vector<std::complex<double>> naive;
      NaiveDft(col, &naive, inverse);
      for (int64_t t = 0; t < n; ++t) {
        EXPECT_NEAR(vre[t * d + f], naive[t].real(), 2e-3 * n)
            << "n=" << n << " inv=" << inverse << " t=" << t;
        EXPECT_NEAR(vim[t * d + f], naive[t].imag(), 2e-3 * n);
      }
    }
  }
}

TEST_P(VerticalPlanTest, InverseRoundTrip) {
  const int64_t n = GetParam();
  const int64_t d = 3;
  Rng rng(2000 + n);
  std::vector<float> re(n * d);
  std::vector<float> im(n * d);
  for (auto& v : re) v = rng.Gaussian();
  for (auto& v : im) v = rng.Gaussian();
  std::vector<float> vre = re;
  std::vector<float> vim = im;
  const VerticalFftPlan& plan = GetVerticalPlan(n);
  ASSERT_EQ(plan.n(), n);
  plan.Transform(vre.data(), vim.data(), d, /*inverse=*/false);
  plan.Transform(vre.data(), vim.data(), d, /*inverse=*/true);
  for (int64_t i = 0; i < n * d; ++i) {
    EXPECT_NEAR(vre[i] / n, re[i], 1e-5) << "n=" << n << " i=" << i;
    EXPECT_NEAR(vim[i] / n, im[i], 1e-5) << "n=" << n << " i=" << i;
  }
}

TEST_P(VerticalPlanTest, ParsevalHolds) {
  const int64_t n = GetParam();
  const int64_t d = 3;
  Rng rng(3000 + n);
  std::vector<float> re(n * d);
  std::vector<float> im(n * d);
  for (auto& v : re) v = rng.Gaussian();
  for (auto& v : im) v = rng.Gaussian();
  std::vector<double> time_energy(d, 0.0);
  for (int64_t i = 0; i < n * d; ++i) {
    time_energy[i % d] += double(re[i]) * re[i] + double(im[i]) * im[i];
  }
  GetVerticalPlan(n).Transform(re.data(), im.data(), d, /*inverse=*/false);
  std::vector<double> freq_energy(d, 0.0);
  for (int64_t i = 0; i < n * d; ++i) {
    freq_energy[i % d] += double(re[i]) * re[i] + double(im[i]) * im[i];
  }
  for (int64_t f = 0; f < d; ++f) {
    EXPECT_NEAR(freq_energy[f] / n, time_energy[f], 1e-5 * time_energy[f])
        << "n=" << n << " column " << f;
  }
}

// Powers of two run radix-2; other sizes run Bluestein. 25, 50, 75, 100
// are the paper's candidate sequence lengths (Sec. IV-D).
INSTANTIATE_TEST_SUITE_P(AllSizes, VerticalPlanTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16, 25,
                                           32, 50, 64, 75, 100, 128));

// ---------------------------------------------------------------------------
// VerticalRfftPlan: the packed half-spectrum fast path.
// The size list deliberately straddles every boundary of the mirror
// classification k < (n+1)/2: n=1 (no mirrored bins), n=2 (DC+Nyquist only),
// odd n (no Nyquist), pow2 and Bluestein lengths.
// ---------------------------------------------------------------------------

class VerticalRfftPlanTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(VerticalRfftPlanTest, ForwardMatchesNaiveDft) {
  // An odd width leaves the odd-n path one unpaired column; an even one
  // pairs them all.
  const int64_t n = GetParam();
  const int64_t m = RfftBins(n);
  const double tol = std::min(2e-3, 1e-4 * std::max<int64_t>(n, 8));
  for (const int64_t d : {3, 4}) {
    Rng rng(9000 + 100 * (d - 3) + n);
    std::vector<float> x(n * d);
    for (auto& v : x) v = rng.Gaussian();
    std::vector<float> re(m * d);
    std::vector<float> im(m * d);
    GetVerticalRfftPlan(n).Forward(x.data(), d, re.data(), im.data());
    std::vector<float> col(n);
    for (int64_t f = 0; f < d; ++f) {
      for (int64_t t = 0; t < n; ++t) col[t] = x[t * d + f];
      const auto naive = reference::NaiveRfft(col);
      for (int64_t k = 0; k < m; ++k) {
        EXPECT_NEAR(re[k * d + f], naive[k].real(), tol)
            << "n=" << n << " d=" << d << " k=" << k;
        EXPECT_NEAR(im[k * d + f], naive[k].imag(), tol)
            << "n=" << n << " d=" << d << " k=" << k;
      }
    }
  }
}

TEST_P(VerticalRfftPlanTest, InverseMatchesNaiveIrfft) {
  // Random half spectra, including nonzero DC/Nyquist imaginary parts: the
  // plan must ignore them exactly like the real part of the direct inverse.
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
  for (int64_t f = 0; f < d; ++f) {
    for (int64_t k = 0; k < m; ++k) {
      cre[k] = re[k * d + f];
      cim[k] = im[k * d + f];
    }
    const std::vector<double> naive = reference::NaiveIrfft(cre, cim, n);
    for (int64_t t = 0; t < n; ++t) {
      EXPECT_NEAR(x[t * d + f], naive[t], 2e-3) << "n=" << n << " t=" << t;
    }
  }
}

TEST_P(VerticalRfftPlanTest, DcBinIsSumOfSignal) {
  const int64_t n = GetParam();
  const int64_t d = 3;
  const int64_t m = RfftBins(n);
  Rng rng(5000 + n);
  std::vector<float> x(n * d);
  std::vector<double> sum(d, 0.0);
  for (int64_t i = 0; i < n * d; ++i) {
    x[i] = rng.Gaussian();
    sum[i % d] += x[i];
  }
  std::vector<float> re(m * d);
  std::vector<float> im(m * d);
  GetVerticalRfftPlan(n).Forward(x.data(), d, re.data(), im.data());
  for (int64_t f = 0; f < d; ++f) {
    EXPECT_NEAR(re[f], sum[f], 1e-3) << "n=" << n << " column " << f;
    EXPECT_NEAR(im[f], 0.0, 1e-4) << "n=" << n << " column " << f;
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
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16, 25,
                                           32, 50, 64, 75, 100, 128, 200));

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
// sequence lengths (25, 50, 100, 200): forward against the per-column direct
// DFT references, backward through the adjoint identity and gradcheck.
// ---------------------------------------------------------------------------

class SpectralOpsSizeTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(SpectralOpsSizeTest, ForwardMatchesNaiveDft) {
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
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t f = 0; f < d; ++f) {
      for (int64_t t = 0; t < n; ++t) col[t] = xt[(bi * n + t) * d + f];
      const auto naive = reference::NaiveRfft(col);
      for (int64_t k = 0; k < m; ++k) {
        EXPECT_NEAR(sp.re.value()[(bi * m + k) * d + f], naive[k].real(), 2e-3)
            << "n=" << n << " b=" << bi << " k=" << k;
        EXPECT_NEAR(sp.im.value()[(bi * m + k) * d + f], naive[k].imag(), 2e-3)
            << "n=" << n << " b=" << bi << " k=" << k;
      }
      // The inverse of the op's own spectrum, column by column.
      for (int64_t k = 0; k < m; ++k) {
        sre[k] = sp.re.value()[(bi * m + k) * d + f];
        sim[k] = sp.im.value()[(bi * m + k) * d + f];
      }
      const std::vector<double> back = reference::NaiveIrfft(sre, sim, n);
      for (int64_t t = 0; t < n; ++t) {
        EXPECT_NEAR(y.value()[(bi * n + t) * d + f], back[t], 2e-3)
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
