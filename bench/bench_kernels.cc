// Kernel/dispatch-layer benchmark: measures GFLOP/s and thread scaling of
// the compute kernels plus end-to-end train/serve phases, and verifies that
// every thread count produces bit-identical results (CRC32 over the output
// buffers). Emits BENCH_kernels.json.
//
// Usage: bench_kernels [--quick] [--out FILE]
//   --quick          shrink problem sizes (CI smoke run)
//   --out FILE       output path (default BENCH_kernels.json)
// SLIME_BENCH_SCALE multiplies the synthetic dataset scale (0.25, or 0.05
// with --quick).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "bench_util/experiment.h"
#include "common/crc32.h"
#include "common/random.h"
#include "compute/backend.h"
#include "compute/kernels.h"
#include "compute/thread_pool.h"
#include "data/synthetic.h"
#include "fft/fft.h"
#include "fft/spectral_ops.h"
#include "models/model_factory.h"
#include "serving/recommendation_service.h"
#include "train/trainer.h"

namespace slime {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Measurement {
  int threads = 0;
  double seconds = 0.0;
  double gflops = 0.0;  // 0 when not meaningful
  uint32_t crc = 0;
};

/// Best-of-`reps` wall time for `fn`; returns seconds.
template <typename Fn>
double BestOf(int reps, Fn fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = NowSeconds();
    fn();
    best = std::min(best, NowSeconds() - t0);
  }
  return best;
}

std::vector<Measurement> BenchMatMul(int64_t n, int reps,
                                     const std::vector<int>& thread_counts) {
  Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (auto& x : a) x = rng.UniformFloat() - 0.5f;
  for (auto& x : b) x = rng.UniformFloat() - 0.5f;
  std::vector<Measurement> out;
  const double flops = 2.0 * n * n * n;
  for (int threads : thread_counts) {
    compute::ComputeContext ctx(threads);
    const double secs = BestOf(reps, [&] {
      std::memset(c.data(), 0, c.size() * sizeof(float));
      compute::Dispatch().matmul(a.data(), n, 1, b.data(), c.data(), 1, n, n,
                                 n);
    });
    out.push_back({threads, secs, flops / secs / 1e9,
                   Crc32(c.data(), c.size() * sizeof(float))});
  }
  return out;
}

/// The matmul entry reading A through the (1, m) pair at the logits dW
/// shape: C(m,n) += A(k,m)^T @ B(k,n) with k = 128 examples, m = |V| = 12000
/// items and n = d = 64. Also times the same entry through the (k, 1) pair
/// at 1 thread, A transposed up front, into `matmul_gflops`: the full-mode
/// speed reference. The two results must be the same bits, so
/// `same_as_matmul` reports it.
std::vector<Measurement> BenchMatMulTransADw(
    int reps, const std::vector<int>& thread_counts, double* matmul_gflops,
    bool* same_as_matmul) {
  const int64_t k = 128, m = 12000, n = 64;
  Rng rng(5);
  std::vector<float> at(k * m), a(m * k), b(k * n), c(m * n);
  for (auto& x : at) x = rng.UniformFloat() - 0.5f;
  for (auto& x : b) x = rng.UniformFloat() - 0.5f;
  for (int64_t kk = 0; kk < k; ++kk) {
    for (int64_t i = 0; i < m; ++i) a[i * k + kk] = at[kk * m + i];
  }
  const double flops = 2.0 * k * m * n;
  std::vector<Measurement> out;
  for (int threads : thread_counts) {
    compute::ComputeContext ctx(threads);
    const double secs = BestOf(reps, [&] {
      std::memset(c.data(), 0, c.size() * sizeof(float));
      compute::Dispatch().matmul(at.data(), 1, m, b.data(), c.data(), 1, m, k,
                                 n);
    });
    out.push_back({threads, secs, flops / secs / 1e9,
                   Crc32(c.data(), c.size() * sizeof(float))});
  }
  compute::ComputeContext ctx(1);
  const double secs = BestOf(reps, [&] {
    std::memset(c.data(), 0, c.size() * sizeof(float));
    compute::Dispatch().matmul(a.data(), k, 1, b.data(), c.data(), 1, m, k,
                               n);
  });
  *matmul_gflops = flops / secs / 1e9;
  *same_as_matmul =
      Crc32(c.data(), c.size() * sizeof(float)) == out.front().crc;
  return out;
}

std::vector<Measurement> BenchComplexMul(
    int64_t repeats, int64_t block, int reps,
    const std::vector<int>& thread_counts) {
  Rng rng(2);
  const int64_t total = repeats * block;
  std::vector<float> ar(total), ai(total), br(block), bi(block), re(total),
      im(total);
  for (auto* v : {&ar, &ai, &br, &bi}) {
    for (auto& x : *v) x = rng.UniformFloat() - 0.5f;
  }
  std::vector<Measurement> out;
  const double flops = 6.0 * total;
  for (int threads : thread_counts) {
    compute::ComputeContext ctx(threads);
    const double secs = BestOf(reps, [&] {
      compute::Dispatch().complex_mul(ar.data(), ai.data(), br.data(),
                                      bi.data(), re.data(), im.data(),
                                      repeats, block);
    });
    uint32_t crc = Crc32(re.data(), re.size() * sizeof(float));
    crc = ExtendCrc32(crc, im.data(), im.size() * sizeof(float));
    out.push_back({threads, secs, flops / secs / 1e9, crc});
  }
  return out;
}

std::vector<Measurement> BenchAxpy(int64_t n, int reps,
                                   const std::vector<int>& thread_counts) {
  Rng rng(3);
  std::vector<float> a(n), out(n);
  for (auto& x : a) x = rng.UniformFloat() - 0.5f;
  std::vector<Measurement> result;
  const double flops = 2.0 * n;
  for (int threads : thread_counts) {
    compute::ComputeContext ctx(threads);
    std::fill(out.begin(), out.end(), 1.0f);
    const double secs = BestOf(reps, [&] {
      compute::Dispatch().axpy(out.data(), a.data(), 0.5f, n);
    });
    result.push_back({threads, secs, flops / secs / 1e9,
                      Crc32(out.data(), out.size() * sizeof(float))});
  }
  return result;
}

std::vector<Measurement> BenchAdamStep(
    int64_t n, int reps, const std::vector<int>& thread_counts) {
  Rng rng(4);
  std::vector<float> g(n);
  for (auto& x : g) x = rng.UniformFloat() - 0.5f;
  compute::AdamStepParams p;
  p.bias_corr1 = 0.5f;
  p.bias_corr2 = 0.1f;
  std::vector<Measurement> result;
  const double flops = 11.0 * n;  // rough per-element op count
  for (int threads : thread_counts) {
    compute::ComputeContext ctx(threads);
    std::vector<float> w(n, 0.1f), m(n, 0.0f), v(n, 0.0f);
    const double secs = BestOf(reps, [&] {
      compute::Dispatch().adam_step(w.data(), m.data(), v.data(), g.data(), n,
                                    p);
    });
    result.push_back({threads, secs, flops / secs / 1e9,
                      Crc32(w.data(), w.size() * sizeof(float))});
  }
  return result;
}

/// The dropout mask over n elements (n need not be a multiple of 64) with
/// random bits, at scale 1/0.9. Also times, at 1 thread, the per-bit select
/// loop the kernel replaced, out = in * (bit ? scale : 0), into
/// `select_seconds`. The two must be the same bits, so `same_as_select`
/// reports it.
std::vector<Measurement> BenchDropoutMask(int64_t n, int reps,
                                          const std::vector<int>& thread_counts,
                                          double* select_seconds,
                                          bool* same_as_select) {
  Rng rng(9);
  std::vector<float> in(n), out(n), ref(n);
  std::vector<uint64_t> bits((n + 63) / 64);
  for (auto& x : in) x = rng.UniformFloat() - 0.5f;
  for (auto& w : bits) w = rng.NextUint64();
  const float scale = 1.0f / 0.9f;
  std::vector<Measurement> result;
  for (int threads : thread_counts) {
    compute::ComputeContext ctx(threads);
    const double secs = BestOf(reps, [&] {
      compute::Dispatch().dropout_mask(in.data(), bits.data(), scale,
                                       out.data(), n);
    });
    result.push_back({threads, secs, n / secs / 1e9,
                      Crc32(out.data(), out.size() * sizeof(float))});
  }
  *select_seconds = BestOf(reps, [&] {
    for (int64_t i = 0; i < n; ++i)
      ref[i] = in[i] * ((bits[i / 64] >> (i % 64)) & 1 ? scale : 0.0f);
  });
  *same_as_select = Crc32(ref.data(), ref.size() * sizeof(float)) ==
                    result.front().crc;
  return result;
}

/// Benchmarks the filter-mixer transform hot loop at the plan level: the
/// packed `VerticalRfftPlan` vs what the ops previously did per batch item
/// (stage a full (n, d) complex block, run `VerticalFftPlan`, copy the half
/// spectrum out). Separate arms per path: cross-path CRCs legitimately
/// differ by rounding, while within an arm every thread count must be
/// bit-identical.
std::vector<Measurement> BenchRfftPlan(int64_t n, int64_t b, int64_t d,
                                       bool packed, bool inverse, int reps,
                                       const std::vector<int>& thread_counts) {
  const int64_t m = fft::RfftBins(n);
  Rng rng(6);
  std::vector<float> x(b * n * d);
  for (auto& v : x) v = rng.UniformFloat() - 0.5f;
  std::vector<float> re(b * m * d), im(b * m * d), back(b * n * d);
  if (inverse) {
    // Realistic half-spectrum input: the forward of x.
    const fft::VerticalRfftPlan& plan = fft::GetVerticalRfftPlan(n);
    for (int64_t bi = 0; bi < b; ++bi) {
      plan.Forward(x.data() + bi * n * d, d, re.data() + bi * m * d,
                   im.data() + bi * m * d);
    }
  }
  const float inv_n = 1.0f / static_cast<float>(n);
  std::vector<Measurement> out;
  // Nominal full-complex transform work, identical for both paths so the
  // packed arm's higher "gflops" directly reads as its effective speedup.
  const double flops =
      5.0 * n * std::max(1.0, std::log2(static_cast<double>(n))) * b * d;
  for (int threads : thread_counts) {
    compute::ComputeContext ctx(threads);
    const double secs = BestOf(reps, [&] {
      compute::ParallelFor(0, b, 1, [&](int64_t lo, int64_t hi) {
        static thread_local std::vector<float> sre, sim;
        if (static_cast<int64_t>(sre.size()) < n * d) {
          sre.resize(n * d);
          sim.resize(n * d);
        }
        for (int64_t bi = lo; bi < hi; ++bi) {
          if (packed) {
            const fft::VerticalRfftPlan& plan = fft::GetVerticalRfftPlan(n);
            if (inverse) {
              plan.Inverse(re.data() + bi * m * d, im.data() + bi * m * d, d,
                           back.data() + bi * n * d, inv_n);
            } else {
              plan.Forward(x.data() + bi * n * d, d, re.data() + bi * m * d,
                           im.data() + bi * m * d);
            }
          } else {
            const fft::VerticalFftPlan& plan = fft::GetVerticalPlan(n);
            if (inverse) {
              std::copy(re.data() + bi * m * d, re.data() + (bi + 1) * m * d,
                        sre.data());
              std::copy(im.data() + bi * m * d, im.data() + (bi + 1) * m * d,
                        sim.data());
              for (int64_t k = 1; k < (n + 1) / 2; ++k) {
                for (int64_t f = 0; f < d; ++f) {
                  sre[(n - k) * d + f] = sre[k * d + f];
                  sim[(n - k) * d + f] = -sim[k * d + f];
                }
              }
              plan.Transform(sre.data(), sim.data(), d, /*inverse=*/true);
              float* dst = back.data() + bi * n * d;
              for (int64_t i = 0; i < n * d; ++i) dst[i] = sre[i] * inv_n;
            } else {
              std::copy(x.data() + bi * n * d, x.data() + (bi + 1) * n * d,
                        sre.data());
              std::fill(sim.begin(), sim.begin() + n * d, 0.0f);
              plan.Transform(sre.data(), sim.data(), d, /*inverse=*/false);
              std::copy(sre.data(), sre.data() + m * d,
                        re.data() + bi * m * d);
              std::copy(sim.data(), sim.data() + m * d,
                        im.data() + bi * m * d);
            }
          }
        }
      });
    });
    uint32_t crc;
    if (inverse) {
      crc = Crc32(back.data(), back.size() * sizeof(float));
    } else {
      crc = Crc32(re.data(), re.size() * sizeof(float));
      crc = ExtendCrc32(crc, im.data(), im.size() * sizeof(float));
    }
    out.push_back({threads, secs, flops / secs / 1e9, crc});
  }
  return out;
}

/// The deterministic quality gates for the packed real-FFT plan, measured
/// on this host: max-abs error of both directions vs NaiveDft, and
/// gradcheck of the differentiable ops.
struct RfftGates {
  double max_abs_err = 0.0;
  double irfft_max_abs_err = 0.0;
  bool gradcheck_ok = false;
};

RfftGates MeasureRfftGates() {
  RfftGates gates;
  for (const int64_t n : {int64_t{64}, int64_t{200}}) {
    const int64_t d = 4;
    const int64_t m = fft::RfftBins(n);
    const fft::VerticalRfftPlan& plan = fft::GetVerticalRfftPlan(n);
    // Packed forward vs the O(n^2) double-precision NaiveDft oracle at the
    // two benched lengths.
    Rng rng(100 + n);
    std::vector<float> x(n * d);
    for (auto& v : x) v = rng.UniformFloat() - 0.5f;
    std::vector<float> re(m * d), im(m * d);
    plan.Forward(x.data(), d, re.data(), im.data());
    for (int64_t f = 0; f < d; ++f) {
      std::vector<std::complex<double>> col(n);
      for (int64_t t = 0; t < n; ++t) col[t] = {x[t * d + f], 0.0};
      std::vector<std::complex<double>> naive;
      fft::NaiveDft(col, &naive, false);
      for (int64_t k = 0; k < m; ++k) {
        gates.max_abs_err =
            std::max({gates.max_abs_err,
                      std::abs(re[k * d + f] - naive[k].real()),
                      std::abs(im[k * d + f] - naive[k].imag())});
      }
    }
    // Packed inverse of that half spectrum vs the NaiveDft inverse of
    // its conjugate-symmetric extension, scaled by 1/n. The real part
    // ignores the DC/Nyquist imaginary inputs, as the plan does.
    plan.Inverse(re.data(), im.data(), d, x.data(),
                 1.0f / static_cast<float>(n));
    for (int64_t f = 0; f < d; ++f) {
      std::vector<std::complex<double>> spectrum(n);
      for (int64_t k = 0; k < m; ++k) {
        spectrum[k] = {re[k * d + f], im[k * d + f]};
      }
      for (int64_t k = m; k < n; ++k) spectrum[k] = std::conj(spectrum[n - k]);
      std::vector<std::complex<double>> naive;
      fft::NaiveDft(spectrum, &naive, true);
      for (int64_t t = 0; t < n; ++t) {
        gates.irfft_max_abs_err =
            std::max(gates.irfft_max_abs_err,
                     std::abs(x[t * d + f] - naive[t].real() / n));
      }
    }
  }
  // Gradcheck of the rfft->irfft composition.
  Rng rng(7);
  autograd::Variable x =
      autograd::Param(Tensor::Randn({1, 12, 2}, &rng, 0.5f));
  const auto result = autograd::CheckGradients(
      [](const std::vector<autograd::Variable>& in) {
        Rng wrng(96);
        Tensor w = Tensor::Randn({1, 12, 2}, &wrng);
        return autograd::Sum(
            autograd::MulConst(fft::Irfft(fft::Rfft(in[0]), 12), w));
      },
      {x});
  gates.gradcheck_ok = result.ok;
  return gates;
}

data::SplitDataset BenchSplit(double scale) {
  data::SyntheticConfig config = data::BeautySimConfig(scale);
  config.seed = 4242;
  return data::SplitDataset(data::GenerateSynthetic(config), 2);
}

std::vector<Measurement> BenchTrainEpoch(
    const data::SplitDataset& split, const std::vector<int>& thread_counts) {
  std::vector<Measurement> out;
  for (int threads : thread_counts) {
    compute::ComputeContext ctx(threads);
    models::ModelConfig c;
    c.num_items = split.num_items();
    c.num_users = split.num_users();
    c.max_len = 16;
    c.hidden_dim = 32;
    c.num_layers = 2;
    c.seed = 11;
    auto model = models::CreateModel("SLIME4Rec", c);
    train::TrainConfig t;
    t.max_epochs = 1;
    t.batch_size = 64;
    t.seed = 5;
    t.patience = 100;
    train::Trainer trainer(t);
    const double t0 = NowSeconds();
    const train::TrainResult result = trainer.Fit(model.get(), split).value();
    const double secs = NowSeconds() - t0;
    // The final loss doubles as the cross-thread-count identity witness.
    const double loss = result.final_train_loss;
    out.push_back(
        {threads, secs, 0.0, Crc32(&loss, sizeof(loss))});
  }
  return out;
}

std::vector<Measurement> BenchServeBatch(
    const data::SplitDataset& split, int reps,
    const std::vector<int>& thread_counts) {
  models::ModelConfig c;
  c.num_items = split.num_items();
  c.num_users = split.num_users();
  c.max_len = 16;
  c.hidden_dim = 32;
  c.num_layers = 2;
  c.seed = 11;
  auto model = models::CreateModel("SLIME4Rec", c);
  model->SetTraining(false);
  serving::RecommendationService service(model.get());
  serving::RecommendOptions options;
  options.top_k = 10;
  Rng rng(8);
  std::vector<std::vector<int64_t>> histories;
  for (int u = 0; u < 64; ++u) {
    std::vector<int64_t> h;
    const int len = 4 + static_cast<int>(rng.Uniform(12));
    for (int i = 0; i < len; ++i)
      h.push_back(1 + static_cast<int64_t>(rng.Uniform(c.num_items)));
    histories.push_back(std::move(h));
  }
  std::vector<Measurement> out;
  for (int threads : thread_counts) {
    compute::ComputeContext ctx(threads);
    std::vector<std::vector<serving::Recommendation>> recs;
    const double secs = BestOf(reps, [&] {
      recs = service.RecommendBatch(histories, options).value();
    });
    uint32_t crc = 0;
    for (const auto& user : recs) {
      for (const auto& r : user) {
        crc = ExtendCrc32(crc, &r.item, sizeof(r.item));
        crc = ExtendCrc32(crc, &r.score, sizeof(r.score));
      }
    }
    out.push_back({threads, secs, 0.0, crc});
  }
  return out;
}

void EmitSection(std::FILE* f, const char* name,
                 const std::vector<Measurement>& ms, bool last) {
  const double base = ms.empty() ? 0.0 : ms.front().seconds;
  bool identical = true;
  for (const auto& m : ms) identical = identical && m.crc == ms.front().crc;
  std::fprintf(f, "  \"%s\": {\n    \"bit_identical\": %s,\n    \"runs\": [\n",
               name, identical ? "true" : "false");
  for (size_t i = 0; i < ms.size(); ++i) {
    const auto& m = ms[i];
    std::fprintf(f,
                 "      {\"threads\": %d, \"seconds\": %.6f, "
                 "\"gflops\": %.3f, \"speedup_vs_1\": %.3f, "
                 "\"crc32\": %u}%s\n",
                 m.threads, m.seconds, m.gflops,
                 m.seconds > 0.0 ? base / m.seconds : 0.0, m.crc,
                 i + 1 < ms.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  }%s\n", last ? "" : ",");
}

int Main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_kernels [--quick] [--out FILE]\n");
      return 2;
    }
  }
  const double scale = bench::BenchDataScale(quick ? 0.05 : 0.25);
  const int hw = compute::HardwareThreads();
  std::vector<int> thread_counts = {1, 2, 4};
  const int64_t mm_n = quick ? 128 : 512;
  const int reps = quick ? 2 : 3;
  const int64_t ew_n = quick ? (1 << 20) : (1 << 23);

  // Scalar-vs-simd arm per kernel: same shapes under every available
  // backend, scalar first so speedups read in order.
  std::vector<std::string> backends = compute::AvailableKernelBackends();
  std::reverse(backends.begin(), backends.end());

  std::fprintf(stderr,
               "bench_kernels: hardware_threads=%d scale=%g cpu=[%s]\n", hw,
               scale, compute::CpuFeatureString().c_str());
  struct Arm {
    std::string name;
    std::vector<Measurement> ms;
  };
  std::vector<Arm> arms;
  double matmul_1t_secs_scalar = 0.0;
  double matmul_1t_secs_simd = 0.0;
  // Per backend: 1-thread GFLOP/s of matmul through the (1, m) pair at the
  // logits dW shape over the (k, 1) pair on the transposed copy.
  std::vector<std::pair<std::string, double>> trans_a_ratios;
  bool trans_a_same_as_matmul = true;
  // Per backend: 1-thread dropout-mask speedup over the select loop.
  std::vector<std::pair<std::string, double>> mask_speedups;
  bool mask_same_as_select = true;
  for (const std::string& backend : backends) {
    compute::SetKernelBackend(backend).value();
    std::fprintf(stderr, "bench_kernels: backend=%s\n", backend.c_str());
    char section[64];
    std::snprintf(section, sizeof(section), "matmul_%ld_%s",
                  static_cast<long>(mm_n), backend.c_str());
    arms.push_back({section, BenchMatMul(mm_n, reps, thread_counts)});
    if (backend == "scalar") {
      matmul_1t_secs_scalar = arms.back().ms.front().seconds;
    } else if (backend == "simd") {
      matmul_1t_secs_simd = arms.back().ms.front().seconds;
    }
    double dw_matmul_gflops = 0.0;
    bool dw_same = false;
    arms.push_back({"matmul_trans_a_dw_" + backend,
                    BenchMatMulTransADw(reps, thread_counts, &dw_matmul_gflops,
                                        &dw_same)});
    trans_a_ratios.emplace_back(
        backend, arms.back().ms.front().gflops / dw_matmul_gflops);
    trans_a_same_as_matmul = trans_a_same_as_matmul && dw_same;
    arms.push_back({"complex_mul_" + backend,
                    BenchComplexMul(quick ? 64 : 512, quick ? 1024 : 8192,
                                    reps, thread_counts)});
    arms.push_back({"axpy_" + backend, BenchAxpy(ew_n, reps, thread_counts)});
    double select_seconds = 0.0;
    bool mask_same = false;
    arms.push_back({"dropout_mask_" + backend,
                    BenchDropoutMask(ew_n + 37, reps, thread_counts,
                                     &select_seconds, &mask_same)});
    mask_speedups.emplace_back(
        backend, select_seconds / arms.back().ms.front().seconds);
    mask_same_as_select = mask_same_as_select && mask_same;
    arms.push_back(
        {"adam_step_" + backend, BenchAdamStep(ew_n, reps, thread_counts)});
  }
  // Half-spectrum real-FFT arms: the packed plan vs a full-complex staging
  // of the same transform (see BenchRfftPlan), at a pow2 and a Bluestein
  // length bracketing the paper's sequence scales. The two are separate arms
  // because their CRCs legitimately differ by rounding; each arm is still
  // held to within-arm bit-identity across thread counts.
  const int64_t fft_b = quick ? 16 : 64;
  const int64_t fft_d = quick ? 16 : 64;
  double rfft_speedup_64 = 0.0;
  double rfft_speedup_200 = 0.0;
  for (const int64_t fn : {int64_t{64}, int64_t{200}}) {
    std::fprintf(stderr, "bench_kernels: rfft n=%ld\n",
                 static_cast<long>(fn));
    const auto cplx = BenchRfftPlan(fn, fft_b, fft_d, /*packed=*/false,
                                    /*inverse=*/false, reps, thread_counts);
    const auto packed = BenchRfftPlan(fn, fft_b, fft_d, /*packed=*/true,
                                      /*inverse=*/false, reps, thread_counts);
    const std::string sn = std::to_string(fn);
    arms.push_back({"rfft_" + sn + "_complex", cplx});
    arms.push_back({"rfft_" + sn + "_packed", packed});
    (fn == 64 ? rfft_speedup_64 : rfft_speedup_200) =
        cplx.front().seconds / packed.front().seconds;
    arms.push_back({"irfft_" + sn + "_complex",
                    BenchRfftPlan(fn, fft_b, fft_d, /*packed=*/false,
                                  /*inverse=*/true, reps, thread_counts)});
    arms.push_back({"irfft_" + sn + "_packed",
                    BenchRfftPlan(fn, fft_b, fft_d, /*packed=*/true,
                                  /*inverse=*/true, reps, thread_counts)});
  }

  // Train/serve phases run on the preferred backend for this host (the last
  // one benched, i.e. what `auto` resolves to).
  const std::string active = compute::ActiveKernelBackend();
  const data::SplitDataset split = BenchSplit(scale);
  const RfftGates rfft_gates = MeasureRfftGates();
  arms.push_back(
      {"train_epoch_beauty_sim", BenchTrainEpoch(split, thread_counts)});
  arms.push_back(
      {"serve_batch_64", BenchServeBatch(split, quick ? 1 : 2, thread_counts)});
  compute::SetKernelBackend("scalar").value();

  const double simd_speedup =
      matmul_1t_secs_simd > 0.0 ? matmul_1t_secs_scalar / matmul_1t_secs_simd
                                : 0.0;
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"host\": {\"hardware_threads\": %d,\n", hw);
  std::fprintf(f, "    \"cpu_features\": \"%s\",\n",
               compute::CpuFeatureString().c_str());
  std::fprintf(f, "    \"simd_compiled\": %s,\n",
               compute::SimdBackendCompiled() ? "true" : "false");
  std::fprintf(f, "    \"backends\": [");
  for (size_t i = 0; i < backends.size(); ++i) {
    std::fprintf(f, "\"%s\"%s", backends[i].c_str(),
                 i + 1 < backends.size() ? ", " : "");
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, "    \"train_serve_backend\": \"%s\",\n", active.c_str());
  std::fprintf(f, "    \"matmul_simd_speedup_1t\": %.3f,\n", simd_speedup);
  for (const auto& [backend, ratio] : trans_a_ratios) {
    std::fprintf(f, "    \"matmul_trans_a_dw_vs_matmul_1t_%s\": %.3f,\n",
                 backend.c_str(), ratio);
  }
  for (const auto& [backend, speedup] : mask_speedups) {
    std::fprintf(f, "    \"dropout_mask_vs_select_1t_%s\": %.3f,\n",
                 backend.c_str(), speedup);
  }
  std::fprintf(f, "    \"rfft_packed_speedup_1t_n64\": %.3f,\n",
               rfft_speedup_64);
  std::fprintf(f, "    \"rfft_packed_speedup_1t_n200\": %.3f,\n",
               rfft_speedup_200);
  std::fprintf(f, "    \"rfft_max_abs_err_vs_naive\": %.3g,\n",
               rfft_gates.max_abs_err);
  std::fprintf(f, "    \"irfft_max_abs_err_vs_naive\": %.3g,\n",
               rfft_gates.irfft_max_abs_err);
  std::fprintf(f, "    \"rfft_gradcheck_ok\": %s,\n",
               rfft_gates.gradcheck_ok ? "true" : "false");
  std::fprintf(f,
               "    \"note\": \"speedups are bounded by physical cores; on a "
               "1-core host all thread counts serialise\"},\n");
  for (size_t i = 0; i < arms.size(); ++i) {
    EmitSection(f, arms[i].name.c_str(), arms[i].ms, i + 1 == arms.size());
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s (matmul simd speedup at 1 thread: %.2fx)\n",
               out_path.c_str(), simd_speedup);

  // Exit nonzero if any arm broke within-backend bit-identity, so CI fails
  // loudly. Cross-backend CRCs are expected to differ (FMA contraction);
  // their equivalence is gated by gradcheck/ranking tests instead.
  for (const auto& arm : arms) {
    for (const auto& m : arm.ms) {
      if (m.crc != arm.ms.front().crc) return 1;
    }
  }
  // The (1, m) pair reads A through its transpose: the bits must match the
  // (k, 1) pair on the transposed copy in every mode, and its speed must be
  // within 4x of it on full runs.
  if (!trans_a_same_as_matmul) {
    std::fprintf(stderr, "matmul_trans_a_dw differs from matmul on A^T\n");
    return 1;
  }
  // The dropout mask is the select loop's products, bit for bit.
  if (!mask_same_as_select) {
    std::fprintf(stderr, "dropout_mask differs from the select loop\n");
    return 1;
  }
  for (const auto& [backend, ratio] : trans_a_ratios) {
    if (!quick && ratio < 0.25) {
      std::fprintf(stderr,
                   "matmul_trans_a_dw_%s speed gate FAILED: %.3fx matmul\n",
                   backend.c_str(), ratio);
      return 1;
    }
  }
  // The packed-rfft correctness gates are deterministic and always enforced;
  // the speedup gate is timing-based, so only enforce it on full runs
  // (quick CI boxes are too noisy for a hard perf floor).
  if (rfft_gates.max_abs_err > 1e-4 || rfft_gates.irfft_max_abs_err > 1e-4 ||
      !rfft_gates.gradcheck_ok) {
    std::fprintf(stderr,
                 "rfft gates FAILED: err=%.3g irfft_err=%.3g gradcheck=%d\n",
                 rfft_gates.max_abs_err, rfft_gates.irfft_max_abs_err,
                 rfft_gates.gradcheck_ok ? 1 : 0);
    return 1;
  }
  if (!quick && (rfft_speedup_64 < 1.5 || rfft_speedup_200 < 1.5)) {
    std::fprintf(stderr, "rfft speedup gate FAILED: n64=%.2fx n200=%.2fx\n",
                 rfft_speedup_64, rfft_speedup_200);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace slime

int main(int argc, char** argv) { return slime::Main(argc, argv); }
