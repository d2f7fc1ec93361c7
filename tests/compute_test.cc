#include "compute/kernels.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "compute/backend.h"
#include "compute/thread_pool.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace slime {
namespace compute {
namespace {

std::vector<float> RandomVec(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.UniformFloat() * 2.0f - 1.0f;
  return v;
}

TEST(ThreadPoolTest, RunsEveryChunkExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    const int64_t num_chunks = 103;
    std::vector<std::atomic<int>> hits(num_chunks);
    for (auto& h : hits) h = 0;
    pool.Run(num_chunks, [&](int64_t c) { hits[c].fetch_add(1); });
    for (int64_t c = 0; c < num_chunks; ++c) EXPECT_EQ(hits[c].load(), 1);
  }
}

TEST(ThreadPoolTest, ReusableAcrossJobs) {
  ThreadPool pool(4);
  for (int job = 0; job < 50; ++job) {
    std::atomic<int64_t> sum{0};
    pool.Run(17, [&](int64_t c) { sum.fetch_add(c); });
    EXPECT_EQ(sum.load(), 17 * 16 / 2);
  }
}

TEST(ParallelForTest, CoversRangeOnceForAnyGrain) {
  for (int threads : {1, 3, 8}) {
    ComputeContext ctx(threads);
    for (int64_t grain : {1, 7, 64, 1000}) {
      const int64_t n = 257;
      std::vector<int> hits(n, 0);
      ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) ++hits[i];
      });
      for (int64_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1);
    }
  }
}

TEST(ParallelForTest, EmptyAndNegativeRangesAreNoOps) {
  int calls = 0;
  ParallelFor(5, 5, 16, [&](int64_t, int64_t) { ++calls; });
  ParallelFor(5, 3, 16, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, NestedCallsRunInline) {
  ComputeContext ctx(4);
  std::vector<int> hits(64, 0);
  ParallelFor(0, 4, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t outer = lo; outer < hi; ++outer) {
      // Nested region must not deadlock and must still cover its range.
      ParallelFor(0, 16, 4, [&](int64_t ilo, int64_t ihi) {
        for (int64_t i = ilo; i < ihi; ++i) ++hits[outer * 16 + i];
      });
    }
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelSumTest, BitIdenticalAcrossThreadCounts) {
  const auto v = RandomVec(100000, 7);
  double ref = 0.0;
  {
    ComputeContext ctx(1);
    ref = SumKernel(v.data(), static_cast<int64_t>(v.size()));
  }
  for (int threads : {2, 4, 8}) {
    ComputeContext ctx(threads);
    const double got = SumKernel(v.data(), static_cast<int64_t>(v.size()));
    EXPECT_EQ(ref, got) << "threads=" << threads;
  }
}

TEST(ParallelSumTest, DotBitIdenticalAcrossThreadCounts) {
  const auto a = RandomVec(70001, 11);
  const auto b = RandomVec(70001, 13);
  double ref = 0.0;
  {
    ComputeContext ctx(1);
    ref = DotKernel(a.data(), b.data(), 70001);
  }
  for (int threads : {2, 8}) {
    ComputeContext ctx(threads);
    EXPECT_EQ(ref, DotKernel(a.data(), b.data(), 70001));
  }
}

TEST(KernelsTest, AllFiniteDetectsNanAndInf) {
  auto v = RandomVec(50000, 3);
  ComputeContext ctx(4);
  EXPECT_TRUE(AllFiniteKernel(v.data(), 50000));
  v[49999] = std::nanf("");
  EXPECT_FALSE(AllFiniteKernel(v.data(), 50000));
  v[49999] = 0.0f;
  v[123] = INFINITY;
  EXPECT_FALSE(AllFiniteKernel(v.data(), 50000));
}

/// Restores the default scalar backend when a test body returns.
struct BackendGuard {
  ~BackendGuard() { SetKernelBackend("scalar").value(); }
};

/// Naive triple-loop reference matmul in double precision.
std::vector<float> NaiveMatMul(const std::vector<float>& a,
                               const std::vector<float>& b, int64_t m,
                               int64_t k, int64_t n, bool trans_a,
                               bool trans_b) {
  std::vector<float> c(m * n, 0.0f);
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float av = trans_a ? a[kk * m + i] : a[i * k + kk];
        const float bv = trans_b ? b[j * k + kk] : b[kk * n + j];
        acc += double(av) * bv;
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  return c;
}

/// Copy of a (k, m) row-major matrix transposed to (m, k), per batch item.
std::vector<float> TransposeItems(const std::vector<float>& at,
                                  int64_t batch, int64_t k, int64_t m) {
  std::vector<float> a(at.size());
  for (int64_t bi = 0; bi < batch; ++bi)
    for (int64_t kk = 0; kk < k; ++kk)
      for (int64_t i = 0; i < m; ++i)
        a[bi * m * k + i * k + kk] = at[bi * k * m + kk * m + i];
  return a;
}

/// A (k, m) operand with every fifth element a planted zero, so the scalar
/// tier's zero-skip is taken.
std::vector<float> TransAOperand(int64_t n, uint64_t seed) {
  auto v = RandomVec(n, seed);
  for (size_t i = 0; i < v.size(); i += 5) v[i] = 0.0f;
  return v;
}

/// TransA shapes hitting every tail: m mod 4 = 1, 2, 3 (the simd 4-row
/// microkernel's remainder); n = 13 (no 16-column tile: the 8-wide strip and
/// scalar columns), 24 (a tile and the strip), 31 (a tile, the strip and
/// scalar columns), 64 (tiles only); k = 1, 23, 200.
template <typename Fn>
void ForEachTransAShape(Fn fn) {
  for (const int64_t m : {17, 6, 35})
    for (const int64_t n : {13, 24, 31, 64})
      for (const int64_t k : {1, 23, 200}) fn(m, k, n);
}

/// `matmul` of `kt` reading A through the (1, m) pair, at batch 1 and 3,
/// must equal the same entry reading explicitly transposed copies of A
/// through (k, 1), bit for bit, and the double-precision reference within
/// tolerance.
void ExpectTransAEqualsMatMulOnTransposedA(const KernelTable& kt) {
  ForEachTransAShape([&](int64_t m, int64_t k, int64_t n) {
    SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
                 " n=" + std::to_string(n));
    const int64_t batch = 3;
    const auto at = TransAOperand(batch * k * m, 95 + m + k + n);
    const auto b = RandomVec(batch * k * n, 96 + m + k + n);
    const auto a = TransposeItems(at, batch, k, m);

    std::vector<float> got(m * n, 0.0f), want(m * n, 0.0f);
    kt.matmul(at.data(), 1, m, b.data(), got.data(), 1, m, k, n);
    kt.matmul(a.data(), k, 1, b.data(), want.data(), 1, m, k, n);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
              0);
    const auto ref = NaiveMatMul(at, b, m, k, n, true, false);
    for (int64_t i = 0; i < m * n; ++i) EXPECT_NEAR(got[i], ref[i], 1e-4f);

    std::vector<float> bgot(batch * m * n, 0.0f), bwant(batch * m * n, 0.0f);
    kt.matmul(at.data(), 1, m, b.data(), bgot.data(), batch, m, k, n);
    kt.matmul(a.data(), k, 1, b.data(), bwant.data(), batch, m, k, n);
    EXPECT_EQ(
        std::memcmp(bgot.data(), bwant.data(), bgot.size() * sizeof(float)),
        0);
  });
}

/// `matmul` of `kt` reading A through the (1, m) pair, at batch 1 and 3,
/// gives the same bits at 2, 5 and 8 threads as at 1, on every tail shape.
void ExpectTransABitIdenticalAcrossThreadCounts(const KernelTable& kt) {
  ForEachTransAShape([&](int64_t m, int64_t k, int64_t n) {
    SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
                 " n=" + std::to_string(n));
    const int64_t batch = 3;
    const auto at = TransAOperand(batch * k * m, 97 + m + k + n);
    const auto b = RandomVec(batch * k * n, 98 + m + k + n);
    auto run = [&](int threads) {
      ComputeContext ctx(threads);
      std::vector<float> c(m * n + batch * m * n, 0.0f);
      kt.matmul(at.data(), 1, m, b.data(), c.data(), 1, m, k, n);
      kt.matmul(at.data(), 1, m, b.data(), c.data() + m * n, batch, m, k, n);
      return c;
    };
    const auto ref = run(1);
    for (int threads : {2, 5, 8}) {
      const auto c = run(threads);
      EXPECT_EQ(std::memcmp(ref.data(), c.data(), ref.size() * sizeof(float)),
                0)
          << "threads=" << threads;
    }
  });
}

TEST(KernelsTest, MatMulFamilyMatchesNaiveReference) {
  const int64_t m = 17, k = 23, n = 31;
  const auto a = RandomVec(m * k, 21);
  const auto b = RandomVec(k * n, 22);
  const auto bt = RandomVec(n * k, 23);
  const auto at = RandomVec(k * m, 24);
  ComputeContext ctx(4);

  std::vector<float> c(m * n, 0.0f);
  MatMulKernel(a.data(), k, 1, b.data(), c.data(), 1, m, k, n);
  auto ref = NaiveMatMul(a, b, m, k, n, false, false);
  for (int64_t i = 0; i < m * n; ++i) EXPECT_NEAR(c[i], ref[i], 1e-4f);

  MatMulTransBKernel(a.data(), bt.data(), c.data(), 1, m, k, n);
  ref = NaiveMatMul(a, bt, m, k, n, false, true);
  for (int64_t i = 0; i < m * n; ++i) EXPECT_NEAR(c[i], ref[i], 1e-4f);

  std::fill(c.begin(), c.end(), 0.0f);
  MatMulKernel(at.data(), 1, m, b.data(), c.data(), 1, m, k, n);
  ref = NaiveMatMul(at, b, m, k, n, true, false);
  for (int64_t i = 0; i < m * n; ++i) EXPECT_NEAR(c[i], ref[i], 1e-4f);

  ExpectTransAEqualsMatMulOnTransposedA(KernelTable{});
}

TEST(KernelsTest, MatMulBitIdenticalAcrossThreadCounts) {
  const int64_t m = 64, k = 64, n = 64;
  const auto a = RandomVec(m * k, 31);
  const auto b = RandomVec(k * n, 32);
  std::vector<float> ref(m * n, 0.0f);
  {
    ComputeContext ctx(1);
    MatMulKernel(a.data(), k, 1, b.data(), ref.data(), 1, m, k, n);
  }
  for (int threads : {2, 5, 8}) {
    ComputeContext ctx(threads);
    std::vector<float> c(m * n, 0.0f);
    MatMulKernel(a.data(), k, 1, b.data(), c.data(), 1, m, k, n);
    EXPECT_EQ(std::memcmp(ref.data(), c.data(), ref.size() * sizeof(float)),
              0)
        << "threads=" << threads;
  }
  ExpectTransABitIdenticalAcrossThreadCounts(KernelTable{});
}

TEST(KernelsTest, BatchMatMulSplitsAcrossItemBoundaries) {
  BackendGuard guard;
  // Grains of 9 rows (scalar matmul, matmul_trans_b) and of 5 column tiles
  // (simd matmul) give chunks that cross the items' 5-row, 2-tile bounds.
  const int64_t batch = 3, m = 5, k = 40, n = 41;
  const auto a = RandomVec(batch * m * k, 41);
  const auto at = TransposeItems(a, batch, m, k);
  const auto b = RandomVec(batch * k * n, 42);
  const auto bt = RandomVec(batch * n * k, 43);
  auto item = [](const std::vector<float>& v, int64_t i, int64_t size) {
    return std::vector<float>(v.begin() + i * size, v.begin() + (i + 1) * size);
  };
  for (const auto& backend : AvailableKernelBackends()) {
    SetKernelBackend(backend).value();
    const KernelTable& kt = Dispatch();
    // Items [first, first + items) of product p: 0 is `matmul` with A
    // through (k, 1), 1 is `matmul` with A through (1, m), 2 is
    // `matmul_trans_b`.
    auto run = [&](int p, int64_t first, int64_t items) {
      std::vector<float> c(items * m * n, 0.0f);
      if (p == 2) {
        kt.matmul_trans_b(a.data() + first * m * k, bt.data() + first * n * k,
                          c.data(), items, m, k, n);
      } else {
        kt.matmul((p == 0 ? a : at).data() + first * m * k, p == 0 ? k : 1,
                  p == 0 ? 1 : m, b.data() + first * k * n, c.data(), items,
                  m, k, n);
      }
      return c;
    };
    auto singles = [&](int p) {
      std::vector<float> c;
      for (int64_t bi = 0; bi < batch; ++bi) {
        const auto ci = run(p, bi, 1);
        c.insert(c.end(), ci.begin(), ci.end());
      }
      return c;
    };
    for (int p = 0; p < 3; ++p) {
      SCOPED_TRACE(backend + " product " + std::to_string(p));
      std::vector<float> want;
      {
        ComputeContext ctx(1);
        want = singles(p);
      }
      for (int threads : {1, 2, 8}) {
        ComputeContext ctx(threads);
        for (const auto& got : {run(p, 0, batch), singles(p)}) {
          EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                want.size() * sizeof(float)),
                    0)
              << "threads=" << threads;
        }
      }
      for (int64_t bi = 0; bi < batch; ++bi) {
        const auto ref = NaiveMatMul(item(p == 1 ? at : a, bi, m * k),
                                     item(p == 2 ? bt : b, bi, k * n), m, k, n,
                                     p == 1, p == 2);
        for (int64_t i = 0; i < m * n; ++i)
          EXPECT_NEAR(want[bi * m * n + i], ref[i], 1e-4f);
      }
    }
  }
}

TEST(KernelsTest, ComplexMulMatchesUnfusedComposition) {
  const int64_t repeats = 6, block = 37;
  const int64_t total = repeats * block;
  const auto ar = RandomVec(total, 51);
  const auto ai = RandomVec(total, 52);
  const auto br = RandomVec(block, 53);
  const auto bi = RandomVec(block, 54);
  ComputeContext ctx(4);
  std::vector<float> out_re(total), out_im(total);
  ComplexMulKernel(ar.data(), ai.data(), br.data(), bi.data(), out_re.data(),
                   out_im.data(), repeats, block);
  for (int64_t f = 0; f < total; ++f) {
    const int64_t j = f % block;
    // Exact float equality: the fused expression performs the same three
    // rounded operations as the unfused Sub(Mul, Mul) composition.
    EXPECT_EQ(out_re[f], ar[f] * br[j] - ai[f] * bi[j]);
    EXPECT_EQ(out_im[f], ar[f] * bi[j] + ai[f] * br[j]);
  }
}

TEST(ComputeContextTest, RestoresThreadCount) {
  const int before = NumThreads();
  {
    ComputeContext ctx(3);
    EXPECT_EQ(NumThreads(), 3);
    {
      ComputeContext inner(1);
      EXPECT_EQ(NumThreads(), 1);
    }
    EXPECT_EQ(NumThreads(), 3);
  }
  EXPECT_EQ(NumThreads(), before);
}

TEST(ThreadConfigTest, ParseThreadCountAcceptsValidValues) {
  EXPECT_EQ(ParseThreadCount("1").value(), 1);
  EXPECT_EQ(ParseThreadCount("8").value(), 8);
  EXPECT_EQ(ParseThreadCount(std::to_string(kMaxThreadCount)).value(),
            kMaxThreadCount);
}

TEST(ThreadConfigTest, ParseThreadCountRejectsMalformedInput) {
  for (const char* bad : {"", "abc", "4x", "x4", " 8", "3.5"}) {
    const auto r = ParseThreadCount(bad);
    ASSERT_FALSE(r.ok()) << "\"" << bad << "\"";
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
  }
}

TEST(ThreadConfigTest, ParseThreadCountRejectsOutOfRangeValues) {
  for (const char* bad : {"0", "-3", "-99999999999999999999"}) {
    const auto r = ParseThreadCount(bad);
    ASSERT_FALSE(r.ok()) << "\"" << bad << "\"";
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
  }
  // Above the cap, including values that overflow long.
  const auto over = ParseThreadCount(std::to_string(kMaxThreadCount + 1));
  ASSERT_FALSE(over.ok());
  EXPECT_NE(over.status().message().find("maximum"), std::string::npos);
  const auto huge = ParseThreadCount("99999999999999999999");
  ASSERT_FALSE(huge.ok());
  EXPECT_NE(huge.status().message().find("maximum"), std::string::npos);
}

TEST(DispatchTest, SwapAndRestore) {
  static int calls = 0;
  calls = 0;
  KernelTable table;
  table.sum = [](const float*, int64_t) {
    ++calls;
    return 42.0;
  };
  const KernelTable previous = SetDispatch(table);
  Tensor t = Tensor::Ones({10});
  EXPECT_EQ(ops::SumAll(t), 42.0f);
  EXPECT_EQ(calls, 1);
  SetDispatch(previous);
  EXPECT_FLOAT_EQ(ops::SumAll(t), 10.0f);
  EXPECT_EQ(calls, 1);
}

TEST(ShapeErrorDeathTest, MatMulRankErrorAbortsInAllBuilds) {
  Tensor a({2, 3, 4});
  Tensor b({4, 5});
  EXPECT_DEATH(ops::MatMul(a, b), "rank-2");
}

TEST(ShapeErrorDeathTest, MatMulInnerDimMismatchAborts) {
  Tensor a({2, 3});
  Tensor b({4, 5});
  EXPECT_DEATH(ops::MatMul(a, b), "inner dimension mismatch");
  EXPECT_DEATH(ops::MatMulTransB(a, b), "inner dimension mismatch");
  Tensor at({4, 2});
  EXPECT_DEATH(ops::MatMulTransA(at, Tensor({3, 5})),
               "inner dimension mismatch");
}

TEST(ShapeErrorDeathTest, BatchMatMulMismatchesAbort) {
  Tensor a({2, 3, 4});
  Tensor b({3, 4, 5});
  EXPECT_DEATH(ops::BatchMatMul(a, b), "batch mismatch");
  Tensor c({2, 7, 5});
  EXPECT_DEATH(ops::BatchMatMul(a, c), "inner dimension mismatch");
  EXPECT_DEATH(ops::BatchMatMul(Tensor({2, 3}), c), "rank-3");
  EXPECT_DEATH(ops::BatchMatMulTransA(a, Tensor({3, 3, 5})),
               "BatchMatMulTransA batch mismatch");
  EXPECT_DEATH(ops::BatchMatMulTransA(a, Tensor({2, 4, 5})),
               "BatchMatMulTransA inner dimension mismatch");
  EXPECT_DEATH(ops::BatchMatMulTransB(a, Tensor({3, 5, 4})),
               "BatchMatMulTransB batch mismatch");
  EXPECT_DEATH(ops::BatchMatMulTransB(a, Tensor({2, 5, 7})),
               "BatchMatMulTransB inner dimension mismatch");
}

TEST(ShapeErrorDeathTest, BroadcastMismatchNamesBothShapes) {
  Tensor a({2, 3});
  Tensor b({4, 3});
  EXPECT_DEATH(ops::Add(a, b), "incompatible broadcast");
}

// ---- Rowwise / elementwise kernels added for the backend seam.

TEST(KernelsTest, SoftmaxRowsMatchesReferenceAndBackwardIdentity) {
  const int64_t rows = 5, d = 13;  // d not divisible by the SIMD width
  const auto x = RandomVec(rows * d, 61);
  ComputeContext ctx(4);
  std::vector<float> y(rows * d);
  SoftmaxRowsKernel(x.data(), y.data(), rows, d);
  for (int64_t r = 0; r < rows; ++r) {
    double mx = x[r * d];
    for (int64_t j = 1; j < d; ++j) mx = std::max<double>(mx, x[r * d + j]);
    double z = 0.0;
    for (int64_t j = 0; j < d; ++j) z += std::exp(double(x[r * d + j]) - mx);
    double sum = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      const double ref = std::exp(double(x[r * d + j]) - mx) / z;
      EXPECT_NEAR(y[r * d + j], ref, 1e-6);
      sum += y[r * d + j];
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
  // Backward: dx = y * (g - <g, y>); with g = 1 the bracket vanishes, so
  // dx must be ~0 (softmax is shift-invariant).
  std::vector<float> g(rows * d, 1.0f), dx(rows * d, -1.0f);
  SoftmaxRowsBwdKernel(y.data(), g.data(), dx.data(), rows, d);
  for (const float v : dx) EXPECT_NEAR(v, 0.0f, 1e-6f);
}

TEST(KernelsTest, GeluMatchesErfReferenceAndFiniteDifference) {
  const auto x = RandomVec(97, 62);
  ComputeContext ctx(2);
  std::vector<float> y(x.size());
  GeluKernel(x.data(), y.data(), static_cast<int64_t>(x.size()));
  for (size_t i = 0; i < x.size(); ++i) {
    const double ref =
        0.5 * double(x[i]) * (1.0 + std::erf(double(x[i]) / std::sqrt(2.0)));
    EXPECT_NEAR(y[i], ref, 1e-6);
  }
  // Backward against a central finite difference of the forward.
  std::vector<float> g(x.size(), 1.0f), dx(x.size());
  GeluBwdKernel(x.data(), g.data(), dx.data(),
                static_cast<int64_t>(x.size()));
  for (size_t i = 0; i < x.size(); i += 7) {
    const double h = 1e-4;
    const double xp = double(x[i]) + h, xm = double(x[i]) - h;
    const double fp = 0.5 * xp * (1.0 + std::erf(xp / std::sqrt(2.0)));
    const double fm = 0.5 * xm * (1.0 + std::erf(xm / std::sqrt(2.0)));
    EXPECT_NEAR(dx[i], (fp - fm) / (2 * h), 1e-3);
  }
}

TEST(KernelsTest, LayerNormNormalizesRowsAndParamGradsSum) {
  const int64_t rows = 4, d = 11;
  const auto x = RandomVec(rows * d, 63);
  std::vector<float> gamma(d, 2.0f), beta(d, 0.5f);
  std::vector<float> y(rows * d), xhat(rows * d), inv_std(rows);
  ComputeContext ctx(4);
  LayerNormKernel(x.data(), gamma.data(), beta.data(), y.data(), xhat.data(),
                  inv_std.data(), rows, d, 1e-5f);
  for (int64_t r = 0; r < rows; ++r) {
    double mean = 0.0, var = 0.0;
    for (int64_t j = 0; j < d; ++j) mean += xhat[r * d + j];
    for (int64_t j = 0; j < d; ++j)
      var += double(xhat[r * d + j]) * xhat[r * d + j];
    EXPECT_NEAR(mean / d, 0.0, 1e-5);  // xhat is standardised per row
    EXPECT_NEAR(var / d, 1.0, 1e-3);
    for (int64_t j = 0; j < d; ++j)
      EXPECT_NEAR(y[r * d + j], 2.0f * xhat[r * d + j] + 0.5f, 1e-5f);
  }
  // Parameter grads: dbeta = sum_r g, dgamma = sum_r g * xhat.
  const auto g = RandomVec(rows * d, 64);
  std::vector<float> dgamma(d, 0.0f), dbeta(d, 0.0f);
  LayerNormParamBwdKernel(g.data(), xhat.data(), dgamma.data(), dbeta.data(),
                          rows, d);
  for (int64_t j = 0; j < d; ++j) {
    double sb = 0.0, sg = 0.0;
    for (int64_t r = 0; r < rows; ++r) {
      sb += g[r * d + j];
      sg += double(g[r * d + j]) * xhat[r * d + j];
    }
    EXPECT_NEAR(dbeta[j], sb, 1e-5);
    EXPECT_NEAR(dgamma[j], sg, 1e-5);
  }
  // dgamma may be null when only dbeta is needed.
  std::vector<float> dbeta2(d, 0.0f);
  LayerNormParamBwdKernel(g.data(), xhat.data(), nullptr, dbeta2.data(), rows,
                          d);
  for (int64_t j = 0; j < d; ++j) EXPECT_EQ(dbeta2[j], dbeta[j]);
}

TEST(KernelsTest, LayerNormParamBwdMatchesColumnOrderBitwise) {
  // Each column sums its rows in ascending order, so the kernel equals a
  // column-at-a-time loop bit for bit at every thread count. d = 200 spans
  // several column chunks.
  for (const int64_t d : {int64_t{64}, int64_t{37}, int64_t{200}}) {
    const int64_t rows = 6400;
    const auto g = RandomVec(rows * d, 80 + d);
    const auto xhat = RandomVec(rows * d, 81 + d);
    std::vector<float> gamma_ref(d, 0.0f), beta_ref(d, 0.0f);
    for (int64_t i = 0; i < d; ++i)
      for (int64_t r = 0; r < rows; ++r) {
        gamma_ref[i] += g[r * d + i] * xhat[r * d + i];
        beta_ref[i] += g[r * d + i];
      }
    for (int threads : {1, 4}) {
      ComputeContext ctx(threads);
      std::vector<float> dgamma(d, 0.0f), dbeta(d, 0.0f), dbeta_only(d, 0.0f);
      LayerNormParamBwdKernel(g.data(), xhat.data(), dgamma.data(),
                              dbeta.data(), rows, d);
      LayerNormParamBwdKernel(g.data(), xhat.data(), nullptr,
                              dbeta_only.data(), rows, d);
      const size_t bytes = d * sizeof(float);
      EXPECT_EQ(std::memcmp(dgamma.data(), gamma_ref.data(), bytes), 0)
          << "d=" << d << " threads=" << threads;
      EXPECT_EQ(std::memcmp(dbeta.data(), beta_ref.data(), bytes), 0)
          << "d=" << d << " threads=" << threads;
      EXPECT_EQ(std::memcmp(dbeta_only.data(), beta_ref.data(), bytes), 0)
          << "d=" << d << " threads=" << threads;
    }
  }
}

TEST(KernelsTest, AdamStepMatchesScalarReference) {
  const int64_t n = 29;
  auto w = RandomVec(n, 65);
  auto m = RandomVec(n, 66);
  auto v = RandomVec(n, 67);
  for (auto& x : v) x = std::abs(x);  // second moment is non-negative
  const auto g = RandomVec(n, 68);
  auto wr = w, mr = m, vr = v;
  AdamStepParams p;
  p.lr = 0.01f;
  p.bias_corr1 = 0.5f;
  p.bias_corr2 = 0.25f;
  ComputeContext ctx(4);
  AdamStepKernel(w.data(), m.data(), v.data(), g.data(), n, p);
  for (int64_t i = 0; i < n; ++i) {
    mr[i] = p.beta1 * mr[i] + (1.0f - p.beta1) * g[i];
    vr[i] = p.beta2 * vr[i] + (1.0f - p.beta2) * g[i] * g[i];
    const float mhat = mr[i] / p.bias_corr1;
    const float vhat = vr[i] / p.bias_corr2;
    const float update = mhat / (std::sqrt(vhat) + p.eps);
    wr[i] -= p.lr * update;
    EXPECT_NEAR(w[i], wr[i], 1e-6f) << i;
    EXPECT_NEAR(m[i], mr[i], 1e-7f) << i;
    EXPECT_NEAR(v[i], vr[i], 1e-7f) << i;
  }
}

TEST(KernelsTest, GatherScatterAccumulatesDuplicateIds) {
  const int64_t vocab = 7, d = 5;
  const auto w = RandomVec(vocab * d, 71);
  const std::vector<int64_t> ids = {3, 0, 3, 6, 3};  // duplicates on row 3
  ComputeContext ctx(4);
  std::vector<float> out(ids.size() * d, -1.0f);
  GatherRowsKernel(w.data(), ids.data(), out.data(),
                   static_cast<int64_t>(ids.size()), d);
  for (size_t i = 0; i < ids.size(); ++i)
    for (int64_t j = 0; j < d; ++j)
      EXPECT_EQ(out[i * d + j], w[ids[i] * d + j]);
  const auto g = RandomVec(ids.size() * d, 72);
  std::vector<float> acc(vocab * d, 0.0f);
  ScatterAddRowsKernel(g.data(), ids.data(), acc.data(),
                       static_cast<int64_t>(ids.size()), d);
  std::vector<float> ref(vocab * d, 0.0f);
  for (size_t i = 0; i < ids.size(); ++i)
    for (int64_t j = 0; j < d; ++j) ref[ids[i] * d + j] += g[i * d + j];
  for (int64_t i = 0; i < vocab * d; ++i) EXPECT_EQ(acc[i], ref[i]);
}

TEST(KernelsTest, AxpyScaleAddMatchReference) {
  const int64_t n = 77;  // odd tail
  const auto a = RandomVec(n, 73);
  const auto b = RandomVec(n, 74);
  ComputeContext ctx(4);
  auto out = b;
  AxpyKernel(out.data(), a.data(), 0.5f, n);
  for (int64_t i = 0; i < n; ++i) EXPECT_EQ(out[i], b[i] + a[i] * 0.5f);
  auto p = a;
  ScaleKernel(p.data(), -2.0f, n);
  for (int64_t i = 0; i < n; ++i) EXPECT_EQ(p[i], a[i] * -2.0f);
  std::vector<float> s(n, 0.0f);
  AddKernel(a.data(), b.data(), s.data(), n);
  for (int64_t i = 0; i < n; ++i) EXPECT_EQ(s[i], a[i] + b[i]);
}

TEST(KernelsTest, ZeroLengthBuffersAreNoOps) {
  // Every kernel must tolerate empty work without touching memory.
  float sentinel = 42.0f;
  AxpyKernel(&sentinel, &sentinel, 2.0f, 0);
  ScaleKernel(&sentinel, 2.0f, 0);
  AddKernel(&sentinel, &sentinel, &sentinel, 0);
  GeluKernel(&sentinel, &sentinel, 0);
  SoftmaxRowsKernel(&sentinel, &sentinel, 0, 8);
  MatMulKernel(&sentinel, 0, 1, &sentinel, &sentinel, 1, 0, 0, 0);
  MatMulTransBKernel(&sentinel, &sentinel, &sentinel, 1, 0, 0, 0);
  GatherRowsKernel(&sentinel, nullptr, &sentinel, 0, 4);
  ScatterAddRowsKernel(&sentinel, nullptr, &sentinel, 0, 4);
  AdamStepParams p;
  AdamStepKernel(&sentinel, &sentinel, &sentinel, &sentinel, 0, p);
  EXPECT_EQ(sentinel, 42.0f);
}

// ---- Kernel backend registry (scalar / simd tiers).

bool SimdAvailable() {
  return SimdBackendCompiled() && CpuSupportsAvx2Fma();
}

TEST(KernelsTest, LayerNormWithoutXhatWritesSameY) {
  BackendGuard guard;
  // d = 13 leaves a tail past every vector width; rows span several chunks.
  for (const auto& backend : AvailableKernelBackends()) {
    SetKernelBackend(backend).value();
    for (const int64_t d : {int64_t{13}, int64_t{64}}) {
      const int64_t rows = 300;
      const auto x = RandomVec(rows * d, 68);
      const auto gamma = RandomVec(d, 69);
      const auto beta = RandomVec(d, 70);
      for (int threads : {1, 4}) {
        ComputeContext ctx(threads);
        std::vector<float> y(rows * d), xhat(rows * d), inv_std(rows);
        Dispatch().layer_norm(x.data(), gamma.data(), beta.data(), y.data(),
                              xhat.data(), inv_std.data(), rows, d, 1e-5f);
        std::vector<float> y2(rows * d), inv_std2(rows);
        Dispatch().layer_norm(x.data(), gamma.data(), beta.data(), y2.data(),
                              /*xhat=*/nullptr, inv_std2.data(), rows, d,
                              1e-5f);
        EXPECT_EQ(std::memcmp(y.data(), y2.data(), y.size() * sizeof(float)),
                  0)
            << backend << " d=" << d << " threads=" << threads;
        EXPECT_EQ(std::memcmp(inv_std.data(), inv_std2.data(),
                              inv_std.size() * sizeof(float)),
                  0);
      }
    }
  }
}

TEST(BackendTest, ParseAcceptsKnownNamesAndRejectsUnknown) {
  EXPECT_EQ(ParseKernelBackend("auto").value(), "auto");
  EXPECT_EQ(ParseKernelBackend("scalar").value(), "scalar");
  EXPECT_EQ(ParseKernelBackend("simd").value(), "simd");
  for (const char* bad : {"", "neon", "avx512", "Scalar", " simd"}) {
    const auto r = ParseKernelBackend(bad);
    ASSERT_FALSE(r.ok()) << "\"" << bad << "\"";
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
    EXPECT_NE(r.status().message().find("valid: auto, scalar, simd"),
              std::string::npos);
  }
}

TEST(BackendTest, AutoResolvesToConcreteTier) {
  BackendGuard guard;
  const auto r = SetKernelBackend("auto");
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_TRUE(r.value() == "scalar" || r.value() == "simd");
  EXPECT_EQ(r.value(), ActiveKernelBackend());
  EXPECT_EQ(r.value() == "simd", SimdAvailable());
}

TEST(BackendTest, BackendIdsAreStable) {
  EXPECT_EQ(KernelBackendId("scalar"), 0);
  EXPECT_EQ(KernelBackendId("simd"), 1);
  EXPECT_EQ(KernelBackendId("anything-else"), -1);
}

TEST(BackendTest, AvailableBackendsAlwaysIncludeScalar) {
  const auto avail = AvailableKernelBackends();
  ASSERT_FALSE(avail.empty());
  bool has_scalar = false;
  for (const auto& b : avail) has_scalar |= (b == "scalar");
  EXPECT_TRUE(has_scalar);
}

TEST(BackendTest, DisableAvx2KillSwitchForcesScalarFallback) {
  BackendGuard guard;
  ::setenv("SLIME_DISABLE_AVX2", "1", 1);
  EXPECT_FALSE(CpuSupportsAvx2Fma());
  const auto autod = SetKernelBackend("auto");
  ASSERT_TRUE(autod.ok());
  EXPECT_EQ(autod.value(), "scalar");
  const auto simd = SetKernelBackend("simd");
  ASSERT_FALSE(simd.ok());
  EXPECT_EQ(simd.status().code(), Status::Code::kUnavailable);
  ::unsetenv("SLIME_DISABLE_AVX2");
}

// ---- Cross-tier agreement and within-tier determinism for the SIMD
// backend. Skipped (not failed) on hosts that cannot run it.

TEST(SimdBackendTest, MatMulFamilyMatchesNaiveReference) {
  if (!SimdAvailable()) GTEST_SKIP() << "simd backend unavailable";
  BackendGuard guard;
  SetKernelBackend("simd").value();
  // 31 columns: one 16-wide tile, one 8-wide strip, 7 scalar tail columns.
  const int64_t m = 17, k = 23, n = 31;
  const auto a = RandomVec(m * k, 81);
  const auto b = RandomVec(k * n, 82);
  const auto bt = RandomVec(n * k, 83);
  const auto at = RandomVec(k * m, 84);
  ComputeContext ctx(4);
  const KernelTable& kt = Dispatch();

  std::vector<float> c(m * n, 0.0f);
  kt.matmul(a.data(), k, 1, b.data(), c.data(), 1, m, k, n);
  auto ref = NaiveMatMul(a, b, m, k, n, false, false);
  for (int64_t i = 0; i < m * n; ++i) EXPECT_NEAR(c[i], ref[i], 1e-4f);

  kt.matmul_trans_b(a.data(), bt.data(), c.data(), 1, m, k, n);
  ref = NaiveMatMul(a, bt, m, k, n, false, true);
  for (int64_t i = 0; i < m * n; ++i) EXPECT_NEAR(c[i], ref[i], 1e-4f);

  std::fill(c.begin(), c.end(), 0.0f);
  kt.matmul(at.data(), 1, m, b.data(), c.data(), 1, m, k, n);
  ref = NaiveMatMul(at, b, m, k, n, true, false);
  for (int64_t i = 0; i < m * n; ++i) EXPECT_NEAR(c[i], ref[i], 1e-4f);

  ExpectTransAEqualsMatMulOnTransposedA(kt);
}

TEST(SimdBackendTest, MatMulBitIdenticalAcrossThreadCounts) {
  if (!SimdAvailable()) GTEST_SKIP() << "simd backend unavailable";
  BackendGuard guard;
  SetKernelBackend("simd").value();
  const int64_t m = 33, k = 47, n = 70;  // non-divisible everything
  const auto a = RandomVec(m * k, 85);
  const auto b = RandomVec(k * n, 86);
  std::vector<float> ref(m * n, 0.0f);
  {
    ComputeContext ctx(1);
    Dispatch().matmul(a.data(), k, 1, b.data(), ref.data(), 1, m, k, n);
  }
  for (int threads : {2, 5, 8}) {
    ComputeContext ctx(threads);
    std::vector<float> c(m * n, 0.0f);
    Dispatch().matmul(a.data(), k, 1, b.data(), c.data(), 1, m, k, n);
    EXPECT_EQ(std::memcmp(ref.data(), c.data(), ref.size() * sizeof(float)),
              0)
        << "threads=" << threads;
  }
  ExpectTransABitIdenticalAcrossThreadCounts(Dispatch());
}

TEST(SimdBackendTest, UnalignedOperandsMatchAlignedResults) {
  if (!SimdAvailable()) GTEST_SKIP() << "simd backend unavailable";
  BackendGuard guard;
  SetKernelBackend("simd").value();
  const int64_t m = 9, k = 21, n = 24;
  const auto a = RandomVec(m * k, 87);
  const auto b = RandomVec(k * n, 88);
  ComputeContext ctx(2);
  std::vector<float> aligned(m * n, 0.0f);
  Dispatch().matmul(a.data(), k, 1, b.data(), aligned.data(), 1, m, k, n);
  // Same operands shifted one float off any 32-byte boundary: loadu paths
  // must produce the identical bits.
  std::vector<float> abuf(m * k + 1), bbuf(k * n + 1), cbuf(m * n + 1, 0.0f);
  std::copy(a.begin(), a.end(), abuf.begin() + 1);
  std::copy(b.begin(), b.end(), bbuf.begin() + 1);
  Dispatch().matmul(abuf.data() + 1, k, 1, bbuf.data() + 1, cbuf.data() + 1,
                    1, m, k, n);
  EXPECT_EQ(std::memcmp(aligned.data(), cbuf.data() + 1,
                        aligned.size() * sizeof(float)),
            0);
}

TEST(SimdBackendTest, ElementwiseTailsAndNaNParityWithScalar) {
  if (!SimdAvailable()) GTEST_SKIP() << "simd backend unavailable";
  BackendGuard guard;
  const int64_t n = 13;  // below one SIMD width plus tail
  auto a = RandomVec(n, 89);
  auto base = RandomVec(n, 90);
  a[3] = std::nanf("");  // NaN must propagate identically
  a[7] = 1e-39f;         // denormal must survive (no flush-to-zero)
  base[7] = 0.0f;        // ... so the denormal IS the result in slot 7
  ComputeContext ctx(1);
  auto scalar_out = base;
  SetKernelBackend("scalar").value();
  Dispatch().axpy(scalar_out.data(), a.data(), 1.0f, n);
  auto simd_out = base;
  SetKernelBackend("simd").value();
  Dispatch().axpy(simd_out.data(), a.data(), 1.0f, n);
  // axpy is one multiply-add per element in both tiers; FMA of scale 1.0f
  // rounds identically, so the bits must match — including the NaN slot
  // and the denormal.
  EXPECT_EQ(std::memcmp(scalar_out.data(), simd_out.data(),
                        simd_out.size() * sizeof(float)),
            0);
  EXPECT_TRUE(std::isnan(simd_out[3]));
  EXPECT_EQ(simd_out[7], 1e-39f);  // denormal survived, not flushed
}

TEST(SimdBackendTest, AdamStepAgreesWithScalarWithinTolerance) {
  if (!SimdAvailable()) GTEST_SKIP() << "simd backend unavailable";
  BackendGuard guard;
  const int64_t n = 29;
  const auto g = RandomVec(n, 91);
  auto w0 = RandomVec(n, 92);
  auto m0 = RandomVec(n, 93);
  auto v0 = RandomVec(n, 94);
  for (auto& x : v0) x = std::abs(x);
  AdamStepParams p;
  p.bias_corr1 = 0.5f;
  p.bias_corr2 = 0.25f;
  ComputeContext ctx(1);
  auto ws = w0, ms = m0, vs = v0;
  SetKernelBackend("scalar").value();
  Dispatch().adam_step(ws.data(), ms.data(), vs.data(), g.data(), n, p);
  auto wv = w0, mv = m0, vv = v0;
  SetKernelBackend("simd").value();
  Dispatch().adam_step(wv.data(), mv.data(), vv.data(), g.data(), n, p);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_NEAR(ws[i], wv[i], 1e-6f) << i;
    EXPECT_NEAR(ms[i], mv[i], 1e-7f) << i;
    EXPECT_NEAR(vs[i], vv[i], 1e-7f) << i;
  }
}

}  // namespace
}  // namespace compute
}  // namespace slime
