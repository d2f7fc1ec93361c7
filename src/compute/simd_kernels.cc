// AVX2/FMA kernel tier behind the Dispatch() registry (see backend.h and
// docs/KERNELS.md). Compiled into every x86-64 build with SLIME_SIMD=ON but
// only *selected* at runtime on CPUs reporting avx2+fma: the intrinsics live
// in per-function __attribute__((target(...))) bodies, so the translation
// unit itself builds for the baseline ISA and nothing leaks into other TUs.
//
// Determinism contract: every kernel's work split is derived from the
// problem shape alone (never the thread count), and where a kernel departs
// from the scalar tier's decomposition — matmul, whichever layout its
// stride pair gives A, parallelises over 16-column tiles of C instead of
// rows — each output element is still computed entirely within one work
// unit in a fixed accumulation order, so within this backend results are
// bit-identical at any thread count. Across backends results
// differ in the last ulp (FMA contracts mul+add into one rounding), which is
// why cross-backend equivalence is gated by gradcheck/ranking agreement, not
// CRC. Reductions (sum/dot/all_finite) and the transcendental rowwise
// kernels (softmax/GELU/LayerNorm) reuse the scalar implementations: their
// cost is dominated by exp/erf calls, and sharing them keeps loss curves
// identical between backends up to matmul ulp drift.

#include "compute/backend.h"
#include "compute/kernels.h"
#include "compute/thread_pool.h"

#include <cmath>
#include <cstdint>
#include <vector>

#if defined(__x86_64__) && defined(SLIME_SIMD_ENABLED)
#define SLIME_SIMD_COMPILED 1
#include <immintrin.h>
#else
#define SLIME_SIMD_COMPILED 0
#endif

namespace slime {
namespace compute {
namespace internal {

#if SLIME_SIMD_COMPILED

#define SLIME_TARGET_AVX2 __attribute__((target("avx2,fma")))

namespace {

/// Horizontal sum of an 8-lane accumulator in a fixed lane order, so the
/// result does not depend on anything but the register contents.
SLIME_TARGET_AVX2 inline float HSum8(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

/// One 16-column tile of C(m,n) += A @ B(k,n), covering all m rows. A's
/// element (i, kk) is read at a[i * rs + kk * ks]: (rs, ks) = (k, 1) for a
/// row-major A(m,k), (1, m) for the transpose of a row-major A(k,m), so
/// both layouts share this kernel. The tile's B strip is first
/// packed into a contiguous 32-byte-aligned scratch buffer — a pure layout
/// change: the packed values and the FMA sequence are identical to reading
/// B in place, so numerics are unaffected — which turns the strided walk
/// over B into a one-off cost amortised over all rows, and lets the hot loop
/// stream the pack sequentially with aligned loads. A 4x16 register
/// microkernel holds C in 8 accumulators across the whole k loop (2 pack
/// loads and 8 FMAs per k step); a 1x16 kernel covers the row remainder.
/// Every C element accumulates in ascending-k order. Unlike the scalar tier
/// there is no zero-skip on A: fma(0, b, acc) only differs when b is
/// non-finite, and dropping the branch keeps the FMA pipeline full.
SLIME_TARGET_AVX2 void MatMulColTile16Simd(const float* a, int64_t rs,
                                           int64_t ks, const float* b,
                                           float* c, int64_t m, int64_t k,
                                           int64_t n, int64_t j) {
  // Per-worker scratch for the packed strip; ParallelFor workers never
  // share it. Reused across calls to avoid per-matmul allocation churn.
  static thread_local std::vector<float> pack_storage;
  pack_storage.resize(static_cast<size_t>(16 * k) + 8);
  float* pack = pack_storage.data();
  pack += (32 - reinterpret_cast<uintptr_t>(pack) % 32) % 32 / sizeof(float);
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* bp = b + kk * n + j;
    _mm256_store_ps(pack + kk * 16, _mm256_loadu_ps(bp));
    _mm256_store_ps(pack + kk * 16 + 8, _mm256_loadu_ps(bp + 8));
  }
  int64_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const float* a0 = a + i * rs;
    const float* a1 = a0 + rs;
    const float* a2 = a1 + rs;
    const float* a3 = a2 + rs;
    float* c0 = c + i * n + j;
    float* c1 = c0 + n;
    float* c2 = c1 + n;
    float* c3 = c2 + n;
    __m256 r00 = _mm256_loadu_ps(c0);
    __m256 r01 = _mm256_loadu_ps(c0 + 8);
    __m256 r10 = _mm256_loadu_ps(c1);
    __m256 r11 = _mm256_loadu_ps(c1 + 8);
    __m256 r20 = _mm256_loadu_ps(c2);
    __m256 r21 = _mm256_loadu_ps(c2 + 8);
    __m256 r30 = _mm256_loadu_ps(c3);
    __m256 r31 = _mm256_loadu_ps(c3 + 8);
    for (int64_t kk = 0; kk < k; ++kk) {
      const float* bp = pack + kk * 16;
      const __m256 b0 = _mm256_load_ps(bp);
      const __m256 b1 = _mm256_load_ps(bp + 8);
      const int64_t ak = kk * ks;
      __m256 v = _mm256_set1_ps(a0[ak]);
      r00 = _mm256_fmadd_ps(v, b0, r00);
      r01 = _mm256_fmadd_ps(v, b1, r01);
      v = _mm256_set1_ps(a1[ak]);
      r10 = _mm256_fmadd_ps(v, b0, r10);
      r11 = _mm256_fmadd_ps(v, b1, r11);
      v = _mm256_set1_ps(a2[ak]);
      r20 = _mm256_fmadd_ps(v, b0, r20);
      r21 = _mm256_fmadd_ps(v, b1, r21);
      v = _mm256_set1_ps(a3[ak]);
      r30 = _mm256_fmadd_ps(v, b0, r30);
      r31 = _mm256_fmadd_ps(v, b1, r31);
    }
    _mm256_storeu_ps(c0, r00);
    _mm256_storeu_ps(c0 + 8, r01);
    _mm256_storeu_ps(c1, r10);
    _mm256_storeu_ps(c1 + 8, r11);
    _mm256_storeu_ps(c2, r20);
    _mm256_storeu_ps(c2 + 8, r21);
    _mm256_storeu_ps(c3, r30);
    _mm256_storeu_ps(c3 + 8, r31);
  }
  for (; i < m; ++i) {
    const float* arow = a + i * rs;
    float* crow = c + i * n + j;
    __m256 acc0 = _mm256_loadu_ps(crow);
    __m256 acc1 = _mm256_loadu_ps(crow + 8);
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m256 vav = _mm256_set1_ps(arow[kk * ks]);
      const float* bp = pack + kk * 16;
      acc0 = _mm256_fmadd_ps(vav, _mm256_load_ps(bp), acc0);
      acc1 = _mm256_fmadd_ps(vav, _mm256_load_ps(bp + 8), acc1);
    }
    _mm256_storeu_ps(crow, acc0);
    _mm256_storeu_ps(crow + 8, acc1);
  }
}

/// Tail columns [j0, n) — fewer than 16 — of C(m,n) += A @ B(k,n) for rows
/// [lo, hi), A read through the (rs, ks) pair as in MatMulColTile16Simd: an
/// 8-wide strip if one fits, then scalar columns, every element ascending-k
/// with one FMA per term. The scalar columns call std::fma explicitly: left
/// as `acc += a * b`, GCC vectorises four products of the unit-stride
/// (ks == 1) version without contracting them, which would give the (k, 1)
/// and (1, m) layouts different bits in these columns.
SLIME_TARGET_AVX2 void MatMulColTailSimd(const float* a, int64_t rs,
                                         int64_t ks, const float* b, float* c,
                                         int64_t k, int64_t n, int64_t j0,
                                         int64_t lo, int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) {
    const float* arow = a + i * rs;
    float* crow = c + i * n;
    int64_t j = j0;
    for (; j + 8 <= n; j += 8) {
      __m256 acc = _mm256_loadu_ps(crow + j);
      for (int64_t kk = 0; kk < k; ++kk) {
        acc = _mm256_fmadd_ps(_mm256_set1_ps(arow[kk * ks]),
                              _mm256_loadu_ps(b + kk * n + j), acc);
      }
      _mm256_storeu_ps(crow + j, acc);
    }
    for (; j < n; ++j) {
      float acc = crow[j];
      for (int64_t kk = 0; kk < k; ++kk) {
        acc = std::fma(arow[kk * ks], b[kk * n + j], acc);
      }
      crow[j] = acc;
    }
  }
}

/// Rows [lo, hi) of C(m,n) = A(m,k) @ B(n,k)^T: four independent 8-lane FMA
/// chains per output element (breaks the FMA latency chain), combined and
/// horizontal-summed in a fixed order, scalar k tail.
SLIME_TARGET_AVX2 void MatMulTransBRowsSimd(const float* a, const float* b,
                                            float* c, int64_t k, int64_t n,
                                            int64_t lo, int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      int64_t kk = 0;
      for (; kk + 32 <= k; kk += 32) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + kk),
                               _mm256_loadu_ps(brow + kk), acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + kk + 8),
                               _mm256_loadu_ps(brow + kk + 8), acc1);
        acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + kk + 16),
                               _mm256_loadu_ps(brow + kk + 16), acc2);
        acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + kk + 24),
                               _mm256_loadu_ps(brow + kk + 24), acc3);
      }
      for (; kk + 8 <= k; kk += 8) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + kk),
                               _mm256_loadu_ps(brow + kk), acc0);
      }
      float sum = HSum8(_mm256_add_ps(_mm256_add_ps(acc0, acc1),
                                      _mm256_add_ps(acc2, acc3)));
      for (; kk < k; ++kk) sum += arow[kk] * brow[kk];
      crow[j] = sum;
    }
  }
}

/// Chunk [lo, hi) of the suffix-broadcast complex multiply. The vector body
/// only engages while a full 8-lane span stays inside one b-block repeat;
/// boundary elements take the scalar path, which rounds as the lanes do
/// (one product, then a fused multiply-add), so no element's bits depend on
/// where a chunk or a caller's sub-range starts.
SLIME_TARGET_AVX2 void ComplexMulChunkSimd(const float* ar, const float* ai,
                                           const float* br, const float* bi,
                                           float* out_re, float* out_im,
                                           int64_t block, int64_t lo,
                                           int64_t hi) {
  int64_t j = lo % block;
  int64_t f = lo;
  while (f < hi) {
    if (j + 8 <= block && f + 8 <= hi) {
      const __m256 xr = _mm256_loadu_ps(ar + f);
      const __m256 xi = _mm256_loadu_ps(ai + f);
      const __m256 wr = _mm256_loadu_ps(br + j);
      const __m256 wi = _mm256_loadu_ps(bi + j);
      _mm256_storeu_ps(out_re + f,
                       _mm256_fmsub_ps(xr, wr, _mm256_mul_ps(xi, wi)));
      _mm256_storeu_ps(out_im + f,
                       _mm256_fmadd_ps(xr, wi, _mm256_mul_ps(xi, wr)));
      f += 8;
      j += 8;
      if (j == block) j = 0;
    } else {
      out_re[f] = std::fma(ar[f], br[j], -(ai[f] * bi[j]));
      out_im[f] = std::fma(ar[f], bi[j], ai[f] * br[j]);
      ++f;
      if (++j == block) j = 0;
    }
  }
}

SLIME_TARGET_AVX2 void AxpyChunkSimd(float* out, const float* a, float scale,
                                     int64_t lo, int64_t hi) {
  const __m256 vs = _mm256_set1_ps(scale);
  int64_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_fmadd_ps(_mm256_loadu_ps(a + i), vs,
                                              _mm256_loadu_ps(out + i)));
  }
  for (; i < hi; ++i) out[i] += a[i] * scale;
}

SLIME_TARGET_AVX2 void ScaleChunkSimd(float* p, float scale, int64_t lo,
                                      int64_t hi) {
  const __m256 vs = _mm256_set1_ps(scale);
  int64_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    _mm256_storeu_ps(p + i, _mm256_mul_ps(_mm256_loadu_ps(p + i), vs));
  }
  for (; i < hi; ++i) p[i] *= scale;
}

SLIME_TARGET_AVX2 void AddChunkSimd(const float* a, const float* b,
                                    float* out, int64_t lo, int64_t hi) {
  int64_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < hi; ++i) out[i] = a[i] + b[i];
}

SLIME_TARGET_AVX2 void AdamChunkSimd(float* w, float* m, float* v,
                                     const float* g, const AdamStepParams& p,
                                     int64_t lo, int64_t hi) {
  const __m256 vb1 = _mm256_set1_ps(p.beta1);
  const __m256 vb2 = _mm256_set1_ps(p.beta2);
  const __m256 vc1 = _mm256_set1_ps(1.0f - p.beta1);
  const __m256 vc2 = _mm256_set1_ps(1.0f - p.beta2);
  const __m256 vbc1 = _mm256_set1_ps(p.bias_corr1);
  const __m256 vbc2 = _mm256_set1_ps(p.bias_corr2);
  const __m256 veps = _mm256_set1_ps(p.eps);
  const __m256 vlr = _mm256_set1_ps(p.lr);
  int64_t j = lo;
  for (; j + 8 <= hi; j += 8) {
    const __m256 vg = _mm256_loadu_ps(g + j);
    __m256 vm = _mm256_loadu_ps(m + j);
    __m256 vv = _mm256_loadu_ps(v + j);
    vm = _mm256_fmadd_ps(vb1, vm, _mm256_mul_ps(vc1, vg));
    vv = _mm256_fmadd_ps(vb2, vv, _mm256_mul_ps(vc2, _mm256_mul_ps(vg, vg)));
    _mm256_storeu_ps(m + j, vm);
    _mm256_storeu_ps(v + j, vv);
    const __m256 mhat = _mm256_div_ps(vm, vbc1);
    const __m256 vhat = _mm256_div_ps(vv, vbc2);
    const __m256 update =
        _mm256_div_ps(mhat, _mm256_add_ps(_mm256_sqrt_ps(vhat), veps));
    __m256 vw = _mm256_loadu_ps(w + j);
    vw = _mm256_fnmadd_ps(vlr, update, vw);
    _mm256_storeu_ps(w + j, vw);
  }
  for (; j < hi; ++j) {
    m[j] = p.beta1 * m[j] + (1.0f - p.beta1) * g[j];
    v[j] = p.beta2 * v[j] + (1.0f - p.beta2) * g[j] * g[j];
    const float mhat = m[j] / p.bias_corr1;
    const float vhat = v[j] / p.bias_corr2;
    const float update = mhat / (std::sqrt(vhat) + p.eps);
    w[j] -= p.lr * update;
  }
}

// ---- KernelTable entry points: same grains and chunk layout as the scalar
// tier (kernels.cc), so the split is identical and only the per-chunk body
// changes — except matmul, which splits over column tiles.

/// The `matmul` entry: C_i(m,n) += A_i @ B_i(k,n) for `batch` items, A_i
/// read through the (rs, ks) pair. Unlike the scalar tier, this parallelises
/// over 16-column tiles of C rather than rows: each C element is computed
/// entirely within one tile in ascending-k order, so the tile split cannot
/// affect results at any thread count, and the per-tile B pack is amortised
/// over all m rows. The units are the flattened batch x tile index; the tail
/// columns split over the flattened batch x row space.
void SimdMatMulKernel(const float* a, int64_t rs, int64_t ks, const float* b,
                      float* c, int64_t batch, int64_t m, int64_t k,
                      int64_t n) {
  const int64_t tiles = n / 16;
  if (tiles > 0) {
    ParallelFor(0, batch * tiles, GrainForWork(2 * k * m * 16),
                [=](int64_t lo, int64_t hi) {
                  for (int64_t idx = lo; idx < hi; ++idx) {
                    const int64_t bi = idx / tiles;
                    const int64_t t = idx - bi * tiles;
                    MatMulColTile16Simd(a + bi * m * k, rs, ks, b + bi * k * n,
                                        c + bi * m * n, m, k, n, t * 16);
                  }
                });
  }
  if (tiles * 16 < n) {
    ParallelForItemRows(batch, m, GrainForWork(2 * k * (n - tiles * 16)),
                        [=](int64_t bi, int64_t lo, int64_t hi) {
                          MatMulColTailSimd(a + bi * m * k, rs, ks,
                                            b + bi * k * n, c + bi * m * n, k,
                                            n, tiles * 16, lo, hi);
                        });
  }
}

void SimdMatMulTransBKernel(const float* a, const float* b, float* c,
                            int64_t batch, int64_t m, int64_t k, int64_t n) {
  ParallelForItemRows(batch, m, GrainForWork(2 * k * n),
                      [=](int64_t bi, int64_t lo, int64_t hi) {
                        MatMulTransBRowsSimd(a + bi * m * k, b + bi * n * k,
                                             c + bi * m * n, k, n, lo, hi);
                      });
}

void SimdComplexMulKernel(const float* ar, const float* ai, const float* br,
                          const float* bi, float* out_re, float* out_im,
                          int64_t repeats, int64_t block) {
  ParallelFor(0, repeats * block, kElementwiseGrain,
              [=](int64_t lo, int64_t hi) {
                ComplexMulChunkSimd(ar, ai, br, bi, out_re, out_im, block, lo,
                                    hi);
              });
}

void SimdAxpyKernel(float* out, const float* a, float scale, int64_t n) {
  ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
    AxpyChunkSimd(out, a, scale, lo, hi);
  });
}

void SimdScaleKernel(float* p, float scale, int64_t n) {
  ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
    ScaleChunkSimd(p, scale, lo, hi);
  });
}

void SimdAddKernel(const float* a, const float* b, float* out, int64_t n) {
  ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
    AddChunkSimd(a, b, out, lo, hi);
  });
}

void SimdAdamStepKernel(float* w, float* m, float* v, const float* g,
                        int64_t n, const AdamStepParams& p) {
  ParallelFor(0, n, kElementwiseGrain, [=, &p](int64_t lo, int64_t hi) {
    AdamChunkSimd(w, m, v, g, p, lo, hi);
  });
}

}  // namespace

KernelTable SimdKernelTable() {
  KernelTable t;  // starts as the scalar tier; override the vectorised ops
  t.matmul = &SimdMatMulKernel;
  t.matmul_trans_b = &SimdMatMulTransBKernel;
  t.complex_mul = &SimdComplexMulKernel;
  t.adam_step = &SimdAdamStepKernel;
  t.axpy = &SimdAxpyKernel;
  t.scale = &SimdScaleKernel;
  t.add = &SimdAddKernel;
  return t;
}

#else  // !SLIME_SIMD_COMPILED

KernelTable SimdKernelTable() { return KernelTable{}; }

#endif  // SLIME_SIMD_COMPILED

}  // namespace internal

bool SimdBackendCompiled() { return SLIME_SIMD_COMPILED != 0; }
}  // namespace compute
}  // namespace slime
