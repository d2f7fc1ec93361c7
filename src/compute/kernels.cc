#include "compute/kernels.h"

#include <algorithm>
#include <cmath>

#include "compute/backend.h"
#include "compute/thread_pool.h"

namespace slime {
namespace compute {
namespace {

/// Rows [lo, hi) of C(m,n) += A @ B(k,n), where A's element (i, kk) is read
/// at a[i * rs + kk * ks]: (rs, ks) = (k, 1) for a row-major A(m,k), (1, m)
/// for the transpose of a row-major A(k,m). i-k-j order (unit-stride inner
/// loop over both B's row and C's row, which GCC auto-vectorises), so every
/// C element accumulates in ascending k whatever the A layout.
void MatMulRows(const float* a, int64_t rs, int64_t ks, const float* b,
                float* c, int64_t k, int64_t n, int64_t lo, int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) {
    float* crow = c + i * n;
    const float* arow = a + i * rs;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk * ks];
      if (av == 0.0f) continue;
      const float* brow = b + kk * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// Rows [lo, hi) of C(m,n) = A(m,k) @ B(n,k)^T: dot products with the j-loop
/// blocked by four so four accumulators stream through one pass over a row.
void MatMulTransBRows(const float* a, const float* b, float* c, int64_t k,
                      int64_t n, int64_t lo, int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b + j * k;
      const float* b1 = b0 + k;
      const float* b2 = b1 + k;
      const float* b3 = b2 + k;
      float a0 = 0.0f;
      float a1 = 0.0f;
      float a2 = 0.0f;
      float a3 = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        a0 += av * b0[kk];
        a1 += av * b1[kk];
        a2 += av * b2[kk];
        a3 += av * b3[kk];
      }
      crow[j] = a0;
      crow[j + 1] = a1;
      crow[j + 2] = a2;
      crow[j + 3] = a3;
    }
    for (; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] = acc;
    }
  }
}

}  // namespace

void MatMulKernel(const float* a, int64_t rs, int64_t ks, const float* b,
                  float* c, int64_t batch, int64_t m, int64_t k, int64_t n) {
  ParallelForItemRows(batch, m, GrainForWork(2 * k * n),
                      [=](int64_t bi, int64_t lo, int64_t hi) {
                        MatMulRows(a + bi * m * k, rs, ks, b + bi * k * n,
                                   c + bi * m * n, k, n, lo, hi);
                      });
}

void MatMulTransBKernel(const float* a, const float* b, float* c,
                        int64_t batch, int64_t m, int64_t k, int64_t n) {
  ParallelForItemRows(batch, m, GrainForWork(2 * k * n),
                      [=](int64_t bi, int64_t lo, int64_t hi) {
                        MatMulTransBRows(a + bi * m * k, b + bi * n * k,
                                         c + bi * m * n, k, n, lo, hi);
                      });
}

void ComplexMulKernel(const float* ar, const float* ai, const float* br,
                      const float* bi, float* out_re, float* out_im,
                      int64_t repeats, int64_t block) {
  ParallelFor(0, repeats * block, kElementwiseGrain,
              [=](int64_t lo, int64_t hi) {
                int64_t j = lo % block;
                for (int64_t f = lo; f < hi; ++f) {
                  const float xr = ar[f];
                  const float xi = ai[f];
                  const float wr = br[j];
                  const float wi = bi[j];
                  out_re[f] = xr * wr - xi * wi;
                  out_im[f] = xr * wi + xi * wr;
                  if (++j == block) j = 0;
                }
              });
}

double SumKernel(const float* p, int64_t n) {
  return ParallelSum(0, n, kReductionGrain, [=](int64_t lo, int64_t hi) {
    double acc = 0.0;
    for (int64_t i = lo; i < hi; ++i) acc += p[i];
    return acc;
  });
}

double DotKernel(const float* a, const float* b, int64_t n) {
  return ParallelSum(0, n, kReductionGrain, [=](int64_t lo, int64_t hi) {
    double acc = 0.0;
    for (int64_t i = lo; i < hi; ++i) acc += double(a[i]) * b[i];
    return acc;
  });
}

bool AllFiniteKernel(const float* p, int64_t n) {
  return ParallelAll(0, n, kReductionGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      if (!std::isfinite(p[i])) return false;
    }
    return true;
  });
}

void SoftmaxRowsKernel(const float* x, float* y, int64_t rows, int64_t d) {
  ParallelFor(0, rows, GrainForWork(4 * d), [=](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* in = x + r * d;
      float* out = y + r * d;
      float mx = in[0];
      for (int64_t i = 1; i < d; ++i) mx = std::max(mx, in[i]);
      double z = 0.0;
      for (int64_t i = 0; i < d; ++i) {
        out[i] = std::exp(in[i] - mx);
        z += out[i];
      }
      const float invz = static_cast<float>(1.0 / z);
      for (int64_t i = 0; i < d; ++i) out[i] *= invz;
    }
  });
}

void SoftmaxRowsBwdKernel(const float* y, const float* g, float* dx,
                          int64_t rows, int64_t d) {
  ParallelFor(0, rows, GrainForWork(4 * d), [=](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* yr = y + r * d;
      const float* gr = g + r * d;
      float* dr = dx + r * d;
      double dot = 0.0;
      for (int64_t i = 0; i < d; ++i) dot += double(gr[i]) * yr[i];
      for (int64_t i = 0; i < d; ++i)
        dr[i] = yr[i] * (gr[i] - static_cast<float>(dot));
    }
  });
}

void GeluKernel(const float* x, float* y, int64_t n) {
  ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i)
      y[i] = 0.5f * x[i] * (1.0f + std::erf(x[i] * 0.70710678118654752f));
  });
}

void GeluBwdKernel(const float* x, const float* g, float* dx, int64_t n) {
  ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float cdf =
          0.5f * (1.0f + std::erf(x[i] * 0.70710678118654752f));
      const float pdf = 0.3989422804014327f * std::exp(-0.5f * x[i] * x[i]);
      dx[i] = g[i] * (cdf + x[i] * pdf);
    }
  });
}

void DropoutMaskKernel(const float* in, const uint64_t* bits, float scale,
                       float* out, int64_t n) {
  ParallelFor(0, (n + 63) / 64, kElementwiseGrain / 64,
              [=](int64_t lo, int64_t hi) {
                for (int64_t w = lo; w < hi; ++w) {
                  const float* pi = in + 64 * w;
                  float* po = out + 64 * w;
                  const int64_t m = std::min<int64_t>(64, n - 64 * w);
                  if (m < 64) {
                    for (int64_t j = 0; j < m; ++j)
                      po[j] = pi[j] * ((bits[w] >> j) & 1 ? scale : 0.0f);
                    continue;
                  }
                  // A full word, as two 32-bit halves the compiler
                  // vectorises: scale * float(bit) is exactly scale or +0,
                  // so each product is the select loop's.
                  for (int h = 0; h < 64; h += 32) {
                    const uint32_t half = static_cast<uint32_t>(bits[w] >> h);
                    for (int j = 0; j < 32; ++j) {
                      const float keep = static_cast<float>((half >> j) & 1u);
                      po[h + j] = pi[h + j] * (scale * keep);
                    }
                  }
                }
              });
}

void LayerNormKernel(const float* x, const float* gamma, const float* beta,
                     float* y, float* xhat, float* inv_std, int64_t rows,
                     int64_t d, float eps) {
  ParallelFor(0, rows, GrainForWork(6 * d), [=](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* in = x + r * d;
      double mean = 0.0;
      for (int64_t i = 0; i < d; ++i) mean += in[i];
      mean /= d;
      double var = 0.0;
      for (int64_t i = 0; i < d; ++i) {
        const double c = in[i] - mean;
        var += c * c;
      }
      var /= d;
      const float is = static_cast<float>(1.0 / std::sqrt(var + eps));
      inv_std[r] = is;
      float* hr = xhat == nullptr ? nullptr : xhat + r * d;
      float* yr = y + r * d;
      for (int64_t i = 0; i < d; ++i) {
        const float h = (in[i] - static_cast<float>(mean)) * is;
        if (hr != nullptr) hr[i] = h;
        yr[i] = h * gamma[i] + beta[i];
      }
    }
  });
}

void LayerNormBwdKernel(const float* g, const float* xhat,
                        const float* inv_std, const float* gamma, float* dx,
                        int64_t rows, int64_t d) {
  ParallelFor(0, rows, GrainForWork(8 * d), [=](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* gr = g + r * d;
      const float* hr = xhat + r * d;
      float* dr = dx + r * d;
      // a_i = g_i * gamma_i; dx = inv_std * (a - mean(a)
      // - xhat * mean(a * xhat)).
      double ma = 0.0;
      double mah = 0.0;
      for (int64_t i = 0; i < d; ++i) {
        const double a = double(gr[i]) * gamma[i];
        ma += a;
        mah += a * hr[i];
      }
      ma /= d;
      mah /= d;
      for (int64_t i = 0; i < d; ++i) {
        const double a = double(gr[i]) * gamma[i];
        dr[i] =
            inv_std[r] * static_cast<float>(a - ma - double(hr[i]) * mah);
      }
    }
  });
}

void LayerNormParamBwdKernel(const float* g, const float* xhat, float* dgamma,
                             float* dbeta, int64_t rows, int64_t d) {
  // Rows outside, columns inside: each column still sums its rows in
  // ascending order, and the inner loop runs along a contiguous row. A
  // chunk spans at least 64 columns, so a d = 64 row is one chunk: narrower
  // chunks would each re-walk every row for a few columns.
  if (dgamma != nullptr) {
    const int64_t grain = std::max<int64_t>(64, GrainForWork(4 * rows));
    ParallelFor(0, d, grain, [=](int64_t lo, int64_t hi) {
      for (int64_t r = 0; r < rows; ++r) {
        const float* gr = g + r * d;
        const float* hr = xhat + r * d;
        for (int64_t i = lo; i < hi; ++i) {
          dgamma[i] += gr[i] * hr[i];
          dbeta[i] += gr[i];
        }
      }
    });
  } else {
    const int64_t grain = std::max<int64_t>(64, GrainForWork(2 * rows));
    ParallelFor(0, d, grain, [=](int64_t lo, int64_t hi) {
      for (int64_t r = 0; r < rows; ++r) {
        const float* gr = g + r * d;
        for (int64_t i = lo; i < hi; ++i) dbeta[i] += gr[i];
      }
    });
  }
}

void AdamStepKernel(float* w, float* m, float* v, const float* g, int64_t n,
                    const AdamStepParams& p) {
  const float b1 = p.beta1;
  const float b2 = p.beta2;
  ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t j = lo; j < hi; ++j) {
      m[j] = b1 * m[j] + (1.0f - b1) * g[j];
      v[j] = b2 * v[j] + (1.0f - b2) * g[j] * g[j];
      const float mhat = m[j] / p.bias_corr1;
      const float vhat = v[j] / p.bias_corr2;
      const float update = mhat / (std::sqrt(vhat) + p.eps);
      w[j] -= p.lr * update;
    }
  });
}

void GatherRowsKernel(const float* w, const int64_t* ids, float* out,
                      int64_t nids, int64_t d) {
  ParallelFor(0, nids, GrainForWork(d), [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const int64_t id = ids[i];
      std::copy(w + id * d, w + (id + 1) * d, out + i * d);
    }
  });
}

void ScatterAddRowsKernel(const float* g, const int64_t* ids, float* acc,
                          int64_t nids, int64_t d) {
  // Serial by contract (see kernels.h): duplicate ids hit the same row.
  for (int64_t i = 0; i < nids; ++i) {
    float* dst = acc + ids[i] * d;
    const float* src = g + i * d;
    for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
  }
}

void AxpyKernel(float* out, const float* a, float scale, int64_t n) {
  ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) out[i] += a[i] * scale;
  });
}

void ScaleKernel(float* p, float scale, int64_t n) {
  ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) p[i] *= scale;
  });
}

void AddKernel(const float* a, const float* b, float* out, int64_t n) {
  ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) out[i] = a[i] + b[i];
  });
}

namespace {

KernelTable& ActiveTable() {
  static KernelTable table;  // default-initialised to the kernels above
  return table;
}

}  // namespace

const KernelTable& Dispatch() {
  // First use honours SLIME_KERNEL_BACKEND unless the backend was already
  // chosen explicitly (cheap atomic check after the first call).
  EnsureKernelBackendEnvApplied();
  return ActiveTable();
}

KernelTable SetDispatch(const KernelTable& table) {
  MarkKernelBackendEnvApplied();
  KernelTable previous = ActiveTable();
  ActiveTable() = table;
  return previous;
}

}  // namespace compute
}  // namespace slime
