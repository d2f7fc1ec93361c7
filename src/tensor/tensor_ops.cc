#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>

#include "compute/kernels.h"
#include "compute/thread_pool.h"

namespace slime {
namespace ops {
namespace {

using compute::Dispatch;
using compute::GrainForWork;
using compute::kElementwiseGrain;
using compute::kReductionGrain;
using compute::ParallelFor;

/// Strides for a contiguous row-major tensor of `shape`, padded on the left
/// to `rank` entries; broadcast (size-1) dimensions get stride 0 so a single
/// indexing loop handles all broadcasting.
std::vector<int64_t> BroadcastStrides(const std::vector<int64_t>& shape,
                                      size_t rank) {
  std::vector<int64_t> strides(rank, 0);
  int64_t s = 1;
  const size_t pad = rank - shape.size();
  for (size_t i = shape.size(); i-- > 0;) {
    strides[pad + i] = (shape[i] == 1) ? 0 : s;
    s *= shape[i];
  }
  return strides;
}

/// Shape guards for the matmul family. SLIME_CHECK is active in every build
/// type (see common/macros.h), so inner-dimension mismatches and rank errors
/// fail loudly with both shapes in release binaries too.
void CheckRank2(const Tensor& a, const Tensor& b, const char* op) {
  SLIME_CHECK_MSG(a.dim() == 2 && b.dim() == 2,
                  op << " expects rank-2 operands, got "
                     << ShapeToString(a.shape()) << " and "
                     << ShapeToString(b.shape()));
}

void CheckRank3(const Tensor& a, const Tensor& b, const char* op) {
  SLIME_CHECK_MSG(a.dim() == 3 && b.dim() == 3,
                  op << " expects rank-3 operands, got "
                     << ShapeToString(a.shape()) << " and "
                     << ShapeToString(b.shape()));
  SLIME_CHECK_MSG(a.size(0) == b.size(0),
                  op << " batch mismatch: " << ShapeToString(a.shape())
                     << " vs " << ShapeToString(b.shape()));
}

void CheckInnerDim(int64_t ka, int64_t kb, const Tensor& a, const Tensor& b,
                   const char* op) {
  SLIME_CHECK_MSG(ka == kb, op << " inner dimension mismatch: "
                               << ShapeToString(a.shape()) << " vs "
                               << ShapeToString(b.shape()));
}

}  // namespace

std::vector<int64_t> BroadcastShape(const std::vector<int64_t>& a,
                                    const std::vector<int64_t>& b) {
  const size_t rank = std::max(a.size(), b.size());
  std::vector<int64_t> out(rank);
  for (size_t i = 0; i < rank; ++i) {
    const int64_t da =
        i < rank - a.size() ? 1 : a[i - (rank - a.size())];
    const int64_t db =
        i < rank - b.size() ? 1 : b[i - (rank - b.size())];
    SLIME_CHECK_MSG(da == db || da == 1 || db == 1,
                    "incompatible broadcast: " << ShapeToString(a) << " vs "
                                               << ShapeToString(b));
    out[i] = std::max(da, db);
  }
  return out;
}

namespace {

/// Generic broadcast binary kernel, templated so the functor inlines into
/// the per-element loop (a function pointer here shows up as ~20% of
/// training time under gprof). Each fast path is parallelised with a fixed
/// work split; every output element is produced by exactly one chunk with
/// unchanged arithmetic, so results are thread-count independent. `out`
/// has the broadcast shape and may be `a` itself: every path reads a[i]
/// before writing out[i].
template <typename F>
void BinaryOpInto(const Tensor& a, const Tensor& b, F f, Tensor* out) {
  const std::vector<int64_t>& out_shape = out->shape();
  if (a.shape() == b.shape()) {
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out->data();
    ParallelFor(0, a.numel(), kElementwiseGrain,
                [&](int64_t lo, int64_t hi) {
                  for (int64_t i = lo; i < hi; ++i) po[i] = f(pa[i], pb[i]);
                });
    return;
  }
  // Fast path: b broadcasts as a repeated trailing block of a (bias adds,
  // (B,N,d) + (N,d), (B,M,d) * (M,d) filters, ...).
  if (out_shape == a.shape() && a.numel() % std::max<int64_t>(b.numel(), 1) == 0) {
    const size_t rank = a.shape().size();
    const size_t brank = b.shape().size();
    bool suffix = brank <= rank;
    if (suffix) {
      for (size_t i = 0; i < brank; ++i) {
        if (b.shape()[i] != a.shape()[rank - brank + i]) {
          suffix = false;
          break;
        }
      }
    }
    if (suffix) {
      const int64_t block = b.numel();
      const int64_t repeats = a.numel() / block;
      const float* pa = a.data();
      const float* pb = b.data();
      float* po = out->data();
      ParallelFor(0, repeats, GrainForWork(block),
                  [&](int64_t lo, int64_t hi) {
                    for (int64_t r = lo; r < hi; ++r) {
                      const float* ar = pa + r * block;
                      float* orow = po + r * block;
                      for (int64_t i = 0; i < block; ++i)
                        orow[i] = f(ar[i], pb[i]);
                    }
                  });
      return;
    }
  }
  // Fast path: equal rank, b differs from a only by a size-1 trailing dim
  // (row-normalisation patterns like (B,d) op (B,1)).
  if (out_shape == a.shape() && b.shape().size() == a.shape().size() &&
      b.shape().back() == 1) {
    bool column = true;
    for (size_t i = 0; i + 1 < a.shape().size(); ++i) {
      column = column && a.shape()[i] == b.shape()[i];
    }
    if (column) {
      const int64_t cols = a.shape().back();
      const int64_t rows = a.numel() / cols;
      const float* pa = a.data();
      const float* pb = b.data();
      float* po = out->data();
      ParallelFor(0, rows, GrainForWork(cols), [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const float bv = pb[r];
          const float* ar = pa + r * cols;
          float* orow = po + r * cols;
          for (int64_t i = 0; i < cols; ++i) orow[i] = f(ar[i], bv);
        }
      });
      return;
    }
  }
  // General odometer walk: rare (mid-tensor broadcasts); stays serial.
  const size_t rank = out_shape.size();
  const std::vector<int64_t> sa = BroadcastStrides(a.shape(), rank);
  const std::vector<int64_t> sb = BroadcastStrides(b.shape(), rank);
  std::vector<int64_t> idx(rank, 0);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out->data();
  const int64_t n = out->numel();
  int64_t off_a = 0;
  int64_t off_b = 0;
  for (int64_t flat = 0; flat < n; ++flat) {
    po[flat] = f(pa[off_a], pb[off_b]);
    // Odometer increment of the multi-index, updating both offsets.
    for (size_t d = rank; d-- > 0;) {
      ++idx[d];
      off_a += sa[d];
      off_b += sb[d];
      if (idx[d] < out_shape[d]) break;
      off_a -= sa[d] * out_shape[d];
      off_b -= sb[d] * out_shape[d];
      idx[d] = 0;
    }
  }
}

template <typename F>
Tensor BinaryOpT(const Tensor& a, const Tensor& b, F f) {
  Tensor out(BroadcastShape(a.shape(), b.shape()));
  BinaryOpInto(a, b, f, &out);
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  // Same-shape adds are a kernel-table entry (backends vectorise them); the
  // broadcast paths stay on the templated walker.
  if (a.shape() == b.shape()) {
    Tensor out(a.shape());
    Dispatch().add(a.data(), b.data(), out.data(), a.numel());
    return out;
  }
  return BinaryOpT(a, b, [](float x, float y) { return x + y; });
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryOpT(a, b, [](float x, float y) { return x - y; });
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOpT(a, b, [](float x, float y) { return x * y; });
}
Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryOpT(a, b, [](float x, float y) { return x / y; });
}

void AddInPlace(Tensor* out, const Tensor& a) {
  if (out->SameShape(a)) {
    // x + 1.0f * y rounds once, exactly as x + y: the bits of Add.
    Dispatch().axpy(out->data(), a.data(), 1.0f, out->numel());
    return;
  }
  SLIME_CHECK_MSG(BroadcastShape(out->shape(), a.shape()) == out->shape(),
                  "AddInPlace: " << ShapeToString(a.shape())
                                 << " does not broadcast into "
                                 << ShapeToString(out->shape()));
  BinaryOpInto(*out, a, [](float x, float y) { return x + y; }, out);
}

void ScaleInPlace(Tensor* out, float scale) {
  Dispatch().scale(out->data(), scale, out->numel());
}

Tensor Map(const Tensor& a, const std::function<float(float)>& f) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  ParallelFor(0, a.numel(), kElementwiseGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) po[i] = f(pa[i]);
  });
  return out;
}

Tensor AddScalar(const Tensor& a, float s) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  ParallelFor(0, a.numel(), kElementwiseGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) po[i] = pa[i] + s;
  });
  return out;
}
Tensor MulScalar(const Tensor& a, float s) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  ParallelFor(0, a.numel(), kElementwiseGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) po[i] = pa[i] * s;
  });
  return out;
}

Tensor ReduceTo(const Tensor& t, const std::vector<int64_t>& target_shape) {
  if (t.shape() == target_shape) return t.Clone();
  // Verify compatibility (target broadcasts to t's shape).
  SLIME_CHECK(BroadcastShape(t.shape(), target_shape) == t.shape());
  // Fast path: target is a trailing block of t (bias/filter/positional
  // gradients) -> sum over the leading repeats. Each output element
  // accumulates its repeats in ascending order whether traversed row-major
  // (serial) or column-chunked (parallel), so both walks are bit-identical.
  {
    const size_t rank = t.shape().size();
    const size_t trank = target_shape.size();
    bool suffix = trank <= rank && ShapeNumel(target_shape) > 0;
    if (suffix) {
      for (size_t i = 0; i < trank; ++i) {
        if (target_shape[i] != t.shape()[rank - trank + i]) {
          suffix = false;
          break;
        }
      }
    }
    if (suffix) {
      Tensor out(target_shape);
      const int64_t block = out.numel();
      const int64_t repeats = t.numel() / block;
      const float* pt = t.data();
      float* po = out.data();
      if (compute::NumThreads() == 1 || block < 256) {
        for (int64_t r = 0; r < repeats; ++r) {
          const float* row = pt + r * block;
          for (int64_t i = 0; i < block; ++i) po[i] += row[i];
        }
      } else {
        ParallelFor(0, block, GrainForWork(repeats),
                    [&](int64_t lo, int64_t hi) {
                      for (int64_t i = lo; i < hi; ++i) {
                        float acc = po[i];
                        for (int64_t r = 0; r < repeats; ++r)
                          acc += pt[r * block + i];
                        po[i] = acc;
                      }
                    });
      }
      return out;
    }
  }
  // Fast path: equal rank and only the trailing dim collapses to 1 (row
  // norms, (B,d) -> (B,1)).
  if (target_shape.size() == t.shape().size()) {
    bool trailing_only = target_shape.back() == 1;
    for (size_t i = 0; trailing_only && i + 1 < target_shape.size(); ++i) {
      trailing_only = target_shape[i] == t.shape()[i];
    }
    if (trailing_only) {
      Tensor out(target_shape);
      const int64_t cols = t.shape().back();
      const int64_t rows = t.numel() / cols;
      const float* pt = t.data();
      float* po = out.data();
      ParallelFor(0, rows, GrainForWork(cols), [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          float acc = 0.0f;
          const float* row = pt + r * cols;
          for (int64_t i = 0; i < cols; ++i) acc += row[i];
          po[r] = acc;
        }
      });
      return out;
    }
  }
  // General scatter-accumulate walk: output offsets repeat, so this stays
  // serial (rare shape combinations only).
  Tensor out(target_shape);
  const size_t rank = t.shape().size();
  const std::vector<int64_t> st = BroadcastStrides(target_shape, rank);
  const std::vector<int64_t>& shape = t.shape();
  std::vector<int64_t> idx(rank, 0);
  const float* pt = t.data();
  float* po = out.data();
  const int64_t n = t.numel();
  int64_t off = 0;
  for (int64_t flat = 0; flat < n; ++flat) {
    po[off] += pt[flat];
    for (size_t d = rank; d-- > 0;) {
      ++idx[d];
      off += st[d];
      if (idx[d] < shape[d]) break;
      off -= st[d] * shape[d];
      idx[d] = 0;
    }
  }
  return out;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  CheckRank2(a, b, "MatMul");
  const int64_t m = a.size(0);
  const int64_t k = a.size(1);
  CheckInnerDim(k, b.size(0), a, b, "MatMul");
  const int64_t n = b.size(1);
  Tensor c({m, n});
  Dispatch().matmul(a.data(), k, 1, b.data(), c.data(), 1, m, k, n);
  return c;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  CheckRank2(a, b, "MatMulTransB");
  const int64_t m = a.size(0);
  const int64_t k = a.size(1);
  CheckInnerDim(k, b.size(1), a, b, "MatMulTransB");
  const int64_t n = b.size(0);
  Tensor c({m, n});
  Dispatch().matmul_trans_b(a.data(), b.data(), c.data(), 1, m, k, n);
  return c;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  CheckRank2(a, b, "MatMulTransA");
  const int64_t k = a.size(0);
  const int64_t m = a.size(1);
  CheckInnerDim(k, b.size(0), a, b, "MatMulTransA");
  const int64_t n = b.size(1);
  Tensor c({m, n});
  Dispatch().matmul(a.data(), 1, m, b.data(), c.data(), 1, m, k, n);
  return c;
}

Tensor BatchMatMul(const Tensor& a, const Tensor& b) {
  CheckRank3(a, b, "BatchMatMul");
  const int64_t batch = a.size(0);
  const int64_t m = a.size(1);
  const int64_t k = a.size(2);
  CheckInnerDim(k, b.size(1), a, b, "BatchMatMul");
  const int64_t n = b.size(2);
  Tensor c({batch, m, n});
  Dispatch().matmul(a.data(), k, 1, b.data(), c.data(), batch, m, k, n);
  return c;
}

Tensor BatchMatMulTransB(const Tensor& a, const Tensor& b) {
  CheckRank3(a, b, "BatchMatMulTransB");
  const int64_t batch = a.size(0);
  const int64_t m = a.size(1);
  const int64_t k = a.size(2);
  CheckInnerDim(k, b.size(2), a, b, "BatchMatMulTransB");
  const int64_t n = b.size(1);
  Tensor c({batch, m, n});
  Dispatch().matmul_trans_b(a.data(), b.data(), c.data(), batch, m, k, n);
  return c;
}

Tensor BatchMatMulTransA(const Tensor& a, const Tensor& b) {
  CheckRank3(a, b, "BatchMatMulTransA");
  const int64_t batch = a.size(0);
  const int64_t k = a.size(1);
  const int64_t m = a.size(2);
  CheckInnerDim(k, b.size(1), a, b, "BatchMatMulTransA");
  const int64_t n = b.size(2);
  Tensor c({batch, m, n});
  Dispatch().matmul(a.data(), 1, m, b.data(), c.data(), batch, m, k, n);
  return c;
}

float SumAll(const Tensor& a) {
  return static_cast<float>(Dispatch().sum(a.data(), a.numel()));
}

Tensor SumAxis(const Tensor& a, int64_t axis, bool keepdim) {
  const int64_t rank = a.dim();
  if (axis < 0) axis += rank;
  SLIME_CHECK_MSG(axis >= 0 && axis < rank,
                  "SumAxis axis out of range for "
                      << ShapeToString(a.shape()));
  int64_t outer = 1;
  int64_t inner = 1;
  for (int64_t i = 0; i < axis; ++i) outer *= a.size(i);
  for (int64_t i = axis + 1; i < rank; ++i) inner *= a.size(i);
  const int64_t extent = a.size(axis);
  std::vector<int64_t> out_shape;
  for (int64_t i = 0; i < rank; ++i) {
    if (i == axis) {
      if (keepdim) out_shape.push_back(1);
    } else {
      out_shape.push_back(a.size(i));
    }
  }
  Tensor out(out_shape);
  const float* pa = a.data();
  float* po = out.data();
  ParallelFor(0, outer, GrainForWork(extent * inner),
              [&](int64_t lo, int64_t hi) {
                for (int64_t o = lo; o < hi; ++o)
                  for (int64_t e = 0; e < extent; ++e) {
                    const float* src = pa + (o * extent + e) * inner;
                    float* dst = po + o * inner;
                    for (int64_t i = 0; i < inner; ++i) dst[i] += src[i];
                  }
              });
  return out;
}

double Dot(const Tensor& a, const Tensor& b) {
  SLIME_CHECK_EQ(a.numel(), b.numel());
  return Dispatch().dot(a.data(), b.data(), a.numel());
}

double Norm(const Tensor& a) { return std::sqrt(Dot(a, a)); }

bool AllFinite(const Tensor& a) {
  return Dispatch().all_finite(a.data(), a.numel());
}

}  // namespace ops
}  // namespace slime
