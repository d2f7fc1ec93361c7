#include "autograd/ops.h"

#include <algorithm>
#include <cmath>

#include "compute/kernels.h"
#include "compute/thread_pool.h"
#include "tensor/tensor_ops.h"

namespace slime {
namespace autograd {
namespace {

using compute::GrainForWork;
using compute::kElementwiseGrain;
using compute::ParallelFor;

/// Reduces a broadcast gradient back to the operand shape and accumulates.
void AccumulateBroadcast(const std::shared_ptr<Node>& node, Tensor g) {
  if (!node || !node->requires_grad) return;
  if (g.shape() == node->shape) {
    AccumulateGrad(node, std::move(g));
  } else {
    AccumulateGrad(node, ops::ReduceTo(g, node->shape));
  }
}

/// Builds a unary elementwise op where the local derivative can be computed
/// from the *input* value.
Variable UnaryFromInput(const Variable& a, float (*fwd)(float),
                        float (*dfdx)(float)) {
  Tensor out = ops::Map(a.value(), fwd);
  auto an = a.node();
  return MakeOpVariable(
      std::move(out), {an}, [an, x = a.value(), dfdx](const Tensor& g) {
        Tensor dx(g.shape());
        const float* px = x.data();
        const float* pg = g.data();
        float* pd = dx.data();
        ParallelFor(0, g.numel(), kElementwiseGrain,
                    [&](int64_t lo, int64_t hi) {
                      for (int64_t i = lo; i < hi; ++i)
                        pd[i] = pg[i] * dfdx(px[i]);
                    });
        AccumulateGrad(an, std::move(dx));
      });
}

/// An inverted-dropout mask, one bit per element (bit j of word w keeps
/// element 64 w + j); kept elements are multiplied by `scale` (the
/// `dropout_mask` kernel).
struct DropoutMask {
  std::vector<uint64_t> bits;
  float scale = 1.0f;
};

/// Draws the mask of x's n elements at drop probability p, 0 < p < 1, as an
/// integer-threshold Bernoulli: one raw 64-bit `rng` draw per element, in
/// element order. A p small enough that keep rounds to 1 keeps everything
/// (keep * 2^64 would not fit) but still draws n numbers. With `positions`
/// > 1 each row of x (along its last axis) is the last of `positions` rows:
/// the walk draws the (positions - 1) * row numbers before it too, keeping
/// no bits of them, so it advances `rng` exactly as the full mask does.
DropoutMask DrawDropoutMask(float p, const Tensor& x, int64_t positions,
                            Rng* rng) {
  SLIME_CHECK_LT(p, 1.0f);
  SLIME_CHECK_GE(positions, 1);
  const int64_t n = x.numel();
  const int64_t row = positions > 1 ? x.size(-1) : n;
  const float keep = 1.0f - p;
  const uint64_t threshold =
      keep < 1.0f ? static_cast<uint64_t>(keep * 18446744073709551616.0)
                  : UINT64_MAX;
  DropoutMask mask;
  mask.scale = 1.0f / keep;
  mask.bits.resize(static_cast<size_t>((n + 63) / 64));
  const int64_t skipped = (positions - 1) * row;
  int64_t row_left = 0;  // kept elements left in the current row
  for (size_t w = 0; w < mask.bits.size(); ++w) {
    const int64_t m = std::min<int64_t>(64, n - 64 * int64_t(w));
    uint64_t word = 0;
    for (int64_t j = 0; j < m; ++j) {
      if (row_left-- == 0) {
        for (int64_t s = 0; s < skipped; ++s) rng->NextUint64();
        row_left = row - 1;
      }
      word |= uint64_t(rng->NextUint64() < threshold) << j;
    }
    mask.bits[w] = word;
  }
  return mask;
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  Tensor out = ops::Add(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  // b takes g itself (adopting it when the shapes match), a a copy.
  return MakeOpVariable(std::move(out), {an, bn}, [an, bn](Tensor g) {
    AccumulateBroadcast(an, g);
    AccumulateBroadcast(bn, std::move(g));
  });
}

Variable AddInPlace(Variable a, const Variable& b) {
  if (!CanReuse(a)) return Add(a, b);
  ops::AddInPlace(&a.mutable_value(), b.value());
  return a;
}

Variable Sub(const Variable& a, const Variable& b) {
  Tensor out = ops::Sub(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeOpVariable(std::move(out), {an, bn}, [an, bn](const Tensor& g) {
    AccumulateBroadcast(an, g);
    if (bn && bn->requires_grad) {
      AccumulateBroadcast(bn, ops::MulScalar(g, -1.0f));
    }
  });
}

Variable Mul(const Variable& a, const Variable& b) {
  Tensor out = ops::Mul(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeOpVariable(
      std::move(out), {an, bn},
      [an, bn, av = a.value(), bv = b.value()](const Tensor& g) {
        if (an && an->requires_grad)
          AccumulateBroadcast(an, ops::Mul(g, bv));
        if (bn && bn->requires_grad)
          AccumulateBroadcast(bn, ops::Mul(g, av));
      });
}

Variable Div(const Variable& a, const Variable& b) {
  Tensor out = ops::Div(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeOpVariable(
      std::move(out), {an, bn},
      [an, bn, av = a.value(), bv = b.value()](const Tensor& g) {
        if (an && an->requires_grad)
          AccumulateBroadcast(an, ops::Div(g, bv));
        if (bn && bn->requires_grad) {
          // d/db (a/b) = -a / b^2
          Tensor t = ops::Mul(g, av);
          t = ops::Div(t, ops::Mul(bv, bv));
          AccumulateBroadcast(bn, ops::MulScalar(t, -1.0f));
        }
      });
}

Variable Neg(const Variable& a) { return MulScalar(a, -1.0f); }

Variable AddScalar(const Variable& a, float s) {
  Tensor out = ops::AddScalar(a.value(), s);
  auto an = a.node();
  return MakeOpVariable(std::move(out), {an},
                        [an](const Tensor& g) { AccumulateGrad(an, g); });
}

Variable MulScalar(const Variable& a, float s) {
  Tensor out = ops::MulScalar(a.value(), s);
  auto an = a.node();
  return MakeOpVariable(std::move(out), {an}, [an, s](const Tensor& g) {
    AccumulateGrad(an, ops::MulScalar(g, s));
  });
}

Variable MulConst(const Variable& a, const Tensor& c) {
  Tensor out = ops::Mul(a.value(), c);
  SLIME_CHECK_MSG(out.shape() == a.value().shape(),
                  "MulConst mask must broadcast to the input shape");
  auto an = a.node();
  Tensor cc = c;  // shares storage; cheap
  return MakeOpVariable(std::move(out), {an}, [an, cc](const Tensor& g) {
    AccumulateGrad(an, ops::Mul(g, cc));
  });
}

Variable AddConst(const Variable& a, const Tensor& c) {
  Tensor out = ops::Add(a.value(), c);
  SLIME_CHECK(out.shape() == a.value().shape());
  auto an = a.node();
  return MakeOpVariable(std::move(out), {an},
                        [an](const Tensor& g) { AccumulateGrad(an, g); });
}

Variable Relu(const Variable& a) {
  return UnaryFromInput(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x) { return x > 0.0f ? 1.0f : 0.0f; });
}

Variable Gelu(const Variable& a) {
  // gelu(x) = x * Phi(x); d/dx = Phi(x) + x * phi(x). Both directions are
  // kernel-table entries so backends can swap implementations.
  Tensor out(a.value().shape());
  compute::Dispatch().gelu(a.value().data(), out.data(), out.numel());
  auto an = a.node();
  return MakeOpVariable(
      std::move(out), {an}, [an, x = a.value()](const Tensor& g) {
        Tensor dx(g.shape());
        compute::Dispatch().gelu_bwd(x.data(), g.data(), dx.data(), g.numel());
        AccumulateGrad(an, std::move(dx));
      });
}

Variable Sigmoid(const Variable& a) {
  Tensor out = ops::Map(a.value(), [](float x) {
    return x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                     : std::exp(x) / (1.0f + std::exp(x));
  });
  auto an = a.node();
  Tensor y = out;  // alias for backward
  return MakeOpVariable(std::move(out), {an}, [an, y](const Tensor& g) {
    Tensor dx(g.shape());
    const float* py = y.data();
    const float* pg = g.data();
    float* pd = dx.data();
    ParallelFor(0, g.numel(), kElementwiseGrain,
                [&](int64_t lo, int64_t hi) {
                  for (int64_t i = lo; i < hi; ++i)
                    pd[i] = pg[i] * py[i] * (1.0f - py[i]);
                });
    AccumulateGrad(an, std::move(dx));
  });
}

Variable Tanh(const Variable& a) {
  Tensor out = ops::Map(a.value(), [](float x) { return std::tanh(x); });
  auto an = a.node();
  Tensor y = out;
  return MakeOpVariable(std::move(out), {an}, [an, y](const Tensor& g) {
    Tensor dx(g.shape());
    const float* py = y.data();
    const float* pg = g.data();
    float* pd = dx.data();
    ParallelFor(0, g.numel(), kElementwiseGrain,
                [&](int64_t lo, int64_t hi) {
                  for (int64_t i = lo; i < hi; ++i)
                    pd[i] = pg[i] * (1.0f - py[i] * py[i]);
                });
    AccumulateGrad(an, std::move(dx));
  });
}

Variable Exp(const Variable& a) {
  Tensor out = ops::Map(a.value(), [](float x) { return std::exp(x); });
  auto an = a.node();
  Tensor y = out;
  return MakeOpVariable(std::move(out), {an}, [an, y](const Tensor& g) {
    AccumulateGrad(an, ops::Mul(g, y));
  });
}

Variable Log(const Variable& a) {
  return UnaryFromInput(
      a, [](float x) { return std::log(x); },
      [](float x) { return 1.0f / x; });
}

Variable Sqrt(const Variable& a) {
  Tensor out = ops::Map(a.value(), [](float x) { return std::sqrt(x); });
  auto an = a.node();
  Tensor y = out;
  return MakeOpVariable(std::move(out), {an}, [an, y](const Tensor& g) {
    Tensor dx(g.shape());
    const float* py = y.data();
    const float* pg = g.data();
    float* pd = dx.data();
    ParallelFor(0, g.numel(), kElementwiseGrain,
                [&](int64_t lo, int64_t hi) {
                  for (int64_t i = lo; i < hi; ++i)
                    pd[i] = pg[i] * 0.5f / py[i];
                });
    AccumulateGrad(an, std::move(dx));
  });
}

Variable Reshape(const Variable& a, std::vector<int64_t> shape) {
  Tensor out = a.value().Reshape(std::move(shape));
  auto an = a.node();
  std::vector<int64_t> in_shape = a.value().shape();
  // The closure drops its own handle on g before handing the view up, so
  // the parent adopts the buffer instead of copying it.
  return MakeOpVariable(std::move(out), {an}, [an, in_shape](Tensor g) {
    Tensor view = g.Reshape(in_shape);
    g = Tensor();
    AccumulateGrad(an, std::move(view));
  });
}

Variable Slice(const Variable& a, int64_t axis, int64_t start, int64_t end) {
  const Tensor& x = a.value();
  const int64_t rank = x.dim();
  if (axis < 0) axis += rank;
  SLIME_CHECK(axis >= 0 && axis < rank);
  SLIME_CHECK(0 <= start && start <= end && end <= x.size(axis));
  int64_t outer = 1;
  int64_t inner = 1;
  for (int64_t i = 0; i < axis; ++i) outer *= x.size(i);
  for (int64_t i = axis + 1; i < rank; ++i) inner *= x.size(i);
  const int64_t extent = x.size(axis);
  const int64_t width = end - start;
  std::vector<int64_t> out_shape = x.shape();
  out_shape[axis] = width;
  Tensor out(out_shape);
  const float* px = x.data();
  float* po = out.data();
  ParallelFor(0, outer, GrainForWork(width * inner),
              [&](int64_t lo, int64_t hi) {
                for (int64_t o = lo; o < hi; ++o) {
                  const float* src = px + (o * extent + start) * inner;
                  float* dst = po + o * width * inner;
                  std::copy(src, src + width * inner, dst);
                }
              });
  auto an = a.node();
  std::vector<int64_t> in_shape = x.shape();
  return MakeOpVariable(
      std::move(out), {an},
      [an, in_shape, outer, inner, extent, start, width](const Tensor& g) {
        Tensor dx(in_shape);
        const float* pg = g.data();
        float* pd = dx.data();
        ParallelFor(0, outer, GrainForWork(width * inner),
                    [&](int64_t lo, int64_t hi) {
                      for (int64_t o = lo; o < hi; ++o) {
                        const float* src = pg + o * width * inner;
                        float* dst = pd + (o * extent + start) * inner;
                        std::copy(src, src + width * inner, dst);
                      }
                    });
        AccumulateGrad(an, std::move(dx));
      });
}

Variable Concat(const std::vector<Variable>& vars, int64_t axis) {
  SLIME_CHECK(!vars.empty());
  const int64_t rank = vars[0].value().dim();
  if (axis < 0) axis += rank;
  SLIME_CHECK(axis >= 0 && axis < rank);
  int64_t total = 0;
  for (const auto& v : vars) {
    SLIME_CHECK_EQ(v.value().dim(), rank);
    for (int64_t i = 0; i < rank; ++i) {
      if (i != axis) SLIME_CHECK_EQ(v.value().size(i), vars[0].value().size(i));
    }
    total += v.value().size(axis);
  }
  std::vector<int64_t> out_shape = vars[0].value().shape();
  out_shape[axis] = total;
  Tensor out(out_shape);
  int64_t outer = 1;
  int64_t inner = 1;
  for (int64_t i = 0; i < axis; ++i) outer *= out_shape[i];
  for (int64_t i = axis + 1; i < rank; ++i) inner *= out_shape[i];
  // Copy each input into its slot.
  std::vector<int64_t> widths;
  int64_t off = 0;
  for (const auto& v : vars) {
    const int64_t w = v.value().size(axis);
    widths.push_back(w);
    const float* src = v.value().data();
    for (int64_t o = 0; o < outer; ++o) {
      std::copy(src + o * w * inner, src + (o + 1) * w * inner,
                out.data() + (o * total + off) * inner);
    }
    off += w;
  }
  std::vector<std::shared_ptr<Node>> parents;
  for (const auto& v : vars) parents.push_back(v.node());
  return MakeOpVariable(
      std::move(out), parents,
      [parents, widths, outer, inner, total](const Tensor& g) {
        int64_t off2 = 0;
        for (size_t i = 0; i < parents.size(); ++i) {
          const int64_t w = widths[i];
          if (parents[i] && parents[i]->requires_grad) {
            Tensor dx(parents[i]->shape);
            for (int64_t o = 0; o < outer; ++o) {
              const float* src = g.data() + (o * total + off2) * inner;
              std::copy(src, src + w * inner, dx.data() + o * w * inner);
            }
            AccumulateGrad(parents[i], std::move(dx));
          }
          off2 += w;
        }
      });
}

Variable MatMul(const Variable& a, const Variable& b) {
  Tensor out = ops::MatMul(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeOpVariable(
      std::move(out), {an, bn},
      [an, bn, av = a.value(), bv = b.value()](const Tensor& g) {
        if (an && an->requires_grad)
          AccumulateGrad(an, ops::MatMulTransB(g, bv));
        if (bn && bn->requires_grad)
          AccumulateGrad(bn, ops::MatMulTransA(av, g));
      });
}

Variable MatMulTransB(const Variable& a, const Variable& b) {
  Tensor out = ops::MatMulTransB(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeOpVariable(
      std::move(out), {an, bn},
      [an, bn, av = a.value(), bv = b.value()](const Tensor& g) {
        // y = a b^T: da = g b; db = g^T a.
        if (an && an->requires_grad)
          AccumulateGrad(an, ops::MatMul(g, bv));
        if (bn && bn->requires_grad)
          AccumulateGrad(bn, ops::MatMulTransA(g, av));
      });
}

Variable BatchMatMul(const Variable& a, const Variable& b) {
  Tensor out = ops::BatchMatMul(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeOpVariable(
      std::move(out), {an, bn},
      [an, bn, av = a.value(), bv = b.value()](const Tensor& g) {
        if (an && an->requires_grad)
          AccumulateGrad(an, ops::BatchMatMulTransB(g, bv));
        if (bn && bn->requires_grad)
          AccumulateGrad(bn, ops::BatchMatMulTransA(av, g));
      });
}

Variable BatchMatMulTransB(const Variable& a, const Variable& b) {
  Tensor out = ops::BatchMatMulTransB(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeOpVariable(
      std::move(out), {an, bn},
      [an, bn, av = a.value(), bv = b.value()](const Tensor& g) {
        // y_i = a_i b_i^T: da_i = g_i b_i; db_i = g_i^T a_i.
        if (an && an->requires_grad)
          AccumulateGrad(an, ops::BatchMatMul(g, bv));
        if (bn && bn->requires_grad)
          AccumulateGrad(bn, ops::BatchMatMulTransA(g, av));
      });
}

Variable BroadcastMatMul(const Variable& w, const Variable& x) {
  const Tensor& wt = w.value();
  const Tensor& xt = x.value();
  SLIME_CHECK_EQ(wt.dim(), 2);
  SLIME_CHECK_EQ(xt.dim(), 3);
  const int64_t batch = xt.size(0);
  const int64_t m = wt.size(0);
  const int64_t k = wt.size(1);
  SLIME_CHECK_EQ(xt.size(1), k);
  const int64_t n = xt.size(2);
  Tensor out({batch, m, n});
  {
    const auto& kt = compute::Dispatch();
    const float* pw = wt.data();
    const float* px = xt.data();
    float* po = out.data();
    // Parallel across batch items; nested kernel dispatch runs inline.
    ParallelFor(0, batch, GrainForWork(2 * m * k * n),
                [&](int64_t lo, int64_t hi) {
                  for (int64_t i = lo; i < hi; ++i) {
                    kt.matmul(pw, k, 1, px + i * k * n, po + i * m * n, 1, m,
                              k, n);
                  }
                });
  }
  auto wn = w.node();
  auto xn = x.node();
  return MakeOpVariable(
      std::move(out), {wn, xn},
      [wn, xn, wv = wt, xv = xt, batch, m, k, n](const Tensor& g) {
        const auto& kt = compute::Dispatch();
        if (wn && wn->requires_grad) {
          // dw accumulates across batch items in index order (serial outer
          // loop keeps it deterministic); each item's matmul parallelises
          // internally.
          Tensor dw({m, k});
          Tensor tmp({m, k});
          for (int64_t i = 0; i < batch; ++i) {
            kt.matmul_trans_b(g.data() + i * m * n, xv.data() + i * k * n,
                              tmp.data(), 1, m, n, k);
            ops::AddInPlace(&dw, tmp);
          }
          AccumulateGrad(wn, std::move(dw));
        }
        if (xn && xn->requires_grad) {
          Tensor dx({batch, k, n});
          const float* pw = wv.data();
          const float* pg = g.data();
          float* pd = dx.data();
          ParallelFor(0, batch, GrainForWork(2 * m * k * n),
                      [&](int64_t lo, int64_t hi) {
                        for (int64_t i = lo; i < hi; ++i) {
                          kt.matmul(pw, 1, k, pg + i * m * n, pd + i * k * n,
                                    1, k, m, n);
                        }
                      });
          AccumulateGrad(xn, std::move(dx));
        }
      });
}

Variable Sum(const Variable& a) {
  Tensor out = Tensor::Scalar(ops::SumAll(a.value()));
  auto an = a.node();
  std::vector<int64_t> shape = a.value().shape();
  return MakeOpVariable(std::move(out), {an}, [an, shape](const Tensor& g) {
    AccumulateGrad(an, Tensor::Full(shape, g[0]));
  });
}

Variable Mean(const Variable& a) {
  const float inv = 1.0f / static_cast<float>(a.numel());
  Tensor out = Tensor::Scalar(ops::SumAll(a.value()) * inv);
  auto an = a.node();
  std::vector<int64_t> shape = a.value().shape();
  return MakeOpVariable(std::move(out), {an},
                        [an, shape, inv](const Tensor& g) {
                          AccumulateGrad(an, Tensor::Full(shape, g[0] * inv));
                        });
}

Variable SumAxis(const Variable& a, int64_t axis, bool keepdim) {
  const int64_t rank = a.value().dim();
  if (axis < 0) axis += rank;
  Tensor out = ops::SumAxis(a.value(), axis, keepdim);
  auto an = a.node();
  int64_t outer = 1;
  int64_t inner = 1;
  for (int64_t i = 0; i < axis; ++i) outer *= a.value().size(i);
  for (int64_t i = axis + 1; i < rank; ++i) inner *= a.value().size(i);
  const int64_t extent = a.value().size(axis);
  std::vector<int64_t> in_shape = a.value().shape();
  return MakeOpVariable(
      std::move(out), {an},
      [an, in_shape, outer, inner, extent](const Tensor& g) {
        Tensor dx(in_shape);
        const float* pg = g.data();
        float* pd = dx.data();
        for (int64_t o = 0; o < outer; ++o)
          for (int64_t e = 0; e < extent; ++e) {
            const float* src = pg + o * inner;
            float* dst = pd + (o * extent + e) * inner;
            for (int64_t i = 0; i < inner; ++i) dst[i] = src[i];
          }
        AccumulateGrad(an, std::move(dx));
      });
}

namespace {

/// Row-wise softmax over the last dim into a fresh tensor.
Tensor SoftmaxRows(const Tensor& x) {
  Tensor y(x.shape());
  const int64_t d = x.size(-1);
  compute::Dispatch().softmax_rows(x.data(), y.data(), x.numel() / d, d);
  return y;
}

}  // namespace

Variable Softmax(const Variable& a) {
  Tensor y = SoftmaxRows(a.value());
  auto an = a.node();
  Tensor ycopy = y;
  return MakeOpVariable(std::move(y), {an}, [an, ycopy](const Tensor& g) {
    // dx = y * (g - sum(g*y)) per row.
    Tensor dx(g.shape());
    const int64_t d = g.size(-1);
    compute::Dispatch().softmax_rows_bwd(ycopy.data(), g.data(), dx.data(),
                                         g.numel() / d, d);
    AccumulateGrad(an, std::move(dx));
  });
}

Variable CrossEntropy(const Variable& logits,
                      const std::vector<int64_t>& targets,
                      int64_t ignore_index) {
  const Tensor& x = logits.value();
  SLIME_CHECK_EQ(x.dim(), 2);
  const int64_t rows = x.size(0);
  const int64_t v = x.size(1);
  SLIME_CHECK_EQ(rows, static_cast<int64_t>(targets.size()));
  // Stable log-softmax NLL with probabilities cached for backward.
  Tensor probs = SoftmaxRows(x);
  double loss = 0.0;
  int64_t count = 0;
  const float* pp = probs.data();
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t t = targets[r];
    if (t == ignore_index) continue;
    SLIME_CHECK(t >= 0 && t < v);
    loss += -std::log(std::max(pp[r * v + t], 1e-12f));
    ++count;
  }
  SLIME_CHECK_MSG(count > 0, "CrossEntropy: every target was ignored");
  Tensor out = Tensor::Scalar(static_cast<float>(loss / count));
  auto an = logits.node();
  return MakeOpVariable(
      std::move(out), {an},
      [an, probs, targets, ignore_index, rows, v, count](const Tensor& g) {
        Tensor dx({rows, v});
        const float scale = g[0] / static_cast<float>(count);
        const float* pp2 = probs.data();
        float* pd = dx.data();
        ParallelFor(0, rows, GrainForWork(2 * v),
                    [&](int64_t lo, int64_t hi) {
                      for (int64_t r = lo; r < hi; ++r) {
                        const int64_t t = targets[r];
                        if (t == ignore_index) continue;
                        for (int64_t i = 0; i < v; ++i)
                          pd[r * v + i] = pp2[r * v + i] * scale;
                        pd[r * v + t] -= scale;
                      }
                    });
        AccumulateGrad(an, std::move(dx));
      });
}

Variable EmbeddingLookup(const Variable& weight,
                         const std::vector<int64_t>& ids,
                         std::vector<int64_t> out_shape) {
  const Tensor& w = weight.value();
  SLIME_CHECK_EQ(w.dim(), 2);
  const int64_t vocab = w.size(0);
  const int64_t d = w.size(1);
  SLIME_CHECK_EQ(ShapeNumel(out_shape), static_cast<int64_t>(ids.size()));
  std::vector<int64_t> full_shape = out_shape;
  full_shape.push_back(d);
  Tensor out(full_shape);
  const int64_t nids = static_cast<int64_t>(ids.size());
  // Bounds are validated here, once; kernels gather unchecked.
  for (int64_t i = 0; i < nids; ++i) {
    SLIME_CHECK_MSG(ids[i] >= 0 && ids[i] < vocab,
                    "embedding id " << ids[i] << " out of range [0," << vocab
                                    << ")");
  }
  compute::Dispatch().gather_rows(w.data(), ids.data(), out.data(), nids, d);
  auto wn = weight.node();
  // Backward scatter-add is serial in every backend: duplicate ids hit the
  // same row, so a row split would race and atomics would break determinism.
  return MakeOpVariable(std::move(out), {wn},
                        [wn, ids, vocab, d](const Tensor& g) {
                          Tensor dw({vocab, d});
                          compute::Dispatch().scatter_add_rows(
                              g.data(), ids.data(), dw.data(),
                              static_cast<int64_t>(ids.size()), d);
                          AccumulateGrad(wn, std::move(dw));
                        });
}

Variable LayerNorm(const Variable& x, const Variable& gamma,
                   const Variable& beta, float eps) {
  const Tensor& xt = x.value();
  const int64_t d = xt.size(-1);
  SLIME_CHECK_EQ(gamma.value().numel(), d);
  SLIME_CHECK_EQ(beta.value().numel(), d);
  const int64_t rows = xt.numel() / d;
  const bool record = !NoGradActive() && (x.requires_grad() ||
                                          gamma.requires_grad() ||
                                          beta.requires_grad());
  Tensor y(xt.shape());
  Tensor xhat = record ? Tensor(xt.shape()) : Tensor();
  Tensor inv_std({rows});
  compute::Dispatch().layer_norm(xt.data(), gamma.value().data(),
                                 beta.value().data(), y.data(),
                                 record ? xhat.data() : nullptr,
                                 inv_std.data(), rows, d, eps);
  auto xn = x.node();
  auto gn = gamma.node();
  auto bn = beta.node();
  return MakeOpVariable(
      std::move(y), {xn, gn, bn},
      [xn, gn, bn, gv = gamma.value(), xhat, inv_std, rows,
       d](const Tensor& g) {
        const auto& kt = compute::Dispatch();
        if (gn && gn->requires_grad) {
          Tensor dgamma({d});
          Tensor dbeta({d});
          kt.layer_norm_param_bwd(g.data(), xhat.data(), dgamma.data(),
                                  dbeta.data(), rows, d);
          AccumulateGrad(gn, std::move(dgamma));
          AccumulateGrad(bn, std::move(dbeta));
        } else if (bn && bn->requires_grad) {
          Tensor dbeta({d});
          kt.layer_norm_param_bwd(g.data(), xhat.data(), /*dgamma=*/nullptr,
                                  dbeta.data(), rows, d);
          AccumulateGrad(bn, std::move(dbeta));
        }
        if (xn && xn->requires_grad) {
          Tensor dx(xn->shape);
          kt.layer_norm_bwd(g.data(), xhat.data(), inv_std.data(),
                            gv.data(), dx.data(), rows, d);
          AccumulateGrad(xn, std::move(dx));
        }
      });
}

Variable Dropout(const Variable& x, float p, bool training, Rng* rng,
                 int64_t positions) {
  if (!training || p <= 0.0f) return x;
  const int64_t n = x.numel();
  DropoutMask mask = DrawDropoutMask(p, x.value(), positions, rng);
  Tensor y(x.value().shape());
  compute::Dispatch().dropout_mask(x.value().data(), mask.bits.data(),
                                   mask.scale, y.data(), n);
  auto xn = x.node();
  return MakeOpVariable(
      std::move(y), {xn}, [xn, mask = std::move(mask), n](const Tensor& g) {
        Tensor dx(g.shape());
        compute::Dispatch().dropout_mask(g.data(), mask.bits.data(),
                                         mask.scale, dx.data(), n);
        AccumulateGrad(xn, std::move(dx));
      });
}

Variable GeluDropoutMatMul(Variable pre, const Variable& w, float p,
                           bool training, Rng* rng, int64_t positions) {
  const Tensor& wt = w.value();
  SLIME_CHECK_EQ(wt.dim(), 2);
  const int64_t k = wt.size(0);
  SLIME_CHECK_EQ(pre.value().size(-1), k);
  const int64_t n = pre.numel();
  const int64_t rows = n / k;
  const bool drop = training && p > 0.0f;
  DropoutMask mask =
      drop ? DrawDropoutMask(p, pre.value(), positions, rng) : DropoutMask();
  const auto& kt = compute::Dispatch();
  // D = Dropout(GELU(pre)) as (rows, k), over pre's own buffer when the
  // caller gave it up under a NoGradScope. Nothing saves D: backward
  // recomputes it from pre and the mask.
  Tensor d = CanReuse(pre) ? pre.value().Reshape({rows, k})
                           : Tensor({rows, k});
  kt.gelu(pre.value().data(), d.data(), n);
  if (drop) {
    kt.dropout_mask(d.data(), mask.bits.data(), mask.scale, d.data(), n);
  }
  Tensor out = ops::MatMul(d, wt);
  auto pn = pre.node();
  auto wn = w.node();
  return MakeOpVariable(
      std::move(out), {pn, wn},
      [pn, wn, x = pre.value(), wv = wt, mask = std::move(mask), rows, drop,
       k](const Tensor& g) {
        const auto& kt = compute::Dispatch();
        const int64_t n = rows * k;
        const bool need_pre = pn && pn->requires_grad;
        // dD = g W^T, then dW = D^T g, as the composed chain's MatMul ran
        // them; the recomputed D lives only while dW is formed.
        Tensor dd = need_pre ? ops::MatMulTransB(g, wv) : Tensor();
        if (wn && wn->requires_grad) {
          Tensor d({rows, k});
          kt.gelu(x.data(), d.data(), n);
          if (drop) {
            kt.dropout_mask(d.data(), mask.bits.data(), mask.scale, d.data(),
                            n);
          }
          AccumulateGrad(wn, ops::MatMulTransA(d, g));
        }
        if (need_pre) {
          if (drop) {
            kt.dropout_mask(dd.data(), mask.bits.data(), mask.scale,
                            dd.data(), n);
          }
          kt.gelu_bwd(x.data(), dd.data(), dd.data(), n);
          dd = dd.Reshape(pn->shape);
          AccumulateGrad(pn, std::move(dd));
        }
      });
}

Variable MaxPoolAxis1(const Variable& x) {
  const Tensor& xt = x.value();
  SLIME_CHECK_EQ(xt.dim(), 3);
  const int64_t b = xt.size(0);
  const int64_t t = xt.size(1);
  const int64_t f = xt.size(2);
  Tensor out({b, f});
  std::vector<int64_t> argmax(static_cast<size_t>(b * f));
  const float* px = xt.data();
  float* po = out.data();
  ParallelFor(0, b, GrainForWork(t * f), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i)
      for (int64_t j = 0; j < f; ++j) {
        float best = px[i * t * f + j];
        int64_t bi = 0;
        for (int64_t k = 1; k < t; ++k) {
          const float v = px[(i * t + k) * f + j];
          if (v > best) {
            best = v;
            bi = k;
          }
        }
        po[i * f + j] = best;
        argmax[i * f + j] = bi;
      }
  });
  auto xn = x.node();
  return MakeOpVariable(std::move(out), {xn},
                        [xn, argmax, b, t, f](const Tensor& g) {
                          Tensor dx({b, t, f});
                          const float* pg = g.data();
                          float* pd = dx.data();
                          for (int64_t i = 0; i < b; ++i)
                            for (int64_t j = 0; j < f; ++j) {
                              const int64_t k = argmax[i * f + j];
                              pd[(i * t + k) * f + j] += pg[i * f + j];
                            }
                          AccumulateGrad(xn, std::move(dx));
                        });
}

Variable HorizontalConv(const Variable& x, const Variable& w,
                        const Variable& bias) {
  const Tensor& xt = x.value();
  const Tensor& wt = w.value();
  SLIME_CHECK_EQ(xt.dim(), 3);
  SLIME_CHECK_EQ(wt.dim(), 3);
  const int64_t b = xt.size(0);
  const int64_t n = xt.size(1);
  const int64_t d = xt.size(2);
  const int64_t f = wt.size(0);
  const int64_t h = wt.size(1);
  SLIME_CHECK_EQ(wt.size(2), d);
  SLIME_CHECK_LE(h, n);
  SLIME_CHECK_EQ(bias.value().numel(), f);
  const int64_t t = n - h + 1;
  Tensor out({b, t, f});
  const float* px = xt.data();
  const float* pw = wt.data();
  const float* pb = bias.value().data();
  float* po = out.data();
  ParallelFor(0, b, GrainForWork(2 * t * f * h * d),
              [&](int64_t lo, int64_t hi) {
                for (int64_t bi = lo; bi < hi; ++bi)
                  for (int64_t ti = 0; ti < t; ++ti)
                    for (int64_t fi = 0; fi < f; ++fi) {
                      double acc = pb[fi];
                      const float* wrow = pw + fi * h * d;
                      const float* xrow = px + (bi * n + ti) * d;
                      for (int64_t e = 0; e < h * d; ++e)
                        acc += double(wrow[e]) * xrow[e];
                      po[(bi * t + ti) * f + fi] = static_cast<float>(acc);
                    }
              });
  auto xn = x.node();
  auto wn = w.node();
  auto bn = bias.node();
  return MakeOpVariable(
      std::move(out), {xn, wn, bn},
      [xn, wn, bn, xv = xt, wv = wt, b, n, d, f, h, t](const Tensor& g) {
        const float* pg = g.data();
        if (bn && bn->requires_grad) {
          Tensor db({f});
          float* pd = db.data();
          for (int64_t i = 0; i < b * t; ++i)
            for (int64_t fi = 0; fi < f; ++fi) pd[fi] += pg[i * f + fi];
          AccumulateGrad(bn, std::move(db));
        }
        if (wn && wn->requires_grad) {
          Tensor dw({f, h, d});
          float* pd = dw.data();
          const float* px2 = xv.data();
          for (int64_t bi = 0; bi < b; ++bi)
            for (int64_t ti = 0; ti < t; ++ti)
              for (int64_t fi = 0; fi < f; ++fi) {
                const float gv = pg[(bi * t + ti) * f + fi];
                if (gv == 0.0f) continue;
                const float* xrow = px2 + (bi * n + ti) * d;
                float* wrow = pd + fi * h * d;
                for (int64_t e = 0; e < h * d; ++e) wrow[e] += gv * xrow[e];
              }
          AccumulateGrad(wn, std::move(dw));
        }
        if (xn && xn->requires_grad) {
          // Per-batch-item writes are disjoint; dw above stays serial
          // because every item accumulates into the shared filter grad.
          Tensor dx({b, n, d});
          float* pd = dx.data();
          const float* pw2 = wv.data();
          ParallelFor(0, b, GrainForWork(2 * t * f * h * d),
                      [&](int64_t lo, int64_t hi) {
                        for (int64_t bi = lo; bi < hi; ++bi)
                          for (int64_t ti = 0; ti < t; ++ti)
                            for (int64_t fi = 0; fi < f; ++fi) {
                              const float gv = pg[(bi * t + ti) * f + fi];
                              if (gv == 0.0f) continue;
                              const float* wrow = pw2 + fi * h * d;
                              float* xrow = pd + (bi * n + ti) * d;
                              for (int64_t e = 0; e < h * d; ++e)
                                xrow[e] += gv * wrow[e];
                            }
                      });
          AccumulateGrad(xn, std::move(dx));
        }
      });
}

}  // namespace autograd
}  // namespace slime
