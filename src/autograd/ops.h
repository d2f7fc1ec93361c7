#ifndef SLIME4REC_AUTOGRAD_OPS_H_
#define SLIME4REC_AUTOGRAD_OPS_H_

#include <cstdint>
#include <vector>

#include "autograd/variable.h"
#include "common/random.h"

namespace slime {
namespace autograd {

/// Differentiable operations over Variables. All binary elementwise ops
/// broadcast with NumPy right-aligned semantics; broadcast gradients are
/// reduced back to the operand's shape.

// --- Elementwise arithmetic -------------------------------------------------
Variable Add(const Variable& a, const Variable& b);
/// Add(a, b) written over `a`'s buffer when CanReuse(a) (b must broadcast
/// to a's shape); otherwise exactly Add(a, b). Same bits either way. Pass
/// `a` with std::move.
Variable AddInPlace(Variable a, const Variable& b);
Variable Sub(const Variable& a, const Variable& b);
Variable Mul(const Variable& a, const Variable& b);
Variable Div(const Variable& a, const Variable& b);
Variable Neg(const Variable& a);
Variable AddScalar(const Variable& a, float s);
Variable MulScalar(const Variable& a, float s);

/// Elementwise multiply by a constant (non-differentiated) tensor, with
/// broadcasting; used for frequency masks and attention masks.
Variable MulConst(const Variable& a, const Tensor& c);
/// Elementwise add of a constant tensor, with broadcasting.
Variable AddConst(const Variable& a, const Tensor& c);

// --- Elementwise nonlinearities ----------------------------------------------
Variable Relu(const Variable& a);
/// Exact Gaussian-error-linear-unit, matching the paper's FFN (Eq. 29).
Variable Gelu(const Variable& a);
Variable Sigmoid(const Variable& a);
Variable Tanh(const Variable& a);
Variable Exp(const Variable& a);
Variable Log(const Variable& a);
Variable Sqrt(const Variable& a);

// --- Shape manipulation ------------------------------------------------------
/// A view: the output shares `a`'s storage (and its gradient reshapes the
/// incoming one without a copy).
Variable Reshape(const Variable& a, std::vector<int64_t> shape);
/// Slice along `axis`: indices [start, end). Produces a copy.
Variable Slice(const Variable& a, int64_t axis, int64_t start, int64_t end);
/// Concatenates along `axis`.
Variable Concat(const std::vector<Variable>& vars, int64_t axis);

// --- Matrix products ----------------------------------------------------------
/// 2-D product: (m,k) @ (k,n) -> (m,n).
Variable MatMul(const Variable& a, const Variable& b);
/// 2-D product with transposed right operand: (m,k) @ (n,k)^T -> (m,n).
Variable MatMulTransB(const Variable& a, const Variable& b);
/// Batched 3-D product: (B,m,k) @ (B,k,n) -> (B,m,n).
Variable BatchMatMul(const Variable& a, const Variable& b);
/// Batched with transposed right operand: (B,m,k) @ (B,n,k)^T -> (B,m,n).
Variable BatchMatMulTransB(const Variable& a, const Variable& b);
/// Shared left operand over a batch: (m,k) @ (B,k,n) -> (B,m,n). The weight
/// gradient sums over the batch (used by Caser's vertical convolution).
Variable BroadcastMatMul(const Variable& w, const Variable& x);

// --- Reductions ----------------------------------------------------------------
/// Sum of all elements -> rank-0 scalar.
Variable Sum(const Variable& a);
/// Mean of all elements -> rank-0 scalar.
Variable Mean(const Variable& a);
/// Sum along one axis.
Variable SumAxis(const Variable& a, int64_t axis, bool keepdim);

// --- Neural-network primitives ---------------------------------------------------
/// Softmax over the last dimension.
Variable Softmax(const Variable& a);

/// Mean cross-entropy of row-wise logits against integer targets.
/// `targets.size()` must equal the number of rows; rows whose target equals
/// `ignore_index` contribute nothing (used by masked-item training).
Variable CrossEntropy(const Variable& logits,
                      const std::vector<int64_t>& targets,
                      int64_t ignore_index = -100);

/// Embedding lookup: rows of `weight` (V,d) gathered by `ids`, shaped
/// `out_shape` + [d]. Backward scatter-adds into the weight gradient.
Variable EmbeddingLookup(const Variable& weight,
                         const std::vector<int64_t>& ids,
                         std::vector<int64_t> out_shape);

/// Layer normalisation over the last dimension with affine parameters
/// `gamma`, `beta` of shape (d). The normalised input saved for backward
/// is allocated only when a graph is recorded.
Variable LayerNorm(const Variable& x, const Variable& gamma,
                   const Variable& beta, float eps = 1e-12f);

/// Inverted dropout: scales kept activations by 1/(1-p). Identity when
/// `training` is false or p == 0. Draws one `rng` number per element and
/// keeps the mask for backward as one bit per element.
///
/// `positions` > 1 marks x, such as a (B, 1, d) tail, as the last of
/// `positions` rows (along its last axis) of each sequence. The mask is then
/// drawn over all B * positions * d elements in the same order and only the
/// last row's bits are kept: output, gradient and the state `rng` is left
/// in are those of the full (B, positions, d) op at that row.
Variable Dropout(const Variable& x, float p, bool training, Rng* rng,
                 int64_t positions = 1);

/// Dropout(Gelu(pre), p, training, rng) flattened to (rows, k) and
/// multiplied by `w` (k, n): the FFN's second matmul input (Eq. 29) as one
/// op, (rows, n) out. It draws the same mask, and every output and gradient
/// has the same bits, as the chain of Gelu, Dropout, Reshape and MatMul. It
/// saves `pre`, the mask bits and `w` but not the dropout output, which
/// backward recomputes. Under a NoGradScope with CanReuse(pre), GELU and the
/// mask are written over pre's buffer. Pass `pre` with std::move.
/// `positions` draws the mask for a tail, as Dropout's does.
Variable GeluDropoutMatMul(Variable pre, const Variable& w, float p,
                           bool training, Rng* rng, int64_t positions = 1);

/// Max over axis 1 of a (B,T,F) tensor -> (B,F); used by Caser.
Variable MaxPoolAxis1(const Variable& x);

/// Valid 1-D convolution over the sequence axis for Caser's horizontal
/// filters: x (B,N,d), w (F,h,d), bias (F) -> (B, N-h+1, F).
Variable HorizontalConv(const Variable& x, const Variable& w,
                        const Variable& bias);

}  // namespace autograd
}  // namespace slime

#endif  // SLIME4REC_AUTOGRAD_OPS_H_
