#ifndef SLIME4REC_TENSOR_TENSOR_OPS_H_
#define SLIME4REC_TENSOR_TENSOR_OPS_H_

#include <functional>
#include <vector>

#include "tensor/tensor.h"

namespace slime {
namespace ops {

/// Raw (non-differentiable) tensor kernels. The autograd layer composes
/// these into differentiable operations; optimizers and data code use them
/// directly.
///
/// Binary operations broadcast with NumPy right-aligned semantics: shapes
/// are aligned at the trailing dimension, and each extent must either match
/// or be 1.

/// Broadcast result shape of `a` and `b`; checks compatibility.
std::vector<int64_t> BroadcastShape(const std::vector<int64_t>& a,
                                    const std::vector<int64_t>& b);

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);

/// out += a, the same bits as Add(*out, a); a must broadcast to out's
/// shape (e.g. a bias).
void AddInPlace(Tensor* out, const Tensor& a);

/// out *= scale.
void ScaleInPlace(Tensor* out, float scale);

/// Elementwise map into a fresh tensor.
Tensor Map(const Tensor& a, const std::function<float(float)>& f);

Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);

/// Sums `t` down to `target_shape` (which must be broadcast-compatible with
/// t's shape); used to reduce gradients of broadcast operands.
Tensor ReduceTo(const Tensor& t, const std::vector<int64_t>& target_shape);

/// C = A @ B for 2-D A (m,k) and B (k,n).
Tensor MatMul(const Tensor& a, const Tensor& b);

/// C = A @ B^T for 2-D A (m,k) and B (n,k); avoids materialising B^T.
Tensor MatMulTransB(const Tensor& a, const Tensor& b);

/// C = A^T @ B for 2-D A (k,m) and B (k,n).
Tensor MatMulTransA(const Tensor& a, const Tensor& b);

/// Batched C_b = A_b @ B_b for 3-D A (B,m,k), B (B,k,n).
Tensor BatchMatMul(const Tensor& a, const Tensor& b);

/// Batched C_b = A_b @ B_b^T for 3-D A (B,m,k), B (B,n,k).
Tensor BatchMatMulTransB(const Tensor& a, const Tensor& b);

/// Batched C_b = A_b^T @ B_b for 3-D A (B,k,m), B (B,k,n).
Tensor BatchMatMulTransA(const Tensor& a, const Tensor& b);

/// Sum of all elements.
float SumAll(const Tensor& a);

/// Sum along `axis` (negative ok); keepdim retains a size-1 extent.
Tensor SumAxis(const Tensor& a, int64_t axis, bool keepdim);

/// Dot product of two same-numel tensors (flattened).
double Dot(const Tensor& a, const Tensor& b);

/// L2 norm of all elements.
double Norm(const Tensor& a);

/// True iff every element is finite (no NaN/Inf).
bool AllFinite(const Tensor& a);

}  // namespace ops
}  // namespace slime

#endif  // SLIME4REC_TENSOR_TENSOR_OPS_H_
