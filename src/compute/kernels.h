#ifndef SLIME4REC_COMPUTE_KERNELS_H_
#define SLIME4REC_COMPUTE_KERNELS_H_

#include <cstdint>

namespace slime {
namespace compute {

/// Raw compute kernels over contiguous row-major float buffers. These are
/// the default implementations behind the Dispatch() registry: blocked over
/// a fixed, thread-count-independent work split via ParallelFor, so every
/// kernel is bit-identical at any thread count (see thread_pool.h).
///
/// `matmul` accumulates into C, so its C must hold the addend (Tensor
/// construction zero-fills); `matmul_trans_b` overwrites C.

/// C_i(m,n) += A_i @ B_i(k,n) for `batch` items of A (m*k floats each),
/// B (k*n) and C (m*n), with A_i's element (r, kk) read at a[r*rs + kk*ks]:
/// (rs, ks) = (k, 1) for a row-major A_i(m,k), (1, m) for the transpose of
/// a row-major A_i(k,m). The layout changes only the reads, so within a
/// backend the (1, m) result is bit-identical to (k, 1) on an explicitly
/// transposed copy. Every C element accumulates in ascending k. The scalar
/// tier splits over the flattened batch x row space; the simd tier over
/// batch x 16-column tiles of C, then batch x rows of the tail columns.
void MatMulKernel(const float* a, int64_t rs, int64_t ks, const float* b,
                  float* c, int64_t batch, int64_t m, int64_t k, int64_t n);

/// C_i(m,n) = A_i(m,k) @ B_i(n,k)^T for `batch` items. Parallel over the
/// flattened batch x row space; 4-way blocked dot products inside.
void MatMulTransBKernel(const float* a, const float* b, float* c,
                        int64_t batch, int64_t m, int64_t k, int64_t n);

/// Elementwise complex multiply with suffix broadcast of b:
///   out[r*block + i] = a[r*block + i] * b[i]   (complex),
/// i.e. (ar + i*ai)(br + i*bi) laid out as separate re/im planes. `repeats`
/// is a.numel / block; pass repeats == 1 for same-shape operands.
void ComplexMulKernel(const float* ar, const float* ai, const float* br,
                      const float* bi, float* out_re, float* out_im,
                      int64_t repeats, int64_t block);

/// Sum of n floats in a double accumulator; fixed-chunk partials combined in
/// index order (kReductionGrain), deterministic for any thread count.
double SumKernel(const float* p, int64_t n);

/// Dot product of two length-n buffers, same reduction scheme as SumKernel.
double DotKernel(const float* a, const float* b, int64_t n);

/// True iff every element is finite. Order-independent conjunction.
bool AllFiniteKernel(const float* p, int64_t n);

/// Row-wise softmax over the last dim: y[r] = softmax(x[r]) for `rows` rows
/// of width `d`. Stable (max-subtracted), double partition-sum accumulator.
void SoftmaxRowsKernel(const float* x, float* y, int64_t rows, int64_t d);

/// Softmax backward from the cached output: dx[r] = y[r] * (g[r] - <g[r],
/// y[r]>) per row, dot in a double accumulator.
void SoftmaxRowsBwdKernel(const float* y, const float* g, float* dx,
                          int64_t rows, int64_t d);

/// Exact-erf GELU: y = 0.5 x (1 + erf(x / sqrt(2))).
void GeluKernel(const float* x, float* y, int64_t n);

/// GELU backward from the input: dx = g * (Phi(x) + x phi(x)).
void GeluBwdKernel(const float* x, const float* g, float* dx, int64_t n);

/// Inverted-dropout mask: out[i] = in[i] * (bit i of `bits` ? scale : 0)
/// for i < n, where bit j of word w stands for element 64 w + j. The same
/// products as multiplying by a float mask of {0, scale}, bit for bit. `out`
/// may be `in`.
void DropoutMaskKernel(const float* in, const uint64_t* bits, float scale,
                       float* out, int64_t n);

/// LayerNorm forward over `rows` rows of width `d`, caching the normalised
/// input `xhat` (rows x d) and per-row `inv_std` for the backward pass.
/// Mean/variance accumulate in double. `xhat` may be null (no backward
/// will run); `y` is the same bit for bit either way.
void LayerNormKernel(const float* x, const float* gamma, const float* beta,
                     float* y, float* xhat, float* inv_std, int64_t rows,
                     int64_t d, float eps);

/// LayerNorm input gradient: dx = inv_std * (a - mean(a) - xhat *
/// mean(a * xhat)) with a = g * gamma, row means in double.
void LayerNormBwdKernel(const float* g, const float* xhat,
                        const float* inv_std, const float* gamma, float* dx,
                        int64_t rows, int64_t d);

/// LayerNorm parameter gradients, accumulated *into* dgamma/dbeta.
/// Column-parallel: each column sums its rows in ascending order, matching
/// the serial row-major walk bit for bit. Pass dgamma == nullptr to compute
/// dbeta only.
void LayerNormParamBwdKernel(const float* g, const float* xhat, float* dgamma,
                             float* dbeta, int64_t rows, int64_t d);

/// Hyperparameters for one Adam update, bias corrections precomputed by the
/// caller (bias_corr = 1 - beta^t).
struct AdamStepParams {
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float bias_corr1 = 1.0f;
  float bias_corr2 = 1.0f;
  float lr = 1e-3f;
  float eps = 1e-8f;
};

/// One fused Adam update over n elements: moments m/v and weights w updated
/// in place from gradient g. Fully elementwise.
void AdamStepKernel(float* w, float* m, float* v, const float* g, int64_t n,
                    const AdamStepParams& p);

/// Embedding gather: out[i] = w[ids[i]] for nids rows of width d. Ids must be
/// pre-validated by the caller (kernels don't bounds-check).
void GatherRowsKernel(const float* w, const int64_t* ids, float* out,
                      int64_t nids, int64_t d);

/// Embedding scatter-add: acc[ids[i]] += g[i]. Serial in every backend:
/// duplicate ids accumulate into the same row, so a row split would race and
/// atomics would break bit-identity.
void ScatterAddRowsKernel(const float* g, const int64_t* ids, float* acc,
                          int64_t nids, int64_t d);

/// out[i] += a[i] * scale.
void AxpyKernel(float* out, const float* a, float scale, int64_t n);

/// p[i] *= scale.
void ScaleKernel(float* p, float scale, int64_t n);

/// out[i] = a[i] + b[i].
void AddKernel(const float* a, const float* b, float* out, int64_t n);

/// The kernel registry: a table of entry points the tensor/autograd/fft
/// layers route through. Alternative backends (different blocking, SIMD
/// intrinsics, an accelerator offload) register a table; everything above
/// the seam is oblivious. New ops must be added here rather than open-coded
/// in a layer (see CONTRIBUTING.md).
struct KernelTable {
  decltype(&MatMulKernel) matmul = &MatMulKernel;
  decltype(&MatMulTransBKernel) matmul_trans_b = &MatMulTransBKernel;
  decltype(&ComplexMulKernel) complex_mul = &ComplexMulKernel;
  decltype(&SumKernel) sum = &SumKernel;
  decltype(&DotKernel) dot = &DotKernel;
  decltype(&AllFiniteKernel) all_finite = &AllFiniteKernel;
  decltype(&SoftmaxRowsKernel) softmax_rows = &SoftmaxRowsKernel;
  decltype(&SoftmaxRowsBwdKernel) softmax_rows_bwd = &SoftmaxRowsBwdKernel;
  decltype(&GeluKernel) gelu = &GeluKernel;
  decltype(&GeluBwdKernel) gelu_bwd = &GeluBwdKernel;
  decltype(&DropoutMaskKernel) dropout_mask = &DropoutMaskKernel;
  decltype(&LayerNormKernel) layer_norm = &LayerNormKernel;
  decltype(&LayerNormBwdKernel) layer_norm_bwd = &LayerNormBwdKernel;
  decltype(&LayerNormParamBwdKernel) layer_norm_param_bwd =
      &LayerNormParamBwdKernel;
  decltype(&AdamStepKernel) adam_step = &AdamStepKernel;
  decltype(&GatherRowsKernel) gather_rows = &GatherRowsKernel;
  decltype(&ScatterAddRowsKernel) scatter_add_rows = &ScatterAddRowsKernel;
  decltype(&AxpyKernel) axpy = &AxpyKernel;
  decltype(&ScaleKernel) scale = &ScaleKernel;
  decltype(&AddKernel) add = &AddKernel;
};

/// Active kernel table. Defaults to the blocked ParallelFor implementations
/// above (the `scalar` backend). On first use, honours the
/// SLIME_KERNEL_BACKEND environment variable unless SetDispatch /
/// SetKernelBackend was called first (see backend.h).
const KernelTable& Dispatch();

/// Swaps the active table (e.g. to install an instrumented or experimental
/// backend); returns the previous table so callers can restore it. Not
/// thread-safe against running kernels. Marks the backend as explicitly
/// chosen, so SLIME_KERNEL_BACKEND never overrides it afterwards; the
/// ActiveKernelBackend() name is only tracked by SetKernelBackend.
KernelTable SetDispatch(const KernelTable& table);

}  // namespace compute
}  // namespace slime

#endif  // SLIME4REC_COMPUTE_KERNELS_H_
