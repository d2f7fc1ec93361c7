#include "reference_ops.h"

#include <memory>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/macros.h"
#include "compute/kernels.h"

namespace slime {
namespace reference {
namespace {

/// True if `bsh` equals the trailing dims of `ash` (so b tiles a as a
/// repeated suffix block).
bool IsSuffixShape(const std::vector<int64_t>& ash,
                   const std::vector<int64_t>& bsh) {
  if (bsh.size() > ash.size()) return false;
  const size_t off = ash.size() - bsh.size();
  for (size_t i = 0; i < bsh.size(); ++i) {
    if (bsh[i] != ash[off + i]) return false;
  }
  return true;
}

}  // namespace

Tensor TransposeLastTwo(const Tensor& a) {
  SLIME_CHECK_MSG(a.dim() >= 2, "TransposeLastTwo needs rank >= 2, got "
                                    << ShapeToString(a.shape()));
  std::vector<int64_t> shape = a.shape();
  std::swap(shape[shape.size() - 1], shape[shape.size() - 2]);
  Tensor out(shape);
  const int64_t rows = a.size(-2);
  const int64_t cols = a.size(-1);
  const int64_t mat = rows * cols;
  const int64_t batch = a.numel() / mat;
  for (int64_t b = 0; b < batch; ++b) {
    const float* src = a.data() + b * mat;
    float* dst = out.data() + b * mat;
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t c = 0; c < cols; ++c) dst[c * rows + r] = src[r * cols + c];
    }
  }
  return out;
}

fft::SpectralPair ComplexMul(const fft::SpectralPair& a,
                             const fft::SpectralPair& b) {
  const Tensor& ar = a.re.value();
  const Tensor& ai = a.im.value();
  const Tensor& br = b.re.value();
  const Tensor& bi = b.im.value();
  SLIME_CHECK(ar.shape() == ai.shape());
  SLIME_CHECK(br.shape() == bi.shape());
  SLIME_CHECK(IsSuffixShape(ar.shape(), br.shape()) && br.numel() > 0);
  const int64_t block = br.numel();
  const int64_t repeats = ar.numel() / block;
  Tensor re(ar.shape());
  Tensor im(ar.shape());
  compute::Dispatch().complex_mul(ar.data(), ai.data(), br.data(),
                                  bi.data(), re.data(), im.data(), repeats,
                                  block);
  const std::vector<std::shared_ptr<autograd::Node>> parents = {
      a.re.node(), a.im.node(), b.re.node(), b.im.node()};
  // re = ar*br - ai*bi and im = ar*bi + ai*br. For the cotangent g of re:
  // d_ar = g*br, d_ai = -(g*bi), d_br = sum g*ar, d_bi = -(sum g*ai); for
  // that of im: d_ar = g*bi, d_ai = g*br, d_br = sum g*ai, d_bi = sum g*ar.
  // b's sums run over the repeats in ascending order.
  const auto backward = [=](bool imag) {
    return [=](const Tensor& g) {
      Tensor dar(ar.shape());
      Tensor dai(ai.shape());
      Tensor dbr(br.shape());
      Tensor dbi(bi.shape());
      for (int64_t j = 0; j < block; ++j) {
        float acc_r = 0.0f;
        float acc_i = 0.0f;
        for (int64_t r = 0; r < repeats; ++r) {
          const int64_t f = r * block + j;
          const float gv = g.data()[f];
          dar.data()[f] = gv * (imag ? bi : br).data()[j];
          dai.data()[f] = imag ? gv * br.data()[j] : -(gv * bi.data()[j]);
          acc_r += gv * ar.data()[f];
          acc_i += gv * ai.data()[f];
        }
        dbr.data()[j] = imag ? acc_i : acc_r;
        dbi.data()[j] = imag ? acc_r : -acc_i;
      }
      autograd::AccumulateGrad(parents[0], dar);
      autograd::AccumulateGrad(parents[1], dai);
      autograd::AccumulateGrad(parents[2], dbr);
      autograd::AccumulateGrad(parents[3], dbi);
    };
  };
  return {autograd::MakeOpVariable(std::move(re), parents, backward(false)),
          autograd::MakeOpVariable(std::move(im), parents, backward(true))};
}

autograd::Variable FeedForwardChain(
    const autograd::Variable& x, const std::vector<autograd::Variable>& params,
    float p, bool training, Rng* rng) {
  using namespace autograd;
  SLIME_CHECK_EQ(params.size(), 4u);
  const int64_t dim = x.shape().back();
  const int64_t hidden = params[0].shape()[1];
  std::vector<int64_t> hidden_shape = x.shape();
  hidden_shape.back() = hidden;
  Variable h = Reshape(
      Add(MatMul(Reshape(x, {-1, dim}), params[0]), params[1]), hidden_shape);
  h = Dropout(Gelu(h), p, training, rng);
  h = Add(MatMul(Reshape(h, {-1, hidden}), params[2]), params[3]);
  return Dropout(Reshape(h, x.shape()), p, training, rng);
}

}  // namespace reference
}  // namespace slime
