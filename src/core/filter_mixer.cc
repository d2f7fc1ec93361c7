#include "core/filter_mixer.h"

#include <algorithm>
#include <vector>

#include "autograd/ops.h"
#include "compute/kernels.h"
#include "compute/thread_pool.h"
#include "fft/fft.h"
#include "tensor/tensor_ops.h"

namespace slime {
namespace core {

FilterMixerLayer::FilterMixerLayer(int64_t seq_len, int64_t dim,
                                   int64_t num_layers, int64_t layer_index,
                                   const FilterMixerOptions& options,
                                   float dropout, Rng* rng)
    : seq_len_(seq_len), options_(options) {
  SLIME_CHECK_MSG(options.use_dynamic || options.use_static,
                  "filter mixer needs at least one of DFS/SFS");
  const int64_t m = fft::RfftBins(seq_len);
  const FrequencyRamp ramp(m, num_layers, options.alpha,
                           options.dynamic_direction,
                           options.static_direction);
  dynamic_window_ = options.full_spectrum ? FilterWindow{0, m}
                                          : ramp.DynamicWindow(layer_index);
  static_window_ = options.full_spectrum ? FilterWindow{0, m}
                                         : ramp.StaticWindow(layer_index);
  if (!options.full_spectrum) {
    dynamic_mask_ = ramp.WindowMask(dynamic_window_);
    static_mask_ = ramp.WindowMask(static_window_);
  }
  if (options.use_dynamic) {
    dynamic_filter_ = RegisterModule(
        "dynamic_filter", std::make_shared<LearnableFilter>(m, dim, rng));
  }
  if (options.use_static) {
    static_filter_ = RegisterModule(
        "static_filter", std::make_shared<LearnableFilter>(m, dim, rng));
  }
  dropout_ = RegisterModule("dropout", std::make_shared<nn::Dropout>(dropout));
  layer_norm_ =
      RegisterModule("layer_norm", std::make_shared<nn::LayerNorm>(dim));
}

namespace {

/// x (B, N, d) at `positions`: itself, or its last position as (B, 1, d).
autograd::Variable AtPositions(const autograd::Variable& x,
                               Positions positions) {
  if (positions == Positions::kAll) return x;
  const int64_t n = x.size(1);
  return autograd::Slice(x, 1, n - 1, n);
}

}  // namespace

autograd::Variable FilterMixerLayer::Forward(const autograd::Variable& x,
                                             Rng* rng,
                                             Positions positions) const {
  using autograd::Variable;
  const int64_t n = x.size(1);
  SLIME_CHECK_EQ(n, seq_len_);
  // Eq. 12: transform to the frequency domain; Eqs. 21, 25, 26: filter.
  fft::SpectralPair mixed = FilterSpectrum(fft::Rfft(x));
  // Eq. 27: back to the time domain; Eq. 28: dropout + residual + LN. Each
  // activation is dropped at its last use, which frees it when no graph
  // holds it.
  Variable h = AtPositions(fft::Irfft(mixed, n), positions);
  mixed = {};
  h = dropout_->Forward(h, rng);
  Variable sum = autograd::Add(AtPositions(x, positions), h);
  h = Variable();
  return layer_norm_->Forward(sum);
}

namespace {

/// sigma (.) (X (.) W) for one plane into `out`, as LearnableFilter::Apply
/// computes it: the complex product, then the window mask row by row.
void FilterPlane(const float* xr, const float* xi,
                 const LearnableFilter& filter, const Tensor& mask, int64_t m,
                 int64_t d, float* out_re, float* out_im) {
  compute::Dispatch().complex_mul(xr, xi, filter.weight_re().value().data(),
                                  filter.weight_im().value().data(), out_re,
                                  out_im, /*repeats=*/1, m * d);
  if (!mask.defined()) return;
  const float* pm = mask.data();
  for (int64_t row = 0; row < m; ++row) {
    for (int64_t j = row * d; j < (row + 1) * d; ++j) {
      out_re[j] *= pm[row];
      out_im[j] *= pm[row];
    }
  }
}

}  // namespace

fft::SpectralPair FilterMixerLayer::FilterSpectrum(
    fft::SpectralPair spectrum) const {
  const bool both = options_.use_dynamic && options_.use_static;
  const float gamma = static_cast<float>(options_.gamma);
  if (!autograd::CanReuse(spectrum.re) || !autograd::CanReuse(spectrum.im)) {
    // The composed ops: the training path and the gradient reference.
    if (!both) {
      return options_.use_dynamic
                 ? dynamic_filter_->Apply(spectrum, dynamic_mask_)
                 : static_filter_->Apply(spectrum, static_mask_);
    }
    const fft::SpectralPair xd =
        dynamic_filter_->Apply(spectrum, dynamic_mask_);
    const fft::SpectralPair xs = static_filter_->Apply(spectrum, static_mask_);
    return fft::MixSpectra(xd, xs, gamma);
  }
  // No graph and nothing else sees the spectrum: filter and mix it over its
  // own buffers, one batch item at a time, with the composed ops' kernels
  // and rounding order, so the bits are the same.
  Tensor& re = spectrum.re.mutable_value();
  Tensor& im = spectrum.im.mutable_value();
  const int64_t m = re.size(1);
  const int64_t d = re.size(2);
  const int64_t block = m * d;
  const auto& kt = compute::Dispatch();
  float* pre = re.data();
  float* pim = im.data();
  compute::ParallelFor(
      0, re.size(0), compute::GrainForWork(8 * block),
      [&](int64_t lo, int64_t hi) {
        std::vector<float> scratch((both ? 4 : 2) * block);
        float* a_re = scratch.data();
        float* a_im = a_re + block;
        float* b_re = both ? a_im + block : nullptr;
        float* b_im = both ? b_re + block : nullptr;
        for (int64_t item = lo; item < hi; ++item) {
          float* xr = pre + item * block;
          float* xi = pim + item * block;
          if (!both) {
            const bool dyn = options_.use_dynamic;
            FilterPlane(xr, xi, dyn ? *dynamic_filter_ : *static_filter_,
                        dyn ? dynamic_mask_ : static_mask_, m, d, a_re, a_im);
            std::copy(a_re, a_re + block, xr);
            std::copy(a_im, a_im + block, xi);
            continue;
          }
          FilterPlane(xr, xi, *dynamic_filter_, dynamic_mask_, m, d, a_re,
                      a_im);
          FilterPlane(xr, xi, *static_filter_, static_mask_, m, d, b_re,
                      b_im);
          // MixSpectra: (1 - gamma) * xd + gamma * xs, each product rounded.
          for (int64_t j = 0; j < block; ++j) {
            a_re[j] *= 1.0f - gamma;
            a_im[j] *= 1.0f - gamma;
            b_re[j] *= gamma;
            b_im[j] *= gamma;
          }
          kt.add(a_re, b_re, xr, block);
          kt.add(a_im, b_im, xi, block);
        }
      });
  return spectrum;
}

namespace {

Tensor MaskedAmplitude(const LearnableFilter& filter, const Tensor& mask) {
  Tensor amp = filter.Amplitude();
  if (!mask.defined()) return amp;
  return ops::Mul(amp, mask);  // mask (M,1) broadcasts over (M,d)
}

}  // namespace

Tensor FilterMixerLayer::MaskedDynamicAmplitude() const {
  SLIME_CHECK(options_.use_dynamic);
  return MaskedAmplitude(*dynamic_filter_, dynamic_mask_);
}

Tensor FilterMixerLayer::MaskedStaticAmplitude() const {
  SLIME_CHECK(options_.use_static);
  return MaskedAmplitude(*static_filter_, static_mask_);
}

FilterMixerBlock::FilterMixerBlock(int64_t seq_len, int64_t dim,
                                   int64_t num_layers, int64_t layer_index,
                                   const FilterMixerOptions& options,
                                   float dropout, Rng* rng) {
  mixer_ = RegisterModule(
      "mixer", std::make_shared<FilterMixerLayer>(
                   seq_len, dim, num_layers, layer_index, options, dropout,
                   rng));
  ffn_ = RegisterModule("ffn",
                        std::make_shared<nn::FeedForward>(dim, dropout, rng));
  layer_norm_ =
      RegisterModule("layer_norm", std::make_shared<nn::LayerNorm>(dim));
}

autograd::Variable FilterMixerBlock::Forward(const autograd::Variable& x,
                                             Rng* rng,
                                             Positions positions) const {
  using autograd::Add;
  using autograd::Variable;
  Variable h_hat = mixer_->Forward(x, rng, positions);
  // Eq. 30: densely residual combination of block input, mixer output and
  // FFN output; FeedForward's trailing dropout realises the Dropout(...)
  // term. h_hat and f are dropped at their last use.
  Variable f = ffn_->Forward(h_hat, rng);
  Variable sum = Add(AtPositions(x, positions), h_hat);
  h_hat = Variable();
  sum = Add(sum, f);
  f = Variable();
  return layer_norm_->Forward(sum);
}

}  // namespace core
}  // namespace slime
