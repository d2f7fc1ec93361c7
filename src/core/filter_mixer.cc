#include "core/filter_mixer.h"

#include <vector>

#include "autograd/ops.h"
#include "fft/fft.h"
#include "fft/spectral_ops.h"
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
  SLIME_CHECK_MSG(options.gamma >= 0.0 && options.gamma <= 1.0,
                  "gamma must be in [0,1], got " << options.gamma);
  const int64_t m = fft::RfftBins(seq_len);
  const FrequencyRamp ramp(m, num_layers, options.alpha,
                           options.dynamic_direction,
                           options.static_direction);
  dynamic_window_ = ramp.DynamicWindow(layer_index);
  static_window_ = ramp.StaticWindow(layer_index);
  // A window over all M bins gets no mask: multiplying by 1 changes no bit,
  // so FilterMix skips it (FMLP-Rec's alpha = 1 global filter).
  if (dynamic_window_.size() < m) {
    dynamic_mask_ = ramp.WindowMask(dynamic_window_);
  }
  if (static_window_.size() < m) {
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

/// The positions a dropout at `positions` draws its mask over: kLast's one
/// row per sequence still draws all N rows' numbers and keeps the last's
/// bits, so the generator and every kept bit match kAll's.
int64_t DrawnPositions(int64_t n, Positions positions) {
  return positions == Positions::kAll ? 1 : n;
}

}  // namespace

autograd::Variable FilterMixerLayer::Forward(const autograd::Variable& x,
                                             Rng* rng,
                                             Positions positions) const {
  using autograd::Variable;
  const int64_t n = x.size(1);
  SLIME_CHECK_EQ(n, seq_len_);
  // Eq. 12: transform to the frequency domain; Eqs. 21, 25, 26: filter the
  // spectrum with the DFS/SFS windows and mix the two by gamma.
  const float gamma = static_cast<float>(options_.gamma);
  std::vector<fft::FilterTerm> terms;
  if (dynamic_filter_) {
    terms.push_back({dynamic_filter_->weight(), dynamic_mask_, 1.0f - gamma});
  }
  if (static_filter_) {
    terms.push_back({static_filter_->weight(), static_mask_, gamma});
  }
  // Eq. 27: back to the time domain; Eq. 28: dropout + residual + LN. Each
  // activation is dropped at its last use, which frees it when no graph
  // holds it.
  Variable h = AtPositions(
      fft::Irfft(fft::FilterMix(fft::Rfft(x), terms), n), positions);
  h = dropout_->Forward(h, rng, DrawnPositions(n, positions));
  // x second: x's gradient terms then sum in the same order whether or not
  // its kLast Slice sits between, so the tail's gradients keep every bit.
  Variable sum = autograd::Add(h, AtPositions(x, positions));
  h = Variable();
  return layer_norm_->Forward(sum);
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
  Variable f = ffn_->Forward(h_hat, rng, DrawnPositions(x.size(1), positions));
  // x second, as in the mixer's residual: the order x's gradient terms sum
  // in is then the same with and without the kLast Slice.
  Variable sum = Add(h_hat, AtPositions(x, positions));
  h_hat = Variable();
  sum = Add(sum, f);
  f = Variable();
  return layer_norm_->Forward(sum);
}

}  // namespace core
}  // namespace slime
