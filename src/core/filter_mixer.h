#ifndef SLIME4REC_CORE_FILTER_MIXER_H_
#define SLIME4REC_CORE_FILTER_MIXER_H_

#include <memory>

#include "core/frequency_ramp.h"
#include "core/learnable_filter.h"
#include "nn/dropout.h"
#include "nn/feed_forward.h"
#include "nn/layer_norm.h"
#include "nn/module.h"

namespace slime {
namespace core {

/// Options of the filter mixer (Sec. III-B). The ablation flags map to the
/// paper's variants: use_dynamic=false is SLIME4Rec_w/oD, use_static=false
/// is SLIME4Rec_w/oS.
struct FilterMixerOptions {
  /// Dynamic filter size ratio alpha (Eq. 19), in (0, 1]. alpha = 1 with
  /// use_static = false degenerates to FMLP-Rec's global filter: every
  /// layer's DFS window then covers all M bins.
  double alpha = 0.4;
  /// Mixing coefficient gamma of Eq. 26 between DFS and SFS outputs, in
  /// [0, 1] (the layer rejects any other value).
  double gamma = 0.5;
  bool use_dynamic = true;
  bool use_static = true;
  /// Slide directions (Table IV); mode 4 ("<-", "<-") is the paper's best.
  SlideDirection dynamic_direction = SlideDirection::kHighToLow;
  SlideDirection static_direction = SlideDirection::kHighToLow;
};

/// Which sequence positions a forward pass returns. kLast keeps only
/// position N-1 from the inverse FFT on, as a (B, 1, d) tensor: the rFFT
/// mixes all N positions, but every op after the irFFT treats positions
/// independently, so row N-1 comes out bit-identical to kAll's. In
/// training each dropout after the irFFT still draws its mask over all N
/// rows and keeps row N-1's bits, so the generator ends where kAll leaves
/// it and the row's value and gradients keep every bit.
enum class Positions { kAll, kLast };

/// One filter-mixer sublayer (the self-attention replacement): FFT ->
/// DFS/SFS filtering with the frequency-ramp windows and their gamma mix
/// (Eqs. 21, 25, 26) as one fft::FilterMix op, in training and in serving
/// -> inverse FFT -> dropout + residual + LayerNorm (Eq. 28).
class FilterMixerLayer : public nn::Module {
 public:
  FilterMixerLayer(int64_t seq_len, int64_t dim, int64_t num_layers,
                   int64_t layer_index, const FilterMixerOptions& options,
                   float dropout, Rng* rng);

  /// x: (B, N, d) time-domain features H^l; returns H-hat^l (Eq. 28) at
  /// `positions`.
  autograd::Variable Forward(const autograd::Variable& x, Rng* rng,
                             Positions positions = Positions::kAll) const;

  const LearnableFilter& dynamic_filter() const { return *dynamic_filter_; }
  const LearnableFilter& static_filter() const { return *static_filter_; }
  FilterWindow dynamic_window() const { return dynamic_window_; }
  FilterWindow static_window() const { return static_window_; }

  /// Amplitude of the learned filter restricted to its window, shape
  /// (M, d); rows outside the window are zero. Fig. 7's heatmaps.
  Tensor MaskedDynamicAmplitude() const;
  Tensor MaskedStaticAmplitude() const;

 private:
  int64_t seq_len_;
  FilterMixerOptions options_;
  FilterWindow dynamic_window_;
  FilterWindow static_window_;
  Tensor dynamic_mask_;  // undefined when the window covers all M bins
  Tensor static_mask_;
  std::shared_ptr<LearnableFilter> dynamic_filter_;
  std::shared_ptr<LearnableFilter> static_filter_;
  std::shared_ptr<nn::Dropout> dropout_;
  std::shared_ptr<nn::LayerNorm> layer_norm_;
};

/// A full encoder block: filter mixer followed by the point-wise FFN with
/// the densely residual combination of Eq. 30:
///   H^{l+1} = LayerNorm(H^l + H-hat^l + Dropout(FFN(H-hat^l))).
class FilterMixerBlock : public nn::Module {
 public:
  FilterMixerBlock(int64_t seq_len, int64_t dim, int64_t num_layers,
                   int64_t layer_index, const FilterMixerOptions& options,
                   float dropout, Rng* rng);

  /// x: (B, N, d); returns H^{l+1} at `positions`. With kLast the dropout
  /// layers after the irFFT keep B*d mask bits but draw all B*N*d numbers
  /// from `rng`, as kAll does.
  autograd::Variable Forward(const autograd::Variable& x, Rng* rng,
                             Positions positions = Positions::kAll) const;

  const FilterMixerLayer& mixer() const { return *mixer_; }

 private:
  std::shared_ptr<FilterMixerLayer> mixer_;
  std::shared_ptr<nn::FeedForward> ffn_;
  std::shared_ptr<nn::LayerNorm> layer_norm_;
};

}  // namespace core
}  // namespace slime

#endif  // SLIME4REC_CORE_FILTER_MIXER_H_
