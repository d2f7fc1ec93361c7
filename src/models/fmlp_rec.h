#ifndef SLIME4REC_MODELS_FMLP_REC_H_
#define SLIME4REC_MODELS_FMLP_REC_H_

#include <memory>
#include <string>
#include <vector>

#include "core/filter_mixer.h"
#include "models/recommender.h"

namespace slime {
namespace models {

/// FMLP-Rec (Zhou et al., WWW'22): the all-MLP frequency baseline. Each
/// block multiplies the whole spectrum by one global learnable filter:
/// SLIME4Rec's mixer at alpha = 1 with DFS only, whose window covers all M
/// bins in every layer (the degenerate case the paper notes below Eq. 20).
/// The point-wise FFN follows with standard residual connections.
class FmlpRec : public NextItemRecommender {
 public:
  explicit FmlpRec(const ModelConfig& config);

  std::string name() const override { return "FMLP-Rec"; }

  autograd::Variable EncodeLast(const std::vector<int64_t>& input_ids,
                                int64_t batch_size);

  autograd::Variable UserVector(const data::Batch& batch) override {
    return EncodeLast(batch.input_ids, batch.size);
  }

 private:
  EmbeddingStem stem_;
  struct Block {
    std::shared_ptr<core::FilterMixerLayer> filter;
    std::shared_ptr<nn::FeedForward> ffn;
    std::shared_ptr<nn::LayerNorm> ffn_norm;
  };
  std::vector<Block> blocks_;
};

}  // namespace models
}  // namespace slime

#endif  // SLIME4REC_MODELS_FMLP_REC_H_
