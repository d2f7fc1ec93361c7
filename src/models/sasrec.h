#ifndef SLIME4REC_MODELS_SASREC_H_
#define SLIME4REC_MODELS_SASREC_H_

#include <memory>
#include <string>
#include <vector>

#include "models/recommender.h"
#include "nn/attention.h"
#include "nn/feed_forward.h"

namespace slime {
namespace models {

/// SASRec (Kang & McAuley, ICDM'18): causal multi-head self-attention
/// encoder whose last position is the user vector of the shared next-item
/// head. Also the backbone that CL4SRec, CoSeRec, DuoRec, ContrastVAE and
/// BERT4Rec subclass.
class SasRec : public NextItemRecommender {
 public:
  explicit SasRec(const ModelConfig& config);

  std::string name() const override { return "SASRec"; }

  /// Encoder: embedding + L attention blocks (causal for SASRec); (B, N, d).
  autograd::Variable Encode(const std::vector<int64_t>& input_ids,
                            int64_t batch_size);

  /// Last-position representation (B, d).
  autograd::Variable EncodeLast(const std::vector<int64_t>& input_ids,
                                int64_t batch_size);

  autograd::Variable UserVector(const data::Batch& batch) override {
    return EncodeLast(batch.input_ids, batch.size);
  }

 protected:
  /// The encoder with `causal` attention over a `vocab`-row item embedding;
  /// SASRec is (causal, num_items + 1).
  SasRec(const ModelConfig& config, bool causal, int64_t vocab);

  bool causal_;
  EmbeddingStem stem_;
  struct Block {
    std::shared_ptr<nn::MultiHeadSelfAttention> attn;
    std::shared_ptr<nn::LayerNorm> attn_norm;
    std::shared_ptr<nn::FeedForward> ffn;
    std::shared_ptr<nn::LayerNorm> ffn_norm;
  };
  std::vector<Block> blocks_;
};

}  // namespace models
}  // namespace slime

#endif  // SLIME4REC_MODELS_SASREC_H_
