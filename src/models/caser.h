#ifndef SLIME4REC_MODELS_CASER_H_
#define SLIME4REC_MODELS_CASER_H_

#include <memory>
#include <string>

#include "models/recommender.h"
#include "nn/conv.h"
#include "nn/dropout.h"
#include "nn/embedding.h"
#include "nn/linear.h"

namespace slime {
namespace models {

/// Caser (Tang & Wang, WSDM'18): treats the embedded sequence as an
/// "image" and applies horizontal convolutions (union-level patterns,
/// max-pooled over time) and vertical convolutions (point-level weighted
/// sums), concatenated with a user embedding and projected to the scoring
/// space.
class Caser : public SequentialRecommender {
 public:
  explicit Caser(const ModelConfig& config);

  autograd::Variable Loss(const data::Batch& batch) override;
  Tensor ScoreAll(const data::Batch& batch) override;
  std::string name() const override { return "Caser"; }
  bool needs_user_ids() const override { return true; }

 private:
  autograd::Variable EncodeLast(const data::Batch& batch);

  std::shared_ptr<nn::Embedding> item_emb_;
  std::shared_ptr<nn::Embedding> user_emb_;
  std::shared_ptr<nn::Dropout> dropout_;
  std::shared_ptr<nn::HorizontalConvBank> horizontal_;
  std::shared_ptr<nn::VerticalConv> vertical_;
  std::shared_ptr<nn::Linear> fc_;       // conv features -> d
  std::shared_ptr<nn::Linear> out_;      // [z ; user] -> d
};

}  // namespace models
}  // namespace slime

#endif  // SLIME4REC_MODELS_CASER_H_
