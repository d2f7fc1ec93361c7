#ifndef SLIME4REC_MODELS_GRU4REC_H_
#define SLIME4REC_MODELS_GRU4REC_H_

#include <memory>
#include <string>

#include "models/recommender.h"
#include "nn/dropout.h"
#include "nn/gru.h"

namespace slime {
namespace models {

/// GRU4Rec (Hidasi et al. / Jannach & Ludewig): item embeddings fed through
/// a GRU; the final hidden state is the user vector of the shared
/// next-item head.
class Gru4Rec : public NextItemRecommender {
 public:
  explicit Gru4Rec(const ModelConfig& config);

  std::string name() const override { return "GRU4Rec"; }
  autograd::Variable UserVector(const data::Batch& batch) override;

 private:
  std::shared_ptr<nn::Dropout> emb_dropout_;
  std::shared_ptr<nn::Gru> gru_;
};

}  // namespace models
}  // namespace slime

#endif  // SLIME4REC_MODELS_GRU4REC_H_
