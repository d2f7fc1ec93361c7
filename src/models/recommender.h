#ifndef SLIME4REC_MODELS_RECOMMENDER_H_
#define SLIME4REC_MODELS_RECOMMENDER_H_

#include <string>

#include "autograd/variable.h"
#include "data/batcher.h"
#include "nn/module.h"

namespace slime {
namespace models {

/// Hyper-parameters shared by every sequential model in the zoo. Slime4Rec
/// extends this with its filter options (core/slime4rec.h).
struct ModelConfig {
  int64_t num_items = 0;   // real items; ids 1..num_items, 0 = padding
  int64_t num_users = 0;   // needed by BPR-MF and Caser
  int64_t max_len = 32;    // N, the truncation length (Eq. 1)
  int64_t hidden_dim = 32;  // d
  int64_t num_layers = 2;   // L
  int64_t num_heads = 2;    // attention heads (SASRec family)
  float dropout = 0.2f;
  float emb_dropout = 0.2f;
  /// Contrastive-learning strength lambda (Eq. 36) and InfoNCE temperature.
  float cl_weight = 0.1f;
  float cl_temperature = 0.5f;
  uint64_t seed = 7;
};

/// Common interface of the eleven models in Table II. Training code builds
/// batches, calls Loss() in training mode (which constructs an autograd
/// graph using the model's internal RNG for dropout/augmentation),
/// backpropagates, and steps an optimizer over Parameters(). Evaluation and
/// serving call ScoreAll() in eval mode inside an autograd::NoGradScope, so
/// scoring builds no graph; implementations need not (and do not) manage
/// that themselves. Evaluation switches the mode around its own pass;
/// serving requires a model already in eval mode and never writes it (see
/// serving::RecommendationService).
class SequentialRecommender : public nn::Module {
 public:
  explicit SequentialRecommender(const ModelConfig& config)
      : config_(config), rng_(config.seed) {}

  /// The training objective for one batch (a scalar Variable).
  virtual autograd::Variable Loss(const data::Batch& batch) = 0;

  /// Scores every item for each sequence in the batch:
  /// (B, num_items + 1), column 0 being the padding pseudo-item.
  virtual Tensor ScoreAll(const data::Batch& batch) = 0;

  virtual std::string name() const = 0;

  /// Hook invoked by the trainer before the first epoch with the full
  /// training split; models that precompute dataset-level structures
  /// (e.g. CoSeRec's item-correlation table) override this.
  virtual void Prepare(const data::SplitDataset& split) { (void)split; }

  /// Whether Loss() consumes batch.positive_input_ids (DuoRec-style
  /// supervised contrastive positives); the trainer asks this to decide
  /// whether the batcher must materialise positives.
  virtual bool needs_positives() const { return false; }

  /// Whether ScoreAll() reads batch.user_ids (a learned user embedding, as
  /// in BPR-MF and Caser). Such a model cannot score a bare history, so
  /// serving, which has nothing but the history, rejects it.
  virtual bool needs_user_ids() const { return false; }

  const ModelConfig& config() const { return config_; }
  Rng* rng() { return &rng_; }

 protected:
  ModelConfig config_;
  Rng rng_;
};

}  // namespace models
}  // namespace slime

#endif  // SLIME4REC_MODELS_RECOMMENDER_H_
