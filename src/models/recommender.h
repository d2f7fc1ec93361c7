#ifndef SLIME4REC_MODELS_RECOMMENDER_H_
#define SLIME4REC_MODELS_RECOMMENDER_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "data/batcher.h"
#include "nn/dropout.h"
#include "nn/embedding.h"
#include "nn/layer_norm.h"
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

/// The next-item head that SLIME4Rec (Eqs. 31-36) shares with its
/// closest baselines: a (B, d) user vector h scores every item through the
/// tied item-embedding matrix, training minimises next-item cross-entropy
/// on those logits, and a model with two contrastive views adds
/// cl_weight * InfoNCE(view1, view2). A model supplies only UserVector and,
/// when it has them, ContrastiveViews.
class NextItemRecommender : public SequentialRecommender {
 public:
  /// CE(PredictLogits(UserVector(batch)), targets), plus cl_weight *
  /// InfoNCE over ContrastiveViews(batch) when the model has views. The
  /// passes run in the order h, view1, view2, so every dropout draw
  /// follows the one before.
  autograd::Variable Loss(const data::Batch& batch) override;

  /// Scores (B, num_items + 1): UserVector + PredictLogits over consecutive
  /// groups of ScoreGroupSize() sequences, each group's rows written into
  /// the one output (a batch of one group returns its logits as they are).
  /// Peak activations are O(G * N * d) plus the B x |V| output, not
  /// O(B * N * d). Every op treats sequences independently,
  /// so in eval mode the scores equal one whole-batch pass bit for bit, in
  /// graph and no-grad mode alike. (In training mode a group's dropout
  /// draws follow the previous group's, not the whole batch's.)
  Tensor ScoreAll(const data::Batch& batch) override;

  /// G = max(1, floor(2^17 / (N * d))): the sequences whose (G, N, d)
  /// activation fits a 512 KB budget, so one ScoreAll group stays
  /// cache-sized. Fixed by the model's shape: 10 at (N, d) = (200, 64).
  int64_t ScoreGroupSize() const;

  /// Recommendation logits over the item vocabulary (Eq. 31, pre-softmax):
  /// h (B, d) times the item embedding matrix, (B, vocab).
  autograd::Variable PredictLogits(const autograd::Variable& h) const;

  const nn::Embedding& item_embedding() const { return *item_emb_; }

  /// The user representation h of each sequence in `batch`, (B, d): the
  /// one pass that Loss and each ScoreAll group run.
  virtual autograd::Variable UserVector(const data::Batch& batch) = 0;

 protected:
  /// Registers item_emb, `vocab` rows initialised from rng_, before any
  /// parameter of the model.
  NextItemRecommender(const ModelConfig& config, int64_t vocab);

  /// The two views whose InfoNCE (Eqs. 33-34) joins the loss; none by
  /// default.
  virtual std::optional<std::pair<autograd::Variable, autograd::Variable>>
  ContrastiveViews(const data::Batch& batch) {
    (void)batch;
    return std::nullopt;
  }

  /// The embedding layer of Eqs. 9-10, SASRec's, which FMLP-Rec and
  /// SLIME4Rec share: item plus learned positional embedding, LayerNorm,
  /// dropout.
  struct EmbeddingStem {
    std::shared_ptr<nn::Embedding> item_emb;
    autograd::Variable pos_emb;  // (N, d)
    std::shared_ptr<nn::LayerNorm> norm;
    std::shared_ptr<nn::Dropout> dropout;

    /// `input_ids` is a flat (batch_size * N) buffer; returns (B, N, d),
    /// the dropout drawing from `rng`.
    autograd::Variable Forward(const std::vector<int64_t>& input_ids,
                               int64_t batch_size, Rng* rng) const;
  };

  /// Registers the rest of the stem on this model as pos_emb, emb_norm and
  /// emb_dropout, initialised from rng_ in that order, around item_emb.
  EmbeddingStem RegisterEmbeddingStem();

  std::shared_ptr<nn::Embedding> item_emb_;
};

}  // namespace models
}  // namespace slime

#endif  // SLIME4REC_MODELS_RECOMMENDER_H_
