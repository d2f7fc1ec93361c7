#ifndef SLIME4REC_SERVING_RECOMMENDATION_SERVICE_H_
#define SLIME4REC_SERVING_RECOMMENDATION_SERVICE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "models/recommender.h"

namespace slime {
namespace serving {

/// One ranked recommendation.
struct Recommendation {
  int64_t item = 0;
  float score = 0.0f;
};

/// Options for a recommendation request.
struct RecommendOptions {
  int64_t top_k = 10;
  /// Drop items that already appear in the user's history (the common
  /// serving default; evaluation benches do NOT filter, matching the
  /// paper's protocol).
  bool exclude_seen = true;
};

/// Cooperative cancellation predicate: returns true once the caller wants
/// the batch abandoned (typically "deadline passed"). Evaluated from
/// multiple compute-pool threads concurrently, so it must be thread-safe
/// and cheap; a read of an atomic/FakeClock qualifies.
using CancelFn = std::function<bool()>;

/// Result of a cancellable batch call: per-user ranked lists plus which
/// users actually completed before cancellation fired.
struct PartialBatch {
  /// One entry per requested history; `lists[i]` is meaningful only where
  /// `completed[i]` is 1 (skipped users hold an empty vector).
  std::vector<std::vector<Recommendation>> lists;
  std::vector<char> completed;
  /// True if the cancel predicate was observed true at any checkpoint.
  bool cancelled = false;
};

/// Serving wrapper over any trained SequentialRecommender: takes raw user
/// histories, handles padding/truncation and batching, and returns ranked
/// top-K lists. It scores inside an autograd::NoGradScope: serving builds
/// no autograd graph, so activations are freed layer by layer and rankings
/// are bit-identical to a graph-building ScoreAll on the same model.
///
/// The model must be in eval mode (`SetTraining(false)`) before the first
/// call, and the service never changes it. Every call SLIME_CHECKs the
/// mode, so serving a model that is in the middle of Trainer::Fit (which
/// trains in training mode) fails loudly instead of ranking with dropout
/// on.
///
/// Requests are untrusted input: malformed histories (item ids outside
/// [1, num_items], empty histories) and non-positive top_k are rejected
/// with Status::InvalidArgument rather than crossing into the model, where
/// an out-of-range id would index out of bounds. A model that scores by
/// user id (needs_user_ids()) is rejected the same way, since a request
/// carries only a history. An empty batch is valid and yields an empty
/// result.
///
/// Thread-safety contract (the fan-out inside RecommendBatch uses the
/// compute pool, but that changes nothing for callers):
///  - A call parallelises *internally* across the compute pool
///    (ScoreAll's kernels plus the per-user top-K extraction), with the
///    deterministic work split of compute::ParallelFor, so results are
///    bit-identical at any thread count.
///  - Calls on the same underlying model must be *externally* serialised:
///    SequentialRecommender::ScoreAll makes no promise of re-entrancy.
///    ModelServer's `infer_mu_` serialises the forward passes (and its
///    admission control bounds the queue) for concurrent callers.
///
/// The model pointer is non-owning; the caller keeps it alive across calls.
class RecommendationService {
 public:
  explicit RecommendationService(models::SequentialRecommender* model);

  /// Top-K for one user history (chronological item ids, 1-based).
  Result<std::vector<Recommendation>> Recommend(
      const std::vector<int64_t>& history,
      const RecommendOptions& options = {}) const;

  /// Batched variant; one ranked list per history.
  Result<std::vector<std::vector<Recommendation>>> RecommendBatch(
      const std::vector<std::vector<int64_t>>& histories,
      const RecommendOptions& options = {}) const;

  /// Batched variant with a cooperative deadline: `cancelled` is checked
  /// before the model forward pass and again before each user's top-K
  /// extraction. Once it returns true, remaining users are skipped (their
  /// `completed` slot stays 0) and the result is returned with
  /// `cancelled = true` — the caller decides whether partial results are
  /// acceptable or the request degrades to a cheaper tier. Validation
  /// failures still surface as a non-OK Result; cancellation does not.
  /// A null `cancelled` behaves exactly like RecommendBatch.
  Result<PartialBatch> RecommendBatchCancellable(
      const std::vector<std::vector<int64_t>>& histories,
      const RecommendOptions& options, const CancelFn& cancelled) const;

  int64_t num_items() const { return model_->config().num_items; }

 private:
  /// Validates one request; non-OK for any malformed history or option.
  Status Validate(const std::vector<std::vector<int64_t>>& histories,
                  const RecommendOptions& options) const;

  models::SequentialRecommender* model_;
};

/// Standalone helper: top-k (item, score) pairs from one score row
/// (column 0 = padding is always excluded), honouring an exclusion mask.
/// Equal scores rank the lower item id first — unconditionally, so a
/// ranking never depends on iteration order or thread count. A bounded
/// k-heap: the only allocation is the returned vector, whose capacity is
/// at most k.
std::vector<Recommendation> TopKFromScores(const float* row,
                                           int64_t num_items, int64_t k,
                                           const std::vector<bool>& excluded);

}  // namespace serving
}  // namespace slime

#endif  // SLIME4REC_SERVING_RECOMMENDATION_SERVICE_H_
