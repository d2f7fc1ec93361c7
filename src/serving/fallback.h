#ifndef SLIME4REC_SERVING_FALLBACK_H_
#define SLIME4REC_SERVING_FALLBACK_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "serving/recommendation_service.h"

namespace slime {
namespace serving {

/// Last rung of the degradation ladder: a model-free ranker that orders
/// items by training-data interaction count. O(num_items) per request, no
/// tensor work, no dependence on the (possibly reloading or deadline-blown)
/// model — it can always answer, just not personally. Ties rank lower item
/// id first, matching TopKFromScores, so fallback responses are as
/// deterministic as model responses.
class PopularityFallback {
 public:
  /// An empty fallback; Available() is false and Recommend must not be
  /// called. Lets a ModelServer be configured without one.
  PopularityFallback() = default;

  /// Builds from per-item interaction counts; `counts[i]` is the count for
  /// item id i (index 0, the padding pseudo-item, is ignored).
  static PopularityFallback FromCounts(const std::vector<int64_t>& counts);

  /// Builds from the training regions of a split (the same counts MostPop
  /// uses), so fallback rankings never leak validation/test items.
  static PopularityFallback FromSplit(const data::SplitDataset& split);

  bool Available() const { return !scores_.empty(); }
  /// Catalogue size this fallback was built for (0 when unavailable).
  int64_t num_items() const {
    return scores_.empty() ? 0 : static_cast<int64_t>(scores_.size()) - 1;
  }

  /// Ranked top-K by popularity, honouring exclude_seen exactly like the
  /// model path. History entries outside the catalogue are ignored rather
  /// than rejected: the fallback is the tier that must not fail.
  std::vector<Recommendation> Recommend(const std::vector<int64_t>& history,
                                        const RecommendOptions& options) const;

 private:
  std::vector<float> scores_;  // (num_items + 1), index 0 unused
};

}  // namespace serving
}  // namespace slime

#endif  // SLIME4REC_SERVING_FALLBACK_H_
