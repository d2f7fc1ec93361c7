#include "serving/fallback.h"

#include <algorithm>

#include "common/macros.h"

namespace slime {
namespace serving {

PopularityFallback PopularityFallback::FromCounts(
    const std::vector<int64_t>& counts) {
  SLIME_CHECK_GE(counts.size(), 2u);  // item 0 is padding; need >= 1 item
  PopularityFallback fallback;
  fallback.scores_.resize(counts.size());
  for (size_t i = 1; i < counts.size(); ++i) {
    fallback.scores_[i] = static_cast<float>(counts[i]);
  }
  fallback.scores_[0] = 0.0f;
  return fallback;
}

PopularityFallback PopularityFallback::FromSplit(
    const data::SplitDataset& split) {
  std::vector<int64_t> counts(split.num_items() + 1, 0);
  for (const auto& region : split.train_region()) {
    for (int64_t item : region) {
      if (item >= 1 && item <= split.num_items()) ++counts[item];
    }
  }
  return FromCounts(counts);
}

std::vector<Recommendation> PopularityFallback::Recommend(
    const std::vector<int64_t>& history,
    const RecommendOptions& options) const {
  SLIME_CHECK(Available());
  const int64_t n = num_items();
  std::vector<bool> excluded(n + 1, false);
  if (options.exclude_seen) {
    for (int64_t item : history) {
      if (item >= 1 && item <= n) excluded[item] = true;
    }
  }
  return TopKFromScores(scores_.data(), n, std::max<int64_t>(0, options.top_k),
                        excluded);
}

}  // namespace serving
}  // namespace slime
