#ifndef SLIME4REC_DATA_SYNTHETIC_H_
#define SLIME4REC_DATA_SYNTHETIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"

namespace slime {
namespace data {

/// Configuration of the synthetic sequence generator that substitutes for
/// the paper's Amazon/MovieLens/Yelp dumps (see DESIGN.md, Substitutions).
///
/// The generator realises the paper's own Figure-1 story: every user
/// interleaves several "interest tracks", each a (category, period, phase)
/// triple. A track emits one item every `period` time steps, walking a
/// deterministic within-category successor chain with probability
/// `markov_strength` (otherwise jumping to a Zipf-popular item of the same
/// category). Tracks with small periods are the user's high-frequency
/// behaviours (clothes-like), large periods the low-frequency ones
/// (electronics-like). A fraction `noise_prob` of emissions is replaced by
/// a noise item: 70% of them a random item of the track's own category,
/// the rest uniform over the catalogue. Users belong to preference
/// clusters that share category subsets, giving contrastive methods
/// semantically similar sequences across users.
struct SyntheticConfig {
  std::string name = "synthetic";
  int64_t num_users = 1000;
  int64_t num_items = 400;
  int64_t num_categories = 10;
  /// User preference clusters; categories are dealt to clusters
  /// round-robin and each user samples tracks from its cluster's
  /// categories.
  int64_t num_clusters = 8;
  /// Number of concurrent interest tracks per user, sampled uniformly.
  int64_t min_tracks = 2;
  int64_t max_tracks = 4;
  /// Candidate emission periods (in time steps) for tracks.
  std::vector<int64_t> periods = {1, 2, 3, 4, 6, 8};
  /// Target sequence lengths, sampled uniformly per user.
  int64_t min_len = 5;
  int64_t max_len = 15;
  /// Probability an emitted item is replaced by a noise item.
  double noise_prob = 0.15;
  /// Probability a track follows its category successor chain instead of
  /// jumping to a Zipf-popular category item.
  double markov_strength = 0.8;
  /// Zipf exponent for within-category popularity.
  double zipf_exponent = 1.2;
  uint64_t seed = 42;
};

/// Generates a dataset from `config`; deterministic for a given seed.
InteractionDataset GenerateSynthetic(const SyntheticConfig& config);

/// Scaled-down presets mirroring the relative character of the paper's five
/// benchmarks (Table I): sparsity ordering, sequence-length ordering, and
/// the dense-vs-sparse contrast between ML-1M and the Amazon sets.
/// `scale` multiplies the number of users (benches expose it through the
/// SLIME_BENCH_SCALE environment variable).
SyntheticConfig BeautySimConfig(double scale = 1.0);
SyntheticConfig ClothingSimConfig(double scale = 1.0);
SyntheticConfig SportsSimConfig(double scale = 1.0);
SyntheticConfig Ml1mSimConfig(double scale = 1.0);
SyntheticConfig YelpSimConfig(double scale = 1.0);

/// All five presets in the paper's column order.
std::vector<SyntheticConfig> AllPresets(double scale = 1.0);

}  // namespace data
}  // namespace slime

#endif  // SLIME4REC_DATA_SYNTHETIC_H_
