#include "data/synthetic.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace slime {
namespace data {
namespace {

/// Fraction of noise drawn from the emitting track's own category
/// (confusable noise: wrong item, plausible content) instead of uniformly
/// over the catalogue. Real interaction noise is mostly in-interest:
/// accidental clicks land on related items.
constexpr double kCategoryNoiseFraction = 0.7;

/// Contiguous item-id range [first, last] of one category (1-based ids).
struct CategoryRange {
  int64_t first = 0;
  int64_t last = 0;
  int64_t size() const { return last - first + 1; }
};

std::vector<CategoryRange> PartitionItems(int64_t num_items,
                                          int64_t num_categories) {
  std::vector<CategoryRange> ranges(num_categories);
  const int64_t base = num_items / num_categories;
  const int64_t extra = num_items % num_categories;
  int64_t next = 1;
  for (int64_t c = 0; c < num_categories; ++c) {
    const int64_t sz = base + (c < extra ? 1 : 0);
    ranges[c] = {next, next + sz - 1};
    next += sz;
  }
  return ranges;
}

/// One interleaved interest track of a user.
struct Track {
  int64_t category = 0;
  int64_t period = 1;
  int64_t phase = 0;
  int64_t current_item = 0;
};

}  // namespace

InteractionDataset GenerateSynthetic(const SyntheticConfig& config) {
  SLIME_CHECK_GE(config.num_categories, 1);
  SLIME_CHECK_GE(config.num_clusters, 1);
  SLIME_CHECK_GE(config.min_len, 3);
  SLIME_CHECK_LE(config.min_len, config.max_len);
  SLIME_CHECK(!config.periods.empty());
  SLIME_CHECK_GE(config.num_items, config.num_categories);

  Rng rng(config.seed);
  const std::vector<CategoryRange> categories =
      PartitionItems(config.num_items, config.num_categories);

  // Deal categories to clusters round-robin; each cluster prefers the
  // categories dealt to it.
  std::vector<std::vector<int64_t>> cluster_categories(config.num_clusters);
  for (int64_t c = 0; c < config.num_categories; ++c) {
    cluster_categories[c % config.num_clusters].push_back(c);
  }
  // Guarantee every cluster has at least one category.
  for (int64_t k = 0; k < config.num_clusters; ++k) {
    if (cluster_categories[k].empty()) {
      cluster_categories[k].push_back(k % config.num_categories);
    }
  }

  // Zipf popularity weights, shared shape across categories.
  std::vector<std::vector<double>> zipf(config.num_categories);
  for (int64_t c = 0; c < config.num_categories; ++c) {
    zipf[c].resize(categories[c].size());
    for (int64_t i = 0; i < categories[c].size(); ++i) {
      zipf[c][i] = 1.0 / std::pow(static_cast<double>(i + 1),
                                  config.zipf_exponent);
    }
  }

  std::vector<std::vector<int64_t>> sequences;
  sequences.reserve(config.num_users);
  for (int64_t u = 0; u < config.num_users; ++u) {
    const int64_t cluster = rng.Uniform(config.num_clusters);
    const auto& prefs = cluster_categories[cluster];

    const int64_t num_tracks =
        rng.UniformInt(config.min_tracks, config.max_tracks);
    std::vector<Track> tracks(num_tracks);
    for (auto& tr : tracks) {
      tr.category = prefs[rng.Uniform(prefs.size())];
      tr.period = config.periods[rng.Uniform(config.periods.size())];
      tr.phase = rng.Uniform(tr.period);
      const auto& range = categories[tr.category];
      tr.current_item =
          range.first + rng.Categorical(zipf[tr.category]);
    }

    const int64_t target_len = rng.UniformInt(config.min_len, config.max_len);
    // Sequences are generated *end-anchored*: position j counts back from
    // the most recent interaction, and a period-p track emits at every
    // j % p == 0. Because evaluation right-aligns sequences (left
    // zero-padding, Eq. 1), this makes a track's emissions occupy the same
    // padded-position residue class for every user — the cross-user
    // positional regularity that gives the frequency spectrum its meaning
    // (the paper's Figure 1: each behaviour lives at its own frequency).
    // Items within a track follow the category successor chain through
    // time, so walking backwards emits predecessors.
    std::vector<int64_t> reversed;
    reversed.reserve(target_len);
    for (int64_t j = 0; j < target_len; ++j) {
      // The rarest (largest-period) track due at this offset wins the slot;
      // the most frequent track is the fallback filler.
      Track* chosen = nullptr;
      for (auto& tr : tracks) {
        if (j % tr.period != 0) continue;
        if (chosen == nullptr || tr.period > chosen->period) chosen = &tr;
      }
      if (chosen == nullptr) {
        for (auto& tr : tracks) {
          if (chosen == nullptr || tr.period < chosen->period) chosen = &tr;
        }
      }
      const auto& range = categories[chosen->category];
      int64_t emitted = chosen->current_item;
      if (rng.Bernoulli(config.noise_prob)) {
        if (rng.Bernoulli(kCategoryNoiseFraction)) {
          // Confusable noise: a random item of the same category.
          emitted = rng.UniformInt(range.first, range.last);
        } else {
          emitted = rng.UniformInt(1, config.num_items);
        }
      }
      reversed.push_back(emitted);
      // Step the track back in time: predecessor on the chain with prob.
      // markov_strength, Zipf jump otherwise.
      if (rng.Bernoulli(config.markov_strength)) {
        chosen->current_item = chosen->current_item == range.first
                                   ? range.last
                                   : chosen->current_item - 1;
      } else {
        chosen->current_item =
            range.first + rng.Categorical(zipf[chosen->category]);
      }
    }
    std::vector<int64_t> seq(reversed.rbegin(), reversed.rend());
    // Degenerate guard: ensure the minimum length with popular items.
    while (static_cast<int64_t>(seq.size()) < config.min_len) {
      seq.push_back(rng.UniformInt(1, config.num_items));
    }
    sequences.push_back(std::move(seq));
  }
  return InteractionDataset(config.name, std::move(sequences),
                            config.num_items);
}

namespace {

int64_t Scaled(int64_t base, double scale) {
  return std::max<int64_t>(64, static_cast<int64_t>(base * scale));
}

}  // namespace

SyntheticConfig BeautySimConfig(double scale) {
  SyntheticConfig c;
  c.name = "beauty-sim";
  c.num_users = Scaled(1200, scale);
  c.num_items = 400;
  c.num_categories = 12;
  c.num_clusters = 8;
  c.min_tracks = 2;
  c.max_tracks = 4;
  c.periods = {1, 2, 3, 4, 6};
  c.min_len = 5;
  c.max_len = 16;
  c.noise_prob = 0.17;
  c.markov_strength = 0.85;
  c.zipf_exponent = 0.7;
  c.seed = 1001;
  return c;
}

SyntheticConfig ClothingSimConfig(double scale) {
  SyntheticConfig c;
  c.name = "clothing-sim";
  c.num_users = Scaled(1400, scale);
  c.num_items = 600;
  c.num_categories = 15;
  c.num_clusters = 10;
  c.min_tracks = 2;
  c.max_tracks = 4;
  c.periods = {1, 2, 3, 4, 6};
  c.min_len = 5;
  c.max_len = 12;     // shortest sequences: the paper's sparsest dataset
  c.noise_prob = 0.25;
  c.markov_strength = 0.78;
  c.zipf_exponent = 0.7;
  c.seed = 1002;
  return c;
}

SyntheticConfig SportsSimConfig(double scale) {
  SyntheticConfig c;
  c.name = "sports-sim";
  c.num_users = Scaled(1300, scale);
  c.num_items = 500;
  c.num_categories = 12;
  c.num_clusters = 8;
  c.min_tracks = 2;
  c.max_tracks = 4;
  c.periods = {1, 2, 3, 4, 6};
  c.min_len = 5;
  c.max_len = 14;
  c.noise_prob = 0.2;
  c.markov_strength = 0.82;
  c.zipf_exponent = 0.7;
  c.seed = 1003;
  return c;
}

SyntheticConfig Ml1mSimConfig(double scale) {
  SyntheticConfig c;
  c.name = "ml1m-sim";
  c.num_users = Scaled(600, scale);
  c.num_items = 300;
  c.num_categories = 10;
  c.num_clusters = 6;
  // Dense dataset: long sequences, many concurrent tracks with diverse
  // periods (the paper notes ML-1M spectra are spread over many bands).
  c.min_tracks = 3;
  c.max_tracks = 6;
  c.periods = {1, 2, 3, 4, 5, 6, 8, 12};
  c.min_len = 30;
  c.max_len = 90;
  c.noise_prob = 0.13;
  c.markov_strength = 0.85;
  c.zipf_exponent = 0.7;
  c.seed = 1004;
  return c;
}

SyntheticConfig YelpSimConfig(double scale) {
  SyntheticConfig c;
  c.name = "yelp-sim";
  c.num_users = Scaled(1200, scale);
  c.num_items = 450;
  c.num_categories = 12;
  c.num_clusters = 8;
  c.min_tracks = 2;
  c.max_tracks = 5;
  c.periods = {1, 2, 3, 4, 6, 8};
  c.min_len = 5;
  c.max_len = 16;
  c.noise_prob = 0.27;  // noisiest: business check-ins are erratic
  c.markov_strength = 0.75;
  c.zipf_exponent = 0.7;
  c.seed = 1005;
  return c;
}

std::vector<SyntheticConfig> AllPresets(double scale) {
  return {BeautySimConfig(scale), ClothingSimConfig(scale),
          SportsSimConfig(scale), Ml1mSimConfig(scale),
          YelpSimConfig(scale)};
}

}  // namespace data
}  // namespace slime
