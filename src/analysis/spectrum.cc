#include "analysis/spectrum.h"

#include <cmath>

#include "common/macros.h"
#include "fft/fft.h"

#include <algorithm>
#include <unordered_map>

namespace slime {
namespace analysis {

namespace {

/// One smoothing pass: each item's code becomes the mean of its own code
/// and the codes of its top-k co-occurrence neighbours (window +/-2 in the
/// interaction sequences). Related items end up with correlated codes, so
/// periodic behaviour becomes a periodic signal.
void SmoothCodesByCooccurrence(const data::InteractionDataset& data,
                               int64_t embedding_dim,
                               std::vector<float>* code) {
  const int64_t vocab = data.num_items() + 1;
  std::vector<std::unordered_map<int64_t, int64_t>> counts(vocab);
  constexpr int64_t kWindow = 2;
  for (const auto& seq : data.sequences()) {
    const int64_t n = static_cast<int64_t>(seq.size());
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = i + 1; j <= std::min(n - 1, i + kWindow); ++j) {
        if (seq[i] == seq[j]) continue;
        ++counts[seq[i]][seq[j]];
        ++counts[seq[j]][seq[i]];
      }
    }
  }
  constexpr size_t kTopK = 8;
  std::vector<float> smoothed(*code);
  for (int64_t v = 1; v < vocab; ++v) {
    std::vector<std::pair<int64_t, int64_t>> neighbours(counts[v].begin(),
                                                        counts[v].end());
    std::partial_sort(
        neighbours.begin(),
        neighbours.begin() +
            std::min(kTopK, neighbours.size()),
        neighbours.end(), [](const auto& a, const auto& b) {
          return a.second > b.second ||
                 (a.second == b.second && a.first < b.first);
        });
    const size_t take = std::min(kTopK, neighbours.size());
    if (take == 0) continue;
    for (int64_t j = 0; j < embedding_dim; ++j) {
      double acc = (*code)[v * embedding_dim + j];
      for (size_t t = 0; t < take; ++t) {
        acc += (*code)[neighbours[t].first * embedding_dim + j];
      }
      smoothed[v * embedding_dim + j] =
          static_cast<float>(acc / static_cast<double>(take + 1));
    }
  }
  *code = std::move(smoothed);
}

}  // namespace

SpectrumProfile ComputeSpectrumProfile(const data::InteractionDataset& data,
                                       int64_t max_len,
                                       int64_t embedding_dim,
                                       uint64_t seed, bool smooth_codes) {
  SLIME_CHECK_GT(max_len, 1);
  SLIME_CHECK_GT(embedding_dim, 0);
  const int64_t bins = fft::RfftBins(max_len);
  Rng rng(seed);
  // Fixed random item code: (num_items + 1) x d, pad row zero.
  const int64_t vocab = data.num_items() + 1;
  std::vector<float> code(vocab * embedding_dim, 0.0f);
  for (int64_t v = 1; v < vocab; ++v) {
    for (int64_t j = 0; j < embedding_dim; ++j) {
      code[v * embedding_dim + j] = rng.Gaussian();
    }
  }
  if (smooth_codes) {
    SmoothCodesByCooccurrence(data, embedding_dim, &code);
  }
  SpectrumProfile profile;
  profile.amplitude.assign(bins, 0.0);
  // Each sequence's (max_len, d) code block goes through the model's rFFT
  // plan once. The sums run channel outer, bin inner: the profile's bits
  // depend on that order.
  const fft::VerticalRfftPlan& plan = fft::GetVerticalRfftPlan(max_len);
  std::vector<float> block(max_len * embedding_dim);
  std::vector<float> re(bins * embedding_dim);
  std::vector<float> im(bins * embedding_dim);
  int64_t count = 0;
  for (const auto& seq : data.sequences()) {
    const std::vector<int64_t> padded = data::PadTruncate(seq, max_len);
    for (int64_t t = 0; t < max_len; ++t) {
      std::copy_n(code.data() + padded[t] * embedding_dim, embedding_dim,
                  block.data() + t * embedding_dim);
    }
    plan.Forward(block.data(), embedding_dim, re.data(), im.data());
    for (int64_t j = 0; j < embedding_dim; ++j) {
      for (int64_t k = 0; k < bins; ++k) {
        const double r = re[k * embedding_dim + j];
        const double i = im[k * embedding_dim + j];
        profile.amplitude[k] += std::sqrt(r * r + i * i);
      }
    }
    count += embedding_dim;
  }
  SLIME_CHECK_GT(count, 0);
  double total = 0.0;
  for (auto& a : profile.amplitude) {
    a /= static_cast<double>(count);
    total += a;
  }
  profile.normalized.resize(bins);
  for (int64_t k = 0; k < bins; ++k) {
    profile.normalized[k] = total > 0 ? profile.amplitude[k] / total : 0.0;
  }
  // Band energies and entropy over the non-DC bins.
  const int64_t non_dc = bins - 1;
  if (non_dc > 0) {
    double band_total = 0.0;
    for (int64_t k = 1; k < bins; ++k) band_total += profile.amplitude[k];
    const int64_t third = std::max<int64_t>(1, non_dc / 3);
    for (int64_t k = 1; k < bins; ++k) {
      const double share =
          band_total > 0 ? profile.amplitude[k] / band_total : 0.0;
      if (k <= third) {
        profile.low_band += share;
      } else if (k <= 2 * third) {
        profile.mid_band += share;
      } else {
        profile.high_band += share;
      }
      if (share > 0) profile.entropy -= share * std::log(share);
    }
  }
  return profile;
}

}  // namespace analysis
}  // namespace slime
