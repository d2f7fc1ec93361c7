#include "models/cl4srec.h"

#include <algorithm>
#include <cmath>

namespace slime {
namespace models {
namespace augment {

std::vector<int64_t> Crop(const std::vector<int64_t>& seq, double eta,
                          Rng* rng) {
  const int64_t n = static_cast<int64_t>(seq.size());
  if (n <= 1) return seq;
  const int64_t keep = std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(eta * static_cast<double>(n))));
  const int64_t start = rng->UniformInt(0, n - keep);
  return std::vector<int64_t>(seq.begin() + start, seq.begin() + start + keep);
}

std::vector<int64_t> Mask(const std::vector<int64_t>& seq, double gamma,
                          Rng* rng) {
  std::vector<int64_t> out = seq;
  for (auto& v : out) {
    if (rng->Bernoulli(gamma)) v = 0;
  }
  return out;
}

std::vector<int64_t> Reorder(const std::vector<int64_t>& seq, double beta,
                             Rng* rng) {
  const int64_t n = static_cast<int64_t>(seq.size());
  if (n <= 1) return seq;
  const int64_t len = std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(beta * static_cast<double>(n))));
  const int64_t start = rng->UniformInt(0, n - len);
  std::vector<int64_t> out = seq;
  // Fisher-Yates over the window.
  for (int64_t i = len - 1; i > 0; --i) {
    const int64_t j = rng->Uniform(i + 1);
    std::swap(out[start + i], out[start + j]);
  }
  return out;
}

}  // namespace augment

std::vector<int64_t> Cl4SRec::Augment(const std::vector<int64_t>& seq) {
  switch (rng_.Uniform(3)) {
    case 0:
      return augment::Crop(seq, 0.6, &rng_);
    case 1:
      return augment::Mask(seq, 0.3, &rng_);
    default:
      return augment::Reorder(seq, 0.6, &rng_);
  }
}

autograd::Variable Cl4SRec::EncodeAugmented(
    const std::vector<std::vector<int64_t>>& raw) {
  const int64_t n = config_.max_len;
  std::vector<int64_t> ids;
  ids.reserve(raw.size() * n);
  for (const auto& seq : raw) {
    const std::vector<int64_t> padded = data::PadTruncate(Augment(seq), n);
    ids.insert(ids.end(), padded.begin(), padded.end());
  }
  return EncodeLast(ids, static_cast<int64_t>(raw.size()));
}

std::optional<std::pair<autograd::Variable, autograd::Variable>>
Cl4SRec::ContrastiveViews(const data::Batch& batch) {
  autograd::Variable v1 = EncodeAugmented(batch.raw_prefixes);
  autograd::Variable v2 = EncodeAugmented(batch.raw_prefixes);
  return std::make_pair(v1, v2);
}

}  // namespace models
}  // namespace slime
