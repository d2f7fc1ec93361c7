#ifndef SLIME4REC_MODELS_CL4SREC_H_
#define SLIME4REC_MODELS_CL4SREC_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "models/sasrec.h"

namespace slime {
namespace models {

/// Sequence-level data augmentations of CL4SRec (Xie et al., ICDE'22).
namespace augment {

/// Keeps a random contiguous sub-sequence of relative length `eta`.
std::vector<int64_t> Crop(const std::vector<int64_t>& seq, double eta,
                          Rng* rng);

/// Replaces a random `gamma` fraction of items with the padding id 0.
std::vector<int64_t> Mask(const std::vector<int64_t>& seq, double gamma,
                          Rng* rng);

/// Shuffles a random contiguous sub-sequence of relative length `beta`.
std::vector<int64_t> Reorder(const std::vector<int64_t>& seq, double beta,
                             Rng* rng);

}  // namespace augment

/// CL4SRec: SASRec plus an InfoNCE objective between two data-augmented
/// views (crop / mask / reorder, one picked at random per view).
class Cl4SRec : public SasRec {
 public:
  explicit Cl4SRec(const ModelConfig& config) : SasRec(config) {}

  std::string name() const override { return "CL4SRec"; }

 protected:
  /// Two EncodeAugmented passes over the raw prefixes.
  std::optional<std::pair<autograd::Variable, autograd::Variable>>
  ContrastiveViews(const data::Batch& batch) override;

  /// Applies one of the augmentation operators chosen uniformly.
  virtual std::vector<int64_t> Augment(const std::vector<int64_t>& seq);

  /// Encodes a list of raw (unpadded) sequences after augmentation.
  autograd::Variable EncodeAugmented(
      const std::vector<std::vector<int64_t>>& raw);
};

}  // namespace models
}  // namespace slime

#endif  // SLIME4REC_MODELS_CL4SREC_H_
