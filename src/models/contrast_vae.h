#ifndef SLIME4REC_MODELS_CONTRAST_VAE_H_
#define SLIME4REC_MODELS_CONTRAST_VAE_H_

#include <memory>
#include <string>

#include "models/sasrec.h"
#include "nn/linear.h"

namespace slime {
namespace models {

/// ContrastVAE (Wang et al., CIKM'22), simplified to its load-bearing
/// parts: a SASRec encoder feeding Gaussian posterior heads
/// (mu, log-variance), reparameterised latent user representations, an
/// ELBO objective (reconstruction cross-entropy + KL to the standard
/// normal), and a contrastive term between two sampled latents of the same
/// sequence (variational augmentation). Scoring is deterministic: the
/// posterior mean is the user vector.
class ContrastVae : public SasRec {
 public:
  explicit ContrastVae(const ModelConfig& config);

  autograd::Variable Loss(const data::Batch& batch) override;
  std::string name() const override { return "ContrastVAE"; }
  /// The posterior mean mu.
  autograd::Variable UserVector(const data::Batch& batch) override;

 private:
  /// Samples z = mu + exp(0.5 * logvar) . eps with fresh Gaussian noise.
  autograd::Variable SampleLatent(const autograd::Variable& mu,
                                  const autograd::Variable& logvar);

  float kl_weight_ = 0.01f;
  std::shared_ptr<nn::Linear> mu_head_;
  std::shared_ptr<nn::Linear> logvar_head_;
};

}  // namespace models
}  // namespace slime

#endif  // SLIME4REC_MODELS_CONTRAST_VAE_H_
