#include "models/contrast_vae.h"

#include "autograd/ops.h"
#include "core/contrastive.h"

namespace slime {
namespace models {

ContrastVae::ContrastVae(const ModelConfig& config) : SasRec(config) {
  mu_head_ = RegisterModule(
      "mu_head",
      std::make_shared<nn::Linear>(config.hidden_dim, config.hidden_dim,
                                   &rng_));
  logvar_head_ = RegisterModule(
      "logvar_head",
      std::make_shared<nn::Linear>(config.hidden_dim, config.hidden_dim,
                                   &rng_));
}

autograd::Variable ContrastVae::SampleLatent(
    const autograd::Variable& mu, const autograd::Variable& logvar) {
  using autograd::Add;
  using autograd::Exp;
  using autograd::Mul;
  using autograd::MulConst;
  using autograd::MulScalar;
  autograd::Variable std_dev = Exp(MulScalar(logvar, 0.5f));
  const Tensor eps = Tensor::Randn(mu.value().shape(), &rng_, 1.0f);
  return Add(mu, MulConst(std_dev, eps));
}

autograd::Variable ContrastVae::Loss(const data::Batch& batch) {
  using autograd::Add;
  using autograd::AddScalar;
  using autograd::CrossEntropy;
  using autograd::Exp;
  using autograd::Mean;
  using autograd::Mul;
  using autograd::MulScalar;
  using autograd::Neg;
  using autograd::Sub;
  using autograd::Variable;
  Variable h = EncodeLast(batch.input_ids, batch.size);
  Variable mu = mu_head_->Forward(h);
  Variable logvar = logvar_head_->Forward(h);
  // Two variationally augmented views.
  Variable z1 = SampleLatent(mu, logvar);
  Variable z2 = SampleLatent(mu, logvar);
  Variable rec1 = CrossEntropy(PredictLogits(z1), batch.targets);
  Variable rec2 = CrossEntropy(PredictLogits(z2), batch.targets);
  Variable rec = MulScalar(Add(rec1, rec2), 0.5f);
  // KL(q || N(0, I)) = -0.5 * mean(1 + logvar - mu^2 - exp(logvar)).
  Variable kl = MulScalar(
      Neg(Mean(Sub(AddScalar(logvar, 1.0f), Add(Mul(mu, mu), Exp(logvar))))),
      0.5f);
  Variable cl = core::InfoNceLoss(z1, z2, config_.cl_temperature);
  return Add(rec, Add(MulScalar(kl, kl_weight_),
                      MulScalar(cl, config_.cl_weight)));
}

autograd::Variable ContrastVae::UserVector(const data::Batch& batch) {
  return mu_head_->Forward(EncodeLast(batch.input_ids, batch.size));
}

}  // namespace models
}  // namespace slime
