#include "bench_util/experiment.h"

#include <chrono>

#include "common/string_util.h"

namespace slime {
namespace bench {

data::SplitDataset BuildSplit(const data::SyntheticConfig& config,
                              int64_t max_prefixes_per_user) {
  const data::InteractionDataset dataset =
      data::GenerateSynthetic(config).FilterMinInteractions(5);
  return data::SplitDataset(dataset, max_prefixes_per_user);
}

models::ModelConfig DefaultModelConfig(const data::SplitDataset& split) {
  models::ModelConfig c;
  c.num_items = split.num_items();
  c.num_users = split.num_users();
  c.max_len = split.name() == "ml1m-sim" ? 64 : 32;
  c.hidden_dim = 32;
  c.num_layers = 2;
  c.num_heads = 2;
  // Dropout 0.4 sits inside the paper's searched grid {0.1..0.5} and is
  // applied to every model identically; the InfoNCE temperature follows
  // common contrastive-SR practice.
  c.dropout = 0.4f;
  c.emb_dropout = 0.4f;
  c.cl_weight = 0.1f;
  c.cl_temperature = 0.2f;
  c.seed = 7;
  return c;
}

core::FilterMixerOptions DefaultMixerOptions(
    const std::string& dataset_name) {
  core::FilterMixerOptions o;
  o.gamma = 0.5;
  o.dynamic_direction = core::SlideDirection::kHighToLow;  // mode 4
  o.static_direction = core::SlideDirection::kHighToLow;
  if (dataset_name == "beauty-sim") {
    o.alpha = 0.4;  // Fig. 4 optimum on Beauty
  } else if (dataset_name == "clothing-sim") {
    o.alpha = 0.8;  // Fig. 4 optimum on Clothing
  } else if (dataset_name == "sports-sim") {
    o.alpha = 0.3;  // Fig. 4 optimum on Sports
  } else if (dataset_name == "ml1m-sim") {
    o.alpha = 0.9;  // dense data wants a large receptive field (Sec. IV-G1)
  } else {
    o.alpha = 0.5;
  }
  return o;
}

train::TrainConfig DefaultTrainConfig() {
  train::TrainConfig t;
  t.max_epochs = 30;
  t.batch_size = 128;
  t.lr = 1e-3f;
  t.patience = 3;
  t.grad_clip_norm = 5.0;
  t.seed = 97;
  return t;
}

train::TrainConfig BenchTrainConfig() {
  train::TrainConfig t = DefaultTrainConfig();
  // The benches trade a little convergence for wall-clock: fewer epochs
  // with a slightly hotter learning rate, applied identically to every
  // model so comparisons stay fair.
  // Fixed-budget training (patience >= max_epochs disables early stopping):
  // several baselines plateau for a few epochs before climbing, so a short
  // patience silently undertrains them and distorts the comparison.
  t.max_epochs = 12;
  t.patience = 12;
  t.lr = 2e-3f;
  return t;
}

double BenchDataScale(double base) {
  return base * train::TrainConfig::BenchScale();
}

std::string Fmt4(double v) { return FormatFloat(v, 4); }

namespace {

ExperimentResult RunPrepared(models::SequentialRecommender* model,
                             const data::SplitDataset& split,
                             const train::TrainConfig& train_config) {
  const auto start = std::chrono::steady_clock::now();
  train::Trainer trainer(train_config);
  const train::TrainResult r = trainer.Fit(model, split).value();
  const auto stop = std::chrono::steady_clock::now();
  ExperimentResult out;
  out.test = r.test;
  out.valid = r.valid;
  out.best_epoch = r.best_epoch;
  out.epochs_run = r.epochs_run;
  out.param_count = model->ParameterCount();
  out.seconds =
      std::chrono::duration<double>(stop - start).count();
  return out;
}

}  // namespace

ExperimentResult RunModel(const std::string& model_name,
                          const data::SplitDataset& split,
                          const models::ModelConfig& model_config,
                          const core::FilterMixerOptions& mixer_options,
                          const train::TrainConfig& train_config) {
  std::unique_ptr<models::SequentialRecommender> model =
      models::CreateModel(model_name, model_config, mixer_options);
  train::TrainConfig tc = train_config;
  // Per-model learning rates, mirroring the paper's per-baseline
  // hyper-parameter adoption: the RNN and CNN baselines need a hotter rate
  // to converge within the bench budget (GRU4Rec's original setup uses
  // far larger Adagrad steps than the transformers' Adam 1e-3).
  if (model_name == "GRU4Rec" || model_name == "Caser") {
    tc.lr = train_config.lr * 2.5f;
  }
  return RunPrepared(model.get(), split, tc);
}

ExperimentResult RunModel(const std::string& model_name,
                          const data::SplitDataset& split) {
  return RunModel(model_name, split, DefaultModelConfig(split),
                  DefaultMixerOptions(split.name()), BenchTrainConfig());
}

ExperimentResult RunSlimeVariant(const core::Slime4RecConfig& config,
                                 const data::SplitDataset& split,
                                 const train::TrainConfig& train_config) {
  core::Slime4Rec model(config);
  return RunPrepared(&model, split, train_config);
}

core::Slime4RecConfig MakeSlimeConfig(const models::ModelConfig& base,
                                      const core::FilterMixerOptions& mixer,
                                      bool use_contrastive) {
  core::Slime4RecConfig sc;
  static_cast<models::ModelConfig&>(sc) = base;
  sc.mixer = mixer;
  sc.use_contrastive = use_contrastive;
  return sc;
}

}  // namespace bench
}  // namespace slime
