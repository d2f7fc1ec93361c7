#ifndef SLIME4REC_BENCH_UTIL_EXPERIMENT_H_
#define SLIME4REC_BENCH_UTIL_EXPERIMENT_H_

#include <memory>
#include <string>

#include "core/slime4rec.h"
#include "data/synthetic.h"
#include "metrics/ranking.h"
#include "models/model_factory.h"
#include "train/trainer.h"

namespace slime {
namespace bench {

/// Outcome of one model-on-dataset run.
struct ExperimentResult {
  metrics::RankingMetrics test;
  metrics::RankingMetrics valid;
  int64_t best_epoch = 0;
  int64_t epochs_run = 0;
  int64_t param_count = 0;
  double seconds = 0.0;
};

/// Generates a preset dataset, applies the paper's 5-core filter and the
/// leave-one-out split.
data::SplitDataset BuildSplit(const data::SyntheticConfig& config,
                              int64_t max_prefixes_per_user = 4);

/// Per-dataset default model hyper-parameters used across the benches
/// (hidden 32, L = 2, N = 32 — 64 for the dense ml1m-sim — dropout 0.4,
/// InfoNCE temperature 0.2; see DESIGN.md, bench harness conventions).
models::ModelConfig DefaultModelConfig(const data::SplitDataset& split);

/// Per-dataset default SLIME4Rec mixer options; alpha follows the paper's
/// Fig. 4 optima (0.4 Beauty, 0.8 Clothing, 0.3 Sports, large for the
/// dense ML-1M).
core::FilterMixerOptions DefaultMixerOptions(const std::string& dataset_name);

/// Default training-loop settings shared by the benches.
train::TrainConfig DefaultTrainConfig();

/// Faster settings used by the table/figure bench binaries (fewer epochs,
/// tighter early stopping); still produces the paper's orderings at the
/// benches' reduced dataset scales.
train::TrainConfig BenchTrainConfig();

/// Dataset scale for a bench: `base` (the bench's own reduction) times the
/// SLIME_BENCH_SCALE environment variable, a factor. Unset, or not a
/// positive finite number, it leaves `base` as it is.
double BenchDataScale(double base);

/// Formats a metric to the paper's 4-decimal convention.
std::string Fmt4(double v);

/// Trains and evaluates one Table II model on `split` with the default
/// stack; `model_config`/`train_config` may be customised by the caller.
ExperimentResult RunModel(const std::string& model_name,
                          const data::SplitDataset& split,
                          const models::ModelConfig& model_config,
                          const core::FilterMixerOptions& mixer_options,
                          const train::TrainConfig& train_config);

/// Convenience overload with all defaults derived from the split.
ExperimentResult RunModel(const std::string& model_name,
                          const data::SplitDataset& split);

/// Trains an explicitly configured SLIME4Rec variant (ablations, slide
/// modes, alpha sweeps).
ExperimentResult RunSlimeVariant(const core::Slime4RecConfig& config,
                                 const data::SplitDataset& split,
                                 const train::TrainConfig& train_config);

/// Builds a Slime4RecConfig from shared options + mixer options.
core::Slime4RecConfig MakeSlimeConfig(const models::ModelConfig& base,
                                      const core::FilterMixerOptions& mixer,
                                      bool use_contrastive = true);

}  // namespace bench
}  // namespace slime

#endif  // SLIME4REC_BENCH_UTIL_EXPERIMENT_H_
