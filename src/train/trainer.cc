#include "train/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "io/checkpoint.h"
#include "io/env.h"
#include "models/model_factory.h"
#include "observability/telemetry.h"
#include "optim/adam.h"
#include "serving/clock.h"
#include "tensor/tensor_ops.h"
#include "train/train_state.h"

namespace slime {
namespace train {
namespace {

bool GradsFinite(const std::vector<autograd::Variable>& params) {
  for (const auto& p : params) {
    if (p.has_grad() && !ops::AllFinite(p.grad())) return false;
  }
  return true;
}

std::vector<Tensor> CloneAll(const std::vector<Tensor>& tensors) {
  std::vector<Tensor> out;
  out.reserve(tensors.size());
  for (const Tensor& t : tensors) out.push_back(t.Clone());
  return out;
}

}  // namespace

metrics::RankingMetrics Evaluate(models::SequentialRecommender* model,
                                 const data::SplitDataset& split, bool test,
                                 int64_t batch_size) {
  const bool was_training = model->training();
  model->SetTraining(false);
  // Scoring reads values only; no graph is built.
  autograd::NoGradScope no_grad;
  metrics::RankingAccumulator acc;
  for (const data::Batch& batch : data::MakeEvalBatches(
           split, test, batch_size, model->config().max_len)) {
    const Tensor scores = model->ScoreAll(batch);
    acc.Add(scores, batch.targets);
  }
  model->SetTraining(was_training);
  return metrics::RankingMetrics::From(acc);
}

std::vector<std::vector<int64_t>> ExportCanarySet(
    const data::SplitDataset& split, int64_t k) {
  std::vector<int64_t> users(split.num_users());
  for (int64_t u = 0; u < split.num_users(); ++u) users[u] = u;
  std::sort(users.begin(), users.end(), [&](int64_t a, int64_t b) {
    const size_t la = split.train_region()[a].size();
    const size_t lb = split.train_region()[b].size();
    return la > lb || (la == lb && a < b);
  });
  const int64_t take = std::min<int64_t>(k, split.num_users());
  std::vector<std::vector<int64_t>> canaries;
  canaries.reserve(take);
  for (int64_t i = 0; i < take; ++i) {
    canaries.push_back(split.train_region()[users[i]]);
  }
  return canaries;
}

Result<TrainResult> Trainer::Fit(models::SequentialRecommender* model,
                                 const data::SplitDataset& split) {
  io::Env* env = config_.env != nullptr ? config_.env : io::Env::Default();
  serving::Clock* clock =
      config_.clock != nullptr ? config_.clock : serving::Clock::Default();
  // Structured telemetry replaces the old bare printf lines: every record
  // goes to the sink (which echoes the identical console text when asked)
  // so training progress is machine-readable without changing stdout.
  obs::TrainingTelemetry local_telemetry(config_.verbose);
  obs::TrainingTelemetry* telemetry = config_.telemetry != nullptr
                                          ? config_.telemetry
                                          : &local_telemetry;
  model->Prepare(split);
  Rng batch_rng(config_.seed);
  data::TrainBatcher batcher(&split, config_.batch_size,
                             model->config().max_len,
                             model->needs_positives(), &batch_rng);
  optim::Adam optimizer(model->Parameters(), {.lr = config_.lr});

  // The loop's trackers, in the record every snapshot carries.
  TrainProgress progress;
  progress.base_lr = config_.lr;
  int64_t start_epoch = 1;

  // Captures the record plus deep copies of the model, optimizer and rng
  // state, so the snapshot stays frozen while training mutates them.
  const auto capture = [&] {
    TrainState s;
    static_cast<TrainProgress&>(s) = progress;
    s.batch_rng = batch_rng.state();
    s.model_rng = model->rng()->state();
    s.batch_order = batcher.order();
    for (const auto& [name, variable] : model->NamedParameters()) {
      s.params.emplace_back(name, variable.value().Clone());
    }
    s.adam_step = optimizer.step_count();
    s.adam_m = CloneAll(optimizer.first_moments());
    s.adam_v = CloneAll(optimizer.second_moments());
    return s;
  };

  // Restores a captured TrainState into the optimizer, batcher, model,
  // RNGs and record. Every check runs before the model is written, so a
  // snapshot from a different model or split leaves it untouched.
  const auto apply = [&](const TrainState& s) -> Status {
    const auto params = model->Parameters();
    const auto same_shape = [](const Tensor& t, const autograd::Variable& p) {
      return t.shape() == p.value().shape();
    };
    if (!s.best_params.empty() &&
        !std::equal(s.best_params.begin(), s.best_params.end(),
                    params.begin(), params.end(), same_shape)) {
      return Status::InvalidArgument(
          "train state best parameters (" +
          std::to_string(s.best_params.size()) + ") do not match the " +
          std::to_string(params.size()) + " model parameters' shapes");
    }
    SLIME_RETURN_IF_ERROR(optimizer.RestoreState(
        s.adam_step, CloneAll(s.adam_m), CloneAll(s.adam_v)));
    SLIME_RETURN_IF_ERROR(batcher.RestoreOrder(s.batch_order));
    SLIME_RETURN_IF_ERROR(io::AssignParameters(model, s.params, "train state"));
    batch_rng.set_state(s.batch_rng);
    model->rng()->set_state(s.model_rng);
    progress = s;
    return Status::OK();
  };

  // Last-good state for divergence rollback: the initial state before the
  // first epoch (its optimizer has not stepped, so it holds no moments),
  // then the end of every completed epoch.
  TrainState last_good;
  if (!config_.resume_from.empty()) {
    const std::string path = ResolveResumePath(config_.resume_from, env);
    Result<TrainState> loaded = LoadTrainState(path, env);
    if (!loaded.ok()) return loaded.status();
    last_good = std::move(loaded).value();
    SLIME_RETURN_IF_ERROR(apply(last_good));
    start_epoch = last_good.epoch + 1;
    telemetry->OnResume({model->name(), path, last_good.epoch,
                         last_good.best_valid});
  } else {
    last_good = capture();
  }

  for (int64_t epoch = start_epoch; epoch <= config_.max_epochs; ++epoch) {
    const int64_t epoch_start_nanos = clock->NowNanos();
    // The rate is constant except that each divergence rollback halves it.
    optimizer.set_lr(progress.base_lr);
    model->SetTraining(true);
    double loss_sum = 0.0;
    int64_t loss_count = 0;
    double max_grad_norm = 0.0;
    bool diverged = false;
    for (const data::Batch& batch : batcher.Epoch()) {
      autograd::Variable loss = model->Loss(batch);
      const double loss_value = loss.value()[0];
      if (!std::isfinite(loss_value)) {
        diverged = true;
        break;
      }
      loss_sum += loss_value;
      ++loss_count;
      loss.Backward();
      if (!GradsFinite(optimizer.params())) {
        diverged = true;
        break;
      }
      if (config_.grad_clip_norm > 0.0) {
        // Pre-clip norm feeds both the clip and the epoch telemetry (the
        // max over batches is the divergence-adjacent signal to watch).
        const double grad_norm = optimizer.GradNorm();
        max_grad_norm = std::max(max_grad_norm, grad_norm);
        optimizer.ClipGradNorm(config_.grad_clip_norm, grad_norm);
      }
      optimizer.Step();
    }

    if (diverged) {
      if (progress.rollbacks >= config_.max_rollbacks) {
        return Status::Aborted(
            "training diverged (non-finite loss or gradient) at epoch " +
            std::to_string(epoch) + " after " +
            std::to_string(progress.rollbacks) + " rollback(s); giving up");
      }
      const int64_t next_rollbacks = progress.rollbacks + 1;
      const float next_base_lr = progress.base_lr * 0.5f;
      telemetry->OnRollback({model->name(), epoch, last_good.epoch,
                             progress.base_lr, next_base_lr, next_rollbacks,
                             config_.max_rollbacks});
      SLIME_RETURN_IF_ERROR(apply(last_good));
      // The rollback itself consumes budget and halves the rate; those two
      // survive the restore.
      progress.rollbacks = next_rollbacks;
      progress.base_lr = next_base_lr;
      // An aborted step may have left partial gradients accumulated.
      optimizer.ZeroGrad();
      epoch = progress.epoch;  // loop increment resumes at the next epoch
      continue;
    }

    progress.final_train_loss = loss_count ? loss_sum / loss_count : 0.0;
    progress.epoch = epoch;

    const metrics::RankingMetrics valid = Evaluate(model, split, false);
    const bool improved = valid.ndcg10 > progress.best_valid;
    {
      obs::EpochRecord record;
      record.model = model->name();
      record.epoch = epoch;
      record.loss = progress.final_train_loss;
      record.lr = progress.base_lr;
      record.grad_norm = max_grad_norm;
      record.batches = loss_count;
      record.valid = valid;
      record.improved = improved;
      record.wall_nanos = clock->NowNanos() - epoch_start_nanos;
      telemetry->OnEpoch(record);
    }
    if (improved) {
      progress.best_valid = valid.ndcg10;
      progress.best_metrics = valid;
      progress.best_epoch = epoch;
      progress.since_best = 0;
      progress.best_params.clear();
      for (const auto& p : model->Parameters()) {
        progress.best_params.push_back(p.value().Clone());
      }
    } else {
      ++progress.since_best;
    }

    last_good = capture();
    if (!config_.checkpoint_dir.empty() &&
        (improved || (config_.checkpoint_every > 0 &&
                      epoch % config_.checkpoint_every == 0))) {
      SLIME_RETURN_IF_ERROR(SaveTrainState(
          last_good, SnapshotPath(config_.checkpoint_dir), env));
      if (improved) {
        SLIME_RETURN_IF_ERROR(models::SaveCheckpoint(
            *model, BestModelPath(config_.checkpoint_dir), env));
      }
    }

    if (!improved && progress.since_best >= config_.patience) break;
  }

  // Restore the best-validation parameters before the test pass.
  if (!progress.best_params.empty()) {
    auto params = model->Parameters();
    SLIME_CHECK_EQ(params.size(), progress.best_params.size());
    for (size_t i = 0; i < params.size(); ++i) {
      params[i].mutable_value() = progress.best_params[i];
    }
  }
  TrainResult result;
  result.test = Evaluate(model, split, true);
  result.valid = progress.best_metrics;
  result.best_epoch = progress.best_epoch;
  result.epochs_run = progress.epoch;
  result.final_train_loss = progress.final_train_loss;
  result.rollbacks = progress.rollbacks;
  telemetry->OnFitSummary({model->name(), result.epochs_run,
                           result.best_epoch, result.rollbacks,
                           result.final_train_loss, result.test});
  return result;
}

}  // namespace train
}  // namespace slime
