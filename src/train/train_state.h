#ifndef SLIME4REC_TRAIN_TRAIN_STATE_H_
#define SLIME4REC_TRAIN_TRAIN_STATE_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "io/checkpoint.h"
#include "io/env.h"
#include "metrics/ranking.h"
#include "tensor/tensor.h"

namespace slime {
namespace train {

/// The loop trackers Trainer::Fit keeps across epochs: how far the run has
/// got, its learning rate and rollback budget, and the early-stopping
/// record with its best-parameter snapshot.
struct TrainProgress {
  /// Last fully completed epoch (1-based).
  int64_t epoch = 0;
  /// Base learning rate the schedule multiplies; halved on each divergence
  /// rollback, so a resumed run keeps the reduced rate.
  float base_lr = 0.0f;
  /// Divergence rollbacks consumed so far.
  int64_t rollbacks = 0;

  // Early-stopping / best-model trackers.
  double best_valid = -1.0;
  int64_t best_epoch = 0;
  int64_t since_best = 0;
  double final_train_loss = 0.0;
  metrics::RankingMetrics best_metrics;

  /// Best-validation parameter snapshot (Parameters() order); what the
  /// trainer restores before the final test pass. Never written in place
  /// (an improving epoch replaces it), so copies may share its tensors.
  std::vector<Tensor> best_params;
};

/// Everything Trainer::Fit carries across epoch boundaries, captured at the
/// end of a completed epoch. Restoring a TrainState and continuing produces
/// the same remaining trajectory bit-for-bit as the uninterrupted run: model
/// parameters, Adam moments and step, both RNG streams, the batcher's
/// shuffle order and the TrainProgress record are all included, so nothing
/// is left to re-derivation.
///
/// Serialised inside the crash-safe envelope of io/serializer.h under the
/// magic "SLT1" (payload layout versioned independently of the model
/// checkpoint format; the parameters use the checkpoint's entry layout).
struct TrainState : TrainProgress {
  // RNG streams: the trainer's batch/shuffle generator and the model's
  // internal generator (dropout, augmentation).
  RngState batch_rng;
  RngState model_rng;
  /// TrainBatcher visit order (shuffled in place across epochs).
  std::vector<int64_t> batch_order;

  /// Model parameters by qualified name (Module::NamedParameters order).
  io::NamedTensors params;

  // Adam state, aligned with Module::Parameters() order. The moment lists
  // are empty when adam_step == 0: a never-stepped optimizer has none.
  int64_t adam_step = 0;
  std::vector<Tensor> adam_m;
  std::vector<Tensor> adam_v;
};

/// Writes `state` to `path` crash-safely (temp file + CRC verify + atomic
/// rename); a failed save leaves any previous snapshot at `path` intact.
Status SaveTrainState(const TrainState& state, const std::string& path,
                      io::Env* env = nullptr);

/// Reads a snapshot written by SaveTrainState. Truncation, bad magic and
/// bit flips surface as Status::Corruption; a missing file as IOError.
Result<TrainState> LoadTrainState(const std::string& path,
                                  io::Env* env = nullptr);

/// Canonical snapshot location inside a checkpoint directory.
std::string SnapshotPath(const std::string& checkpoint_dir);

/// Canonical best-model checkpoint location inside a checkpoint directory
/// (a model checkpoint as models::SaveCheckpoint writes it, for serving).
std::string BestModelPath(const std::string& checkpoint_dir);

/// Resolves a --resume argument: a directory maps to its SnapshotPath, a
/// file path is returned as-is.
std::string ResolveResumePath(const std::string& resume_from,
                              io::Env* env = nullptr);

}  // namespace train
}  // namespace slime

#endif  // SLIME4REC_TRAIN_TRAIN_STATE_H_
