#ifndef SLIME4REC_TRAIN_CONFIG_H_
#define SLIME4REC_TRAIN_CONFIG_H_

#include <cstdint>
#include <string>

namespace slime {

namespace io {
class Env;
}  // namespace io

namespace obs {
class TrainingTelemetry;
}  // namespace obs

namespace serving {
class Clock;
}  // namespace serving

namespace train {

/// Training-loop hyper-parameters (paper Sec. IV-D: Adam, lr 1e-3, early
/// stopping on the validation metric) plus the fault-tolerance knobs
/// (snapshots, resume, divergence rollback).
struct TrainConfig {
  int64_t max_epochs = 40;
  int64_t batch_size = 128;
  float lr = 1e-3f;
  /// Stop after this many epochs without validation NDCG@10 improvement;
  /// the best-validation parameters are restored before the test pass.
  int64_t patience = 4;
  double grad_clip_norm = 5.0;
  bool verbose = false;
  uint64_t seed = 97;

  // --- Fault tolerance ---------------------------------------------------

  /// Directory for crash-safe training snapshots and the best-model
  /// checkpoint; empty disables on-disk checkpointing (the in-memory
  /// divergence rollback still works). The directory must already exist.
  std::string checkpoint_dir;
  /// Write the rolling snapshot every N completed epochs (snapshots are
  /// additionally written whenever validation improves).
  int64_t checkpoint_every = 1;
  /// Resume a killed run: path to a snapshot file or to a checkpoint
  /// directory written by a previous run. Empty starts fresh. The model,
  /// split and config must match the original run; a resumed run replays
  /// the remaining epochs bit-for-bit.
  std::string resume_from;
  /// Divergence guard: on a non-finite loss or gradient the trainer rolls
  /// back to the last completed epoch with the learning rate halved, at
  /// most this many times before giving up with Status::Aborted.
  int64_t max_rollbacks = 2;
  /// Filesystem seam for snapshot I/O; nullptr = io::Env::Default().
  /// Tests inject faults through this.
  io::Env* env = nullptr;

  // --- Observability -----------------------------------------------------

  /// Structured training telemetry sink (resume/epoch/rollback records,
  /// optional JSONL persistence). nullptr: the trainer uses a private
  /// in-memory sink that echoes the classic console lines when `verbose`.
  /// When set, the sink's echo setting controls console output and
  /// `verbose` is ignored — the CLI passes an echoing sink.
  obs::TrainingTelemetry* telemetry = nullptr;
  /// Clock for epoch wall-time measurement; nullptr =
  /// serving::Clock::Default(). Tests pass a FakeClock for exact wall
  /// times in telemetry records.
  serving::Clock* clock = nullptr;
};

}  // namespace train
}  // namespace slime

#endif  // SLIME4REC_TRAIN_CONFIG_H_
