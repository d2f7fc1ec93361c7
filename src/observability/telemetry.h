#ifndef SLIME4REC_OBSERVABILITY_TELEMETRY_H_
#define SLIME4REC_OBSERVABILITY_TELEMETRY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "metrics/ranking.h"

namespace slime {

namespace io {
class Env;
}  // namespace io

namespace obs {

/// Structured training telemetry: `Trainer::Fit` emits one record per
/// resume / epoch / rollback / fit-end instead of bare printf lines. The
/// sink keeps the records in memory (tests assert on them directly), can
/// echo the classic one-line-per-epoch console output, and — when given a
/// path — persists the JSONL log crash-safely after every record via
/// `io::Env` (whole-file write to `<path>.tmp`, then atomic rename, the
/// checkpoint protocol), so a killed run keeps telemetry for every epoch
/// that finished.

/// A run resumed from a snapshot ("resumed from" line).
struct ResumeRecord {
  std::string model;
  std::string path;
  int64_t epoch = 0;       // snapshot epoch; training continues at epoch+1
  double best_valid = 0.0;  // best validation NDCG@10 so far
};

/// One completed (non-diverged) training epoch.
struct EpochRecord {
  std::string model;
  int64_t epoch = 0;
  double loss = 0.0;      // mean train loss over the epoch's batches
  double lr = 0.0;        // rate used: the base rate, halved per rollback
  double grad_norm = 0.0; // max pre-clip global grad norm (0 if clipping off)
  int64_t batches = 0;
  metrics::RankingMetrics valid;  // validation pass after the epoch
  bool improved = false;          // new best validation NDCG@10
  int64_t wall_nanos = 0;         // epoch wall time incl. validation
};

/// A divergence rollback (non-finite loss or gradient).
struct RollbackRecord {
  std::string model;
  int64_t diverged_epoch = 0;
  int64_t rollback_to_epoch = 0;
  double old_base_lr = 0.0;
  double new_base_lr = 0.0;
  int64_t rollback_index = 0;  // 1-based
  int64_t max_rollbacks = 0;
};

/// End-of-fit summary (test metrics over the best-validation parameters).
struct FitSummaryRecord {
  std::string model;
  int64_t epochs_run = 0;
  int64_t best_epoch = 0;
  int64_t rollbacks = 0;
  double final_train_loss = 0.0;
  metrics::RankingMetrics test;
};

/// Collects training records in arrival order. Not thread-safe: Fit is a
/// single-threaded loop and owns its sink for the duration of the run.
class TrainingTelemetry {
 public:
  /// In-memory sink; `echo` prints the classic console lines to stdout.
  explicit TrainingTelemetry(bool echo = false)
      : TrainingTelemetry(echo, std::string(), nullptr) {}

  /// Persistent sink: every record appends a JSONL line and rewrites
  /// `jsonl_path` crash-safely through `env` (nullptr = Env::Default()).
  TrainingTelemetry(bool echo, std::string jsonl_path, io::Env* env);

  TrainingTelemetry(const TrainingTelemetry&) = delete;
  TrainingTelemetry& operator=(const TrainingTelemetry&) = delete;

  void OnResume(const ResumeRecord& record);
  void OnEpoch(const EpochRecord& record);
  void OnRollback(const RollbackRecord& record);
  void OnFitSummary(const FitSummaryRecord& record);

  const std::vector<EpochRecord>& epochs() const { return epochs_; }
  const std::vector<RollbackRecord>& rollbacks() const { return rollbacks_; }

  /// The full JSONL log (records in arrival order, lines of type "resume",
  /// "epoch", "rollback", "fit_summary").
  const std::string& jsonl() const { return jsonl_; }

  /// Rewrites the log file now (no-op without a path). Also called after
  /// every record; exposed so owners can force a final write.
  Status Flush();

  /// Sticky: the first flush failure, OK otherwise. Telemetry I/O errors
  /// never fail training — callers that care (the CLI) check here.
  const Status& status() const { return status_; }

 private:
  void Append(const std::string& line);

  const bool echo_;
  const std::string jsonl_path_;
  io::Env* env_;
  std::string jsonl_;
  std::vector<EpochRecord> epochs_;
  std::vector<RollbackRecord> rollbacks_;
  Status status_ = Status::OK();
};

}  // namespace obs
}  // namespace slime

#endif  // SLIME4REC_OBSERVABILITY_TELEMETRY_H_
