#ifndef SLIME4REC_CHAOS_HARNESS_H_
#define SLIME4REC_CHAOS_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/validation.h"

namespace slime {
namespace chaos {

/// Configuration for one chaos-pipeline run. Everything downstream — which
/// corruptions are planted, where the kill lands, which serve requests run
/// slow — derives from `seed`, so a run is a pure function of (seed,
/// binary) and two same-seed runs must produce bit-identical event logs.
struct ChaosOptions {
  uint64_t seed = 1;
  /// Existing scratch directory. Every file the pipeline touches lives
  /// here and is rewritten from scratch, so a directory can be reused
  /// across runs (the bit-reproducibility check in tools/chaos_runner
  /// does exactly that).
  std::string work_dir;
  /// Epochs for the train/kill/resume stage (>= 3 so at least one
  /// snapshot completes before the injected kill).
  int64_t epochs = 4;
  /// Echo events to stdout as they happen.
  bool echo = false;
};

/// One deterministic pipeline event. `detail` never contains wall-clock
/// times, absolute paths or addresses — only data derived from the seed —
/// so the serialized log is stable across runs and across work_dirs.
struct ChaosEvent {
  /// The stage that emitted the event: "data", "train", "diverge",
  /// "serve", "cluster", "state" or "repair" (the stage table's order),
  /// or "chaos" for the closing invariant summary.
  std::string stage;
  std::string kind;    // "fault", "typed_failure", "ok", "violation"
  std::string detail;
};

/// Wall time one stage took, read from the real clock.
struct ChaosStageTiming {
  std::string stage;
  int64_t wall_nanos = 0;
};

/// Outcome of a pipeline run. The run itself returning (rather than
/// crashing or hanging) is invariant #1; `typed_failures == faults_injected`
/// is invariant #2 (every injected fault surfaced as a typed Status, an
/// InjectedCrash, or a recorded rollback — never silent corruption);
/// the recovery checks folded into `failure` (exact quarantine accounting,
/// bit-identical resume) are invariant #3.
struct ChaosResult {
  std::vector<ChaosEvent> events;
  /// Quarantine report from the repair-mode load of the corrupted dataset.
  data::QuarantineReport quarantine;
  /// Training telemetry JSONL from the kill + resume runs (deterministic:
  /// the trainer runs on a FakeClock, so wall times are zero).
  std::string telemetry_jsonl;
  /// Anti-entropy report from the "repair" stage, one JSON object per
  /// line (`{"type":"repair",...}`): under-replication observed, hints
  /// queued/replayed, repair sweep outcome, per-segment digest
  /// convergence. Deterministic — the bit-reproducibility check in
  /// tools/chaos_runner compares it byte-for-byte across runs.
  std::string repair_report_jsonl;
  int64_t faults_injected = 0;
  int64_t typed_failures = 0;
  bool invariants_ok = false;
  /// First invariant violation, empty when invariants_ok.
  std::string failure;
  /// One entry per stage that ran, in run order. Wall times differ from
  /// run to run, so they are kept out of EventLog() and every other
  /// compared artifact.
  std::vector<ChaosStageTiming> stage_timings;

  /// One line per event: "stage|kind|detail". Bit-identical across
  /// same-seed runs.
  std::string EventLog() const;
};

/// Runs the pipeline with seed-scheduled faults at every layer, as seven
/// stages in a fixed order that share one rng stream and one
/// io::FaultInjectionEnv:
///
///  - "data": planted dataset corruption (strict load must fail typed,
///    repair must quarantine exactly what was planted), then injected
///    read faults;
///  - "train": a process kill during a checkpoint write, then a resume
///    that must be bit-identical to an uninterrupted run;
///  - "diverge": a NaN loss window that must roll back or abort;
///  - "serve": FakeClock deadline pressure, then a corrupted checkpoint
///    reload that must roll back;
///  - "cluster": shard kills against a replicated ClusterServer (a
///    single-shard kill at R=2 must lose zero admitted requests; a
///    fully-dark segment must fail with typed kUnavailable and recover
///    through reinstatement), then a rolling reload;
///  - "state": kills against the durable user-state store (mid-WAL-append,
///    mid-compaction, a silently torn tail, a failed fsync, and a shard
///    kill under replicated appends); every recovery must reproduce the
///    acked set exactly;
///  - "repair": a shard kill under appends, then a restore with
///    hinted-handoff replay and a digest repair sweep, after which every
///    replica's per-segment digests must be byte-identical, no acked
///    event lost and none fabricated.
///
/// A closing "chaos" event summarises the invariants. A data stage whose
/// repair load fails ends the run early, without that summary. Returns a
/// Status only for harness-setup failures (e.g. unusable work_dir); every
/// *injected* fault is expected, recorded in the result, and never
/// escapes.
Result<ChaosResult> RunChaosPipeline(const ChaosOptions& options);

}  // namespace chaos
}  // namespace slime

#endif  // SLIME4REC_CHAOS_HARNESS_H_
