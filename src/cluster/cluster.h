#ifndef SLIME4REC_CLUSTER_CLUSTER_H_
#define SLIME4REC_CLUSTER_CLUSTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/repair.h"
#include "cluster/retry.h"
#include "cluster/ring.h"
#include "common/status.h"
#include "io/env.h"
#include "observability/metrics.h"
#include "observability/trace.h"
#include "serving/clock.h"
#include "serving/fallback.h"
#include "serving/model_server.h"
#include "state/state_store.h"

namespace slime {
namespace cluster {

/// Aggregate health of the cluster, derived from per-segment replica
/// liveness (the quorum rule):
///  - kServing: every shard routable.
///  - kDegraded: some shard down/ejected/reloading, but every ring segment
///    still has >= 1 routable replica — requests succeed via failover.
///  - kUnavailable: at least one segment has no routable replica; keys in
///    that segment fail with typed kUnavailable.
enum class ClusterHealth { kServing, kDegraded, kUnavailable };
const char* ToString(ClusterHealth health);

/// Router's view of one shard, for observability and tests.
enum class ShardLiveness {
  kHealthy,    // in rotation, preferred
  kEjected,    // out of preference (routed only as a last resort)
  kProbation,  // ejection window expired; back in rotation, on trial
  kDown,       // administratively killed (chaos) — connection refused
};
const char* ToString(ShardLiveness liveness);

// Outlier detection (the Envoy outlier ejection analogue).

/// Consecutive transport failures (kUnavailable) before a shard is ejected
/// from preferred rotation.
inline constexpr int64_t kEjectionFailures = 3;
/// First ejection lasts this long; while ejected the shard is only routed
/// when every preferred replica has already failed.
inline constexpr int64_t kEjectionNanos = 100 * serving::kNanosPerMilli;
/// Hysteresis: when the window expires the shard enters *probation* and
/// must serve this many consecutive successes to be reinstated. A single
/// failure on probation re-ejects it with the window multiplied by
/// kEjectionBackoff (capped at kMaxEjectionNanos), so a flapping shard
/// oscillates ever more slowly instead of whipping the cluster between
/// kServing and kDegraded at the flap frequency.
inline constexpr int64_t kReinstateSuccesses = 2;
inline constexpr double kEjectionBackoff = 2.0;
inline constexpr int64_t kMaxEjectionNanos = 1600 * serving::kNanosPerMilli;

/// Everything a ClusterServer needs to build its fleet.
struct ClusterOptions {
  int64_t num_shards = 4;
  /// Replicas per key (primary + R-1 failover targets); clamped to
  /// num_shards by the ring.
  int64_t replication = 2;
  /// Seeds ring placement and the per-request jitter streams. Two clusters
  /// with equal options, seeds, and request sequences behave identically.
  uint64_t seed = 0x5eedc105ull;
  /// Per-shard ModelServer tuning. `shard.metrics`/`shard.tracer` are
  /// honoured if set (all shards then share them — serving.* series
  /// aggregate across the fleet); when null each shard keeps its own
  /// private registry, and the cluster-level cluster.* series below are
  /// the fleet view.
  serving::ModelServerOptions shard;
  /// Cluster-level request budget when the request carries none. Retries,
  /// backoff waits and hedges are all paid out of this one budget.
  int64_t default_deadline_nanos = 50 * serving::kNanosPerMilli;
  /// Cluster-level metrics ("cluster.*") and per-request route/retry/hedge
  /// traces. Same null semantics as ModelServerOptions.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
  /// Durable per-shard streaming state (ROADMAP item 4; docs/STATE.md).
  /// Empty = stateless cluster (AppendEvent/ServeSession refuse). Shard i
  /// opens its store in `<state_dir>/shard_<i>` at Start; state survives
  /// KillShard (the object is untouched, like a partitioned process) and
  /// RestoreShard re-runs recovery from disk.
  std::string state_dir;
  state::SyncMode state_sync = state::SyncMode::kGroup;
  /// --- Anti-entropy (docs/STATE.md "Anti-entropy") -------------------
  /// All off by default: a restored shard then recovers only its own
  /// durable state, and replicas that missed a write stay behind until an
  /// operator intervenes.
  ///
  /// Queue a bounded hint for every replica that misses an acked append
  /// (dead or failing), and replay the backlog to a shard during
  /// RestoreShard, before it re-enters rotation.
  bool hinted_handoff = false;
  HandoffOptions handoff;
  /// After a successful RestoreShard (reload + hint replay), run
  /// RepairShard to digest-diff the restored shard against healthy peers
  /// and back-fill anything hints could not cover (dropped on overflow,
  /// or writes acked before the handoff queue existed).
  bool repair_on_restore = false;
  /// On every successful ServeSession, digest-compare the served user
  /// across the segment's alive replicas, count observed divergence
  /// (cluster.repair.read_divergence) and heal it in the serve path
  /// (suffix transfer through the normal Append path).
  bool read_repair = false;
};

/// The ring a ClusterServer built from `options` routes over: its shard
/// count, replication and seed, with kVnodesPerShard points per shard.
/// Offline tools rebuild a fleet's layout from the same call.
RingOptions FleetRing(const ClusterOptions& options);

/// Cumulative cluster counters (thin view over the "cluster.*" metrics).
struct ClusterStats {
  int64_t requests = 0;       // Serve() calls routed
  int64_t served = 0;         // ok responses returned to callers
  int64_t attempts = 0;       // shard attempts issued (incl. retries/hedges)
  int64_t retries = 0;        // backoff/failover re-attempts
  int64_t failovers = 0;      // re-attempts that switched shard
  int64_t backoff_waits = 0;  // re-attempts that slept on backoff first
  int64_t hedges = 0;         // hedge re-issues (primary abandoned as slow)
  int64_t hedge_wins = 0;     // responses produced by a hedged attempt
  int64_t ejections = 0;      // shards ejected by outlier detection
  int64_t reinstatements = 0; // shards reinstated after probation
  int64_t typed_failures = 0; // non-OK Serve() returns (all typed)
  int64_t unavailable = 0;    //   of which kUnavailable (dead segment)
  // --- anti-entropy (cluster.state.* / cluster.repair.* metrics) ---
  int64_t underreplicated_appends = 0;  // acked with fewer than R replicas
  int64_t restore_failures = 0;   // RestoreShard reloads that failed
  int64_t hints_queued = 0;       // handoff hints admitted
  int64_t hints_replayed = 0;     // hints re-issued on restore
  int64_t hints_dropped = 0;      // hints refused at queue capacity
  int64_t hints_pending = 0;      // backlog right now (gauge)
  int64_t repair_users_repaired = 0;
  int64_t repair_items_transferred = 0;
  int64_t repair_conflicts = 0;
  int64_t read_divergence = 0;    // divergence observed at serve time
};

/// An in-process replicated serving cluster: N ModelServer shards behind a
/// consistent-hash router with client-side retries, hedging and outlier
/// ejection. The single-node substitution for an Envoy/gRPC-LB fleet (see
/// DESIGN.md): same control-flow skeleton — route → attempt → classify →
/// (backoff | failover | hedge) → attempt — with the network replaced by
/// direct calls and all timing on the injected Clock.
///
/// **Routing.** A user key hashes to a ring segment whose replica set is R
/// distinct shards, primary first (ShardRing). Attempts prefer
/// healthy/probation replicas in ring order; ejected or reloading shards
/// are demoted to last resort, and administratively-down shards fail fast
/// with kUnavailable (the "connection refused" of this in-process world —
/// routing never peeks at the kill switch, it learns through failures,
/// like a real client).
///
/// **Retries.** NextRetry: bounded attempts, exponential backoff with
/// seeded jitter, immediate failover on transport failure, the server's
/// typed retry_after hint honoured, and every wait paid from the request
/// deadline (retry budget). Waits go through Clock::SleepFor, so a
/// FakeClock makes them instantaneous and deterministic.
///
/// **Hedging.** When an attempt outlives the tracked p95 of recent attempt
/// latencies (HedgeDelayTracker), the attempt is abandoned via the
/// ServeRequest::cancel seam — the shard returns typed kAborted without
/// descending its degradation ladder — and the request is re-issued to the
/// next replica. Deterministic: the "slow primary" signal is FakeClock
/// time crossing the hedge point, not a wall-clock race; the loser is
/// cancelled cooperatively, never detached.
///
/// **Health.** Consecutive kUnavailable failures eject a shard; expiry
/// leads to probation and hysteresis-gated reinstatement (kEjection*,
/// kReinstateSuccesses).
/// Cluster health is the per-segment quorum: kDegraded while every
/// segment keeps >= 1 routable replica, kUnavailable only when some
/// segment is completely dark.
///
/// **Rolling reload.** RollingReload() updates shards in waves that never
/// contain two replicas of the same segment (graph colouring over the
/// ring's co-replication relation), so a hot model rollout never reduces
/// any segment below quorum − 1.
///
/// Thread-safety matches ModelServer: Serve may be called from any number
/// of threads; determinism claims are for a fixed request order (the
/// cluster determinism test drives identical sequences at 1/2/8 compute
/// threads and asserts byte-identical outcomes).
class ClusterServer {
 public:
  using ModelFactory = serving::ModelServer::ModelFactory;

  /// `factory` builds one model instance per shard (and per reload).
  /// `clock`/`env` default to the real clock and filesystem.
  ClusterServer(const ClusterOptions& options, ModelFactory factory,
                serving::Clock* clock = nullptr, io::Env* env = nullptr);

  /// Forwarded to every shard before it starts. Same call-before-Start
  /// contract as ModelServer.
  void set_canary_requests(std::vector<std::vector<int64_t>> canaries);
  void set_fallback(serving::PopularityFallback fallback);

  /// Boots every shard from the factory. Fails if any shard fails.
  Status Start();
  /// Boots every shard from the same checkpoint (factory + load + canary).
  Status StartFromCheckpoint(const std::string& path);

  /// Routes `user_key`, then runs the retry/hedge loop described above.
  /// All request-level knobs (top-k, deadline) ride in `request`;
  /// `request.cancel` composes with the hedging cancel.
  Result<serving::ServeResponse> Serve(uint64_t user_key,
                                       const serving::ServeRequest& request);

  /// --- Streaming state (requires ClusterOptions::state_dir) ------------
  ///
  /// Durably appends events for `user_key` to every *alive* replica of its
  /// segment (a replicated write: a dead replica is a partitioned process
  /// and simply misses the write). Acked when at least one replica acked —
  /// at R=2 an append survives any single shard kill. The returned ack is
  /// the first successful replica's. All replicas dark → typed
  /// kUnavailable.
  Result<state::AppendAck> AppendEvent(uint64_t user_key,
                                       const std::vector<int64_t>& items);

  /// Session-serving twin of Serve: same route → retry/failover/hedge
  /// loop, but each attempted shard answers from its *own* live state for
  /// `user_key` (ModelServer::ServeSession) instead of a caller-supplied
  /// history. `request.history` is ignored.
  Result<serving::ServeResponse> ServeSession(
      uint64_t user_key, const serving::ServeRequest& request);

  /// Hot-reloads every live shard from `checkpoint_path` in co-replication
  ///-safe waves. A shard being reloaded is routed around (demoted like an
  /// ejected shard) for the duration of its wave. `between_waves`, if set,
  /// runs after each wave completes — chaos uses it to drive traffic mid-
  /// rollout. Fails fast on the first shard whose reload is rolled back
  /// (already-updated shards keep the new model; both generations passed
  /// canary validation, so the mixed fleet is safe).
  Status RollingReload(const std::string& checkpoint_path,
                       const std::function<void(int64_t wave)>&
                           between_waves = nullptr);

  /// The wave schedule RollingReload would use: shards grouped so no wave
  /// holds two replicas of any segment. Exposed for tests to verify the
  /// never-two-replicas-down invariant directly.
  std::vector<std::vector<int64_t>> ReloadWaves() const;

  /// Chaos switches. Kill makes the shard refuse every attempt with
  /// kUnavailable (its ModelServer object is untouched — state survives,
  /// as a process surviving a network partition would). Restore lifts the
  /// refusal but NOT the ejection: the shard re-enters rotation through
  /// the normal window-expiry → probation → reinstatement path.
  ///
  /// Restore order matters: state recovery runs first, while the shard is
  /// still dark — a shard whose recovery fails STAYS DEAD (typed status,
  /// cluster.state.restore_failures) instead of rejoining with empty or
  /// stale state. On success, queued handoff hints replay before the
  /// shard takes traffic, and with repair_on_restore a RepairShard sweep
  /// closes whatever gap the hints could not cover.
  void KillShard(int64_t shard);
  Status RestoreShard(int64_t shard);

  /// Anti-entropy sweep (cluster.repair.* metrics; docs/CLUSTER.md): for
  /// every segment `shard` replicates, heals the reachable replicas (the
  /// alive ones, plus `shard` itself even while dead) with
  /// RepairReplicaSet, which owns the election and never fabricates. Out
  /// of range shards and stateless clusters are refused with
  /// kInvalidArgument.
  Result<RepairStats> RepairShard(int64_t shard);

  /// Handoff hints currently queued for dead shards (drains to 0 once
  /// every dead shard has been restored).
  int64_t hints_pending() const { return hints_.total_pending(); }

  ClusterHealth health() const;
  ShardLiveness shard_liveness(int64_t shard) const;
  ClusterStats stats() const;
  const ShardRing& ring() const { return ring_; }
  int64_t num_shards() const { return ring_.num_shards(); }
  /// Direct access to one shard's server (tests, per-shard stats).
  serving::ModelServer* shard_server(int64_t shard);
  /// The registry the "cluster.*" metrics live in.
  const obs::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  struct Shard {
    std::unique_ptr<serving::ModelServer> server;
    // --- all below guarded by health_mu_ ---
    bool alive = true;      // KillShard/RestoreShard switch
    bool reloading = false; // demoted from rotation during its reload wave
    bool ejected = false;
    bool probation = false;
    int64_t consecutive_failures = 0;
    int64_t consecutive_successes = 0;
    int64_t ejected_until_nanos = 0;
    int64_t ejection_window_nanos = 0;  // current (backed-off) window
  };

  /// Expires ejection windows, then orders `replicas` for attempting:
  /// preferred (healthy/probation, ring order) first, demoted
  /// (ejected/reloading, ring order) last. Down shards stay in place —
  /// the router doesn't know they're down until they refuse.
  std::vector<int64_t> AttemptPlan(const std::vector<int64_t>& replicas);
  /// Shared retry/failover/hedge engine behind Serve and ServeSession;
  /// `session` selects which shard entry point each attempt calls.
  Result<serving::ServeResponse> ServeRouted(
      uint64_t user_key, const serving::ServeRequest& request, bool session);
  /// One attempt against one shard; fails fast with kUnavailable when the
  /// shard is down. `hedge_deadline_nanos` > 0 arms the cancel seam.
  /// `session` routes the attempt through ModelServer::ServeSession for
  /// `user_key` instead of Serve.
  Result<serving::ServeResponse> AttemptShard(
      int64_t shard, uint64_t user_key, bool session,
      const serving::ServeRequest& request, int64_t remaining_nanos,
      int64_t hedge_deadline_nanos);
  /// Start's and StartFromCheckpoint's shared loop; `caller` names them.
  Status BootShards(const std::string& caller,
                    const std::function<Status(serving::ModelServer*)>& boot);
  /// Opens shard `s`'s state store under options_.state_dir and attaches
  /// it to the shard's server. No-op for a stateless cluster.
  Status AttachShardState(int64_t shard);
  /// Replays shard `s`'s queued handoff hints through its server's normal
  /// Append path (in origin_seq order). Returns the count replayed.
  Result<int64_t> ReplayHints(int64_t shard);
  /// The state stores of `segment`'s replicas that repair can reach: the
  /// alive shards in ring order, plus `include_shard` (>= 0) even while it
  /// is marked dead. A dead shard is a partitioned process.
  std::vector<state::StateStore*> ReachableStores(int64_t segment,
                                                  int64_t include_shard);
  /// Read-repair hook: after a successful session serve, digest-compare
  /// `user_key` across its segment's alive replicas; count divergence and
  /// heal it with RepairReplicas.
  void ReadRepair(uint64_t user_key);
  void NoteAttemptSuccess(int64_t shard);
  void NoteAttemptFailure(int64_t shard, const Status& status);
  void RefreshEjections();  // health_mu_ must be held
  ShardLiveness LivenessLocked(const Shard& s) const;
  void PublishHealthGauges();  // recomputes cluster.health / live gauges

  const ClusterOptions options_;
  ShardRing ring_;
  HedgeDelayTracker hedge_;
  HintQueue hints_;
  /// Deterministic hint enqueue index (cluster-wide): replay order is a
  /// pure function of the append order that queued the hints.
  std::atomic<uint64_t> hint_seq_{0};
  ModelFactory factory_;
  serving::Clock* clock_;
  io::Env* env_;
  bool started_ = false;
  std::vector<std::vector<int64_t>> canaries_;
  serving::PopularityFallback fallback_;
  bool has_fallback_ = false;

  mutable std::mutex health_mu_;  // guards Shard flags (not ->server)
  std::vector<Shard> shards_;

  std::mutex reload_mu_;  // one rolling reload at a time
  std::atomic<int64_t> request_seq_{0};  // per-request jitter stream index

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;
  obs::Tracer* tracer_;  // may be null

  obs::Counter requests_;
  obs::Counter served_;
  obs::Counter attempts_;
  obs::Counter retries_;
  obs::Counter failovers_;
  obs::Counter backoff_waits_;
  obs::Counter hedges_;
  obs::Counter hedge_wins_;
  obs::Counter ejections_;
  obs::Counter reinstatements_;
  obs::Counter typed_failures_;
  obs::Counter unavailable_;
  obs::Counter state_appends_;          // cluster-level acked appends
  obs::Counter state_append_failures_;  // per-replica append failures
  obs::Counter underreplicated_appends_;  // acked by fewer than R replicas
  obs::Counter restore_failures_;  // RestoreShard reloads that failed
  obs::Counter hints_queued_;
  obs::Counter hints_replayed_;
  obs::Counter hints_dropped_;
  obs::Counter hint_replay_failures_;
  obs::Counter repair_segments_;        // segment passes completed
  obs::Counter repair_users_repaired_;
  obs::Counter repair_items_;
  obs::Counter repair_conflicts_;
  obs::Counter read_divergence_;        // read-repair: divergence observed
  obs::Gauge hints_pending_gauge_;
  obs::Gauge health_gauge_;      // ClusterHealth as int
  obs::Gauge live_shards_;       // alive && not ejected/reloading
  obs::Gauge ejected_shards_;
  obs::Histogram request_nanos_;  // end-to-end, incl. waits
  obs::Histogram attempt_nanos_;  // per successful attempt
};

}  // namespace cluster
}  // namespace slime

#endif  // SLIME4REC_CLUSTER_CLUSTER_H_
