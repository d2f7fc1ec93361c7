#ifndef SLIME4REC_SERVING_MODEL_SERVER_H_
#define SLIME4REC_SERVING_MODEL_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "io/env.h"
#include "models/recommender.h"
#include "observability/metrics.h"
#include "observability/trace.h"
#include "serving/admission.h"
#include "serving/clock.h"
#include "serving/cost_ewma.h"
#include "serving/fallback.h"
#include "serving/recommendation_service.h"
#include "state/state_store.h"

namespace slime {
namespace serving {

/// Operational state of a ModelServer.
enum class HealthState {
  kStarting,   // constructed, no validated model installed yet
  kServing,    // healthy: requests served by the full model
  kDegraded,   // recent requests shed or served below the full-model tier
  kDraining,   // shutting down: no new requests admitted
};
const char* ToString(HealthState state);

/// Which rung of the degradation ladder produced a response.
enum class ServeTier {
  kFullModel,           // full history through the live model
  kPopularityFallback,  // model-free popularity ranking
};
const char* ToString(ServeTier tier);

/// Tuning knobs; every time value is in nanoseconds on the server's Clock.
struct ModelServerOptions {
  /// Per-request time budget when the request doesn't carry its own.
  int64_t default_deadline_nanos = 50 * kNanosPerMilli;
  /// Load-shedding policy (in-flight cap + token bucket).
  AdmissionOptions admission;
  /// The model tier is only attempted while the remaining budget is at
  /// least max(this floor, its observed-cost EWMA); below that the request
  /// goes straight to the popularity fallback instead of starting a
  /// forward pass that the latency history says is doomed. A skipped
  /// request folds the budget it declined into the EWMA as a censored
  /// sample, so one stall cannot lock the model tier out for good.
  int64_t min_model_budget_nanos = kNanosPerMilli;
  /// Metrics registry the server publishes its counters/gauges/histograms
  /// into (names under "serving."). nullptr: the server owns a private
  /// enabled registry, so stats() always works. Pass an obs::NoopRegistry
  /// to disable instrumentation entirely (stats() then reads zeros — the
  /// bench overhead gate runs this configuration).
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional per-request tracer (admit → snapshot → tier passes, with
  /// tier-downgrade/shed annotations). nullptr disables tracing — the
  /// default, since traces cost allocations per request.
  obs::Tracer* tracer = nullptr;
};

/// One serving request: a user history plus ranking options and an
/// optional per-request deadline budget.
struct ServeRequest {
  std::vector<int64_t> history;
  RecommendOptions options;
  /// Time budget for this request; 0 uses the server default.
  int64_t deadline_nanos = 0;
  /// Optional caller-side cancellation (client disconnect, or a hedging
  /// cluster client abandoning the slower attempt). Unlike the internal
  /// deadline predicate — which makes the request *degrade* down the
  /// ladder — an external cancel makes it *stop*: the server returns
  /// Status::Aborted without descending to cheaper tiers, because the
  /// caller no longer wants any answer from this attempt. Must be
  /// thread-safe and cheap (it is polled from compute-pool threads).
  CancelFn cancel;
};

/// One served ranking, tagged with the tier that produced it and the model
/// generation that was live (generation 0 = no model involved, i.e. pure
/// fallback before any reload bookkeeping — in practice the generation the
/// request snapshotted).
struct ServeResponse {
  std::vector<Recommendation> items;
  ServeTier tier = ServeTier::kFullModel;
  /// False when the deadline fired before any tier could produce items for
  /// this user (only possible with no fallback configured).
  bool complete = true;
  int64_t generation = 0;
};

struct BatchServeRequest {
  std::vector<std::vector<int64_t>> histories;
  RecommendOptions options;
  int64_t deadline_nanos = 0;
  /// See ServeRequest::cancel.
  CancelFn cancel;
};

struct BatchServeResponse {
  std::vector<ServeResponse> responses;  // one per requested history
  /// True if the deadline cancelled model work at any point (even when the
  /// fallback rescued every user).
  bool deadline_hit = false;
  int64_t generation = 0;
};

/// Cumulative counters since construction (monotone; sampled atomically
/// field-by-field, so cross-field sums may be momentarily inconsistent
/// under concurrent traffic). Since the observability layer landed this is
/// a thin view over the server's registry-backed "serving.*" metrics; with
/// an obs::NoopRegistry injected every field reads 0.
struct ServerStats {
  int64_t requests = 0;           // admitted Serve/ServeBatch calls
  int64_t served = 0;             // user rankings returned, any tier
  int64_t shed = 0;               // calls rejected by admission control
  int64_t deadline_exceeded = 0;  // calls whose deadline cancelled work
  int64_t full_model_served = 0;  // per-user tier counts
  int64_t fallback_served = 0;
  int64_t reloads = 0;    // validated hot reloads installed
  int64_t rollbacks = 0;  // reload attempts rolled back (load or canary)
  /// EWMA of the model tier's pass cost (0 until first measured), the
  /// value gating the ladder decision.
  int64_t full_cost_estimate_nanos = 0;
};

/// Production-shaped serving shell around RecommendationService:
///
///  - **Deadlines.** Every request runs under a time budget on the
///    injected Clock; a cooperative cancel predicate is threaded through
///    the batch fan-out, and overruns degrade instead of hanging.
///  - **Admission control.** A bounded in-flight budget plus a token
///    bucket shed excess load with Status::ResourceExhausted and a
///    retry-after hint, before the model burns cycles on a request that
///    would miss its deadline anyway.
///  - **Degradation ladder.** full model → PopularityFallback →
///    DeadlineExceeded (or a partial batch); every response is tagged with
///    the tier that served it. There is no cheaper model retry: every
///    history is padded or truncated to the model's fixed max_len, so any
///    second pass costs exactly what the first one did.
///  - **Validated hot reload.** Reload() loads a checkpoint through the
///    io::Env/CRC-32 machinery into a *shadow* model, replays the canary
///    request set against sanity bounds (finite scores, non-empty top-K),
///    and only then atomically swaps the live shared_ptr — any failure
///    rolls back with the previous model still answering. In-flight
///    requests hold their own snapshot, so a reload can never expose a
///    partially loaded model.
///  - **Health + counters** for observability: kStarting/kServing/
///    kDegraded/kDraining and the ServerStats counters.
///
/// Concurrency: Serve/ServeBatch may be called from any number of threads.
/// A model is put into eval mode once, before its canaries, and is never
/// written after it is installed. Model inference is still serialised by
/// an internal mutex: it bounds each server to one forward pass of work
/// and activation memory at a time (saturating callers would otherwise
/// run passes side by side). Parallelism *within* a request comes from
/// the compute pool, which is where CPU time goes anyway, and the
/// admission in-flight cap bounds the queue behind the mutex. With a
/// FakeClock every outcome — tiers, shed decisions, counters, rankings —
/// is bit-identical at any compute thread count.
class ModelServer {
 public:
  /// Builds a fresh, identically-structured model for checkpoint loading
  /// (checkpoints only load into a model of the same architecture).
  using ModelFactory =
      std::function<std::unique_ptr<models::SequentialRecommender>()>;

  /// `clock`/`env` default to the real clock and filesystem; tests inject
  /// FakeClock / FaultInjectionEnv. `factory` may be null if Start() is
  /// used and no checkpoint reloads are needed.
  explicit ModelServer(const ModelServerOptions& options,
                       ModelFactory factory = nullptr,
                       Clock* clock = nullptr, io::Env* env = nullptr);

  /// Canary request set replayed against every candidate model before it
  /// goes live (see train::ExportCanarySet). Without canaries, validation
  /// degrades to the checkpoint CRC check alone. Must be called before
  /// Start/Reload, not concurrently with them.
  void set_canary_requests(std::vector<std::vector<int64_t>> canaries);

  /// Installs the ladder's model-free last tier. Without it, deadline
  /// blowouts can leave requests unserved (ServeResponse::complete =
  /// false, or DeadlineExceeded).
  void set_fallback(PopularityFallback fallback);

  /// Puts `model` into eval mode, validates it against the canary set and
  /// goes kServing. On canary failure the server stays kStarting and keeps
  /// no model. A model that scores by user id (BPR-MF, Caser) fails every
  /// canary, since serving has only histories.
  Status Start(std::unique_ptr<models::SequentialRecommender> model);

  /// factory() + LoadCheckpoint + Start, the usual boot path.
  Status StartFromCheckpoint(const std::string& path);

  Result<ServeResponse> Serve(const ServeRequest& request);
  Result<BatchServeResponse> ServeBatch(const BatchServeRequest& request);

  /// --- Streaming state (ROADMAP item 4; see docs/STATE.md) -------------
  ///
  /// Attaches a durable per-user state store: AppendEvent feeds it,
  /// ServeSession reads live histories out of it. The server owns the
  /// store from here on. Any previously cached session responses are
  /// dropped.
  void AttachStateStore(std::unique_ptr<state::StateStore> store);
  /// The attached store, or nullptr. The pointer stays valid for the
  /// server's lifetime (stores are attached once, at boot).
  state::StateStore* state_store() const { return state_store_.get(); }

  /// Durably appends interaction events for `user_id` (per the store's
  /// SyncMode) and invalidates the user's cached session response — the
  /// next ServeSession recomputes from the updated history. Fails with
  /// InvalidArgument when no store is attached; a failed append (e.g. the
  /// sync barrier could not run) means the event was NOT accepted.
  Result<state::AppendAck> AppendEvent(uint64_t user_id,
                                       const std::vector<int64_t>& items);

  /// Serves a session request: like Serve, but the history is the user's
  /// live state from the store (request.history is ignored). Full-model
  /// responses are cached per user and reused while (user state version,
  /// model generation, ranking options) all match — the cached-inference
  /// stand-in that AppendEvent invalidates. A popularity-fallback response
  /// is never cached, so the next call tries the model again. Unknown
  /// users fail with a typed NotFound (append first).
  Result<ServeResponse> ServeSession(uint64_t user_id,
                                     const ServeRequest& request);

  /// Re-runs state recovery from disk, discarding in-memory state and the
  /// session cache — the "restarted process" drill used by
  /// cluster::ClusterServer::RestoreShard. No-op without a store.
  Status ReloadStateFromDisk();

  /// The user's anti-entropy digest from the attached store (zero digest
  /// for an unknown user) — what the cluster's repair sweep and read-
  /// repair compare across replicas without shipping histories. Fails
  /// with InvalidArgument when no store is attached.
  Result<state::UserDigest> UserStateDigest(uint64_t user_id) const;

  /// Validated hot reload; see class comment. Serialised against other
  /// reloads; concurrent requests keep serving the previous model until
  /// the swap. Returns the load/validation error on rollback.
  Status Reload(const std::string& checkpoint_path);

  /// Begins a graceful shutdown: the server transitions to kDraining and
  /// every *subsequent* Serve/ServeBatch call is rejected up front with a
  /// typed Status::Unavailable ("server is draining") before admission —
  /// it consumes no admission slot and touches no model state. Requests
  /// already past the health check keep running to completion on their
  /// model snapshot: BeginDrain only flips the state flag (it takes no
  /// model or inference lock), so nothing in flight is interrupted,
  /// cancelled, or downgraded. kDraining is terminal — there is no
  /// undrain; a cluster restores capacity by routing around the draining
  /// shard (see cluster::ClusterServer). Verified by
  /// ModelServerTest.DrainRejectsNewWhileInFlightCompletes.
  void BeginDrain();

  HealthState health() const;
  ServerStats stats() const;
  /// Monotone counter bumped by every installed model (Start or Reload).
  int64_t generation() const;
  /// The registry the server's "serving.*" metrics live in: the injected
  /// one, or the private registry when options.metrics was null.
  const obs::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  struct TierOutcome;  // per-tier bookkeeping helper (see .cc)

  std::shared_ptr<models::SequentialRecommender> ModelSnapshot(
      int64_t* generation) const;
  Status ValidateCanaries(models::SequentialRecommender* candidate);
  void Install(std::unique_ptr<models::SequentialRecommender> model);
  void UpdateHealthAfterServe(bool all_full_tier);
  void NoteShed();

  const ModelServerOptions options_;
  ModelFactory factory_;
  Clock* clock_;
  io::Env* env_;
  AdmissionController admission_;
  PopularityFallback fallback_;
  std::vector<std::vector<int64_t>> canaries_;

  mutable std::mutex model_mu_;  // guards model_ + generation_ (swap point)
  std::shared_ptr<models::SequentialRecommender> model_;
  int64_t generation_ = 0;

  std::mutex infer_mu_;   // one forward pass at a time (live + canary)
  std::mutex reload_mu_;  // one Start/Reload at a time

  mutable std::mutex state_mu_;  // health state + recovery hysteresis
  HealthState state_ = HealthState::kStarting;
  int64_t consecutive_full_ = 0;

  /// Streaming-state tier. The cache entry is the response computed from
  /// (user state version, model generation, ranking options); any append
  /// or reload changes one of those and the entry stops matching.
  struct SessionCacheEntry {
    int64_t version = 0;
    int64_t generation = 0;
    int64_t top_k = 0;
    bool exclude_seen = false;
    ServeResponse response;
  };
  std::unique_ptr<state::StateStore> state_store_;
  std::mutex session_mu_;  // guards session_cache_
  std::unordered_map<uint64_t, SessionCacheEntry> session_cache_;
  obs::Counter session_hits_;
  obs::Counter session_misses_;
  obs::Counter session_invalidations_;

  /// Registry the counters/gauges/histograms below are handles into: the
  /// injected options.metrics, or the private owned_metrics_ fallback.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;
  obs::Tracer* tracer_;  // may be null (tracing off)

  obs::Counter requests_;
  obs::Counter served_;
  obs::Counter shed_;
  obs::Counter deadline_exceeded_;
  obs::Counter full_model_served_;
  obs::Counter fallback_served_;
  obs::Counter reloads_;
  obs::Counter rollbacks_;
  /// Mirrors of the cost EWMA and health state for snapshot export.
  obs::Gauge full_cost_gauge_;
  obs::Gauge health_gauge_;
  /// Request and model-pass latencies on clock_ (deterministic under a
  /// FakeClock).
  obs::Histogram request_nanos_;
  obs::Histogram full_pass_nanos_;

  /// The model tier's cost EWMA, measured on clock_ around each pass and
  /// fed the declined budget of each skip (updates are deterministic under
  /// a FakeClock). Integer EWMA with a CAS loop (see CostEwma) so
  /// concurrent observations never lose updates.
  CostEwma full_cost_estimate_;
};

}  // namespace serving
}  // namespace slime

#endif  // SLIME4REC_SERVING_MODEL_SERVER_H_
