#include "cluster/cluster.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/macros.h"

namespace slime {
namespace cluster {
namespace {

std::string JoinInts(const std::vector<int64_t>& v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(v[i]);
  }
  return out;
}

}  // namespace

const char* ToString(ClusterHealth health) {
  switch (health) {
    case ClusterHealth::kServing:
      return "serving";
    case ClusterHealth::kDegraded:
      return "degraded";
    case ClusterHealth::kUnavailable:
      return "unavailable";
  }
  return "unknown";
}

const char* ToString(ShardLiveness liveness) {
  switch (liveness) {
    case ShardLiveness::kHealthy:
      return "healthy";
    case ShardLiveness::kEjected:
      return "ejected";
    case ShardLiveness::kProbation:
      return "probation";
    case ShardLiveness::kDown:
      return "down";
  }
  return "unknown";
}

RingOptions FleetRing(const ClusterOptions& options) {
  RingOptions ring;
  ring.num_shards = options.num_shards;
  ring.replication = options.replication;
  ring.seed = options.seed;
  return ring;
}

ClusterServer::ClusterServer(const ClusterOptions& options,
                             ModelFactory factory, serving::Clock* clock,
                             io::Env* env)
    : options_(options),
      ring_(FleetRing(options)),
      hints_(options.handoff),
      factory_(std::move(factory)),
      clock_(clock != nullptr ? clock : serving::Clock::Default()),
      env_(env != nullptr ? env : io::Env::Default()) {
  SLIME_CHECK_GT(options_.default_deadline_nanos, 0);
  shards_.resize(static_cast<size_t>(ring_.num_shards()));
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  tracer_ = options_.tracer;
  requests_ = metrics_->counter("cluster.requests");
  served_ = metrics_->counter("cluster.served");
  attempts_ = metrics_->counter("cluster.attempts");
  retries_ = metrics_->counter("cluster.retries");
  failovers_ = metrics_->counter("cluster.failovers");
  backoff_waits_ = metrics_->counter("cluster.backoff_waits");
  hedges_ = metrics_->counter("cluster.hedges");
  hedge_wins_ = metrics_->counter("cluster.hedge_wins");
  ejections_ = metrics_->counter("cluster.ejections");
  reinstatements_ = metrics_->counter("cluster.reinstatements");
  typed_failures_ = metrics_->counter("cluster.typed_failures");
  unavailable_ = metrics_->counter("cluster.unavailable");
  state_appends_ = metrics_->counter("cluster.state_appends");
  state_append_failures_ = metrics_->counter("cluster.state_append_failures");
  underreplicated_appends_ =
      metrics_->counter("cluster.state.underreplicated_appends");
  restore_failures_ = metrics_->counter("cluster.state.restore_failures");
  hints_queued_ = metrics_->counter("cluster.repair.hints_queued");
  hints_replayed_ = metrics_->counter("cluster.repair.hints_replayed");
  hints_dropped_ = metrics_->counter("cluster.repair.hints_dropped");
  hint_replay_failures_ =
      metrics_->counter("cluster.repair.hint_replay_failures");
  repair_segments_ = metrics_->counter("cluster.repair.segments");
  repair_users_repaired_ = metrics_->counter("cluster.repair.users_repaired");
  repair_items_ = metrics_->counter("cluster.repair.items_transferred");
  repair_conflicts_ = metrics_->counter("cluster.repair.conflicts");
  read_divergence_ = metrics_->counter("cluster.repair.read_divergence");
  hints_pending_gauge_ = metrics_->gauge("cluster.repair.hints_pending");
  health_gauge_ = metrics_->gauge("cluster.health");
  live_shards_ = metrics_->gauge("cluster.live_shards");
  ejected_shards_ = metrics_->gauge("cluster.ejected_shards");
  request_nanos_ = metrics_->histogram("cluster.request_nanos");
  attempt_nanos_ = metrics_->histogram("cluster.attempt_nanos");
  PublishHealthGauges();
}

void ClusterServer::set_canary_requests(
    std::vector<std::vector<int64_t>> canaries) {
  canaries_ = std::move(canaries);
}

void ClusterServer::set_fallback(serving::PopularityFallback fallback) {
  fallback_ = std::move(fallback);
  has_fallback_ = true;
}

Status ClusterServer::Start() {
  return BootShards("Start", [this](serving::ModelServer* server) {
    return server->Start(factory_());
  });
}

Status ClusterServer::StartFromCheckpoint(const std::string& path) {
  return BootShards("StartFromCheckpoint",
                    [&path](serving::ModelServer* server) {
                      return server->StartFromCheckpoint(path);
                    });
}

Status ClusterServer::BootShards(
    const std::string& caller,
    const std::function<Status(serving::ModelServer*)>& boot) {
  if (factory_ == nullptr) {
    return Status::InvalidArgument("cluster " + caller +
                                   " requires a model factory");
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    auto server = std::make_unique<serving::ModelServer>(
        options_.shard, factory_, clock_, env_);
    if (!canaries_.empty()) server->set_canary_requests(canaries_);
    if (has_fallback_) server->set_fallback(fallback_);
    SLIME_RETURN_IF_ERROR(boot(server.get()));
    shards_[s].server = std::move(server);
    SLIME_RETURN_IF_ERROR(AttachShardState(static_cast<int64_t>(s)));
  }
  started_ = true;
  PublishHealthGauges();
  return Status::OK();
}

Status ClusterServer::AttachShardState(int64_t shard) {
  if (options_.state_dir.empty()) return Status::OK();
  state::StateStoreOptions opts;
  opts.dir = options_.state_dir + "/shard_" + std::to_string(shard);
  opts.sync = options_.state_sync;
  opts.env = env_;
  // Shards share the cluster's registry/tracer: state.* series aggregate
  // across the fleet, same convention as shared serving.* metrics.
  opts.metrics = options_.shard.metrics;
  opts.tracer = options_.shard.tracer;
  Result<std::unique_ptr<state::StateStore>> store = state::StateStore::Open(opts);
  if (!store.ok()) return store.status();
  shards_[static_cast<size_t>(shard)].server->AttachStateStore(
      std::move(store.value()));
  return Status::OK();
}

ShardLiveness ClusterServer::LivenessLocked(const Shard& s) const {
  if (!s.alive) return ShardLiveness::kDown;
  if (s.reloading) return ShardLiveness::kEjected;
  if (s.ejected) {
    // Window expiry is observed lazily: a reader sees probation as soon
    // as the clock passes the window even before a router mutates state.
    if (clock_->NowNanos() >= s.ejected_until_nanos) {
      return ShardLiveness::kProbation;
    }
    return ShardLiveness::kEjected;
  }
  if (s.probation) return ShardLiveness::kProbation;
  return ShardLiveness::kHealthy;
}

void ClusterServer::RefreshEjections() {
  const int64_t now = clock_->NowNanos();
  for (Shard& s : shards_) {
    if (s.ejected && now >= s.ejected_until_nanos) {
      // Window served: back into preferred rotation, but on trial — only
      // reinstate_successes consecutive successes clear the flag, and one
      // failure re-ejects with a longer window (flap damping).
      s.ejected = false;
      s.probation = true;
      s.consecutive_successes = 0;
    }
  }
}

std::vector<int64_t> ClusterServer::AttemptPlan(
    const std::vector<int64_t>& replicas) {
  std::lock_guard<std::mutex> lock(health_mu_);
  RefreshEjections();
  std::vector<int64_t> plan;
  plan.reserve(replicas.size());
  // Preferred replicas in ring order; ejected/reloading demoted to last
  // resort (still routable — better a suspect shard than no answer). Down
  // shards keep their slot: the router has no oracle for deadness, it
  // learns by the attempt failing fast.
  for (int64_t shard : replicas) {
    const Shard& s = shards_[static_cast<size_t>(shard)];
    if (!(s.ejected || s.reloading)) plan.push_back(shard);
  }
  for (int64_t shard : replicas) {
    const Shard& s = shards_[static_cast<size_t>(shard)];
    if (s.ejected || s.reloading) plan.push_back(shard);
  }
  return plan;
}

Result<serving::ServeResponse> ClusterServer::AttemptShard(
    int64_t shard, uint64_t user_key, bool session,
    const serving::ServeRequest& request, int64_t remaining_nanos,
    int64_t hedge_deadline_nanos) {
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    if (!shards_[static_cast<size_t>(shard)].alive) {
      return Status::Unavailable("shard " + std::to_string(shard) +
                                 " refused connection");
    }
  }
  serving::ServeRequest sub = request;
  sub.deadline_nanos = remaining_nanos;
  if (hedge_deadline_nanos > 0) {
    serving::Clock* clock = clock_;
    serving::CancelFn base = request.cancel;
    sub.cancel = [clock, hedge_deadline_nanos, base] {
      return clock->NowNanos() >= hedge_deadline_nanos || (base && base());
    };
  }
  serving::ModelServer* server = shards_[static_cast<size_t>(shard)].server.get();
  if (session) return server->ServeSession(user_key, sub);
  return server->Serve(sub);
}

void ClusterServer::NoteAttemptSuccess(int64_t shard) {
  std::lock_guard<std::mutex> lock(health_mu_);
  Shard& s = shards_[static_cast<size_t>(shard)];
  s.consecutive_failures = 0;
  RefreshEjections();
  if (s.probation) {
    if (++s.consecutive_successes >= kReinstateSuccesses) {
      s.probation = false;
      s.ejection_window_nanos = 0;  // full recovery resets the backoff
      reinstatements_.Increment();
    }
  }
}

void ClusterServer::NoteAttemptFailure(int64_t shard, const Status& status) {
  // Only transport failure marks a shard an outlier. Shedding
  // (kResourceExhausted) is load, not shard damage — ejecting for it would
  // shift yet more load onto the replicas; slowness is the hedger's job.
  if (status.code() != Status::Code::kUnavailable) return;
  std::lock_guard<std::mutex> lock(health_mu_);
  Shard& s = shards_[static_cast<size_t>(shard)];
  RefreshEjections();
  s.consecutive_successes = 0;
  ++s.consecutive_failures;
  const auto eject = [&] {
    s.ejection_window_nanos =
        s.ejection_window_nanos == 0
            ? kEjectionNanos
            : std::min(static_cast<int64_t>(
                           static_cast<double>(s.ejection_window_nanos) *
                           kEjectionBackoff),
                       kMaxEjectionNanos);
    s.ejected = true;
    s.probation = false;
    s.consecutive_failures = 0;
    s.ejected_until_nanos = clock_->NowNanos() + s.ejection_window_nanos;
    ejections_.Increment();
  };
  if (s.probation) {
    eject();  // one strike on probation: back out, longer window
  } else if (!s.ejected && s.consecutive_failures >= kEjectionFailures) {
    eject();
  }
}

void ClusterServer::PublishHealthGauges() {
  health_gauge_.Set(static_cast<int64_t>(health()));
  int64_t live = 0;
  int64_t ejected = 0;
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    for (const Shard& s : shards_) {
      const ShardLiveness l = LivenessLocked(s);
      if (l == ShardLiveness::kHealthy || l == ShardLiveness::kProbation) {
        ++live;
      }
      if (l == ShardLiveness::kEjected) ++ejected;
    }
  }
  live_shards_.Set(live);
  ejected_shards_.Set(ejected);
}

ClusterHealth ClusterServer::health() const {
  if (!started_) return ClusterHealth::kUnavailable;
  std::lock_guard<std::mutex> lock(health_mu_);
  bool impaired = false;
  for (const Shard& s : shards_) {
    if (LivenessLocked(s) != ShardLiveness::kHealthy) impaired = true;
  }
  // Quorum rule: a segment is dark only when *no* replica is alive —
  // ejected/probation/reloading replicas are still routable, so they keep
  // the segment out of the dark even while the cluster is degraded.
  for (int64_t seg = 0; seg < ring_.num_segments(); ++seg) {
    bool any_alive = false;
    for (int64_t shard : ring_.Replicas(seg)) {
      if (shards_[static_cast<size_t>(shard)].alive) any_alive = true;
    }
    if (!any_alive) return ClusterHealth::kUnavailable;
  }
  return impaired ? ClusterHealth::kDegraded : ClusterHealth::kServing;
}

ShardLiveness ClusterServer::shard_liveness(int64_t shard) const {
  std::lock_guard<std::mutex> lock(health_mu_);
  return LivenessLocked(shards_[static_cast<size_t>(shard)]);
}

serving::ModelServer* ClusterServer::shard_server(int64_t shard) {
  return shards_[static_cast<size_t>(shard)].server.get();
}

void ClusterServer::KillShard(int64_t shard) {
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    shards_[static_cast<size_t>(shard)].alive = false;
  }
  PublishHealthGauges();
}

Status ClusterServer::RestoreShard(int64_t shard) {
  // A restored shard is a restarted process: its in-memory state is
  // whatever crash recovery rebuilds from its own durable snapshot + WAL.
  // Recovery runs FIRST, while the shard is still dark — a shard whose
  // recovery fails must stay dead (serving empty or stale state is the
  // silent-drift failure docs/STATE.md gates against), and queued handoff
  // hints replay before the shard takes any traffic.
  Status reloaded =
      shards_[static_cast<size_t>(shard)].server->ReloadStateFromDisk();
  if (!reloaded.ok()) {
    restore_failures_.Increment();
    PublishHealthGauges();
    return Status::Unavailable(
        "shard " + std::to_string(shard) +
        " stays dead: state recovery failed: " + reloaded.ToString());
  }
  if (options_.hinted_handoff) {
    Result<int64_t> replayed = ReplayHints(shard);
    if (!replayed.ok()) {
      // The shard's store refused the replayed writes — treat it like a
      // failed recovery: keep it dead rather than rejoin behind.
      restore_failures_.Increment();
      PublishHealthGauges();
      return replayed.status();
    }
  }
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    Shard& s = shards_[static_cast<size_t>(shard)];
    s.alive = true;
    // Deliberately keep any ejection: the shard earns its way back through
    // window expiry → probation → consecutive successes, so a restore
    // cannot instantly yank traffic onto a host that just flapped.
    s.consecutive_failures = 0;
  }
  if (options_.repair_on_restore && !options_.state_dir.empty()) {
    // Hints cover what was queued; the digest sweep closes the rest
    // (overflow drops, writes that predate the queue). Conflicts are
    // counted by the sweep, and a sweep IO failure is surfaced — the
    // shard is already serving its own durable state, which is safe.
    Result<RepairStats> swept = RepairShard(shard);
    if (!swept.ok()) {
      PublishHealthGauges();
      return swept.status();
    }
  }
  PublishHealthGauges();
  return Status::OK();
}

Result<int64_t> ClusterServer::ReplayHints(int64_t shard) {
  std::vector<HandoffHint> backlog = hints_.Drain(shard);
  serving::ModelServer* server = shards_[static_cast<size_t>(shard)].server.get();
  int64_t replayed = 0;
  for (size_t i = 0; i < backlog.size(); ++i) {
    Result<state::AppendAck> ack =
        server->AppendEvent(backlog[i].user_key, backlog[i].items);
    if (!ack.ok()) {
      // Re-queue the unreplayed remainder (the failed hint was not
      // applied, so the backlog from it onward is still owed).
      for (size_t j = i; j < backlog.size(); ++j) {
        if (!hints_.Enqueue(shard, std::move(backlog[j]))) {
          hints_dropped_.Increment();
        }
      }
      hint_replay_failures_.Increment();
      hints_pending_gauge_.Set(hints_.total_pending());
      return ack.status();
    }
    ++replayed;
    hints_replayed_.Increment();
  }
  hints_pending_gauge_.Set(hints_.total_pending());
  return replayed;
}

std::vector<state::StateStore*> ClusterServer::ReachableStores(
    int64_t segment, int64_t include_shard) {
  std::vector<state::StateStore*> stores;
  std::lock_guard<std::mutex> lock(health_mu_);
  for (int64_t shard : ring_.Replicas(segment)) {
    const Shard& s = shards_[static_cast<size_t>(shard)];
    if (!s.alive && shard != include_shard) continue;
    state::StateStore* store = s.server->state_store();
    if (store != nullptr) stores.push_back(store);
  }
  return stores;
}

Result<RepairStats> ClusterServer::RepairShard(int64_t shard) {
  if (shard < 0 || shard >= ring_.num_shards()) {
    return Status::InvalidArgument("shard " + std::to_string(shard) +
                                   " out of range");
  }
  if (!started_) return Status::Unavailable("cluster is not started");
  if (options_.state_dir.empty()) {
    return Status::InvalidArgument(
        "cluster has no state dir configured (stateless)");
  }
  obs::TraceBuilder trace;
  if (tracer_ != nullptr) trace = tracer_->StartTrace("cluster.repair");
  const int32_t span = trace.BeginSpan("shard");
  trace.Annotate(span, "shard", std::to_string(shard));
  RepairStats total;
  for (int64_t segment : ring_.SegmentsOfShard(shard)) {
    // The shard being repaired counts as reachable even while marked dead:
    // a restore repairs it an instant before it rejoins rotation.
    const std::vector<state::StateStore*> stores =
        ReachableStores(segment, shard);
    if (stores.size() < 2) continue;  // nothing to compare against
    RepairStats stats;
    const Status st = RepairReplicaSet(
        stores,
        [this, segment](uint64_t user) {
          return ring_.SegmentOf(user) == segment;
        },
        &stats);
    if (!st.ok()) {
      trace.EndSpan(span);
      trace.Finish();
      return st;
    }
    repair_segments_.Increment();
    repair_users_repaired_.Increment(stats.users_repaired);
    repair_items_.Increment(stats.items_transferred);
    repair_conflicts_.Increment(stats.conflicts);
    total.Add(stats);
  }
  trace.Annotate(span, "repaired", std::to_string(total.users_repaired));
  trace.Annotate(span, "conflicts", std::to_string(total.conflicts));
  trace.EndSpan(span);
  trace.Finish();
  return total;
}

void ClusterServer::ReadRepair(uint64_t user_key) {
  // Divergence check on the serve path: a converged user costs R digest
  // reads; only a divergence runs the election and the heal.
  const std::vector<state::StateStore*> stores =
      ReachableStores(ring_.SegmentOf(user_key), /*include_shard=*/-1);
  if (stores.size() < 2) return;
  const state::UserDigest first = stores[0]->Digest(user_key);
  const bool diverged =
      std::any_of(stores.begin() + 1, stores.end(),
                  [&](const state::StateStore* store) {
                    return store->Digest(user_key) != first;
                  });
  if (!diverged) return;
  read_divergence_.Increment();
  RepairStats stats;
  if (!RepairReplicas(stores, user_key, &stats).ok()) return;
  repair_users_repaired_.Increment(stats.users_repaired);
  repair_items_.Increment(stats.items_transferred);
  repair_conflicts_.Increment(stats.conflicts);
}

Result<state::AppendAck> ClusterServer::AppendEvent(
    uint64_t user_key, const std::vector<int64_t>& items) {
  if (!started_) return Status::Unavailable("cluster is not started");
  if (options_.state_dir.empty()) {
    return Status::InvalidArgument(
        "cluster has no state dir configured (stateless)");
  }
  const std::vector<int64_t> replicas =
      ring_.Replicas(ring_.SegmentOf(user_key));
  Result<state::AppendAck> first = Status::Unavailable("no replica attempted");
  bool acked = false;
  int64_t replica_acks = 0;
  std::vector<int64_t> missed;  // replicas that did not take the write
  for (int64_t shard : replicas) {
    {
      std::lock_guard<std::mutex> lock(health_mu_);
      if (!shards_[static_cast<size_t>(shard)].alive) {
        state_append_failures_.Increment();
        missed.push_back(shard);
        continue;  // a partitioned process cannot take the write
      }
    }
    Result<state::AppendAck> ack =
        shards_[static_cast<size_t>(shard)].server->AppendEvent(user_key,
                                                                items);
    if (ack.ok()) {
      ++replica_acks;
      if (!acked) {
        first = std::move(ack);
        acked = true;
      }
    } else {
      state_append_failures_.Increment();
      missed.push_back(shard);
      if (!acked) first = std::move(ack);
    }
  }
  if (acked) {
    state_appends_.Increment();
    first.value().replica_acks = replica_acks;
    if (replica_acks < static_cast<int64_t>(replicas.size())) {
      // The append is acked but under-replicated: the missed replicas have
      // silently forked until anti-entropy closes the gap. The counter
      // makes the window visible; hinted handoff (when on) queues the
      // exact write for replay at restore.
      underreplicated_appends_.Increment();
      if (options_.hinted_handoff) {
        for (int64_t shard : missed) {
          HandoffHint hint;
          hint.user_key = user_key;
          hint.items = items;
          hint.origin_seq =
              hint_seq_.fetch_add(1, std::memory_order_relaxed);
          if (hints_.Enqueue(shard, std::move(hint))) {
            hints_queued_.Increment();
          } else {
            hints_dropped_.Increment();
          }
        }
        hints_pending_gauge_.Set(hints_.total_pending());
      }
    }
    return first;
  }
  if (first.status().code() == Status::Code::kInvalidArgument) return first;
  return Status::Unavailable("append for user " + std::to_string(user_key) +
                             " failed on every replica: " +
                             first.status().message());
}

Result<serving::ServeResponse> ClusterServer::Serve(
    uint64_t user_key, const serving::ServeRequest& request) {
  return ServeRouted(user_key, request, /*session=*/false);
}

Result<serving::ServeResponse> ClusterServer::ServeSession(
    uint64_t user_key, const serving::ServeRequest& request) {
  if (options_.state_dir.empty()) {
    return Status::InvalidArgument(
        "cluster has no state dir configured (stateless)");
  }
  return ServeRouted(user_key, request, /*session=*/true);
}

Result<serving::ServeResponse> ClusterServer::ServeRouted(
    uint64_t user_key, const serving::ServeRequest& request, bool session) {
  if (!started_) return Status::Unavailable("cluster is not started");
  const int64_t start = clock_->NowNanos();
  const int64_t budget = request.deadline_nanos > 0
                             ? request.deadline_nanos
                             : options_.default_deadline_nanos;
  const int64_t deadline = start + budget;
  requests_.Increment();
  // Per-request jitter stream: seeded from (cluster seed, request
  // sequence), so a same-seed rerun of the same request order jitters
  // identically and never consults a global RNG.
  const uint64_t seq = static_cast<uint64_t>(
      request_seq_.fetch_add(1, std::memory_order_relaxed));
  Rng rng(ShardRing::Mix(options_.seed) ^ ShardRing::Mix(seq + 0x9e37ull));

  obs::TraceBuilder trace;
  if (tracer_ != nullptr) trace = tracer_->StartTrace("cluster.request");

  const int64_t segment = ring_.SegmentOf(user_key);
  std::vector<int64_t> plan;
  {
    const int32_t route_span = trace.BeginSpan("route");
    plan = AttemptPlan(ring_.Replicas(segment));
    trace.Annotate(route_span, "segment", std::to_string(segment));
    trace.Annotate(route_span, "plan", JoinInts(plan));
    trace.EndSpan(route_span);
  }

  Result<serving::ServeResponse> out =
      Status::Unavailable("no shard attempted");
  size_t pos = 0;
  bool hedged = false;
  bool next_is_hedge = false;
  for (int64_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const bool is_hedge_attempt = next_is_hedge;
    next_is_hedge = false;
    const int64_t shard = plan[pos % plan.size()];
    const int64_t attempt_start = clock_->NowNanos();
    const int64_t remaining = deadline - attempt_start;
    if (remaining <= 0) {
      // Callers classify by the code, so it stays DeadlineExceeded; the
      // message names what the previous attempt returned (timed out,
      // shed, refused or hedged).
      std::string message = "cluster retry budget exhausted before attempt " +
                            std::to_string(attempt);
      if (attempt > 0) message += "; last attempt: " + out.status().ToString();
      out = Status::DeadlineExceeded(message);
      break;
    }

    // Arm the hedge: if this attempt outlives the tracked tail latency,
    // abandon it and re-issue to the next replica. Only once per request,
    // only with a replica to hedge to, an attempt slot to spend, and
    // enough budget that the hedged attempt could still finish.
    int64_t hedge_deadline = 0;
    if (!hedged && plan.size() > 1 && attempt + 1 < kMaxAttempts) {
      const int64_t delay = hedge_.DelayNanos();
      if (delay + kMinAttemptBudgetNanos < remaining) {
        hedge_deadline = attempt_start + delay;
      }
    }

    const int32_t span = trace.BeginSpan("attempt");
    trace.Annotate(span, "shard", std::to_string(shard));
    if (is_hedge_attempt) trace.Annotate(span, "hedge", "true");
    Result<serving::ServeResponse> result =
        AttemptShard(shard, user_key, session, request, remaining,
                     hedge_deadline);
    const int64_t elapsed = clock_->NowNanos() - attempt_start;
    attempts_.Increment();

    if (result.ok()) {
      trace.Annotate(span, "outcome", "ok");
      trace.EndSpan(span);
      hedge_.Observe(elapsed);
      attempt_nanos_.Observe(elapsed);
      NoteAttemptSuccess(shard);
      if (is_hedge_attempt) hedge_wins_.Increment();
      out = std::move(result);
      break;
    }

    const Status& st = result.status();
    const bool caller_cancelled = request.cancel && request.cancel();
    const bool hedge_fired = hedge_deadline > 0 &&
                             st.code() == Status::Code::kAborted &&
                             !caller_cancelled &&
                             clock_->NowNanos() >= hedge_deadline;
    if (hedge_fired) {
      // The primary is slow, not broken: re-issue to the next replica
      // without waiting and without dinging the primary's health.
      trace.Annotate(span, "outcome", "hedged");
      trace.EndSpan(span);
      hedges_.Increment();
      hedged = true;
      next_is_hedge = true;
      ++pos;
      out = st;
      continue;
    }

    trace.Annotate(span, "outcome", st.ToString());
    trace.EndSpan(span);
    NoteAttemptFailure(shard, st);
    out = st;
    if (st.code() == Status::Code::kAborted) break;  // caller cancelled

    const int64_t next_shard = plan[(pos + 1) % plan.size()];
    const bool same_shard = next_shard == shard;
    const RetryDecision decision = NextRetry(
        attempt, st, same_shard, deadline - clock_->NowNanos(), &rng);
    if (!decision.retry) {
      const int32_t give_up = trace.BeginSpan("retry.give_up");
      trace.Annotate(give_up, "reason", decision.reason);
      trace.EndSpan(give_up);
      break;
    }
    retries_.Increment();
    if (!same_shard) failovers_.Increment();
    if (decision.wait_nanos > 0) {
      const int32_t backoff = trace.BeginSpan("backoff");
      trace.Annotate(backoff, "reason", decision.reason);
      trace.Annotate(backoff, "wait_nanos",
                     std::to_string(decision.wait_nanos));
      backoff_waits_.Increment();
      clock_->SleepFor(decision.wait_nanos);
      trace.EndSpan(backoff);
    }
    ++pos;
  }

  trace.Finish();
  request_nanos_.Observe(clock_->NowNanos() - start);
  if (out.ok()) {
    served_.Increment();
    if (session && options_.read_repair) ReadRepair(user_key);
  } else {
    typed_failures_.Increment();
    if (out.status().code() == Status::Code::kUnavailable) {
      unavailable_.Increment();
    }
  }
  PublishHealthGauges();
  return out;
}

std::vector<std::vector<int64_t>> ClusterServer::ReloadWaves() const {
  // Greedy colouring of the co-replication graph: shards sharing a
  // segment get different colours, each colour class is one wave, so no
  // wave ever holds two replicas of any segment.
  const int64_t n = ring_.num_shards();
  std::vector<int64_t> color(static_cast<size_t>(n), -1);
  int64_t num_colors = 0;
  for (int64_t s = 0; s < n; ++s) {
    std::vector<bool> used(static_cast<size_t>(num_colors) + 1, false);
    for (int64_t t = 0; t < s; ++t) {
      if (ring_.SharesSegment(s, t)) used[static_cast<size_t>(color[t])] = true;
    }
    int64_t c = 0;
    while (used[static_cast<size_t>(c)]) ++c;
    color[static_cast<size_t>(s)] = c;
    if (c + 1 > num_colors) num_colors = c + 1;
  }
  std::vector<std::vector<int64_t>> waves(static_cast<size_t>(num_colors));
  for (int64_t s = 0; s < n; ++s) {
    waves[static_cast<size_t>(color[static_cast<size_t>(s)])].push_back(s);
  }
  return waves;
}

Status ClusterServer::RollingReload(
    const std::string& checkpoint_path,
    const std::function<void(int64_t wave)>& between_waves) {
  if (!started_) return Status::Unavailable("cluster is not started");
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  const std::vector<std::vector<int64_t>> waves = ReloadWaves();
  for (size_t w = 0; w < waves.size(); ++w) {
    {
      std::lock_guard<std::mutex> lock(health_mu_);
      for (int64_t s : waves[w]) {
        shards_[static_cast<size_t>(s)].reloading = true;
      }
    }
    PublishHealthGauges();
    Status wave_status = Status::OK();
    for (int64_t s : waves[w]) {
      {
        std::lock_guard<std::mutex> lock(health_mu_);
        // A dead shard has no process to reload; it picks the model up
        // when it is restored and re-bootstrapped by the operator.
        if (!shards_[static_cast<size_t>(s)].alive) continue;
      }
      wave_status = shards_[static_cast<size_t>(s)].server->Reload(
          checkpoint_path);
      if (!wave_status.ok()) break;
    }
    {
      std::lock_guard<std::mutex> lock(health_mu_);
      for (int64_t s : waves[w]) {
        shards_[static_cast<size_t>(s)].reloading = false;
      }
    }
    PublishHealthGauges();
    if (!wave_status.ok()) {
      // The failing shard rolled itself back (ModelServer::Reload is
      // validated); earlier waves keep the new model — both generations
      // passed canary validation, so the mixed fleet stays safe.
      return wave_status;
    }
    if (between_waves) between_waves(static_cast<int64_t>(w));
  }
  return Status::OK();
}

ClusterStats ClusterServer::stats() const {
  ClusterStats stats;
  stats.requests = requests_.value();
  stats.served = served_.value();
  stats.attempts = attempts_.value();
  stats.retries = retries_.value();
  stats.failovers = failovers_.value();
  stats.backoff_waits = backoff_waits_.value();
  stats.hedges = hedges_.value();
  stats.hedge_wins = hedge_wins_.value();
  stats.ejections = ejections_.value();
  stats.reinstatements = reinstatements_.value();
  stats.typed_failures = typed_failures_.value();
  stats.unavailable = unavailable_.value();
  stats.underreplicated_appends = underreplicated_appends_.value();
  stats.restore_failures = restore_failures_.value();
  stats.hints_queued = hints_queued_.value();
  stats.hints_replayed = hints_replayed_.value();
  stats.hints_dropped = hints_dropped_.value();
  stats.hints_pending = hints_.total_pending();
  stats.repair_users_repaired = repair_users_repaired_.value();
  stats.repair_items_transferred = repair_items_.value();
  stats.repair_conflicts = repair_conflicts_.value();
  stats.read_divergence = read_divergence_.value();
  return stats;
}

}  // namespace cluster
}  // namespace slime
