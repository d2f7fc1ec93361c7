#include "serving/model_server.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/macros.h"
#include "compute/backend.h"
#include "io/checkpoint.h"

namespace slime {
namespace serving {
namespace {

/// Top-K used for canary validation during Start/Reload.
constexpr int64_t kCanaryTopK = 5;

/// Consecutive fully-served (all users at the full-model tier) requests
/// needed to leave kDegraded.
constexpr int64_t kRecoveryFullResponses = 8;

/// Releases one admission slot on scope exit.
class AdmissionRelease {
 public:
  explicit AdmissionRelease(AdmissionController* admission)
      : admission_(admission) {}
  ~AdmissionRelease() { admission_->Release(); }
  AdmissionRelease(const AdmissionRelease&) = delete;
  AdmissionRelease& operator=(const AdmissionRelease&) = delete;

 private:
  AdmissionController* admission_;
};

std::string NanosAsMillis(int64_t nanos) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f ms",
                static_cast<double>(nanos) / kNanosPerMilli);
  return buf;
}

}  // namespace

const char* ToString(HealthState state) {
  switch (state) {
    case HealthState::kStarting:
      return "starting";
    case HealthState::kServing:
      return "serving";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kDraining:
      return "draining";
  }
  return "unknown";
}

const char* ToString(ServeTier tier) {
  switch (tier) {
    case ServeTier::kFullModel:
      return "full-model";
    case ServeTier::kPopularityFallback:
      return "popularity-fallback";
  }
  return "unknown";
}

ModelServer::ModelServer(const ModelServerOptions& options,
                         ModelFactory factory, Clock* clock, io::Env* env)
    : options_(options),
      factory_(std::move(factory)),
      clock_(clock != nullptr ? clock : Clock::Default()),
      env_(env != nullptr ? env : io::Env::Default()),
      admission_(options.admission, clock_) {
  SLIME_CHECK_GT(options_.default_deadline_nanos, 0);
  SLIME_CHECK_GE(options_.min_model_budget_nanos, 0);
  // Metrics: publish into the caller's registry when provided (which may
  // be a NoopRegistry to disable instrumentation), else into a private
  // enabled registry so stats() is always live.
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  tracer_ = options_.tracer;
  requests_ = metrics_->counter("serving.requests");
  served_ = metrics_->counter("serving.served");
  shed_ = metrics_->counter("serving.shed");
  deadline_exceeded_ = metrics_->counter("serving.deadline_exceeded");
  full_model_served_ = metrics_->counter("serving.tier.full_served");
  fallback_served_ = metrics_->counter("serving.tier.fallback_served");
  reloads_ = metrics_->counter("serving.reloads");
  rollbacks_ = metrics_->counter("serving.rollbacks");
  full_cost_gauge_ = metrics_->gauge("serving.cost.full_nanos");
  health_gauge_ = metrics_->gauge("serving.health");
  request_nanos_ = metrics_->histogram("serving.request_nanos");
  full_pass_nanos_ = metrics_->histogram("serving.tier.full_pass_nanos");
  session_hits_ = metrics_->counter("state.session_hits");
  session_misses_ = metrics_->counter("state.session_misses");
  session_invalidations_ = metrics_->counter("state.session_invalidations");
  health_gauge_.Set(static_cast<int64_t>(state_));
  // Which kernel tier this process computes with (0 = scalar, 1 = simd), so
  // fleet dashboards can spot hosts that fell back.
  metrics_->gauge("serving.kernel_backend")
      .Set(compute::KernelBackendId(compute::ActiveKernelBackend()));
}

void ModelServer::set_canary_requests(
    std::vector<std::vector<int64_t>> canaries) {
  canaries_ = std::move(canaries);
}

void ModelServer::set_fallback(PopularityFallback fallback) {
  fallback_ = std::move(fallback);
}

std::shared_ptr<models::SequentialRecommender> ModelServer::ModelSnapshot(
    int64_t* generation) const {
  std::lock_guard<std::mutex> lk(model_mu_);
  if (generation != nullptr) *generation = generation_;
  return model_;
}

Status ModelServer::ValidateCanaries(
    models::SequentialRecommender* candidate) {
  // The one mode switch serving makes: a candidate enters eval mode before
  // its first pass and is never written again once installed, so live
  // passes only read it.
  candidate->SetTraining(false);
  RecommendationService service(candidate);
  RecommendOptions options;
  options.top_k = kCanaryTopK;
  // Canary forward passes share the compute pool (and, in chaos tests, the
  // clock seam) with live traffic; take the inference lock like any other
  // forward pass so the two never interleave on the model-stateful path.
  std::lock_guard<std::mutex> lk(infer_mu_);
  for (size_t i = 0; i < canaries_.size(); ++i) {
    const std::string tag = "canary " + std::to_string(i);
    const Result<std::vector<Recommendation>> ranked =
        service.Recommend(canaries_[i], options);
    if (!ranked.ok()) {
      return Status::Aborted(tag + " failed: " + ranked.status().ToString());
    }
    if (ranked.value().empty()) {
      return Status::Aborted(tag + " returned an empty top-K");
    }
    for (const Recommendation& rec : ranked.value()) {
      if (!std::isfinite(rec.score)) {
        return Status::Aborted(tag + " produced a non-finite score for item " +
                               std::to_string(rec.item));
      }
      if (rec.item < 1 || rec.item > candidate->config().num_items) {
        return Status::Aborted(tag + " ranked out-of-catalogue item " +
                               std::to_string(rec.item));
      }
    }
  }
  return Status::OK();
}

void ModelServer::Install(
    std::unique_ptr<models::SequentialRecommender> model) {
  std::lock_guard<std::mutex> lk(model_mu_);
  model_ = std::move(model);
  ++generation_;
}

Status ModelServer::Start(
    std::unique_ptr<models::SequentialRecommender> model) {
  SLIME_CHECK(model != nullptr);
  std::lock_guard<std::mutex> reload_lk(reload_mu_);
  const Status canary = ValidateCanaries(model.get());
  if (!canary.ok()) {
    rollbacks_.Increment();
    return canary;
  }
  Install(std::move(model));
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (state_ == HealthState::kStarting) state_ = HealthState::kServing;
    health_gauge_.Set(static_cast<int64_t>(state_));
  }
  return Status::OK();
}

Status ModelServer::StartFromCheckpoint(const std::string& path) {
  if (!factory_) {
    return Status::InvalidArgument(
        "StartFromCheckpoint needs a model factory to build the target "
        "architecture");
  }
  std::unique_ptr<models::SequentialRecommender> fresh = factory_();
  SLIME_RETURN_IF_ERROR(io::LoadCheckpoint(fresh.get(), path, env_));
  return Start(std::move(fresh));
}

Status ModelServer::Reload(const std::string& checkpoint_path) {
  std::lock_guard<std::mutex> reload_lk(reload_mu_);
  if (!factory_) {
    return Status::InvalidArgument(
        "Reload needs a model factory to build the shadow model");
  }
  if (ModelSnapshot(nullptr) == nullptr) {
    return Status::InvalidArgument(
        "Reload before Start; use StartFromCheckpoint for the first model");
  }
  // Shadow load: the live model keeps serving while the candidate is
  // loaded and validated off to the side. Any failure below leaves the
  // server exactly as it was (rollback = do nothing).
  std::unique_ptr<models::SequentialRecommender> shadow = factory_();
  const Status loaded = io::LoadCheckpoint(shadow.get(), checkpoint_path, env_);
  if (!loaded.ok()) {
    rollbacks_.Increment();
    return loaded;
  }
  const Status canary = ValidateCanaries(shadow.get());
  if (!canary.ok()) {
    rollbacks_.Increment();
    return Status::Aborted("reload of " + checkpoint_path +
                           " rolled back (previous model still serving): " +
                           canary.message());
  }
  Install(std::move(shadow));
  reloads_.Increment();
  return Status::OK();
}

void ModelServer::BeginDrain() {
  std::lock_guard<std::mutex> lk(state_mu_);
  state_ = HealthState::kDraining;
  health_gauge_.Set(static_cast<int64_t>(state_));
}

HealthState ModelServer::health() const {
  std::lock_guard<std::mutex> lk(state_mu_);
  return state_;
}

ServerStats ModelServer::stats() const {
  ServerStats s;
  s.requests = requests_.value();
  s.served = served_.value();
  s.shed = shed_.value();
  s.deadline_exceeded = deadline_exceeded_.value();
  s.full_model_served = full_model_served_.value();
  s.fallback_served = fallback_served_.value();
  s.reloads = reloads_.value();
  s.rollbacks = rollbacks_.value();
  s.full_cost_estimate_nanos = full_cost_estimate_.value();
  return s;
}

int64_t ModelServer::generation() const {
  std::lock_guard<std::mutex> lk(model_mu_);
  return generation_;
}

void ModelServer::UpdateHealthAfterServe(bool all_full_tier) {
  std::lock_guard<std::mutex> lk(state_mu_);
  if (state_ == HealthState::kDraining || state_ == HealthState::kStarting) {
    return;
  }
  if (all_full_tier) {
    if (state_ == HealthState::kDegraded &&
        ++consecutive_full_ >= kRecoveryFullResponses) {
      state_ = HealthState::kServing;
      consecutive_full_ = 0;
    }
  } else {
    consecutive_full_ = 0;
    state_ = HealthState::kDegraded;
  }
  health_gauge_.Set(static_cast<int64_t>(state_));
}

void ModelServer::NoteShed() {
  shed_.Increment();
  std::lock_guard<std::mutex> lk(state_mu_);
  if (state_ == HealthState::kServing) state_ = HealthState::kDegraded;
  consecutive_full_ = 0;
  health_gauge_.Set(static_cast<int64_t>(state_));
}

Result<ServeResponse> ModelServer::Serve(const ServeRequest& request) {
  BatchServeRequest batch;
  batch.histories = {request.history};
  batch.options = request.options;
  batch.deadline_nanos = request.deadline_nanos;
  batch.cancel = request.cancel;
  Result<BatchServeResponse> result = ServeBatch(batch);
  if (!result.ok()) return result.status();
  ServeResponse response = std::move(result.value().responses[0]);
  if (!response.complete) {
    return Status::DeadlineExceeded(
        "deadline exceeded before any tier could serve the request");
  }
  return response;
}

Result<BatchServeResponse> ModelServer::ServeBatch(
    const BatchServeRequest& request) {
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (state_ == HealthState::kStarting) {
      return Status::Unavailable("server is starting: no model installed");
    }
    if (state_ == HealthState::kDraining) {
      return Status::Unavailable("server is draining");
    }
  }
  // One trace per request (when a tracer is configured): admit →
  // snapshot → tier passes, with shed/downgrade decisions as annotations.
  obs::TraceBuilder trace = tracer_ != nullptr
                                ? tracer_->StartTrace("request")
                                : obs::TraceBuilder();

  const int32_t admit_span = trace.BeginSpan("admit");
  const AdmissionDecision admit = admission_.TryAdmit();
  if (!admit.admitted) {
    trace.Annotate(admit_span, "shed", admit.limit);
    trace.Finish();
    NoteShed();
    // The typed retry_after_nanos mirrors the human-readable hint so a
    // retrying client never has to parse the message.
    return Status::ResourceExhausted(
               std::string("shed by ") + admit.limit + " limit; retry after " +
               NanosAsMillis(admit.retry_after_nanos))
        .WithRetryAfter(admit.retry_after_nanos);
  }
  trace.EndSpan(admit_span);
  AdmissionRelease release(&admission_);
  requests_.Increment();
  const int64_t request_start_nanos = clock_->NowNanos();

  const int64_t budget = request.deadline_nanos > 0
                             ? request.deadline_nanos
                             : options_.default_deadline_nanos;
  const int64_t deadline = clock_->NowNanos() + budget;
  // External cancellation (hedging client, disconnect) is folded into the
  // same cooperative predicate the tiers poll, but its consequence differs:
  // a deadline degrades the request down the ladder, an external cancel
  // aborts it outright (see externally_cancelled checks below).
  const CancelFn& external = request.cancel;
  const auto externally_cancelled = [&external] {
    return external && external();
  };
  const CancelFn past_deadline = [this, deadline, &externally_cancelled] {
    return clock_->NowNanos() >= deadline || externally_cancelled();
  };
  const CancelFn skip_tier = [] { return true; };
  const auto remaining = [this, deadline] {
    return deadline - clock_->NowNanos();
  };

  BatchServeResponse out;
  const int32_t snapshot_span = trace.BeginSpan("snapshot");
  std::shared_ptr<models::SequentialRecommender> model =
      ModelSnapshot(&out.generation);
  trace.EndSpan(snapshot_span);
  SLIME_CHECK(model != nullptr);
  RecommendationService service(model.get());

  const size_t num_users = request.histories.size();
  out.responses.resize(num_users);
  for (ServeResponse& r : out.responses) r.generation = out.generation;

  // --- Tier 1: full history through the live model, attempted only while
  // the remaining budget covers its observed cost (EWMA; the configured
  // floor before any observation). Even when skipped for budget the call
  // still runs (with an always-true cancel) so input validation always
  // happens and bad requests fail as bad requests, not as fallbacks.
  std::vector<size_t> pending;
  {
    const int64_t left = remaining();
    const bool attempt =
        left >= std::max(options_.min_model_budget_nanos,
                         full_cost_estimate_.value());
    obs::TraceSpan tier1_span(trace, "forward.full");
    if (!attempt) {
      tier1_span.Annotate("skipped", "budget");
      // A skip never measures the pass, so fold in the budget it declined
      // as a censored sample: without it, one stall would keep the
      // estimate above every later budget and the tier locked out for good.
      full_cost_estimate_.Observe(left);
      full_cost_gauge_.Set(full_cost_estimate_.value());
    }
    std::unique_lock<std::mutex> infer_lk(infer_mu_, std::defer_lock);
    if (attempt) infer_lk.lock();
    const int64_t t0 = clock_->NowNanos();
    Result<PartialBatch> tier1 = service.RecommendBatchCancellable(
        request.histories, request.options, attempt ? past_deadline
                                                    : skip_tier);
    if (!tier1.ok()) return tier1.status();
    if (attempt) {
      const int64_t elapsed = clock_->NowNanos() - t0;
      full_cost_estimate_.Observe(elapsed);
      full_cost_gauge_.Set(full_cost_estimate_.value());
      full_pass_nanos_.Observe(elapsed);
    }
    const PartialBatch& pb = tier1.value();
    if (pb.cancelled) {
      tier1_span.Annotate("cancelled", externally_cancelled() ? "caller"
                                                              : "deadline");
    }
    out.deadline_hit = pb.cancelled;
    for (size_t i = 0; i < num_users; ++i) {
      if (pb.completed[i]) {
        out.responses[i].items = std::move(tier1.value().lists[i]);
        out.responses[i].tier = ServeTier::kFullModel;
      } else {
        pending.push_back(i);
      }
    }
  }

  // The caller abandoned the attempt (hedged elsewhere, disconnected):
  // stop outright instead of descending the ladder — no tier below can
  // produce an answer anyone still wants.
  if (externally_cancelled()) {
    trace.Finish();
    return Status::Aborted("request cancelled by caller");
  }

  // --- Tier 2: popularity fallback never needs the model or the budget.
  if (!pending.empty() && fallback_.Available()) {
    obs::TraceSpan fb_span(trace, "fallback");
    fb_span.Annotate("downgraded", std::to_string(pending.size()) +
                                       " users");
    for (size_t i : pending) {
      out.responses[i].items =
          fallback_.Recommend(request.histories[i], request.options);
      out.responses[i].tier = ServeTier::kPopularityFallback;
    }
    pending.clear();
  }
  for (size_t i : pending) {
    out.responses[i].complete = false;
    out.responses[i].items.clear();
  }

  // Bookkeeping: tier counters, deadline counter, health hysteresis.
  bool all_full = pending.empty();
  for (const ServeResponse& r : out.responses) {
    if (!r.complete) continue;
    served_.Increment();
    switch (r.tier) {
      case ServeTier::kFullModel:
        full_model_served_.Increment();
        break;
      case ServeTier::kPopularityFallback:
        fallback_served_.Increment();
        all_full = false;
        break;
    }
  }
  out.deadline_hit = out.deadline_hit || !pending.empty();
  if (out.deadline_hit) {
    deadline_exceeded_.Increment();
  }
  UpdateHealthAfterServe(all_full && !out.deadline_hit);
  request_nanos_.Observe(clock_->NowNanos() - request_start_nanos);
  trace.Finish();

  if (!pending.empty() && pending.size() == num_users) {
    return Status::DeadlineExceeded(
        "deadline of " + NanosAsMillis(budget) + " exceeded with " +
        std::to_string(pending.size()) + " of " + std::to_string(num_users) +
        " users unserved and no fallback available");
  }
  return out;
}

void ModelServer::AttachStateStore(
    std::unique_ptr<state::StateStore> store) {
  std::lock_guard<std::mutex> lock(session_mu_);
  state_store_ = std::move(store);
  session_cache_.clear();
}

Result<state::AppendAck> ModelServer::AppendEvent(
    uint64_t user_id, const std::vector<int64_t>& items) {
  if (state_store_ == nullptr) {
    return Status::InvalidArgument(
        "no state store attached (boot with a state dir)");
  }
  Result<state::AppendAck> ack = state_store_->Append(user_id, items);
  if (!ack.ok()) return ack;
  // The user's history changed: whatever was cached for them is stale.
  {
    std::lock_guard<std::mutex> lock(session_mu_);
    if (session_cache_.erase(user_id) > 0) {
      session_invalidations_.Increment();
    }
  }
  return ack;
}

Result<ServeResponse> ModelServer::ServeSession(uint64_t user_id,
                                                const ServeRequest& request) {
  if (state_store_ == nullptr) {
    return Status::InvalidArgument(
        "no state store attached (boot with a state dir)");
  }
  // Snapshot the version *before* reading the history: an append racing in
  // between makes the cached entry conservatively stale (extra miss), never
  // wrongly fresh.
  const int64_t version = state_store_->UserVersion(user_id);
  const int64_t live_generation = generation();
  {
    std::lock_guard<std::mutex> lock(session_mu_);
    auto it = session_cache_.find(user_id);
    if (it != session_cache_.end() && it->second.version == version &&
        it->second.generation == live_generation &&
        it->second.top_k == request.options.top_k &&
        it->second.exclude_seen == request.options.exclude_seen) {
      session_hits_.Increment();
      return it->second.response;
    }
  }
  std::vector<int64_t> history = state_store_->History(user_id);
  if (history.empty()) {
    return Status::NotFound("no state for user " + std::to_string(user_id) +
                            " (append events first)");
  }
  session_misses_.Increment();
  ServeRequest live = request;
  live.history = std::move(history);
  Result<ServeResponse> response = Serve(live);
  if (!response.ok()) return response;
  // Only the model's own answer is worth reusing: a fallback ranking was a
  // deadline's stopgap, and caching it would serve popularity to this user
  // until their next append or a reload.
  if (response.value().tier == ServeTier::kFullModel) {
    SessionCacheEntry entry;
    entry.version = version;
    entry.generation = response.value().generation;
    entry.top_k = request.options.top_k;
    entry.exclude_seen = request.options.exclude_seen;
    entry.response = response.value();
    std::lock_guard<std::mutex> lock(session_mu_);
    session_cache_[user_id] = std::move(entry);
  }
  return response;
}

Result<state::UserDigest> ModelServer::UserStateDigest(
    uint64_t user_id) const {
  if (state_store_ == nullptr) {
    return Status::InvalidArgument(
        "no state store attached (boot with a state dir)");
  }
  return state_store_->Digest(user_id);
}

Status ModelServer::ReloadStateFromDisk() {
  if (state_store_ == nullptr) return Status::OK();
  SLIME_RETURN_IF_ERROR(state_store_->Reload());
  std::lock_guard<std::mutex> lock(session_mu_);
  session_cache_.clear();
  return Status::OK();
}

}  // namespace serving
}  // namespace slime
