#include "cluster/retry.h"

#include <algorithm>
#include <cmath>

namespace slime {
namespace cluster {

int64_t BackoffNanos(int64_t attempt, Rng* rng) {
  double backoff = static_cast<double>(kInitialBackoffNanos);
  for (int64_t i = 0; i < attempt; ++i) {
    backoff *= kBackoffMultiplier;
    if (backoff >= static_cast<double>(kMaxBackoffNanos)) break;
  }
  backoff = std::min(backoff, static_cast<double>(kMaxBackoffNanos));
  const double factor =
      1.0 + kBackoffJitter * (2.0 * rng->UniformDouble() - 1.0);
  return static_cast<int64_t>(backoff * factor);
}

RetryDecision NextRetry(int64_t attempt, const Status& failure,
                        bool same_shard, int64_t remaining_budget_nanos,
                        Rng* rng) {
  RetryDecision decision;
  const Status::Code code = failure.code();
  const bool retryable = code == Status::Code::kUnavailable ||
                         code == Status::Code::kResourceExhausted;
  if (!retryable) {
    decision.reason = "permanent";
    return decision;
  }
  if (attempt + 1 >= kMaxAttempts) {
    decision.reason = "attempts";
    return decision;
  }

  int64_t wait = 0;
  const char* reason = "backoff";
  if (code == Status::Code::kUnavailable && !same_shard) {
    // The shard is unreachable and a replica is next in line: failing over
    // immediately costs the replica nothing and the user no budget.
    wait = 0;
    reason = "failover";
  } else {
    wait = BackoffNanos(attempt, rng);
    if (same_shard && failure.retry_after_nanos() > wait) {
      // The server told us exactly when re-admission can succeed; knocking
      // earlier is a guaranteed shed.
      wait = failure.retry_after_nanos();
    }
  }

  if (wait + kMinAttemptBudgetNanos > remaining_budget_nanos) {
    decision.reason = "budget";
    return decision;
  }
  decision.retry = true;
  decision.wait_nanos = wait;
  decision.reason = reason;
  return decision;
}

HedgeDelayTracker::HedgeDelayTracker() {
  window_.reserve(static_cast<size_t>(kHedgeWindow));
}

void HedgeDelayTracker::Observe(int64_t latency_nanos) {
  if (latency_nanos < 0) latency_nanos = 0;
  std::lock_guard<std::mutex> lock(mu_);
  if (static_cast<int64_t>(window_.size()) < kHedgeWindow) {
    window_.push_back(latency_nanos);
  } else {
    window_[next_] = latency_nanos;
  }
  next_ = (next_ + 1) % static_cast<size_t>(kHedgeWindow);
  ++seen_;
}

int64_t HedgeDelayTracker::DelayNanos() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t delay = kHedgeInitialDelayNanos;
  if (seen_ >= kHedgeMinSamples) {
    std::vector<int64_t> sorted = window_;
    std::sort(sorted.begin(), sorted.end());
    // Nearest-rank percentile, matching the observability histograms:
    // rank ceil(p * n) in [1, n] for 0 < p <= 1 and n >= kHedgeMinSamples.
    const size_t rank = static_cast<size_t>(
        std::ceil(kHedgePercentile * static_cast<double>(sorted.size())));
    delay = sorted[rank - 1];
  }
  return std::max(delay, kHedgeMinDelayNanos);
}

}  // namespace cluster
}  // namespace slime
