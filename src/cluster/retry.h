#ifndef SLIME4REC_CLUSTER_RETRY_H_
#define SLIME4REC_CLUSTER_RETRY_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "serving/clock.h"

namespace slime {
namespace cluster {

// Client-side retry policy (the gRPC service-config analogue).

/// Total attempts per request, including the first.
inline constexpr int64_t kMaxAttempts = 3;
/// Backoff before retry k (1-based) starts from this and multiplies by
/// kBackoffMultiplier per failed attempt, up to kMaxBackoffNanos.
inline constexpr int64_t kInitialBackoffNanos = 2 * serving::kNanosPerMilli;
inline constexpr double kBackoffMultiplier = 2.0;
inline constexpr int64_t kMaxBackoffNanos = 64 * serving::kNanosPerMilli;
/// Backoff is scaled by a seeded factor in [1-jitter, 1+jitter] to
/// decorrelate clients that failed together.
inline constexpr double kBackoffJitter = 0.25;
/// A retry (or hedge) is only issued if, after the wait, at least this
/// much of the request's deadline budget would remain for the attempt
/// itself. This is the retry *budget*: waiting is paid for out of the
/// deadline, and a retry that could not possibly finish is not worth
/// admitting.
inline constexpr int64_t kMinAttemptBudgetNanos = 2 * serving::kNanosPerMilli;

/// What the policy decided after a failed attempt.
struct RetryDecision {
  bool retry = false;
  /// How long the client must wait before the next attempt (already the
  /// max of jittered backoff and the server's retry-after hint).
  int64_t wait_nanos = 0;
  /// Why not / why: "permanent", "attempts", "budget", "backoff",
  /// "failover". Static strings, safe to log.
  const char* reason = "";
};

/// The jittered exponential backoff for 0-based failed attempt index
/// `attempt`, before hints and budget are applied. One draw from `rng`
/// (non-null) per call keeps the jitter stream aligned with the attempt
/// sequence, so a same-seed rerun backs off identically.
int64_t BackoffNanos(int64_t attempt, Rng* rng);

/// Deterministic retry decision after 0-based attempt `attempt` failed
/// with `failure`: a pure function of its arguments and the constants
/// above. `same_shard` is true when the next candidate is the shard that
/// just failed; `remaining_budget_nanos` is deadline - now. `rng` (non-null)
/// supplies the jitter stream: one draw per backoff decision, none on
/// failover or on a terminal decision.
///
/// Semantics:
///  - Only kUnavailable and kResourceExhausted are retryable; everything
///    else (bad request, internal corruption, caller cancellation) is a
///    permanent failure that retrying cannot fix.
///  - kUnavailable with a *different* shard available next is an immediate
///    failover: the failed connection tells us nothing about the replica,
///    so no backoff is charged ("failover").
///  - Otherwise the wait is exponential backoff with seeded jitter, raised
///    to the server's typed retry_after_nanos hint when one is attached
///    (Status::WithRetryAfter, produced by admission control): the server
///    knows exactly when its token bucket refills, and re-knocking earlier
///    is guaranteed to be shed again.
///  - The wait is spent from the same deadline budget as the attempts; if
///    wait + kMinAttemptBudgetNanos exceeds what is left, the retry is
///    refused ("budget") and the last failure stands.
RetryDecision NextRetry(int64_t attempt, const Status& failure,
                        bool same_shard, int64_t remaining_budget_nanos,
                        Rng* rng);

// Hedging policy (the "defer to a replica if the primary is slow"
// tail-tolerance scheme from The Tail at Scale).

/// The hedge fires when an attempt outlives this percentile of recently
/// observed attempt latencies.
inline constexpr double kHedgePercentile = 0.95;
/// How many recent latencies inform the percentile.
inline constexpr int64_t kHedgeWindow = 64;
/// Samples required before the percentile is trusted; until then the
/// initial delay is used.
inline constexpr int64_t kHedgeMinSamples = 8;
inline constexpr int64_t kHedgeInitialDelayNanos = 20 * serving::kNanosPerMilli;
/// Floor so a fast-but-noisy window cannot hedge everything.
inline constexpr int64_t kHedgeMinDelayNanos = serving::kNanosPerMilli;

/// Bounded sliding window of attempt latencies that yields the hedge
/// delay as a percentile. Deterministic given the observation sequence:
/// no decay clocks, just the last kHedgeWindow samples. Thread-safe.
class HedgeDelayTracker {
 public:
  HedgeDelayTracker();

  void Observe(int64_t latency_nanos);

  /// Current hedge delay: kHedgePercentile of the window once
  /// kHedgeMinSamples have been seen, else kHedgeInitialDelayNanos; never
  /// below kHedgeMinDelayNanos.
  int64_t DelayNanos() const;

 private:
  mutable std::mutex mu_;
  std::vector<int64_t> window_;  // ring buffer, size <= kHedgeWindow
  size_t next_ = 0;              // ring cursor
  int64_t seen_ = 0;
};

}  // namespace cluster
}  // namespace slime

#endif  // SLIME4REC_CLUSTER_RETRY_H_
