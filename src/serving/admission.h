#ifndef SLIME4REC_SERVING_ADMISSION_H_
#define SLIME4REC_SERVING_ADMISSION_H_

#include <cstdint>
#include <mutex>

#include "serving/clock.h"

namespace slime {
namespace serving {

/// Overload policy for one server: how many requests may be in flight at
/// once, and how fast new ones may arrive.
struct AdmissionOptions {
  /// Hard cap on concurrently admitted requests. Requests beyond it are
  /// shed immediately (fail fast beats queueing: a queue under sustained
  /// overload only converts overload into latency for everyone).
  int64_t max_in_flight = 64;
  /// Token-bucket rate limit. 0 disables rate limiting; otherwise each
  /// admitted request consumes one token and tokens refill continuously at
  /// this rate up to `burst`.
  double tokens_per_second = 0.0;
  /// Bucket capacity: the largest instantaneous burst admitted after an
  /// idle period. Must be >= 1 when rate limiting is on.
  double burst = 32.0;
};

/// Retry-after hint handed out when shedding on the in-flight cap, where
/// (unlike an empty token bucket) no exact refill time is computable.
constexpr int64_t kInFlightRetryHintNanos = kNanosPerMilli;

/// Outcome of one admission attempt.
struct AdmissionDecision {
  bool admitted = false;
  /// When not admitted: suggested client back-off. For token exhaustion
  /// this is the exact time until the next token at the configured rate;
  /// for the in-flight cap it is kInFlightRetryHintNanos.
  int64_t retry_after_nanos = 0;
  /// Which limit rejected the request ("in-flight" or "rate"); nullptr
  /// when admitted.
  const char* limit = nullptr;
};

/// Deterministic admission controller: a bounded in-flight budget plus a
/// token bucket, both driven by the injected Clock, so tests with a
/// FakeClock replay identical shed/admit sequences regardless of thread
/// count or machine speed. Thread-safe; one instance per ModelServer.
class AdmissionController {
 public:
  AdmissionController(const AdmissionOptions& options, Clock* clock);

  /// Tries to admit one request at the current clock time. On success the
  /// caller owes exactly one Release() when the request finishes.
  AdmissionDecision TryAdmit();

  /// Marks one admitted request finished.
  void Release();

  int64_t in_flight() const;

 private:
  const AdmissionOptions options_;
  Clock* clock_;
  mutable std::mutex mu_;
  int64_t in_flight_ = 0;       // guarded by mu_
  double tokens_;               // guarded by mu_
  int64_t last_refill_nanos_;   // guarded by mu_
};

}  // namespace serving
}  // namespace slime

#endif  // SLIME4REC_SERVING_ADMISSION_H_
