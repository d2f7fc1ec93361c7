#include "serving/admission.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace slime {
namespace serving {

AdmissionController::AdmissionController(const AdmissionOptions& options,
                                         Clock* clock)
    : options_(options), clock_(clock) {
  SLIME_CHECK(clock != nullptr);
  SLIME_CHECK_GE(options_.max_in_flight, 1);
  if (options_.tokens_per_second > 0.0) {
    SLIME_CHECK_GE(options_.burst, 1.0);
  }
  tokens_ = options_.burst;
  last_refill_nanos_ = clock_->NowNanos();
}

AdmissionDecision AdmissionController::TryAdmit() {
  std::lock_guard<std::mutex> lk(mu_);
  if (in_flight_ >= options_.max_in_flight) {
    return {false, kInFlightRetryHintNanos, "in-flight"};
  }
  if (options_.tokens_per_second > 0.0) {
    const int64_t now = clock_->NowNanos();
    // Refill from the last observed time; the clock is monotonic but a
    // FakeClock shared across tests may be Set() backwards, so clamp.
    const int64_t elapsed = std::max<int64_t>(0, now - last_refill_nanos_);
    last_refill_nanos_ = now;
    tokens_ = std::min(
        options_.burst,
        tokens_ + options_.tokens_per_second *
                      (static_cast<double>(elapsed) / kNanosPerSecond));
    if (tokens_ < 1.0) {
      const double deficit_seconds =
          (1.0 - tokens_) / options_.tokens_per_second;
      return {false,
              static_cast<int64_t>(std::ceil(deficit_seconds *
                                             kNanosPerSecond)),
              "rate"};
    }
    tokens_ -= 1.0;
  }
  ++in_flight_;
  return {true, 0, nullptr};
}

void AdmissionController::Release() {
  std::lock_guard<std::mutex> lk(mu_);
  SLIME_CHECK_GT(in_flight_, 0);
  --in_flight_;
}

int64_t AdmissionController::in_flight() const {
  std::lock_guard<std::mutex> lk(mu_);
  return in_flight_;
}

}  // namespace serving
}  // namespace slime
