#ifndef SLIME4REC_COMMON_STATUS_H_
#define SLIME4REC_COMMON_STATUS_H_

#include <cstdint>
#include <string>
#include <utility>

#include "common/macros.h"

namespace slime {

/// Lightweight error-reporting type for fallible boundaries (file I/O,
/// dataset parsing, user-supplied configuration). Internal invariants use
/// SLIME_CHECK instead; Status is reserved for conditions a caller can
/// meaningfully handle, following the RocksDB convention.
class Status {
 public:
  enum class Code {
    kOk = 0,
    kInvalidArgument,
    kNotFound,
    kIOError,
    kCorruption,
    kAborted,
    kDeadlineExceeded,
    kResourceExhausted,
    kUnavailable,
  };

  Status() : code_(Code::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(Code::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(Code::kCorruption, std::move(msg));
  }
  /// An operation that started but was deliberately given up on (e.g.
  /// training abandoned after repeated divergence rollbacks, or a model
  /// reload rolled back after failing canary validation).
  static Status Aborted(std::string msg) {
    return Status(Code::kAborted, std::move(msg));
  }
  /// A request ran out of its time budget before completing. The serving
  /// layer may still have produced partial or degraded results; see
  /// serving::ModelServer.
  static Status DeadlineExceeded(std::string msg) {
    return Status(Code::kDeadlineExceeded, std::move(msg));
  }
  /// Load shedding: the server refused the request to protect itself
  /// (in-flight budget or rate limit). Retry later; the message carries a
  /// retry-after hint when one is known.
  static Status ResourceExhausted(std::string msg) {
    return Status(Code::kResourceExhausted, std::move(msg));
  }
  /// The service cannot take requests right now (still starting, or
  /// draining for shutdown). Unlike ResourceExhausted this is a state, not
  /// a momentary overload.
  static Status Unavailable(std::string msg) {
    return Status(Code::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Typed back-off hint attached to ResourceExhausted/Unavailable
  /// statuses (0 = no hint). The machine-readable twin of the "retry
  /// after" text some messages carry, so a retrying client (see
  /// cluster::NextRetry) can honour the server's hint without parsing
  /// prose. Analogue of gRPC's RetryInfo error detail.
  int64_t retry_after_nanos() const { return retry_after_nanos_; }
  Status&& WithRetryAfter(int64_t nanos) && {
    retry_after_nanos_ = nanos;
    return std::move(*this);
  }

  /// Human-readable rendering, e.g. "IOError: no such file".
  std::string ToString() const;

 private:
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  Code code_;
  std::string message_;
  int64_t retry_after_nanos_ = 0;
};

/// Propagates a non-OK Status to the caller.
#define SLIME_RETURN_IF_ERROR(expr)          \
  do {                                       \
    ::slime::Status _st = (expr);            \
    if (!_st.ok()) return _st;               \
  } while (0)

/// A value-or-Status pair for fallible factory functions.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    SLIME_CHECK(!status_.ok());
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    SLIME_CHECK_MSG(ok(), status_.ToString());
    return value_;
  }
  T& value() & {
    SLIME_CHECK_MSG(ok(), status_.ToString());
    return value_;
  }
  T&& value() && {
    SLIME_CHECK_MSG(ok(), status_.ToString());
    return std::move(value_);
  }

 private:
  T value_{};
  Status status_;
};

}  // namespace slime

#endif  // SLIME4REC_COMMON_STATUS_H_
