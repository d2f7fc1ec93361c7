#ifndef SLIME4REC_COMMON_MACROS_H_
#define SLIME4REC_COMMON_MACROS_H_

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace slime {
namespace internal {

/// Aborts the process with a formatted message. Used by SLIME_CHECK when an
/// internal invariant is violated; invariant violations are programming
/// errors, not recoverable conditions, so we fail fast (RocksDB style
/// assertions for debug invariants, kept on in release for a numerics
/// library where silent corruption is worse than a crash).
[[noreturn]] inline void CheckFailed(const char* file, int line,
                                     const char* expr,
                                     const std::string& message) {
  std::fprintf(stderr, "SLIME_CHECK failed at %s:%d: %s %s\n", file, line,
               expr, message.c_str());
  std::abort();
}

/// Stream-capture helper so SLIME_CHECK can accept `<<`-style messages.
class CheckMessageBuilder {
 public:
  template <typename T>
  CheckMessageBuilder& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }
  std::string str() const { return stream_.str(); }

 private:
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace slime

/// Checks an invariant; aborts with file/line and an optional streamed
/// message on failure. Enabled in all build types.
/// No-alias pointer qualifier for hot loops where the compiler cannot
/// otherwise prove distinct buffers (e.g. the FFT recombination passes,
/// whose scratch and output planes come from different allocations but
/// reach the loop as plain float*).
#if defined(_MSC_VER)
#define SLIME_RESTRICT __restrict
#else
#define SLIME_RESTRICT __restrict__
#endif

#define SLIME_CHECK(expr)                                                  \
  if (!(expr))                                                             \
  ::slime::internal::CheckFailed(__FILE__, __LINE__, #expr,                \
                                 ::slime::internal::CheckMessageBuilder() \
                                     .str())

#define SLIME_CHECK_MSG(expr, msg)                          \
  if (!(expr))                                              \
  ::slime::internal::CheckFailed(                           \
      __FILE__, __LINE__, #expr,                            \
      (::slime::internal::CheckMessageBuilder() << msg).str())

#define SLIME_CHECK_EQ(a, b) \
  SLIME_CHECK_MSG((a) == (b), "(" << (a) << " vs " << (b) << ")")
#define SLIME_CHECK_LT(a, b) \
  SLIME_CHECK_MSG((a) < (b), "(" << (a) << " vs " << (b) << ")")
#define SLIME_CHECK_LE(a, b) \
  SLIME_CHECK_MSG((a) <= (b), "(" << (a) << " vs " << (b) << ")")
#define SLIME_CHECK_GT(a, b) \
  SLIME_CHECK_MSG((a) > (b), "(" << (a) << " vs " << (b) << ")")
#define SLIME_CHECK_GE(a, b) \
  SLIME_CHECK_MSG((a) >= (b), "(" << (a) << " vs " << (b) << ")")

#endif  // SLIME4REC_COMMON_MACROS_H_
