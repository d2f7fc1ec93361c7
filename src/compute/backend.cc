#include "compute/backend.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace slime {
namespace compute {
namespace {

std::mutex& BackendMutex() {
  static std::mutex mu;
  return mu;
}

std::string& ActiveNameLocked() {
  static std::string name = "scalar";
  return name;
}

std::atomic<bool> g_env_applied{false};

bool EnvDisablesAvx2() {
  const char* v = std::getenv("SLIME_DISABLE_AVX2");
  return v != nullptr && v[0] == '1' && v[1] == '\0';
}

}  // namespace

bool CpuSupportsAvx2Fma() {
#if defined(__x86_64__) || defined(__i386__)
  if (EnvDisablesAvx2()) return false;
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

std::string CpuFeatureString() {
  std::string out;
#if defined(__x86_64__) || defined(__i386__)
  // __builtin_cpu_supports requires a literal argument, hence the macro.
#define SLIME_APPEND_FEATURE(name)         \
  do {                                     \
    if (__builtin_cpu_supports(name)) {    \
      if (!out.empty()) out += ' ';        \
      out += name;                         \
    }                                      \
  } while (0)
  SLIME_APPEND_FEATURE("sse2");
  SLIME_APPEND_FEATURE("avx");
  SLIME_APPEND_FEATURE("avx2");
  SLIME_APPEND_FEATURE("fma");
  SLIME_APPEND_FEATURE("avx512f");
#undef SLIME_APPEND_FEATURE
#endif
  return out.empty() ? "none" : out;
}

std::vector<std::string> AvailableKernelBackends() {
  std::vector<std::string> names;
  if (SimdBackendCompiled() && CpuSupportsAvx2Fma()) names.push_back("simd");
  names.push_back("scalar");
  return names;
}

Result<std::string> ParseKernelBackend(const std::string& text) {
  if (text == "auto" || text == "scalar" || text == "simd") return text;
  return Status::InvalidArgument("unknown kernel backend '" + text +
                                 "' (valid: auto, scalar, simd)");
}

Result<std::string> SetKernelBackend(const std::string& name) {
  Result<std::string> parsed = ParseKernelBackend(name);
  if (!parsed.ok()) return parsed;
  std::string resolved = parsed.value();
  if (resolved == "auto") {
    resolved =
        (SimdBackendCompiled() && CpuSupportsAvx2Fma()) ? "simd" : "scalar";
  } else if (resolved == "simd") {
    if (!SimdBackendCompiled()) {
      return Status::Unavailable(
          "kernel backend 'simd' is not compiled into this binary "
          "(built with SLIME_SIMD=OFF or for a non-x86-64 target)");
    }
    if (!CpuSupportsAvx2Fma()) {
      return Status::Unavailable(
          "kernel backend 'simd' needs avx2+fma; host CPU reports: " +
          CpuFeatureString());
    }
  }
  std::lock_guard<std::mutex> lock(BackendMutex());
  // SetDispatch marks the env var consumed, so an explicit choice here is
  // never overridden later.
  SetDispatch(resolved == "simd" ? internal::SimdKernelTable()
                                 : KernelTable{});
  ActiveNameLocked() = resolved;
  return resolved;
}

std::string ActiveKernelBackend() {
  EnsureKernelBackendEnvApplied();
  std::lock_guard<std::mutex> lock(BackendMutex());
  return ActiveNameLocked();
}

int KernelBackendId(const std::string& name) {
  if (name == "scalar") return 0;
  if (name == "simd") return 1;
  return -1;
}

void EnsureKernelBackendEnvApplied() {
  if (g_env_applied.load(std::memory_order_acquire)) return;
  // Claim the env var before acting so SetKernelBackend below doesn't
  // recurse through SetDispatch -> MarkKernelBackendEnvApplied.
  if (g_env_applied.exchange(true, std::memory_order_acq_rel)) return;
  const char* v = std::getenv("SLIME_KERNEL_BACKEND");
  if (v == nullptr || v[0] == '\0') return;
  const Result<std::string> applied = SetKernelBackend(v);
  if (!applied.ok()) {
    std::fprintf(stderr,
                 "warning: SLIME_KERNEL_BACKEND ignored, using scalar: %s\n",
                 applied.status().message().c_str());
  }
}

void MarkKernelBackendEnvApplied() {
  g_env_applied.store(true, std::memory_order_release);
}

}  // namespace compute
}  // namespace slime
