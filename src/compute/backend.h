#ifndef SLIME4REC_COMPUTE_BACKEND_H_
#define SLIME4REC_COMPUTE_BACKEND_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "compute/kernels.h"

namespace slime {
namespace compute {

/// Named kernel-backend tiers behind the Dispatch() registry (kernels.h).
///
/// Two tiers ship today:
///   - "scalar": the portable blocked ParallelFor kernels. Always available.
///   - "simd":   AVX2/FMA implementations of the two matmul entries,
///               ComplexMul and the elementwise primitives, selected at
///               runtime only on CPUs that report both features. Compiled
///               in when the build enables SLIME_SIMD on x86-64; falls back
///               to scalar otherwise.
///
/// Correctness contract (docs/KERNELS.md): every backend is bit-identical
/// across thread counts *within* itself; *across* backends only
/// gradcheck/ranking agreement is promised, because FMA contraction rounds
/// differently from separate multiply+add.
///
/// Selection order: explicit SetKernelBackend / SetDispatch wins; otherwise
/// the SLIME_KERNEL_BACKEND environment variable ("auto", "scalar", "simd")
/// is read on first Dispatch(); otherwise the default table ("scalar") is
/// used. "auto" resolves to "simd" when compiled in and the host CPU
/// supports it, else "scalar".

/// True when the simd backend was compiled into this binary (x86-64 build
/// with SLIME_SIMD=ON). Says nothing about the host CPU. Defined in
/// simd_kernels.cc, next to the table, so the two can't drift.
bool SimdBackendCompiled();

/// Runtime CPU feature check for the simd tier (cpuid via
/// __builtin_cpu_supports). The SLIME_DISABLE_AVX2=1 environment variable
/// forces false — an operational kill switch that also lets tests exercise
/// the non-AVX2 fallback path on any host.
bool CpuSupportsAvx2Fma();

/// Detected CPU features relevant to kernel selection, space-separated
/// (e.g. "avx2 fma avx512f"), or "none". For logs and bench host stanzas.
std::string CpuFeatureString();

/// Backend names selectable on this host right now, in preference order
/// (e.g. {"simd", "scalar"} on an AVX2/FMA host, {"scalar"} elsewhere).
std::vector<std::string> AvailableKernelBackends();

/// Strict validation of an untrusted backend name ("auto", "scalar",
/// "simd"); returns the canonical name or InvalidArgument naming the
/// offending text and the valid set. Does not check host availability.
Result<std::string> ParseKernelBackend(const std::string& text);

/// Installs the named backend's kernel table ("auto" resolves per host).
/// Returns the resolved concrete name ("scalar" or "simd"), or
/// InvalidArgument for unknown names, or Unavailable when the backend is not
/// compiled in / the host CPU lacks the features. Not thread-safe against
/// running kernels.
Result<std::string> SetKernelBackend(const std::string& name);

/// Name of the backend whose table SetKernelBackend installed last
/// ("scalar" until then, after env resolution). A raw SetDispatch() swap
/// does not change this name.
std::string ActiveKernelBackend();

/// Small stable id for metrics gauges: scalar=0, simd=1, anything else -1.
int KernelBackendId(const std::string& name);

/// Applies SLIME_KERNEL_BACKEND on the first call (no-op afterwards, and a
/// no-op forever once MarkKernelBackendEnvApplied ran). Invalid or
/// unavailable values fall back to scalar with a warning on stderr rather
/// than aborting startup. Called from Dispatch().
void EnsureKernelBackendEnvApplied();

/// Marks the env var as consumed so a later Dispatch() never overrides an
/// explicit SetDispatch()/SetKernelBackend() choice.
void MarkKernelBackendEnvApplied();

namespace internal {

/// Defined in simd_kernels.cc; returns the AVX2/FMA table when the simd tier
/// is compiled in, the default (scalar) table otherwise. Callers must gate
/// on SimdBackendCompiled() + CpuSupportsAvx2Fma().
KernelTable SimdKernelTable();

}  // namespace internal

}  // namespace compute
}  // namespace slime

#endif  // SLIME4REC_COMPUTE_BACKEND_H_
