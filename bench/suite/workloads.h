#ifndef SLIME_BENCH_SUITE_WORKLOADS_H_
#define SLIME_BENCH_SUITE_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace slime {
namespace bench {

struct Options {
  std::string workload;
  /// Seeds every generated input: data, model, arrival schedule, users.
  uint64_t seed = 1;
  /// Measured time of the run. A traced run measures half of it untraced
  /// and half traced.
  double seconds = 10.0;
  /// false: end-to-end metrics. true: per-layer metrics from spans.
  bool trace = false;
  /// One set-up instead of three (the ctest smoke run).
  bool smoke = false;
  /// Scratch space for state stores and the span JSONL.
  std::string work_dir = ".bench_build/work";
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload in this process. Unknown names are a failed result.
RunResult RunWorkload(const Options& options);

}  // namespace bench
}  // namespace slime

#endif  // SLIME_BENCH_SUITE_WORKLOADS_H_
