// slime_bench: the repository benchmark. One workload per process:
//
//   slime_bench --workload NAME --seed N --seconds S --trace 0|1
//               [--work-dir DIR] [--smoke]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// (and writes the span JSONL under DIR/spans). Progress and a readable
// metric table go to stderr; the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}. --smoke runs one set-up
// and exits 3 when a correctness gate fails. See README.md.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "compute/backend.h"
#include "compute/thread_pool.h"
#include "workloads.h"

namespace slime {
namespace bench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "slime_bench: %s\n"
               "usage: slime_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--smoke]\n"
               "workloads:",
               why);
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    double number = 0.0;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (!has_value) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--work-dir") {
      options.work_dir = argv[++i];
    } else if (!ParseNumber(argv[++i], &number)) {
      return Usage(("not a number: " + arg + " " + argv[i]).c_str());
    } else if (arg == "--seed" && number >= 0 && number < 1e15) {
      options.seed = static_cast<uint64_t>(number);
    } else if (arg == "--seconds" && number > 0 && number <= 600) {
      options.seconds = number;
    } else if (arg == "--trace" && (number == 0 || number == 1)) {
      options.trace = number == 1;
    } else {
      return Usage(("bad argument: " + arg + " " + argv[i]).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known) return Usage(("unknown workload '" + options.workload + "'").c_str());

  compute::SetNumThreads(kComputeThreads);
  const Result<std::string> backend = compute::SetKernelBackend("auto");
  std::fprintf(stderr,
               "slime_bench: %s seed=%llu seconds=%g trace=%d threads=%d "
               "backend=%s\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), options.seconds,
               options.trace ? 1 : 0, kComputeThreads,
               backend.ok() ? backend.value().c_str() : "?");

  const RunResult result = RunWorkload(options);
  for (const std::string& why : result.failures) {
    std::fprintf(stderr, "FAILED: %s\n", why.c_str());
  }
  for (const RunResult::Metric& m : result.metrics) {
    std::fprintf(stderr, "  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::fprintf(stderr, "  correct=%s attempted=%lld failed=%lld\n",
               result.correct ? "true" : "false",
               static_cast<long long>(result.attempted),
               static_cast<long long>(result.failed));
  std::printf("%s\n", result.ToJson().c_str());
  std::fflush(stdout);
  return options.smoke && !result.correct ? 3 : 0;
}

}  // namespace
}  // namespace bench
}  // namespace slime

int main(int argc, char** argv) { return slime::bench::Main(argc, argv); }
