// Standalone chaos harness driver.
//
//   chaos_runner --seed S [--work-dir DIR] [--epochs N]
//                [--quarantine-out FILE] [--telemetry-out FILE]
//                [--repair-out FILE] [--echo]
//
// Runs the full load -> train -> checkpoint -> kill -> resume -> serve
// pipeline twice with the same seed and verifies the two event logs are
// bit-identical, then checks the pipeline invariants (no crash, every
// fault surfaced as a typed Status, recovery bit-identical to the
// unfaulted baseline). Exit code 0 = all invariants held. After run 1 it
// prints each stage's wall time; those lines never start with "[chaos] ",
// so filtering stdout on that prefix keeps only the seed-pure event log.
//
// CI runs this with --echo and uploads the quarantine + telemetry +
// repair-report JSONL artifacts plus the echoed event log.

#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "chaos/harness.h"
#include "data/validation.h"
#include "io/env.h"

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: chaos_runner [--seed S] [--work-dir DIR] [--epochs N]\n"
      "                    [--quarantine-out FILE] [--telemetry-out FILE]\n"
      "                    [--repair-out FILE] [--echo]\n");
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "chaos_runner: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 1;
  std::string work_dir = "/tmp/slime4rec_chaos";
  int64_t epochs = 4;
  std::string quarantine_out;
  std::string telemetry_out;
  std::string repair_out;
  bool echo = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--work-dir") {
      work_dir = next();
    } else if (arg == "--epochs") {
      epochs = std::strtoll(next(), nullptr, 10);
    } else if (arg == "--quarantine-out") {
      quarantine_out = next();
    } else if (arg == "--telemetry-out") {
      telemetry_out = next();
    } else if (arg == "--repair-out") {
      repair_out = next();
    } else if (arg == "--echo") {
      echo = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      Usage();
      return 2;
    }
  }

  // EEXIST is fine: the pipeline rewrites every file it touches.
  ::mkdir(work_dir.c_str(), 0755);

  slime::chaos::ChaosOptions options;
  options.seed = seed;
  options.work_dir = work_dir;
  options.epochs = epochs;
  options.echo = echo;

  std::printf("chaos_runner: seed %llu, run 1/2\n",
              static_cast<unsigned long long>(seed));
  const slime::Result<slime::chaos::ChaosResult> first =
      slime::chaos::RunChaosPipeline(options);
  if (!first.ok()) return Fail(first.status().ToString());
  for (const slime::chaos::ChaosStageTiming& t : first.value().stage_timings) {
    std::printf("chaos_runner: stage %-8s %10.3f ms\n", t.stage.c_str(),
                static_cast<double>(t.wall_nanos) / 1e6);
  }

  std::printf("chaos_runner: seed %llu, run 2/2 (reproducibility check)\n",
              static_cast<unsigned long long>(seed));
  const slime::Result<slime::chaos::ChaosResult> second =
      slime::chaos::RunChaosPipeline(options);
  if (!second.ok()) return Fail(second.status().ToString());

  const slime::chaos::ChaosResult& result = first.value();
  if (result.EventLog() != second.value().EventLog()) {
    return Fail("same-seed runs produced different event logs");
  }
  if (result.telemetry_jsonl != second.value().telemetry_jsonl) {
    return Fail("same-seed runs produced different telemetry");
  }
  if (result.repair_report_jsonl != second.value().repair_report_jsonl) {
    return Fail("same-seed runs produced different repair reports");
  }

  if (!quarantine_out.empty()) {
    const slime::Status st =
        slime::data::WriteQuarantineJsonl(result.quarantine, quarantine_out);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("chaos_runner: quarantine report -> %s\n",
                quarantine_out.c_str());
  }
  if (!telemetry_out.empty()) {
    const slime::Status st = slime::io::Env::Default()->WriteFile(
        telemetry_out, result.telemetry_jsonl);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("chaos_runner: training telemetry -> %s\n",
                telemetry_out.c_str());
  }
  if (!repair_out.empty()) {
    const slime::Status st = slime::io::Env::Default()->WriteFile(
        repair_out, result.repair_report_jsonl);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("chaos_runner: repair report -> %s\n", repair_out.c_str());
  }

  std::printf(
      "chaos_runner: %zu events, %lld faults injected, %lld typed "
      "failures, runs bit-identical\n",
      result.events.size(),
      static_cast<long long>(result.faults_injected),
      static_cast<long long>(result.typed_failures));
  if (!result.invariants_ok) {
    return Fail("invariant violated: " + result.failure);
  }
  std::printf("chaos_runner: all invariants held\n");
  return 0;
}
