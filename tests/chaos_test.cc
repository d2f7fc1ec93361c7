// The cross-subsystem chaos harness, driven as a unit test: one seeded
// pipeline run composes dataset corruption, injected io faults, a
// mid-checkpoint kill + resume, a NaN divergence window, deadline pressure
// on serving and a corrupted hot reload. The three invariants:
//
//   1. No crash/hang/UB — the pipeline returns (ASan/UBSan cover the UB
//      half in CI, where this test runs under both sanitizer jobs).
//   2. Every injected fault surfaces as a typed Status / InjectedCrash /
//      recorded rollback (typed_failures == faults_injected).
//   3. Recovery is exact: repair-mode quarantine counts match the planted
//      corruptions and the resumed run is bit-identical to the unfaulted
//      baseline (folded into invariants_ok by the harness).

#include "chaos/harness.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "compute/thread_pool.h"

namespace slime {
namespace chaos {
namespace {

ChaosOptions Options(uint64_t seed) {
  ChaosOptions o;
  o.seed = seed;
  o.work_dir = ::testing::TempDir();
  o.epochs = 4;
  return o;
}

TEST(ChaosPipelineTest, AllInvariantsHoldAcrossSeeds) {
  for (const uint64_t seed : {11ull, 29ull}) {
    const Result<ChaosResult> r = RunChaosPipeline(Options(seed));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const ChaosResult& result = r.value();
    EXPECT_TRUE(result.invariants_ok)
        << "seed " << seed << ": " << result.failure << "\n"
        << result.EventLog();
    EXPECT_GT(result.faults_injected, 0) << "seed " << seed;
    EXPECT_EQ(result.typed_failures, result.faults_injected)
        << "seed " << seed << "\n"
        << result.EventLog();
    // The quarantine saw the planted dataset corruption.
    EXPECT_GT(result.quarantine.total_errors(), 0);
    // The kill + resume runs left telemetry behind.
    EXPECT_NE(result.telemetry_jsonl.find("\"resume\""), std::string::npos);
  }
}

TEST(ChaosPipelineTest, SameSeedRunsAreBitIdentical) {
  const ChaosOptions options = Options(17);
  const Result<ChaosResult> first = RunChaosPipeline(options);
  const Result<ChaosResult> second = RunChaosPipeline(options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first.value().EventLog(), second.value().EventLog());
  EXPECT_EQ(first.value().telemetry_jsonl, second.value().telemetry_jsonl);
  EXPECT_EQ(first.value().quarantine.ToJsonl(),
            second.value().quarantine.ToJsonl());
}

TEST(ChaosPipelineTest, EventLogIsIdenticalAcrossComputeThreadCounts) {
  // The pipeline (state-store recoveries included) must be a pure function
  // of the seed, independent of compute-pool width.
  const ChaosOptions options = Options(23);
  std::string baseline;
  for (const int threads : {1, 2, 8}) {
    compute::SetNumThreads(threads);
    const Result<ChaosResult> r = RunChaosPipeline(options);
    ASSERT_TRUE(r.ok()) << "threads " << threads << ": "
                        << r.status().ToString();
    EXPECT_TRUE(r.value().invariants_ok)
        << "threads " << threads << ": " << r.value().failure;
    if (baseline.empty()) {
      baseline = r.value().EventLog();
    } else {
      EXPECT_EQ(r.value().EventLog(), baseline) << "threads " << threads;
    }
  }
  compute::SetNumThreads(0);  // restore the default pool
}

TEST(ChaosPipelineTest, DifferentSeedsScheduleDifferentFaults) {
  const Result<ChaosResult> a = RunChaosPipeline(Options(5));
  const Result<ChaosResult> b = RunChaosPipeline(Options(6));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value().EventLog(), b.value().EventLog());
}

TEST(ChaosPipelineTest, StagesRunInTableOrder) {
  const std::vector<std::string> table = {
      "data", "train", "diverge", "serve", "cluster", "state", "repair"};
  const Result<ChaosResult> r = RunChaosPipeline(Options(3));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Collapsing runs of equal stage names also rejects a stage whose
  // events interleave with another's.
  std::vector<std::string> stages;
  for (const ChaosEvent& e : r.value().events) {
    if (stages.empty() || stages.back() != e.stage) stages.push_back(e.stage);
  }
  std::vector<std::string> expected = table;
  expected.push_back("chaos");
  EXPECT_EQ(stages, expected);

  std::vector<std::string> timed;
  for (const ChaosStageTiming& t : r.value().stage_timings) {
    timed.push_back(t.stage);
    EXPECT_GE(t.wall_nanos, 0) << t.stage;
  }
  EXPECT_EQ(timed, table);
}

TEST(ChaosPipelineTest, RejectsUnusableOptions) {
  ChaosOptions no_dir;
  no_dir.work_dir.clear();
  EXPECT_EQ(RunChaosPipeline(no_dir).status().code(),
            Status::Code::kInvalidArgument);

  ChaosOptions short_run = Options(1);
  short_run.epochs = 2;
  EXPECT_EQ(RunChaosPipeline(short_run).status().code(),
            Status::Code::kInvalidArgument);
}

}  // namespace
}  // namespace chaos
}  // namespace slime
