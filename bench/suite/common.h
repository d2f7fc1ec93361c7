#ifndef SLIME_BENCH_SUITE_COMMON_H_
#define SLIME_BENCH_SUITE_COMMON_H_

// Helpers shared by every slime_bench workload: timing and nearest-rank
// percentiles, the seeded input generators (synthetic catalogue, Zipf user
// stream, Poisson schedule), the open-loop driver, the naive reference
// ranker the correctness gates compare against, span statistics over
// obs::Tracer traces, and the result record printed as the run's last line.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/slime4rec.h"
#include "data/dataset.h"
#include "observability/trace.h"
#include "serving/recommendation_service.h"

namespace slime {
namespace bench {

/// Host pinning, the same on every workload: the library's compute pool
/// runs on one thread, and open-loop generators use at most three issuing
/// threads (the host has four cores).
inline constexpr int kComputeThreads = 1;
inline constexpr int kMaxIssuers = 3;

/// Ranking options of every served request: top-10, seen items excluded.
inline constexpr int64_t kTopK = 10;
/// A request meets the latency SLO when the full model serves it within
/// this long of its scheduled arrival.
inline constexpr double kSloMs = 10.0;

double NowSeconds();

/// Peak resident set size of this process so far (VmHWM), in MiB.
double PeakRssMb();

/// Nearest-rank percentile of an ascending sample: the value at rank
/// ceil(p/100 * n), 1-based. `sorted` must be non-empty.
double NearestRank(const std::vector<double>& sorted, double p);

/// A timing reported the way every workload reports one: the median plus
/// the highest percentile of {99.9, 99, 95, 90, 75} that has at least ten
/// samples beyond it (the median when none has), with the sample count.
struct Timing {
  int64_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 50.0;
};
Timing Summarize(std::vector<double> samples);

/// The quiet value of a timing (the op.quiet_ms metrics). Other machines
/// share the host's cores and slow any code on them by up to ~2x, in
/// bursts from a fraction of a second to minutes; interference only ever
/// slows code down. So a timing is first summarised per window (one long
/// operation, or a fraction of a second of short ones), and this is the
/// 10th percentile, nearest rank, over windows: with fewer than ten
/// windows, the fastest one. It filters the short bursts, not the long
/// ones. NaN (printed as null) when there is no window.
double QuietValue(std::vector<double> windows);

/// Each window's median of `values`, the windows being consecutive
/// `window_s`-second spans of the sample times `at_s`. Windows with fewer
/// than five samples (a ragged end) are left out; if that leaves none, the
/// whole sample is one window.
std::vector<double> WindowMedians(const std::vector<double>& at_s,
                                  const std::vector<double>& values,
                                  double window_s);

/// Seconds per completion in each full `window_s`-second window of a phase
/// that ran from `start` to `end`, given each completion's time: the span
/// from the window's first completion to its last over the completions
/// between them. Windows with fewer than two completions are left out.
std::vector<double> WindowSecondsPerOp(const std::vector<double>& done_at,
                                       double start, double end,
                                       double window_s);

/// Zipf(s = 1) over [0, n): rank r drawn with weight 1/(r + 1).
class ZipfSampler {
 public:
  explicit ZipfSampler(size_t n);
  size_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Poisson arrival offsets, in seconds from the phase start, at `rate` per
/// second until `duration`.
std::vector<double> PoissonSchedule(double rate, double duration, Rng* rng);

/// Mixes the run seed with a per-purpose tag so every generated input has
/// its own reproducible stream.
uint64_t StreamSeed(uint64_t seed, uint64_t tag);

/// Catalogue and model shape of one workload.
struct Shape {
  int64_t users = 0;
  int64_t items = 0;
  int64_t min_history = 0;
  int64_t max_history = 0;
  int64_t max_len = 0;  // N
  int64_t hidden = 64;  // d
  int64_t layers = 2;   // L
};

/// Synthetic interaction data of `shape`, generated from `seed`, with the
/// leave-one-out split (at most `max_prefixes` training samples per user).
data::SplitDataset MakeSplit(const Shape& shape, uint64_t seed,
                             int64_t max_prefixes);

/// SLIME4Rec of `shape` over `split`'s catalogue; equal seeds give
/// bit-identical parameters, which is what makes a reference twin possible.
core::Slime4RecConfig ModelConfig(const Shape& shape, uint64_t seed);
std::unique_ptr<core::Slime4Rec> MakeModel(const Shape& shape, uint64_t seed);

/// The correctness reference: scores `histories` with ScoreAll as one batch
/// (the served request's batch shape, so the arithmetic is identical) and
/// ranks every item by a full sort, excluding each history's own items.
std::vector<std::vector<serving::Recommendation>> ReferenceTopK(
    core::Slime4Rec* model, const std::vector<std::vector<int64_t>>& histories);

/// Equal item ids in equal order with bit-equal scores.
bool SameRanking(const std::vector<serving::Recommendation>& a,
                 const std::vector<serving::Recommendation>& b);

/// One class of open-loop traffic: requests due at `due` (seconds from the
/// phase start), issued by `issuers` threads that each take the next due
/// request, wait for its time, and call `issue(i)`.
struct Lane {
  std::vector<double> due;
  int issuers = 1;
  std::function<void(size_t i)> issue;
};

struct OpenLoopResult {
  /// Per lane, per request: completion minus due time, in ms. Timing from
  /// the due time charges a stall to every request queued behind it.
  std::vector<std::vector<double>> latency_ms;
  /// Wake-up overshoot of issuers that were idle when their request came
  /// due: how late the generator itself ran.
  std::vector<double> idle_lag_ms;
};

/// Runs all lanes concurrently; returns when every request has completed.
/// Issuers sleep until shortly before a due time and spin the rest.
OpenLoopResult RunOpenLoop(const std::vector<Lane>& lanes);

/// Spans recorded by the bench's own code around calls into the library.
/// A disabled log hands out disabled builders, so untraced runs pay one
/// branch per span.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);
  obs::TraceBuilder Start(const std::string& root);
  std::vector<obs::Trace> Traces() const;

 private:
  std::unique_ptr<obs::Tracer> tracer_;
};

/// Per span name: p50 and total duration over every call, in ms.
struct SpanStat {
  double p50_ms = 0.0;
  double total_ms = 0.0;
};
std::map<std::string, SpanStat> SpanStats(
    const std::vector<obs::Trace>& traces);

/// What one run reports: the correctness verdict, operations attempted and
/// failed (a failed correctness gate counts as a failed operation), and the
/// metrics, printed as one JSON object on the last line of stdout.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  // first few, for stderr
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit);
  /// Records a failed correctness gate.
  void Fail(const std::string& why);
  /// Counts `n` operations, of which `bad` failed.
  void Count(int64_t n, int64_t bad) {
    attempted += n;
    failed += bad;
  }
  std::string ToJson() const;
};

/// Runs `make` `reps` times and keeps the last result; the reported set-up
/// time is the median wall time of the repetitions.
template <typename T>
T TimedSetup(int reps, double* median_s, const std::function<T()>& make) {
  std::vector<double> times;
  T kept{};
  for (int r = 0; r < reps; ++r) {
    kept = T{};  // release the previous instance before building the next
    const double t0 = NowSeconds();
    kept = make();
    times.push_back(NowSeconds() - t0);
  }
  *median_s = Summarize(times).p50;
  return kept;
}

}  // namespace bench
}  // namespace slime

#endif  // SLIME_BENCH_SUITE_COMMON_H_
