#include "common.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "data/batcher.h"
#include "data/synthetic.h"
#include "observability/export.h"

namespace slime {
namespace bench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

double NearestRank(const std::vector<double>& sorted, double p) {
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

Timing Summarize(std::vector<double> samples) {
  Timing t;
  t.count = static_cast<int64_t>(samples.size());
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  t.p50 = NearestRank(samples, 50.0);
  t.tail = t.p50;
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    const double rank = std::ceil(p / 100.0 * t.count);
    if (t.count - rank >= 10) {
      t.tail = NearestRank(samples, p);
      t.tail_pct = p;
      break;
    }
  }
  return t;
}

double QuietValue(std::vector<double> windows) {
  if (windows.empty()) return std::nan("");
  std::sort(windows.begin(), windows.end());
  return NearestRank(windows, 10.0);
}

std::vector<double> WindowMedians(const std::vector<double>& at_s,
                                  const std::vector<double>& values,
                                  double window_s) {
  std::map<int64_t, std::vector<double>> windows;
  for (size_t i = 0; i < values.size(); ++i) {
    windows[static_cast<int64_t>(at_s[i] / window_s)].push_back(values[i]);
  }
  std::vector<double> medians;
  for (auto& [index, window] : windows) {
    if (window.size() >= 5) medians.push_back(Summarize(window).p50);
  }
  if (medians.empty() && !values.empty()) {
    medians.push_back(Summarize(values).p50);
  }
  return medians;
}

std::vector<double> WindowSecondsPerOp(const std::vector<double>& done_at,
                                       double start, double end,
                                       double window_s) {
  const auto full = static_cast<size_t>((end - start) / window_s);
  std::vector<std::vector<double>> windows(full);
  for (const double t : done_at) {
    const auto w = static_cast<size_t>((t - start) / window_s);
    if (t >= start && w < full) windows[w].push_back(t);
  }
  std::vector<double> seconds_per_op;
  for (const std::vector<double>& w : windows) {
    if (w.size() < 2) continue;
    const auto [first, last] = std::minmax_element(w.begin(), w.end());
    seconds_per_op.push_back((*last - *first) /
                             static_cast<double>(w.size() - 1));
  }
  return seconds_per_op;
}

ZipfSampler::ZipfSampler(size_t n) : cdf_(n) {
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Sample(Rng* rng) const {
  const double u = rng->UniformDouble();
  const size_t r = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(r, cdf_.size() - 1);
}

std::vector<double> PoissonSchedule(double rate, double duration, Rng* rng) {
  std::vector<double> due;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng->UniformDouble()) / rate;
    if (t >= duration) break;
    due.push_back(t);
  }
  return due;
}

uint64_t StreamSeed(uint64_t seed, uint64_t tag) {
  // splitmix64 finaliser over the pair: distinct tags give unrelated streams.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + tag;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

data::SplitDataset MakeSplit(const Shape& shape, uint64_t seed,
                             int64_t max_prefixes) {
  data::SyntheticConfig config = data::BeautySimConfig(1.0);
  config.name = "bench";
  config.num_users = shape.users;
  config.num_items = shape.items;
  config.num_categories = std::max<int64_t>(8, shape.items / 300);
  config.min_len = shape.min_history;
  config.max_len = shape.max_history;
  config.seed = StreamSeed(seed, 1);
  return data::SplitDataset(data::GenerateSynthetic(config), max_prefixes);
}

core::Slime4RecConfig ModelConfig(const Shape& shape, uint64_t seed) {
  core::Slime4RecConfig c;
  c.num_items = shape.items;
  c.num_users = shape.users;
  c.max_len = shape.max_len;
  c.hidden_dim = shape.hidden;
  c.num_layers = shape.layers;
  c.seed = StreamSeed(seed, 2);
  return c;
}

std::unique_ptr<core::Slime4Rec> MakeModel(const Shape& shape, uint64_t seed) {
  return std::make_unique<core::Slime4Rec>(ModelConfig(shape, seed));
}

std::vector<std::vector<serving::Recommendation>> ReferenceTopK(
    core::Slime4Rec* model,
    const std::vector<std::vector<int64_t>>& histories) {
  const int64_t n = model->config().max_len;
  const int64_t num_items = model->config().num_items;
  data::Batch batch;
  batch.size = static_cast<int64_t>(histories.size());
  batch.max_len = n;
  for (const auto& history : histories) {
    batch.user_ids.push_back(0);
    batch.targets.push_back(1);
    batch.raw_prefixes.push_back(history);
    const std::vector<int64_t> padded = data::PadTruncate(history, n);
    batch.input_ids.insert(batch.input_ids.end(), padded.begin(),
                           padded.end());
  }
  model->SetTraining(false);
  const Tensor scores = model->ScoreAll(batch);
  std::vector<std::vector<serving::Recommendation>> out(histories.size());
  std::vector<char> seen(num_items + 1, 0);
  for (size_t b = 0; b < histories.size(); ++b) {
    for (int64_t item : histories[b]) seen[item] = 1;
    const float* row = scores.data() + b * (num_items + 1);
    std::vector<serving::Recommendation> all;
    all.reserve(num_items);
    for (int64_t item = 1; item <= num_items; ++item) {
      if (!seen[item]) all.push_back({item, row[item]});
    }
    std::sort(all.begin(), all.end(),
              [](const serving::Recommendation& a,
                 const serving::Recommendation& c) {
                return a.score > c.score ||
                       (a.score == c.score && a.item < c.item);
              });
    all.resize(std::min<size_t>(all.size(), kTopK));
    out[b] = std::move(all);
    for (int64_t item : histories[b]) seen[item] = 0;
  }
  return out;
}

bool SameRanking(const std::vector<serving::Recommendation>& a,
                 const std::vector<serving::Recommendation>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item || a[i].score != b[i].score) return false;
  }
  return true;
}

namespace {

/// Waits until `due` (seconds on NowSeconds): sleeps to within the spin
/// window, then spins, so a wake-up late by less than the window costs
/// nothing. On a shared 4-core host the sleep's p99 overshoot is several
/// hundred microseconds, hence a 1 ms window.
void WaitUntil(double due) {
  constexpr double kSpinWindow = 1e-3;
  const double ahead = due - NowSeconds();
  if (ahead > kSpinWindow) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(ahead - kSpinWindow));
  }
  while (NowSeconds() < due) {
  }
}

}  // namespace

OpenLoopResult RunOpenLoop(const std::vector<Lane>& lanes) {
  OpenLoopResult result;
  result.latency_ms.resize(lanes.size());
  std::vector<std::atomic<size_t>> next(lanes.size());
  std::vector<std::vector<double>> lag_per_thread;
  int threads = 0;
  for (size_t l = 0; l < lanes.size(); ++l) {
    result.latency_ms[l].assign(lanes[l].due.size(), 0.0);
    next[l].store(0);
    threads += lanes[l].issuers;
  }
  lag_per_thread.resize(threads);
  // Starts slightly in the future so every issuer is parked before the
  // first arrival.
  const double t0 = NowSeconds() + 0.005;
  std::vector<std::thread> issuers;
  int slot = 0;
  for (size_t l = 0; l < lanes.size(); ++l) {
    for (int k = 0; k < lanes[l].issuers; ++k, ++slot) {
      issuers.emplace_back([&, l, slot] {
        const Lane& lane = lanes[l];
        for (;;) {
          const size_t i = next[l].fetch_add(1);
          if (i >= lane.due.size()) break;
          const double due = t0 + lane.due[i];
          if (NowSeconds() < due) {
            WaitUntil(due);
            lag_per_thread[slot].push_back((NowSeconds() - due) * 1e3);
          }
          lane.issue(i);
          result.latency_ms[l][i] = (NowSeconds() - due) * 1e3;
        }
      });
    }
  }
  for (std::thread& t : issuers) t.join();
  for (const auto& lags : lag_per_thread) {
    result.idle_lag_ms.insert(result.idle_lag_ms.end(), lags.begin(),
                              lags.end());
  }
  return result;
}

SpanLog::SpanLog(bool enabled) {
  if (enabled) {
    tracer_ = std::make_unique<obs::Tracer>(serving::Clock::Default(),
                                            size_t{1} << 20);
  }
}

obs::TraceBuilder SpanLog::Start(const std::string& root) {
  return tracer_ != nullptr ? tracer_->StartTrace(root) : obs::TraceBuilder();
}

std::vector<obs::Trace> SpanLog::Traces() const {
  return tracer_ != nullptr ? tracer_->Traces() : std::vector<obs::Trace>{};
}

std::map<std::string, SpanStat> SpanStats(
    const std::vector<obs::Trace>& traces) {
  std::map<std::string, std::vector<double>> durations;
  for (const obs::Trace& trace : traces) {
    for (const obs::SpanRecord& span : trace.spans) {
      durations[span.name].push_back(span.duration_nanos() * 1e-6);
    }
  }
  std::map<std::string, SpanStat> stats;
  for (auto& [name, ms] : durations) {
    SpanStat& s = stats[name];
    for (double v : ms) s.total_ms += v;
    s.p50_ms = Summarize(ms).p50;
  }
  return stats;
}

void RunResult::Add(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void RunResult::Fail(const std::string& why) {
  correct = false;
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

std::string RunResult::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<int64_t>(1, attempted));
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    // %.17g keeps every digit the double carries; non-finite values are
    // not JSON, so they print as null and fail the reader loudly.
    if (std::isfinite(metrics[i].value)) {
      std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    out += (i ? ", \"" : "\"") + obs::JsonEscape(metrics[i].name) +
           "\": {\"value\": " + value + ", \"unit\": \"" +
           obs::JsonEscape(metrics[i].unit) + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace bench
}  // namespace slime
