// Serving-layer benchmark: drives a ModelServer through increasing
// pressure levels and reports latency percentiles (p50/p95/p99),
// throughput, and shed/degradation rates per level. Levels:
//
//   baseline      generous deadline, no rate limit: every request should
//                 be served at the full-model tier
//   deadline_*    per-request budgets derived from the baseline p50, so
//                 the degradation ladder engages progressively
//   overload      token-bucket rate below the offered rate: admission
//                 control sheds the excess
//   concurrent    multiple client threads against a small in-flight cap
//
// Two extra arms measure the observability layer itself: the same
// baseline traffic with an enabled MetricsRegistry attached and with the
// NoopRegistry (all handles detached). A gate asserts the noop path stays
// within noise of the un-instrumented baseline — the "provably near-free
// when disabled" contract of src/observability/metrics.h.
//
// Emits BENCH_serving.json, plus the enabled registry's snapshot as JSONL.
//
// Usage: bench_serving [--quick] [--out FILE] [--metrics-out FILE]
//   --quick        shrink request counts and dataset (CI smoke run)
//   --out          output path (default BENCH_serving.json)
//   --metrics-out  metrics snapshot path (default BENCH_serving_metrics.jsonl)
// SLIME_BENCH_SCALE scales the synthetic dataset (default 0.25).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "compute/thread_pool.h"
#include "data/synthetic.h"
#include "io/env.h"
#include "models/model_factory.h"
#include "observability/export.h"
#include "observability/metrics.h"
#include "serving/fallback.h"
#include "serving/model_server.h"
#include "train/trainer.h"

namespace slime {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

data::SplitDataset BenchSplit(double scale) {
  data::SyntheticConfig config = data::BeautySimConfig(scale);
  config.seed = 4242;
  return data::SplitDataset(data::GenerateSynthetic(config), 2);
}

models::ModelConfig BenchModelConfig(const data::SplitDataset& split) {
  models::ModelConfig c;
  c.num_items = split.num_items();
  c.num_users = split.num_users();
  c.max_len = 16;
  c.hidden_dim = 32;
  c.num_layers = 2;
  c.seed = 11;
  return c;
}

struct Percentiles {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

Percentiles LatencyPercentiles(std::vector<double> ms) {
  Percentiles p;
  if (ms.empty()) return p;
  std::sort(ms.begin(), ms.end());
  const auto at = [&](double q) {
    return ms[static_cast<size_t>(q * (ms.size() - 1))];
  };
  p.p50 = at(0.50);
  p.p95 = at(0.95);
  p.p99 = at(0.99);
  return p;
}

struct ScenarioResult {
  std::string name;
  int64_t offered = 0;
  double seconds = 0.0;
  Percentiles latency;  // over successful responses, milliseconds
  serving::ServerStats stats;
  const char* health = "";
  /// False for the NoopRegistry arm: its stats all read zero by design,
  /// so stats-based gates must skip it.
  bool stats_valid = true;
};

/// A fresh server per scenario so counters and cost estimates start clean.
std::unique_ptr<serving::ModelServer> MakeServer(
    const data::SplitDataset& split,
    const serving::ModelServerOptions& options) {
  auto server = std::make_unique<serving::ModelServer>(options);
  server->set_fallback(serving::PopularityFallback::FromSplit(split));
  server->set_canary_requests(train::ExportCanarySet(split, 4));
  const Status started =
      server->Start(models::CreateModel("SLIME4Rec", BenchModelConfig(split)));
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    std::exit(1);
  }
  return server;
}

std::vector<std::vector<int64_t>> BenchHistories(
    const data::SplitDataset& split, int64_t count) {
  std::vector<std::vector<int64_t>> histories;
  histories.reserve(count);
  for (int64_t i = 0; i < count; ++i) {
    histories.push_back(split.TestInput(i % split.num_users()));
  }
  return histories;
}

ScenarioResult DriveSequential(
    const std::string& name, serving::ModelServer* server,
    const std::vector<std::vector<int64_t>>& histories,
    int64_t deadline_nanos, int64_t requests) {
  serving::RecommendOptions options;
  options.top_k = 10;
  ScenarioResult result;
  result.name = name;
  result.offered = requests;
  std::vector<double> latencies;
  latencies.reserve(requests);
  const double t0 = NowSeconds();
  for (int64_t i = 0; i < requests; ++i) {
    serving::ServeRequest request;
    request.history = histories[i % histories.size()];
    request.options = options;
    request.deadline_nanos = deadline_nanos;
    const double r0 = NowSeconds();
    const auto response = server->Serve(request);
    if (response.ok()) latencies.push_back((NowSeconds() - r0) * 1e3);
  }
  result.seconds = NowSeconds() - t0;
  result.latency = LatencyPercentiles(std::move(latencies));
  result.stats = server->stats();
  result.health = serving::ToString(server->health());
  return result;
}

ScenarioResult DriveConcurrent(
    const std::string& name, serving::ModelServer* server,
    const std::vector<std::vector<int64_t>>& histories, int threads,
    int64_t requests_per_thread) {
  ScenarioResult result;
  result.name = name;
  result.offered = threads * requests_per_thread;
  const double t0 = NowSeconds();
  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      serving::RecommendOptions options;
      options.top_k = 10;
      for (int64_t i = 0; i < requests_per_thread; ++i) {
        serving::ServeRequest request;
        request.history = histories[(t + i * threads) % histories.size()];
        request.options = options;
        (void)server->Serve(request);
      }
    });
  }
  for (auto& c : clients) c.join();
  result.seconds = NowSeconds() - t0;
  result.stats = server->stats();
  result.health = serving::ToString(server->health());
  return result;
}

void EmitScenario(std::FILE* f, const ScenarioResult& r, bool last) {
  const auto& s = r.stats;
  const double served_rate =
      r.offered > 0 ? static_cast<double>(s.served) / r.offered : 0.0;
  const double shed_rate =
      r.offered > 0 ? static_cast<double>(s.shed) / r.offered : 0.0;
  const double fallback_rate =
      r.offered > 0 ? static_cast<double>(s.fallback_served) / r.offered
                    : 0.0;
  std::fprintf(
      f,
      "  \"%s\": {\n"
      "    \"offered\": %lld, \"served\": %lld, \"shed\": %lld,\n"
      "    \"deadline_exceeded\": %lld, \"full_model\": %lld,\n"
      "    \"fallback\": %lld,\n"
      "    \"served_rate\": %.4f, \"shed_rate\": %.4f, "
      "\"fallback_rate\": %.4f,\n"
      "    \"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f,\n"
      "    \"throughput_rps\": %.1f, \"health\": \"%s\"\n"
      "  }%s\n",
      r.name.c_str(), static_cast<long long>(r.offered),
      static_cast<long long>(s.served), static_cast<long long>(s.shed),
      static_cast<long long>(s.deadline_exceeded),
      static_cast<long long>(s.full_model_served),
      static_cast<long long>(s.fallback_served), served_rate, shed_rate,
      fallback_rate, r.latency.p50, r.latency.p95, r.latency.p99,
      r.seconds > 0.0 ? s.served / r.seconds : 0.0, r.health,
      last ? "" : ",");
}

int Main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_serving.json";
  std::string metrics_out_path = "BENCH_serving_metrics.jsonl";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_serving [--quick] [--out FILE] "
                   "[--metrics-out FILE]\n");
      return 2;
    }
  }
  double scale = quick ? 0.05 : 0.25;
  if (const char* env = std::getenv("SLIME_BENCH_SCALE")) {
    scale = std::atof(env);
  }
  const int64_t requests = quick ? 32 : 256;
  std::fprintf(stderr, "bench_serving: scale=%g requests=%lld\n", scale,
               static_cast<long long>(requests));

  const data::SplitDataset split = BenchSplit(scale);
  const auto histories = BenchHistories(split, 64);
  std::vector<ScenarioResult> results;

  // Baseline: effectively unbounded budget; establishes the p50 the
  // pressure levels are derived from.
  {
    auto server = MakeServer(split, serving::ModelServerOptions{});
    results.push_back(DriveSequential("baseline", server.get(), histories,
                                      serving::kNanosPerSecond, requests));
  }
  const int64_t p50_nanos = static_cast<int64_t>(
      results[0].latency.p50 * serving::kNanosPerMilli);

  // Deadline pressure: budgets at 4x, 1x, and 1/4 of the baseline p50.
  // Looser budgets mostly serve full-model; the tight one exercises the
  // ladder (cost-estimate skips and deadline overruns, both answered by
  // the popularity fallback).
  const struct {
    const char* name;
    double factor;
  } levels[] = {{"deadline_4x_p50", 4.0},
                {"deadline_1x_p50", 1.0},
                {"deadline_quarter_p50", 0.25}};
  for (const auto& level : levels) {
    serving::ModelServerOptions options;
    // Drop the budget floor below the (sub-millisecond, on this small
    // model) pass cost so the ladder is driven by the measured cost
    // estimates and the deadline itself, not by the default 1 ms floor.
    options.min_model_budget_nanos = 10 * serving::kNanosPerMicro;
    auto server = MakeServer(split, options);
    const int64_t budget = std::max<int64_t>(
        1, static_cast<int64_t>(p50_nanos * level.factor));
    results.push_back(DriveSequential(level.name, server.get(), histories,
                                      budget, requests));
  }

  // Overload: the token bucket admits roughly half the offered rate (the
  // baseline throughput); everything above it is shed with retry-after.
  {
    const double offered_rps =
        results[0].seconds > 0.0 ? requests / results[0].seconds : 100.0;
    serving::ModelServerOptions options;
    options.admission.tokens_per_second = std::max(1.0, offered_rps / 2.0);
    options.admission.burst = 4.0;
    auto server = MakeServer(split, options);
    results.push_back(DriveSequential("overload_rate_half", server.get(),
                                      histories, serving::kNanosPerSecond,
                                      requests));
  }

  // Concurrency: four clients against a two-slot in-flight budget.
  {
    serving::ModelServerOptions options;
    options.admission.max_in_flight = 2;
    auto server = MakeServer(split, options);
    results.push_back(DriveConcurrent("concurrent_4_clients", server.get(),
                                      histories, 4, requests / 4));
  }

  // Observability arms: baseline traffic with an enabled registry (whose
  // snapshot is exported below) and with the NoopRegistry — detached
  // handles, the provably-near-free disabled path.
  obs::MetricsRegistry registry;
  {
    serving::ModelServerOptions options;
    options.metrics = &registry;
    auto server = MakeServer(split, options);
    results.push_back(DriveSequential("metrics_enabled", server.get(),
                                      histories, serving::kNanosPerSecond,
                                      requests));
  }
  {
    obs::NoopRegistry noop;  // outlives the server's handles below
    serving::ModelServerOptions options;
    options.metrics = &noop;
    auto server = MakeServer(split, options);
    ScenarioResult noop_result =
        DriveSequential("metrics_noop", server.get(), histories,
                        serving::kNanosPerSecond, requests);
    noop_result.stats_valid = false;
    results.push_back(std::move(noop_result));
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"host\": {\"hardware_threads\": %d, \"quick\": %s},\n",
               compute::HardwareThreads(), quick ? "true" : "false");
  for (size_t i = 0; i < results.size(); ++i) {
    EmitScenario(f, results[i], i + 1 == results.size());
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());

  // Export the enabled arm's registry snapshot (counters, gauges, latency
  // histograms with integer percentiles) for the CI artifact.
  const Status ms = io::Env::Default()->WriteFile(
      metrics_out_path, obs::SnapshotToJsonl(registry.Snapshot()));
  if (!ms.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", metrics_out_path.c_str(),
                 ms.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", metrics_out_path.c_str());

  // Sanity gates so CI fails loudly on a serving regression: the baseline
  // must shed nothing and serve everyone at the full tier, and with the
  // fallback configured every admitted request must be served somehow.
  const ScenarioResult& baseline = results[0];
  if (baseline.stats.shed != 0 ||
      baseline.stats.full_model_served != baseline.offered) {
    std::fprintf(stderr, "baseline degraded: %lld of %lld at full tier\n",
                 static_cast<long long>(baseline.stats.full_model_served),
                 static_cast<long long>(baseline.offered));
    return 1;
  }
  for (const ScenarioResult& r : results) {
    if (!r.stats_valid) continue;  // NoopRegistry arm: stats read zero
    if (r.stats.served + r.stats.shed <
        static_cast<int64_t>(r.offered * 0.99)) {
      std::fprintf(stderr, "%s lost requests: served %lld + shed %lld < %lld\n",
                   r.name.c_str(), static_cast<long long>(r.stats.served),
                   static_cast<long long>(r.stats.shed),
                   static_cast<long long>(r.offered));
      return 1;
    }
  }
  // Disabled-path gate: the NoopRegistry arm drives the same traffic as
  // the baseline, so its p50 must stay within noise of it. The bound is
  // deliberately generous (2x + 0.25 ms) — it catches accidental locks or
  // allocations on the disabled path, not microseconds.
  const ScenarioResult* noop_arm = nullptr;
  for (const ScenarioResult& r : results) {
    if (r.name == "metrics_noop") noop_arm = &r;
  }
  if (noop_arm != nullptr &&
      noop_arm->latency.p50 > baseline.latency.p50 * 2.0 + 0.25) {
    std::fprintf(stderr,
                 "noop-registry overhead: p50 %.3f ms vs baseline %.3f ms\n",
                 noop_arm->latency.p50, baseline.latency.p50);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace slime

int main(int argc, char** argv) { return slime::Main(argc, argv); }
