// Cluster-serving benchmark: drives a replicated ClusterServer with an
// open-loop load generator — Poisson arrivals at a fixed offered rate,
// Zipfian user popularity — and reports latency percentiles and loss rate
// per fleet shape. Arms:
//
//   shards1_healthy                single shard (degenerate cluster)
//   shardsN_healthy (N = 2, 4)     replicated fleet, all shards live
//   shardsN_killed  (N = 2, 4)     same fleet with one shard killed a third
//                                  of the way through the run; at R=2 the
//                                  router must absorb the kill by failover
//                                  with (near-)zero loss
//   repair_restore                 stateful 2-shard R=2 fleet: kill one
//                                  replica, stream appends past it (hinted
//                                  handoff queues every miss), then measure
//                                  the restore path — WAL reload + hint
//                                  replay + digest sweep — and require full
//                                  digest convergence with zero conflicts
//
// Open loop means arrivals are scheduled ahead of time and latency is
// measured from the *scheduled* arrival, not the issue time, so a stalled
// server cannot hide queueing delay by slowing the generator down
// (coordinated omission). Workers pull the next scheduled arrival, spin
// until its time, issue the request, and record completion - schedule.
//
// Emits BENCH_cluster.json. Usage: bench_cluster [--quick] [--out FILE]
// SLIME_BENCH_SCALE multiplies the synthetic dataset scale (0.25, or 0.05
// with --quick).

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/random.h"
#include "compute/thread_pool.h"
#include "bench_util/experiment.h"
#include "data/synthetic.h"
#include "io/env.h"
#include "models/model_factory.h"
#include "serving/fallback.h"
#include "serving/model_server.h"
#include "state/state_store.h"
#include "serving_bench_common.h"
#include "train/trainer.h"

namespace slime {
namespace {

using bench::BenchModelConfig;
using bench::BenchSplit;
using bench::LatencyPercentiles;
using bench::NowSeconds;
using bench::Percentiles;

/// Zipfian(s=1) sampler over [0, n): rank r is drawn with weight 1/(r+1),
/// the classic head-heavy user-popularity shape. Precomputed CDF + binary
/// search, seeded — the user stream is reproducible.
class ZipfSampler {
 public:
  explicit ZipfSampler(size_t n) : cdf_(n) {
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Sample(Rng* rng) const {
    const double u = rng->UniformDouble();
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct ScenarioResult {
  std::string name;
  int64_t offered = 0;
  int64_t served = 0;
  int64_t lost = 0;
  double seconds = 0.0;
  Percentiles latency;  // ms from scheduled arrival, successful responses
  cluster::ClusterStats stats;
  const char* health = "";
};

std::unique_ptr<cluster::ClusterServer> MakeFleet(
    const data::SplitDataset& split, int64_t shards,
    const std::string& state_dir = "") {
  cluster::ClusterOptions options;
  options.num_shards = shards;
  options.replication = 2;  // the ring clamps to the fleet size
  options.seed = 4242;
  if (!state_dir.empty()) {
    options.state_dir = state_dir;
    options.hinted_handoff = true;
    options.repair_on_restore = true;
  }
  // Generous per-request budget: this bench measures routing and failover
  // latency, not the degradation ladder (bench_serving covers that).
  options.default_deadline_nanos = 500 * serving::kNanosPerMilli;
  const models::ModelConfig config = BenchModelConfig(split);
  auto fleet = std::make_unique<cluster::ClusterServer>(
      options, [config]() { return models::CreateModel("SLIME4Rec", config); });
  fleet->set_fallback(serving::PopularityFallback::FromSplit(split));
  fleet->set_canary_requests(train::ExportCanarySet(split, 4));
  const Status started = fleet->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "fleet start failed: %s\n",
                 started.ToString().c_str());
    std::exit(1);
  }
  return fleet;
}

/// Open-loop run: `requests` Poisson arrivals at `rate_rps`, users drawn
/// Zipfian. `kill_at` >= 0 kills that shard once a third of the arrivals
/// are due. Loss = any non-OK response (typed failures and deadline busts).
ScenarioResult DriveOpenLoop(const std::string& name,
                             cluster::ClusterServer* fleet,
                             const data::SplitDataset& split,
                             int64_t requests, double rate_rps,
                             int64_t kill_at, int client_threads) {
  Rng rng(0x09E41009ull);
  const ZipfSampler zipf(static_cast<size_t>(split.num_users()));

  // Pre-draw the whole arrival schedule and user stream so every worker
  // sees the same plan regardless of interleaving.
  std::vector<double> arrival(requests);
  std::vector<uint64_t> user(requests);
  double t = 0.0;
  for (int64_t i = 0; i < requests; ++i) {
    t += -std::log(1.0 - rng.UniformDouble()) / rate_rps;
    arrival[static_cast<size_t>(i)] = t;
    user[static_cast<size_t>(i)] =
        static_cast<uint64_t>(zipf.Sample(&rng));
  }

  std::vector<double> latency_ms(requests, -1.0);  // -1 => lost
  std::atomic<int64_t> next{0};
  const double t0 = NowSeconds();

  std::thread killer;
  if (kill_at >= 0) {
    const double kill_time = t0 + arrival[static_cast<size_t>(requests / 3)];
    killer = std::thread([fleet, kill_at, kill_time] {
      while (NowSeconds() < kill_time) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      fleet->KillShard(kill_at);
    });
  }

  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(client_threads));
  for (int c = 0; c < client_threads; ++c) {
    clients.emplace_back([&] {
      for (;;) {
        const int64_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= requests) break;
        const double due = t0 + arrival[static_cast<size_t>(i)];
        while (NowSeconds() < due) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        serving::ServeRequest request;
        request.history = split.TestInput(
            static_cast<int64_t>(user[static_cast<size_t>(i)]) %
            split.num_users());
        request.options.top_k = 10;
        const auto response =
            fleet->Serve(user[static_cast<size_t>(i)], request);
        if (response.ok()) {
          latency_ms[static_cast<size_t>(i)] = (NowSeconds() - due) * 1e3;
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  if (killer.joinable()) killer.join();

  ScenarioResult result;
  result.name = name;
  result.offered = requests;
  result.seconds = NowSeconds() - t0;
  std::vector<double> ok_latencies;
  ok_latencies.reserve(static_cast<size_t>(requests));
  for (const double l : latency_ms) {
    if (l >= 0.0) {
      ok_latencies.push_back(l);
      ++result.served;
    } else {
      ++result.lost;
    }
  }
  result.latency = LatencyPercentiles(std::move(ok_latencies));
  result.stats = fleet->stats();
  result.health = cluster::ToString(fleet->health());
  return result;
}

void EmitScenario(std::FILE* f, const ScenarioResult& r, bool last) {
  const double loss_rate =
      r.offered > 0 ? static_cast<double>(r.lost) / r.offered : 0.0;
  std::fprintf(
      f,
      "  \"%s\": {\n"
      "    \"offered\": %lld, \"served\": %lld, \"lost\": %lld,\n"
      "    \"loss_rate\": %.4f,\n"
      "    \"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f,\n"
      "    \"throughput_rps\": %.1f,\n"
      "    \"attempts\": %lld, \"retries\": %lld, \"failovers\": %lld,\n"
      "    \"hedges\": %lld, \"hedge_wins\": %lld, \"ejections\": %lld,\n"
      "    \"health\": \"%s\"\n"
      "  }%s\n",
      r.name.c_str(), static_cast<long long>(r.offered),
      static_cast<long long>(r.served), static_cast<long long>(r.lost),
      loss_rate, r.latency.p50, r.latency.p95, r.latency.p99,
      r.seconds > 0.0 ? r.served / r.seconds : 0.0,
      static_cast<long long>(r.stats.attempts),
      static_cast<long long>(r.stats.retries),
      static_cast<long long>(r.stats.failovers),
      static_cast<long long>(r.stats.hedges),
      static_cast<long long>(r.stats.hedge_wins),
      static_cast<long long>(r.stats.ejections), r.health,
      last ? "" : ",");
}

struct RepairResult {
  int64_t users = 0;
  int64_t missed_appends = 0;   // appends acked while one replica was dead
  double degraded_append_us = 0.0;  // mean ack latency with handoff armed
  double restore_ms = 0.0;  // WAL reload + hint replay + digest sweep
  int64_t diverged_segments = 0;  // after restore; the gate demands 0
  cluster::ClusterStats stats;
  bool restore_ok = false;
};

/// Anti-entropy arm: warm a stateful 2-shard R=2 fleet, kill shard 0,
/// stream `missed` appends past it (every one under-replicated, every one
/// hinted), then time RestoreShard — the full reload + hint-replay +
/// repair-sweep path — and verify per-segment digests converged.
RepairResult RunRepairScenario(const data::SplitDataset& split,
                               int64_t users, int64_t missed) {
  const std::string state_dir = "bench_cluster_state";
  io::Env* env = io::Env::Default();
  for (int s = 0; s < 2; ++s) {  // stale files would change recovery
    for (const char* file : {"/state.wal", "/state.snapshot",
                             "/state.wal.tmp", "/state.snapshot.tmp"}) {
      (void)env->RemoveFile(state_dir + "/shard_" + std::to_string(s) +
                            file);
    }
  }
  auto fleet = MakeFleet(split, /*shards=*/2, state_dir);

  RepairResult result;
  result.users = users;
  for (int64_t u = 0; u < users; ++u) {  // warm: both replicas see these
    const auto ack = fleet->AppendEvent(static_cast<uint64_t>(u),
                                        {u % 50 + 1, u % 50 + 2});
    if (!ack.ok()) return result;
  }
  fleet->KillShard(0);

  const double t0 = NowSeconds();
  for (int64_t i = 0; i < missed; ++i) {
    const auto ack = fleet->AppendEvent(static_cast<uint64_t>(i % users),
                                        {i % 100 + 3});
    if (!ack.ok()) return result;
    result.missed_appends += ack.value().replica_acks < 2 ? 1 : 0;
  }
  result.degraded_append_us =
      missed > 0 ? (NowSeconds() - t0) * 1e6 / missed : 0.0;

  const double t1 = NowSeconds();
  result.restore_ok = fleet->RestoreShard(0).ok();
  result.restore_ms = (NowSeconds() - t1) * 1e3;
  result.stats = fleet->stats();

  // Convergence: every segment's digest set must be byte-identical across
  // its replicas (same check the chaos "repair" stage enforces).
  const cluster::ShardRing& ring = fleet->ring();
  const auto segment_digests = [&](int64_t shard, int64_t segment) {
    const state::StateStore* store = fleet->shard_server(shard)->state_store();
    std::string bytes;
    if (store == nullptr) return bytes;
    for (const state::UserDigest& d : store->EnumerateDigests(
             [&ring, segment](uint64_t user_id) {
               return ring.SegmentOf(user_id) == segment;
             })) {
      bytes += std::to_string(d.user_id) + ":" +
               std::to_string(d.items_total) + ":" + std::to_string(d.crc) +
               ";";
    }
    return bytes;
  };
  for (int64_t seg = 0; seg < ring.num_segments(); ++seg) {
    const std::vector<int64_t>& reps = ring.Replicas(seg);
    const std::string first = segment_digests(reps[0], seg);
    for (size_t r = 1; r < reps.size(); ++r) {
      if (segment_digests(reps[r], seg) != first) {
        ++result.diverged_segments;
        break;
      }
    }
  }
  return result;
}

void EmitRepair(std::FILE* f, const RepairResult& r, bool last) {
  std::fprintf(
      f,
      "  \"repair_restore\": {\n"
      "    \"users\": %lld, \"missed_appends\": %lld,\n"
      "    \"degraded_append_us\": %.2f, \"restore_ms\": %.3f,\n"
      "    \"hints_queued\": %lld, \"hints_replayed\": %lld,\n"
      "    \"hints_dropped\": %lld, \"underreplicated_appends\": %lld,\n"
      "    \"repair_items_transferred\": %lld, \"repair_conflicts\": %lld,\n"
      "    \"diverged_segments\": %lld\n"
      "  }%s\n",
      static_cast<long long>(r.users),
      static_cast<long long>(r.missed_appends), r.degraded_append_us,
      r.restore_ms, static_cast<long long>(r.stats.hints_queued),
      static_cast<long long>(r.stats.hints_replayed),
      static_cast<long long>(r.stats.hints_dropped),
      static_cast<long long>(r.stats.underreplicated_appends),
      static_cast<long long>(r.stats.repair_items_transferred),
      static_cast<long long>(r.stats.repair_conflicts),
      static_cast<long long>(r.diverged_segments), last ? "" : ",");
}

int Main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_cluster.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_cluster [--quick] [--out FILE]\n");
      return 2;
    }
  }
  const double scale = bench::BenchDataScale(quick ? 0.05 : 0.25);
  const int64_t requests = quick ? 96 : 512;
  const double rate_rps = quick ? 200.0 : 400.0;
  const int client_threads = 4;
  std::fprintf(stderr, "bench_cluster: scale=%g requests=%lld rate=%g rps\n",
               scale, static_cast<long long>(requests), rate_rps);

  const data::SplitDataset split = BenchSplit(scale);
  std::vector<ScenarioResult> results;
  for (const int64_t shards : {int64_t{1}, int64_t{2}, int64_t{4}}) {
    {
      auto fleet = MakeFleet(split, shards);
      results.push_back(DriveOpenLoop(
          "shards" + std::to_string(shards) + "_healthy", fleet.get(), split,
          requests, rate_rps, /*kill_at=*/-1, client_threads));
    }
    if (shards >= 2) {
      // Kill shard 0 a third of the way in: with R=2 every segment keeps a
      // live replica, so the router must absorb the kill via failover.
      auto fleet = MakeFleet(split, shards);
      results.push_back(DriveOpenLoop(
          "shards" + std::to_string(shards) + "_killed", fleet.get(), split,
          requests, rate_rps, /*kill_at=*/0, client_threads));
    }
  }

  const RepairResult repair = RunRepairScenario(
      split, /*users=*/quick ? 32 : 64, /*missed=*/quick ? 96 : 384);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"host\": {\"hardware_threads\": %d, \"quick\": %s,\n"
               "    \"requests\": %lld, \"rate_rps\": %.0f,\n"
               "    \"replication\": 2, \"client_threads\": %d},\n",
               compute::HardwareThreads(), quick ? "true" : "false",
               static_cast<long long>(requests), rate_rps, client_threads);
  for (size_t i = 0; i < results.size(); ++i) {
    EmitScenario(f, results[i], /*last=*/false);
  }
  EmitRepair(f, repair, /*last=*/true);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());

  // Gates, deliberately loose for CI timing noise: healthy fleets must not
  // lose requests, and a single-shard kill at R=2 must be absorbed (the
  // strict zero-loss assertion runs on the FakeClock in the chaos harness
  // and cluster tests, where scheduling jitter can't fake a loss).
  for (const ScenarioResult& r : results) {
    const double loss_rate =
        r.offered > 0 ? static_cast<double>(r.lost) / r.offered : 0.0;
    if (loss_rate > 0.01) {
      std::fprintf(stderr, "%s lost %.1f%% of requests\n", r.name.c_str(),
                   loss_rate * 100.0);
      return 1;
    }
    if (r.name.find("_killed") != std::string::npos &&
        r.stats.failovers == 0) {
      std::fprintf(stderr, "%s: kill was never routed around\n",
                   r.name.c_str());
      return 1;
    }
  }
  // Anti-entropy gates: the restore path must succeed, replay every hint
  // it queued, refuse to fabricate (zero conflicts), and leave every
  // segment's digest set byte-identical across replicas.
  if (!repair.restore_ok || repair.diverged_segments != 0 ||
      repair.stats.repair_conflicts != 0 ||
      repair.stats.hints_replayed != repair.stats.hints_queued ||
      repair.stats.hints_queued == 0) {
    std::fprintf(stderr,
                 "repair_restore: restore_ok=%d diverged=%lld conflicts=%lld "
                 "hints=%lld/%lld\n",
                 repair.restore_ok ? 1 : 0,
                 static_cast<long long>(repair.diverged_segments),
                 static_cast<long long>(repair.stats.repair_conflicts),
                 static_cast<long long>(repair.stats.hints_replayed),
                 static_cast<long long>(repair.stats.hints_queued));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace slime

int main(int argc, char** argv) { return slime::Main(argc, argv); }
