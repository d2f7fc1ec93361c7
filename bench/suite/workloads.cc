#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <thread>

#include "cluster/cluster.h"
#include "data/batcher.h"
#include "io/env.h"
#include "layers.h"
#include "observability/export.h"
#include "serving/fallback.h"
#include "serving/model_server.h"
#include "train/trainer.h"

namespace slime {
namespace bench {
namespace {

using serving::Recommendation;

// Catalogue scale (ROADMAP "paper scale"): |V| = 12,000 items scored from
// the last N = 50 interactions. Long sequences: an ML-1M-like N = 200 over
// 3,500 items. Training: the catalogue model on 64 users x 2 prefixes = 128
// examples, one B = 128 batch per epoch, so a Fit takes about two seconds
// and a run holds enough Fits for a quiet value (QuietValue).
constexpr Shape kCatalog{.users = 3000, .items = 12000, .min_history = 10,
                         .max_history = 80, .max_len = 50};
constexpr Shape kLongSeq{.users = 2000, .items = 3500, .min_history = 60,
                         .max_history = 300, .max_len = 200};
constexpr Shape kTrain{.users = 64, .items = 12000, .min_history = 10,
                       .max_history = 80, .max_len = 50};

/// Window of the open-loop latencies and the saturation rate: 75 requests
/// at the nominal rate, and short enough that a run has dozens of windows.
constexpr double kWindowS = 0.25;
constexpr double kNominalRps = 300.0;
constexpr double kAppendRps = 100.0;
constexpr size_t kLongBatch = 256;
constexpr size_t kLongDistinctBatches = 4;
constexpr int64_t kTrainBatch = 128;
constexpr int kRestoreCycles = 30;
constexpr int kRestoreAppends = 1000;
constexpr int64_t kProbeTrainBatch = 16;

/// Mean training loss of the one-epoch Fit for seeds the documentation
/// and the smoke test use, recorded with the simd backend; a run with one
/// of these seeds must land within 1% of it.
const std::map<uint64_t, double>& RecordedTrainLoss() {
  static const std::map<uint64_t, double> losses = {
      {1, 9.89031887}, {2, 9.91741562}, {3, 9.8947506}};
  return losses;
}

int SetupReps(const Options& o) { return o.trace || o.smoke ? 1 : 3; }
double RunSeconds(const Options& o) {
  return o.trace ? o.seconds / 2 : o.seconds;
}

/// Per-layer numbers that come from a workload's own phase rather than
/// from the layer probes; the same keys on every workload (0 where the
/// workload has no such layer).
struct PhaseLayers {
  Timing op;  // the workload's unit operation, untraced
  double quiet_ms = 0.0;    // its quiet value (QuietValue)
  double work_per_s = 0.0;  // the workload's work rate at that value
  double slo_miss_ratio = 0.0;
  std::vector<double> lag_ms;
  int64_t shed = 0;
  int64_t fallback = 0;
  int64_t deadline_exceeded = 0;
  double session_hit_ratio = 0.0;
  double attempts_per_request = 0.0;
  int64_t retries = 0;
  int64_t failovers = 0;
  int64_t hedges = 0;
  double hints_replayed_per_restore = 0.0;
  double repair_items_per_restore = 0.0;
  double restore_ms = 0.0;  // quiet RestoreShard time
  std::vector<double> append_ms;
  double overhead_ratio = 0.0;
};

void AddPhaseLayers(const PhaseLayers& m, RunResult* r) {
  r->Add("op.p50_ms", m.op.p50, "ms");
  r->Add("op.quiet_ms", m.quiet_ms, "ms");
  r->Add("op.work_per_s", m.work_per_s, "1/s");
  r->Add("op.tail_ms", m.op.tail, "ms");
  r->Add("op.tail_pct", m.op.tail_pct, "pct");
  r->Add("op.samples", static_cast<double>(m.op.count), "count");
  r->Add("serving.slo_miss_ratio", m.slo_miss_ratio, "ratio");
  std::vector<double> lag = m.lag_ms;
  std::sort(lag.begin(), lag.end());
  r->Add("serving.generator_lag_ms", lag.empty() ? 0.0 : NearestRank(lag, 99),
         "ms");
  r->Add("serving.shed", static_cast<double>(m.shed), "count");
  r->Add("serving.fallback", static_cast<double>(m.fallback), "count");
  r->Add("serving.deadline_exceeded", static_cast<double>(m.deadline_exceeded),
         "count");
  r->Add("serving.session_hit_ratio", m.session_hit_ratio, "ratio");
  r->Add("cluster.attempts_per_request", m.attempts_per_request, "ratio");
  r->Add("cluster.retries", static_cast<double>(m.retries), "count");
  r->Add("cluster.failovers", static_cast<double>(m.failovers), "count");
  r->Add("cluster.hedges", static_cast<double>(m.hedges), "count");
  r->Add("cluster.hints_replayed_per_restore", m.hints_replayed_per_restore,
         "count");
  r->Add("cluster.repair_items_per_restore", m.repair_items_per_restore,
         "count");
  r->Add("cluster.restore_ms", m.restore_ms, "ms");
  std::vector<double> append = m.append_ms;
  std::sort(append.begin(), append.end());
  r->Add("state.append_p50_ms", NearestRank(append, 50), "ms");
  r->Add("state.append_p99_ms", NearestRank(append, 99), "ms");
  r->Add("trace.overhead_ratio", m.overhead_ratio, "ratio");
}

/// The untraced run's metrics. Timings of the workloads' operations are
/// per-layer metrics (op.*): on a host whose cores are shared with other
/// machines, their run-to-run spread exceeds the 10% an end-to-end bound
/// would allow (README.md).
void AddEndToEnd(double setup_s, double peak_rss_mb, RunResult* r) {
  r->Add("setup_s", setup_s, "s");
  r->Add("peak_rss_mb", peak_rss_mb, "MB");
}

void WriteSpans(const Options& o, const SpanLog& spans) {
  const std::string dir = o.work_dir + "/spans";
  std::filesystem::create_directories(dir);
  const std::string path =
      dir + "/" + o.workload + "-seed" + std::to_string(o.seed) + ".jsonl";
  const Status written = io::Env::Default()->WriteFile(
      path, obs::TracesToJsonl(spans.Traces()));
  std::fprintf(stderr, "spans: %s %s\n", path.c_str(),
               written.ok() ? "" : written.ToString().c_str());
}

/// The traced run's common tail: phase metrics, then the layer probes at
/// the workload's shape. `request` is one served request of the workload;
/// `train_wall_ms` < 0 runs a three-batch probe epoch on 64 users.
void FinishTrace(const Options& o, const Shape& shape,
                 const std::vector<std::vector<int64_t>>& request,
                 int64_t train_batch, double train_wall_ms,
                 const PhaseLayers& phase, SpanLog* spans, RunResult* result) {
  AddPhaseLayers(phase, result);
  ProbeForward(shape, o.seed, request, spans);
  ProbeMatmul(shape, static_cast<int64_t>(request.size()), spans, result);
  ProbeBackward(shape, o.seed, train_batch, spans);
  if (train_wall_ms < 0) {
    Shape small = shape;
    small.users = 64;
    const data::SplitDataset split = MakeSplit(small, o.seed, 2);
    std::unique_ptr<core::Slime4Rec> model = MakeModel(shape, o.seed);
    train::TrainConfig config;
    config.batch_size = kProbeTrainBatch;
    train_wall_ms = TracedEpoch(model.get(), split, config, 3, spans).wall_ms;
  }
  ReportLayers(SpanStats(spans->Traces()),
               static_cast<int64_t>(request.size()), shape.layers,
               train_wall_ms, result);
  WriteSpans(o, *spans);
}

/// One served single-user request as the correctness gate sees it.
struct Served {
  uint32_t user = 0;
  bool ok = false;
  bool full = false;  // served by the full model
  double latency_ms = 0.0;
  double at_s = 0.0;  // due time (open loop) or completion (closed loop)
  std::vector<Recommendation> items;
};

/// A compact copy: served lists can carry a capacity of the whole
/// catalogue, and the run keeps thousands of them for the correctness gate.
std::vector<Recommendation> Compact(const std::vector<Recommendation>& items) {
  return {items.begin(), items.end()};
}

void Record(const Result<serving::ServeResponse>& response, Served* out) {
  if (!response.ok()) return;
  out->ok = true;
  out->full = response.value().tier == serving::ServeTier::kFullModel;
  out->items = Compact(response.value().items);
}

void CountServed(const std::vector<Served>& served, RunResult* result) {
  int64_t bad = 0;
  for (const Served& s : served) bad += s.ok ? 0 : 1;
  result->Count(static_cast<int64_t>(served.size()), bad);
}

Timing OkLatency(const std::vector<Served>& served) {
  std::vector<double> ms;
  for (const Served& s : served) {
    if (s.ok) ms.push_back(s.latency_ms);
  }
  return Summarize(ms);
}

/// The reported open-loop latency: the quiet value (QuietValue) of the
/// successful requests' median latency per window of due times.
double QuietLatency(const std::vector<Served>& served) {
  std::vector<double> at;
  std::vector<double> ms;
  for (const Served& s : served) {
    if (!s.ok) continue;
    at.push_back(s.at_s);
    ms.push_back(s.latency_ms);
  }
  return QuietValue(WindowMedians(at, ms, kWindowS));
}

/// Failed, shed, degraded or late (past the SLO from the scheduled
/// arrival) over offered.
double SloMissRatio(const std::vector<Served>& served) {
  int64_t miss = 0;
  for (const Served& s : served) {
    miss += (!s.ok || !s.full || s.latency_ms > kSloMs) ? 1 : 0;
  }
  return served.empty() ? 0.0 : static_cast<double>(miss) / served.size();
}

// ---------------------------------------------------------------------------
// serve_catalog

struct CatalogSetup {
  std::unique_ptr<data::SplitDataset> split;
  std::vector<serving::ServeRequest> requests;  // one per user
  std::unique_ptr<serving::ModelServer> server;
};

CatalogSetup MakeCatalogSetup(uint64_t seed) {
  CatalogSetup s;
  s.split = std::make_unique<data::SplitDataset>(MakeSplit(kCatalog, seed, 2));
  for (int64_t u = 0; u < s.split->num_users(); ++u) {
    serving::ServeRequest request;
    request.history = s.split->TestInput(u);
    request.options.top_k = kTopK;
    s.requests.push_back(std::move(request));
  }
  s.server = std::make_unique<serving::ModelServer>(
      serving::ModelServerOptions{});
  s.server->set_fallback(serving::PopularityFallback::FromSplit(*s.split));
  s.server->set_canary_requests(train::ExportCanarySet(*s.split, 4));
  const Status started = s.server->Start(MakeModel(kCatalog, seed));
  SLIME_CHECK_MSG(started.ok(), started.ToString());
  for (size_t i = 0; i < 200; ++i) {
    (void)s.server->Serve(s.requests[i % s.requests.size()]);
  }
  return s;
}

Served ServeUser(const CatalogSetup& s, uint32_t user, SpanLog* spans) {
  Served out;
  out.user = user;
  obs::TraceBuilder trace = spans->Start("request");
  {
    obs::TraceSpan span(trace, "serving.serve");
    Record(s.server->Serve(s.requests[user]), &out);
  }
  trace.Finish();
  return out;
}

/// Order-sensitive fingerprint of a ranking (item ids and score bits);
/// never 0, so 0 can mean "none yet".
uint64_t Fingerprint(const std::vector<Recommendation>& items) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  const auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((v >> (8 * b)) & 0xff)) * 1099511628211ull;
    }
  };
  for (const Recommendation& r : items) {
    uint32_t bits = 0;
    std::memcpy(&bits, &r.score, sizeof(bits));
    mix(static_cast<uint64_t>(r.item));
    mix(bits);
  }
  return h == 0 ? 1 : h;
}

struct CatalogPhase {
  std::vector<Served> nominal;  // open loop at kNominalRps
  std::vector<double> lag_ms;
  // Saturation phase. Its responses are too many to keep, and their number
  // grows with the host's speed, which would leak into peak RSS; so each
  // user's first full-tier ranking is kept as a fingerprint, and a later
  // response that differs from it is counted.
  int64_t capacity_calls = 0;
  int64_t capacity_failed = 0;
  int64_t capacity_differing = 0;
  std::unique_ptr<std::atomic<uint64_t>[]> capacity_first;
  double capacity_per_s = 0.0;
  serving::ServerStats before;
  serving::ServerStats after;
};

CatalogPhase RunCatalogPhase(const CatalogSetup& s, uint64_t seed,
                             uint64_t tag, double seconds, SpanLog* spans) {
  CatalogPhase p;
  p.before = s.server->stats();
  const ZipfSampler zipf(s.requests.size());
  Rng rng(StreamSeed(seed, tag));
  Lane lane;
  lane.due = PoissonSchedule(kNominalRps, 0.65 * seconds, &rng);
  std::vector<uint32_t> users(lane.due.size());
  for (uint32_t& u : users) u = static_cast<uint32_t>(zipf.Sample(&rng));
  p.nominal.resize(users.size());
  lane.issuers = kMaxIssuers;
  lane.issue = [&](size_t i) {
    p.nominal[i] = ServeUser(s, users[i], spans);
  };
  const OpenLoopResult open = RunOpenLoop({lane});
  for (size_t i = 0; i < p.nominal.size(); ++i) {
    p.nominal[i].latency_ms = open.latency_ms[0][i];
    p.nominal[i].at_s = lane.due[i];
  }
  p.lag_ms = open.idle_lag_ms;

  // Saturation: kMaxIssuers callers back to back; the rate is the quiet
  // value of the per-window seconds per completion.
  p.capacity_first =
      std::make_unique<std::atomic<uint64_t>[]>(s.requests.size());
  std::atomic<int64_t> failed{0};
  std::atomic<int64_t> differing{0};
  std::vector<std::vector<double>> done_at(kMaxIssuers);
  const double t0 = NowSeconds();
  const double end = t0 + 0.35 * seconds;
  std::vector<std::thread> callers;
  for (int c = 0; c < kMaxIssuers; ++c) {
    callers.emplace_back([&, c] {
      Rng caller_rng(StreamSeed(seed, tag * 16 + 1 + c));
      while (NowSeconds() < end) {
        const auto user = static_cast<uint32_t>(zipf.Sample(&caller_rng));
        const Served sv = ServeUser(s, user, spans);
        done_at[c].push_back(NowSeconds());
        if (!sv.ok) {
          failed.fetch_add(1);
        } else if (sv.full) {
          const uint64_t fp = Fingerprint(sv.items);
          uint64_t first = 0;
          if (!p.capacity_first[user].compare_exchange_strong(first, fp) &&
              first != fp) {
            differing.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  std::vector<double> done;
  for (const std::vector<double>& d : done_at) {
    done.insert(done.end(), d.begin(), d.end());
  }
  p.capacity_per_s = 1.0 / QuietValue(WindowSecondsPerOp(done, t0, end,
                                                          kWindowS));
  p.capacity_calls = static_cast<int64_t>(done.size());
  p.capacity_failed = failed.load();
  p.capacity_differing = differing.load();
  p.after = s.server->stats();
  return p;
}

/// Compares every full-tier response with the reference twin's ranking of
/// the same history (one ScoreAll per distinct user): open-loop responses
/// one by one, saturation responses through their user's fingerprint.
void VerifyCatalog(uint64_t seed, const CatalogSetup& s,
                   const std::vector<const CatalogPhase*>& phases,
                   RunResult* result) {
  std::unique_ptr<core::Slime4Rec> twin = MakeModel(kCatalog, seed);
  std::map<uint32_t, std::vector<Recommendation>> reference;
  const auto ranking = [&](uint32_t user) -> const std::vector<Recommendation>& {
    auto it = reference.find(user);
    if (it == reference.end()) {
      it = reference
               .emplace(user, ReferenceTopK(twin.get(),
                                            {s.requests[user].history})
                                  .front())
               .first;
    }
    return it->second;
  };
  for (const CatalogPhase* phase : phases) {
    CountServed(phase->nominal, result);
    for (const Served& sv : phase->nominal) {
      if (sv.ok && sv.full && !SameRanking(sv.items, ranking(sv.user))) {
        result->Fail("user " + std::to_string(sv.user) +
                     ": served top-10 differs from the reference");
      }
    }
    result->Count(phase->capacity_calls, phase->capacity_failed);
    if (phase->capacity_first == nullptr) continue;
    for (uint32_t u = 0; u < s.requests.size(); ++u) {
      const uint64_t fp = phase->capacity_first[u].load();
      if (fp != 0 && fp != Fingerprint(ranking(u))) {
        result->Fail("user " + std::to_string(u) +
                     ": saturation top-10 differs from the reference");
      }
    }
    if (phase->capacity_differing > 0) {
      result->Fail(std::to_string(phase->capacity_differing) +
                   " saturation responses differ from their user's first");
    }
  }
}

void AddServerDeltas(const serving::ServerStats& before,
                     const serving::ServerStats& after, PhaseLayers* m) {
  m->shed += after.shed - before.shed;
  m->fallback += after.fallback_served - before.fallback_served;
  m->deadline_exceeded += after.deadline_exceeded - before.deadline_exceeded;
}

RunResult RunServeCatalog(const Options& o) {
  RunResult result;
  double setup_s = 0.0;
  const CatalogSetup s = TimedSetup<CatalogSetup>(
      SetupReps(o), &setup_s, [&] { return MakeCatalogSetup(o.seed); });
  SpanLog off(false);
  const CatalogPhase base = RunCatalogPhase(s, o.seed, 20, RunSeconds(o), &off);
  const double peak_rss = PeakRssMb();
  SpanLog spans(o.trace);
  CatalogPhase traced;
  if (o.trace) traced = RunCatalogPhase(s, o.seed, 21, RunSeconds(o), &spans);

  VerifyCatalog(o.seed, s, {&base, &traced}, &result);
  if (!o.trace) {
    AddEndToEnd(setup_s, peak_rss, &result);
    return result;
  }
  PhaseLayers m;
  m.op = OkLatency(base.nominal);
  m.quiet_ms = QuietLatency(base.nominal);
  m.work_per_s = base.capacity_per_s;
  m.slo_miss_ratio = SloMissRatio(base.nominal);
  m.lag_ms = base.lag_ms;
  AddServerDeltas(base.before, base.after, &m);
  m.append_ms = ProbeStateAppends(o.work_dir + "/state_probe", kCatalog.users,
                                  o.seed);
  m.overhead_ratio = QuietLatency(traced.nominal) / m.quiet_ms;
  FinishTrace(o, kCatalog, {s.requests[0].history}, kProbeTrainBatch, -1.0, m,
              &spans, &result);
  return result;
}

// ---------------------------------------------------------------------------
// score_longseq

struct LongSetup {
  std::unique_ptr<data::SplitDataset> split;
  std::vector<serving::BatchServeRequest> batches;
  std::unique_ptr<serving::ModelServer> server;
};

LongSetup MakeLongSetup(uint64_t seed) {
  LongSetup s;
  s.split = std::make_unique<data::SplitDataset>(MakeSplit(kLongSeq, seed, 2));
  std::vector<int64_t> users(s.split->num_users());
  for (size_t u = 0; u < users.size(); ++u) users[u] = static_cast<int64_t>(u);
  Rng rng(StreamSeed(seed, 30));
  rng.Shuffle(&users);
  for (size_t k = 0; k < kLongDistinctBatches; ++k) {
    serving::BatchServeRequest batch;
    for (size_t j = 0; j < kLongBatch; ++j) {
      batch.histories.push_back(s.split->TestInput(users[k * kLongBatch + j]));
    }
    batch.options.top_k = kTopK;
    // Long enough that no batch ever degrades: this workload measures the
    // encoder, not the ladder.
    batch.deadline_nanos = 60 * serving::kNanosPerSecond;
    s.batches.push_back(std::move(batch));
  }
  s.server = std::make_unique<serving::ModelServer>(
      serving::ModelServerOptions{});
  s.server->set_fallback(serving::PopularityFallback::FromSplit(*s.split));
  s.server->set_canary_requests(train::ExportCanarySet(*s.split, 4));
  const Status started = s.server->Start(MakeModel(kLongSeq, seed));
  SLIME_CHECK_MSG(started.ok(), started.ToString());
  // Warm-up: first-touch of the batch's activations and logits. Later
  // batches gain nothing more that the quiet value would see.
  SLIME_CHECK(s.server->ServeBatch(s.batches[0]).ok());
  return s;
}

struct LongCall {
  size_t batch = 0;
  bool ok = false;
  std::vector<Served> users;  // one per history of the batch
};

struct LongPhase {
  std::vector<LongCall> calls;
  std::vector<double> latency_ms;
  std::vector<double> gap_ms;  // previous completion to next call
  serving::ServerStats before;
  serving::ServerStats after;
};

LongPhase RunLongPhase(const LongSetup& s, double seconds, SpanLog* spans) {
  LongPhase p;
  p.before = s.server->stats();
  const double t0 = NowSeconds();
  double ready = t0;
  for (size_t k = 0; k < 2 || NowSeconds() - t0 < seconds; ++k) {
    LongCall call;
    call.batch = k % s.batches.size();
    obs::TraceBuilder trace = spans->Start("batch");
    const double c0 = NowSeconds();
    p.gap_ms.push_back((c0 - ready) * 1e3);
    Result<serving::BatchServeResponse> response = [&] {
      obs::TraceSpan span(trace, "serving.serve_batch");
      return s.server->ServeBatch(s.batches[call.batch]);
    }();
    ready = NowSeconds();
    trace.Finish();
    p.latency_ms.push_back((ready - c0) * 1e3);
    if (response.ok()) {
      call.ok = true;
      for (const serving::ServeResponse& r : response.value().responses) {
        Served& sv = call.users.emplace_back();
        sv.ok = r.complete;
        sv.full = r.tier == serving::ServeTier::kFullModel;
        sv.items = Compact(r.items);
      }
    }
    p.calls.push_back(std::move(call));
  }
  p.after = s.server->stats();
  return p;
}

void VerifyLong(const LongSetup& s, uint64_t seed,
                const std::vector<const LongPhase*>& phases,
                RunResult* result) {
  std::unique_ptr<core::Slime4Rec> twin = MakeModel(kLongSeq, seed);
  std::map<size_t, std::vector<std::vector<Recommendation>>> reference;
  for (const LongPhase* phase : phases) {
    for (const LongCall& call : phase->calls) {
      result->Count(1, call.ok ? 0 : 1);
      if (!call.ok) continue;
      auto it = reference.find(call.batch);
      if (it == reference.end()) {
        it = reference
                 .emplace(call.batch,
                          ReferenceTopK(twin.get(),
                                        s.batches[call.batch].histories))
                 .first;
      }
      int64_t wrong = 0;
      for (size_t j = 0; j < call.users.size(); ++j) {
        const Served& sv = call.users[j];
        if (sv.full && !SameRanking(sv.items, it->second[j])) ++wrong;
      }
      if (wrong > 0) {
        result->Fail("batch " + std::to_string(call.batch) + ": " +
                     std::to_string(wrong) +
                     " users' top-10 differ from the reference");
      }
    }
  }
}

RunResult RunScoreLongseq(const Options& o) {
  RunResult result;
  double setup_s = 0.0;
  const LongSetup s = TimedSetup<LongSetup>(
      SetupReps(o), &setup_s, [&] { return MakeLongSetup(o.seed); });
  SpanLog off(false);
  const LongPhase base = RunLongPhase(s, RunSeconds(o), &off);
  const double peak_rss = PeakRssMb();
  SpanLog spans(o.trace);
  LongPhase traced;
  if (o.trace) traced = RunLongPhase(s, RunSeconds(o), &spans);
  VerifyLong(s, o.seed, {&base, &traced}, &result);

  if (!o.trace) {
    AddEndToEnd(setup_s, peak_rss, &result);
    return result;
  }
  PhaseLayers m;
  m.op = Summarize(base.latency_ms);
  m.quiet_ms = QuietValue(base.latency_ms);
  // Users scored per second at the quiet batch latency.
  m.work_per_s = kLongBatch / (m.quiet_ms * 1e-3);
  int64_t degraded = 0;
  for (const LongCall& call : base.calls) {
    bool full = call.ok;
    for (const Served& sv : call.users) full = full && sv.full;
    degraded += full ? 0 : 1;
  }
  m.slo_miss_ratio = static_cast<double>(degraded) / base.calls.size();
  m.lag_ms = base.gap_ms;
  AddServerDeltas(base.before, base.after, &m);
  m.append_ms = ProbeStateAppends(o.work_dir + "/state_probe", kLongSeq.users,
                                  o.seed);
  m.overhead_ratio = QuietValue(traced.latency_ms) / m.quiet_ms;
  FinishTrace(o, kLongSeq, s.batches[0].histories, kProbeTrainBatch, -1.0, m,
              &spans, &result);
  return result;
}

// ---------------------------------------------------------------------------
// train_contrastive

struct TrainSetup {
  std::unique_ptr<data::SplitDataset> split;
};

train::TrainConfig TrainingConfig(uint64_t seed) {
  train::TrainConfig config;
  config.max_epochs = 1;
  config.batch_size = kTrainBatch;
  config.seed = StreamSeed(seed, 3);
  return config;
}

TrainSetup MakeTrainSetup(uint64_t seed) {
  TrainSetup s;
  s.split = std::make_unique<data::SplitDataset>(MakeSplit(kTrain, seed, 2));
  // Warm-up: one full-size contrastive step on a throwaway model, so the
  // first timed Fit does not pay first-touch costs.
  std::unique_ptr<core::Slime4Rec> model = MakeModel(kTrain, seed);
  Rng rng(StreamSeed(seed, 31));
  data::TrainBatcher batcher(s.split.get(), kTrainBatch, kTrain.max_len,
                             model->needs_positives(), &rng);
  model->SetTraining(true);
  model->Loss(batcher.Epoch().front()).Backward();
  return s;
}

struct FitRun {
  double wall_ms = 0.0;
  Result<train::TrainResult> result = Status::Aborted("not run");
};

RunResult RunTrainContrastive(const Options& o) {
  RunResult result;
  double setup_s = 0.0;
  const TrainSetup s = TimedSetup<TrainSetup>(
      SetupReps(o), &setup_s, [&] { return MakeTrainSetup(o.seed); });
  const train::TrainConfig config = TrainingConfig(o.seed);
  const double examples = static_cast<double>(s.split->train_samples().size());

  // Closed loop of whole Fits on fresh same-seed models; a Fit starts only
  // if it should finish inside the measured time (at least one runs).
  std::vector<FitRun> fits;
  std::vector<double> gap_ms;  // previous Fit's return to the next call
  const double t0 = NowSeconds();
  double ready = t0;
  for (;;) {
    std::unique_ptr<core::Slime4Rec> model = MakeModel(kTrain, o.seed);
    train::Trainer trainer(config);
    FitRun run;
    const double f0 = NowSeconds();
    gap_ms.push_back((f0 - ready) * 1e3);
    run.result = trainer.Fit(model.get(), *s.split);
    ready = NowSeconds();
    run.wall_ms = (ready - f0) * 1e3;
    std::fprintf(stderr, "fit %zu: %.1f ms, loss %.9g\n", fits.size(),
                 run.wall_ms,
                 run.result.ok() ? run.result.value().final_train_loss : 0.0);
    fits.push_back(std::move(run));
    if (NowSeconds() - t0 + fits.back().wall_ms * 1e-3 > RunSeconds(o)) break;
  }
  const double peak_rss = PeakRssMb();

  std::vector<double> walls;
  for (const FitRun& run : fits) {
    walls.push_back(run.wall_ms);
    result.Count(1, run.result.ok() ? 0 : 1);
    if (!run.result.ok()) continue;
    const train::TrainResult& r = run.result.value();
    if (!std::isfinite(r.final_train_loss) ||
        (fits.front().result.ok() &&
         r.final_train_loss != fits.front().result.value().final_train_loss)) {
      result.Fail("training loss " + std::to_string(r.final_train_loss) +
                  " is not finite or differs from the run's first Fit");
    }
    if (!(r.test.ndcg10 >= 0.0 && r.test.ndcg10 <= 1.0)) {
      result.Fail("test NDCG@10 outside [0, 1]");
    }
    const auto recorded = RecordedTrainLoss().find(o.seed);
    if (recorded != RecordedTrainLoss().end() &&
        std::abs(r.final_train_loss / recorded->second - 1.0) > 0.01) {
      result.Fail("training loss " + std::to_string(r.final_train_loss) +
                  " is more than 1% from the recorded " +
                  std::to_string(recorded->second));
    }
  }
  if (!o.trace) {
    AddEndToEnd(setup_s, peak_rss, &result);
    return result;
  }

  SpanLog spans(true);
  std::unique_ptr<core::Slime4Rec> model = MakeModel(kTrain, o.seed);
  const EpochRun epoch = TracedEpoch(model.get(), *s.split, config, 0, &spans);
  if (fits.front().result.ok() &&
      std::abs(epoch.mean_loss -
               fits.front().result.value().final_train_loss) >
          1e-6 * std::abs(epoch.mean_loss)) {
    result.Fail("traced epoch loss " + std::to_string(epoch.mean_loss) +
                " differs from Trainer::Fit's");
  }
  PhaseLayers m;
  m.op = Summarize(walls);
  m.quiet_ms = QuietValue(walls);
  m.work_per_s = examples / (m.quiet_ms * 1e-3);
  m.lag_ms = gap_ms;
  m.append_ms = ProbeStateAppends(o.work_dir + "/state_probe", kTrain.users,
                                  o.seed);
  m.overhead_ratio = epoch.wall_ms / m.quiet_ms;
  std::vector<std::vector<int64_t>> request;
  for (int64_t u = 0; u < s.split->num_users() && u < kTrainBatch; ++u) {
    request.push_back(s.split->TestInput(u));
  }
  // Coverage is taken against the traced epoch's own wall time, not the
  // untraced Fit's: on a shared host two executions of the same epoch differ
  // by up to 20%, which would make the gate flip on noise. The epoch is
  // Fit's loop (the loss check above), and trace.overhead_ratio reports
  // traced against untraced.
  FinishTrace(o, kTrain, request, kTrainBatch, epoch.wall_ms, m, &spans,
              &result);
  double coverage = 0.0;
  for (const RunResult::Metric& metric : result.metrics) {
    if (metric.name == "train.coverage_ratio") coverage = metric.value;
  }
  if (coverage < 0.9) {
    result.Fail("traced epoch parts cover " + std::to_string(coverage) +
                " of the epoch's wall time (< 0.9)");
  }
  return result;
}

// ---------------------------------------------------------------------------
// session_cluster

struct AppendOp {
  uint32_t user = 0;
  int64_t item = 0;
};

/// The bench's own copy of every user's history: the pre-appended base
/// followed by every scheduled append in issue order. `committed` and
/// `begun` count a user's appends acked and issued, so a session response
/// is correct if it matches the history after any count between the
/// committed count when it was sent and the begun count when it returned.
struct Mirror {
  std::vector<std::vector<int64_t>> items;
  std::vector<std::vector<uint32_t>> lengths;  // after base, after append k
  std::unique_ptr<std::atomic<uint32_t>[]> committed;
  std::unique_ptr<std::atomic<uint32_t>[]> begun;
};

Mirror MakeMirror(const data::SplitDataset& split,
                  const std::vector<const std::vector<AppendOp>*>& streams) {
  Mirror m;
  const size_t users = static_cast<size_t>(split.num_users());
  m.items.resize(users);
  m.lengths.resize(users);
  for (size_t u = 0; u < users; ++u) {
    m.items[u] = split.TestInput(static_cast<int64_t>(u));
    m.lengths[u].push_back(static_cast<uint32_t>(m.items[u].size()));
  }
  for (const std::vector<AppendOp>* stream : streams) {
    for (const AppendOp& op : *stream) {
      m.items[op.user].push_back(op.item);
      m.lengths[op.user].push_back(
          static_cast<uint32_t>(m.items[op.user].size()));
    }
  }
  m.committed = std::make_unique<std::atomic<uint32_t>[]>(users);
  m.begun = std::make_unique<std::atomic<uint32_t>[]>(users);
  for (size_t u = 0; u < users; ++u) {
    m.committed[u] = 0;
    m.begun[u] = 0;
  }
  return m;
}

std::string SessionStateDir(const Options& o) {
  return o.work_dir + "/session_cluster_state";
}

struct SessionSetup {
  std::unique_ptr<data::SplitDataset> split;
  std::unique_ptr<cluster::ClusterServer> fleet;
};

serving::ServeRequest SessionRequest() {
  serving::ServeRequest request;
  request.options.top_k = kTopK;
  return request;
}

SessionSetup MakeSessionSetup(const Options& o) {
  std::filesystem::remove_all(SessionStateDir(o));
  SessionSetup s;
  s.split = std::make_unique<data::SplitDataset>(MakeSplit(kCatalog, o.seed, 2));
  cluster::ClusterOptions options;
  options.num_shards = 2;
  options.replication = 2;
  options.seed = StreamSeed(o.seed, 4);
  options.state_dir = SessionStateDir(o);
  options.state_sync = state::SyncMode::kGroup;
  options.hinted_handoff = true;
  options.repair_on_restore = true;
  const uint64_t seed = o.seed;
  s.fleet = std::make_unique<cluster::ClusterServer>(
      options, [seed] { return MakeModel(kCatalog, seed); });
  s.fleet->set_fallback(serving::PopularityFallback::FromSplit(*s.split));
  s.fleet->set_canary_requests(train::ExportCanarySet(*s.split, 4));
  const Status started = s.fleet->Start();
  SLIME_CHECK_MSG(started.ok(), started.ToString());
  for (int64_t u = 0; u < s.split->num_users(); ++u) {
    SLIME_CHECK(s.fleet->AppendEvent(static_cast<uint64_t>(u),
                                     s.split->TestInput(u))
                    .ok());
  }
  // A long-running session tier has a warm cache: serve every user once,
  // so the measured phase sees steady-state hits and invalidations.
  const serving::ServeRequest request = SessionRequest();
  for (int64_t u = 0; u < s.split->num_users(); ++u) {
    (void)s.fleet->ServeSession(static_cast<uint64_t>(u), request);
  }
  return s;
}

struct SessionServe {
  uint32_t user = 0;
  uint32_t lo = 0;  // appends committed when sent
  uint32_t hi = 0;  // appends begun when it returned
  Served served;
};

struct SessionInputs {
  std::vector<double> serve_due;
  std::vector<uint32_t> serve_users;
  std::vector<double> append_due;
  std::vector<AppendOp> appends;
};

SessionInputs MakeSessionInputs(uint64_t seed, uint64_t tag, size_t users,
                                double seconds) {
  SessionInputs in;
  const ZipfSampler zipf(users);
  Rng rng(StreamSeed(seed, tag));
  in.serve_due = PoissonSchedule(kNominalRps, seconds, &rng);
  for (size_t i = 0; i < in.serve_due.size(); ++i) {
    in.serve_users.push_back(static_cast<uint32_t>(zipf.Sample(&rng)));
  }
  in.append_due = PoissonSchedule(kAppendRps, seconds, &rng);
  for (size_t i = 0; i < in.append_due.size(); ++i) {
    in.appends.push_back({static_cast<uint32_t>(zipf.Sample(&rng)),
                          rng.UniformInt(1, kCatalog.items)});
  }
  return in;
}

std::vector<AppendOp> MakeRestoreAppends(uint64_t seed, size_t users,
                                         int cycles) {
  const ZipfSampler zipf(users);
  Rng rng(StreamSeed(seed, 40));
  std::vector<AppendOp> ops(static_cast<size_t>(cycles) * kRestoreAppends);
  for (AppendOp& op : ops) {
    op.user = static_cast<uint32_t>(zipf.Sample(&rng));
    op.item = rng.UniformInt(1, kCatalog.items);
  }
  return ops;
}

/// Appends through the cluster and keeps the mirror's counters in step.
bool MirroredAppend(cluster::ClusterServer* fleet, Mirror* mirror,
                    const AppendOp& op, SpanLog* spans, double* ms) {
  mirror->begun[op.user].fetch_add(1);
  obs::TraceBuilder trace = spans->Start("append");
  const double t0 = NowSeconds();
  bool ok = false;
  {
    obs::TraceSpan span(trace, "cluster.append_event");
    ok = fleet->AppendEvent(op.user, {op.item}).ok();
  }
  *ms = (NowSeconds() - t0) * 1e3;
  trace.Finish();
  if (ok) mirror->committed[op.user].fetch_add(1);
  return ok;
}

int64_t ShardCounter(cluster::ClusterServer* fleet, const std::string& name) {
  int64_t total = 0;
  for (int64_t shard = 0; shard < fleet->num_shards(); ++shard) {
    for (const obs::MetricValue& c :
         fleet->shard_server(shard)->metrics().Snapshot().counters) {
      if (c.name == name) total += c.value;
    }
  }
  return total;
}

struct SessionPhase {
  std::vector<SessionServe> serves;
  std::vector<double> append_ms;
  std::vector<double> lag_ms;
  int64_t append_failures = 0;
  cluster::ClusterStats before;
  cluster::ClusterStats after;
  int64_t hits = 0;    // session-cache hits over the phase, all shards
  int64_t misses = 0;
  PhaseLayers shard_counters;  // shed / fallback / deadline deltas
};

SessionPhase RunSessionPhase(const SessionSetup& s, Mirror* mirror,
                             const SessionInputs& in, SpanLog* spans) {
  SessionPhase p;
  cluster::ClusterServer* fleet = s.fleet.get();
  std::vector<serving::ServerStats> shard_before;
  for (int64_t i = 0; i < fleet->num_shards(); ++i) {
    shard_before.push_back(fleet->shard_server(i)->stats());
  }
  const int64_t hits0 = ShardCounter(fleet, "state.session_hits");
  const int64_t misses0 = ShardCounter(fleet, "state.session_misses");
  p.before = fleet->stats();
  const serving::ServeRequest request = SessionRequest();
  p.serves.resize(in.serve_due.size());
  p.append_ms.resize(in.appends.size());
  std::atomic<int64_t> append_failures{0};

  // Appends ride a single issuer, so each user's appends land in schedule
  // order and the mirror stays exact; serves take the other two issuers.
  Lane serve_lane;
  serve_lane.due = in.serve_due;
  serve_lane.issuers = kMaxIssuers - 1;
  serve_lane.issue = [&](size_t i) {
    SessionServe& out = p.serves[i];
    out.user = in.serve_users[i];
    out.served.user = out.user;
    out.lo = mirror->committed[out.user].load();
    obs::TraceBuilder trace = spans->Start("session");
    {
      obs::TraceSpan span(trace, "cluster.serve_session");
      Record(fleet->ServeSession(out.user, request), &out.served);
    }
    trace.Finish();
    out.hi = mirror->begun[out.user].load();
  };
  Lane append_lane;
  append_lane.due = in.append_due;
  append_lane.issuers = 1;
  append_lane.issue = [&](size_t i) {
    if (!MirroredAppend(fleet, mirror, in.appends[i], spans,
                        &p.append_ms[i])) {
      append_failures.fetch_add(1);
    }
  };
  const OpenLoopResult open = RunOpenLoop({serve_lane, append_lane});
  for (size_t i = 0; i < p.serves.size(); ++i) {
    p.serves[i].served.latency_ms = open.latency_ms[0][i];
    p.serves[i].served.at_s = in.serve_due[i];
  }
  p.lag_ms = open.idle_lag_ms;
  p.append_failures = append_failures.load();
  p.after = fleet->stats();
  p.hits = ShardCounter(fleet, "state.session_hits") - hits0;
  p.misses = ShardCounter(fleet, "state.session_misses") - misses0;
  for (int64_t i = 0; i < fleet->num_shards(); ++i) {
    AddServerDeltas(shard_before[static_cast<size_t>(i)],
                    fleet->shard_server(i)->stats(), &p.shard_counters);
  }
  return p;
}

/// Segments whose replicas disagree on any user's digest.
int64_t DivergedSegments(cluster::ClusterServer* fleet) {
  const cluster::ShardRing& ring = fleet->ring();
  const auto digests = [&](int64_t shard, int64_t segment) {
    std::string bytes;
    const state::StateStore* store = fleet->shard_server(shard)->state_store();
    if (store == nullptr) return bytes;
    for (const state::UserDigest& d :
         store->EnumerateDigests([&ring, segment](uint64_t user) {
           return ring.SegmentOf(user) == segment;
         })) {
      bytes += std::to_string(d.user_id) + ":" +
               std::to_string(d.items_total) + ":" + std::to_string(d.crc) +
               ";";
    }
    return bytes;
  };
  int64_t diverged = 0;
  for (int64_t segment = 0; segment < ring.num_segments(); ++segment) {
    const std::vector<int64_t>& replicas = ring.Replicas(segment);
    const std::string first = digests(replicas[0], segment);
    for (size_t r = 1; r < replicas.size(); ++r) {
      if (digests(replicas[r], segment) != first) {
        ++diverged;
        break;
      }
    }
  }
  return diverged;
}

struct RestoreRuns {
  std::vector<double> restore_ms;  // RestoreShard wall time, per cycle
  std::vector<double> append_ms;
  int64_t replayed = 0;
  int64_t repair_items = 0;
};

/// Kill shard 1, stream appends past it (each one hinted), restore it, and
/// gate the restore: OK, every queued hint replayed, nothing dropped, no
/// repair conflicts, every segment's replicas digest-identical.
RestoreRuns RunRestoreCycles(const SessionSetup& s, Mirror* mirror,
                             const std::vector<AppendOp>& ops, int cycles,
                             SpanLog* spans, RunResult* result) {
  RestoreRuns runs;
  cluster::ClusterServer* fleet = s.fleet.get();
  for (int c = 0; c < cycles; ++c) {
    const cluster::ClusterStats before = fleet->stats();
    fleet->KillShard(1);
    int64_t failed = 0;
    for (int k = 0; k < kRestoreAppends; ++k) {
      double ms = 0.0;
      if (!MirroredAppend(fleet, mirror,
                          ops[static_cast<size_t>(c) * kRestoreAppends + k],
                          spans, &ms)) {
        ++failed;
      }
      runs.append_ms.push_back(ms);
    }
    result->Count(kRestoreAppends, failed);
    obs::TraceBuilder trace = spans->Start("restore");
    const double t0 = NowSeconds();
    Status restored;
    {
      obs::TraceSpan span(trace, "cluster.restore_shard");
      restored = fleet->RestoreShard(1);
    }
    const double ms = (NowSeconds() - t0) * 1e3;
    trace.Finish();
    result->Count(1, restored.ok() ? 0 : 1);
    const cluster::ClusterStats after = fleet->stats();
    const int64_t queued = after.hints_queued - before.hints_queued;
    const int64_t replayed = after.hints_replayed - before.hints_replayed;
    const int64_t dropped = after.hints_dropped - before.hints_dropped;
    const int64_t conflicts = after.repair_conflicts - before.repair_conflicts;
    const int64_t diverged = DivergedSegments(fleet);
    if (!restored.ok() || replayed != queued || dropped != 0 ||
        conflicts != 0 || diverged != 0) {
      result->Fail("restore " + std::to_string(c) + ": " +
                   restored.ToString() + ", hints " +
                   std::to_string(replayed) + "/" + std::to_string(queued) +
                   " replayed, " + std::to_string(dropped) + " dropped, " +
                   std::to_string(conflicts) + " conflicts, " +
                   std::to_string(diverged) + " diverged segments");
    }
    runs.restore_ms.push_back(ms);
    runs.replayed += replayed;
    runs.repair_items +=
        after.repair_items_transferred - before.repair_items_transferred;
  }
  return runs;
}

std::vector<Served> ServedOf(const SessionPhase& p) {
  std::vector<Served> served;
  for (const SessionServe& sv : p.serves) served.push_back(sv.served);
  return served;
}

/// Every full-tier session response must equal the reference ranking of
/// the mirrored history at some append count in [lo, hi]; a stale cache
/// entry shows up as a response matching none of them.
void VerifySessions(uint64_t seed, const Mirror& mirror,
                    const std::vector<const SessionPhase*>& phases,
                    RunResult* result) {
  std::unique_ptr<core::Slime4Rec> twin = MakeModel(kCatalog, seed);
  std::map<uint64_t, std::vector<Recommendation>> reference;
  const auto ranking = [&](uint32_t user, uint32_t appends)
      -> const std::vector<Recommendation>& {
    const uint64_t key = (static_cast<uint64_t>(user) << 32) | appends;
    auto it = reference.find(key);
    if (it == reference.end()) {
      const std::vector<int64_t>& all = mirror.items[user];
      const std::vector<int64_t> history(
          all.begin(), all.begin() + mirror.lengths[user][appends]);
      it = reference.emplace(key, ReferenceTopK(twin.get(), {history}).front())
               .first;
    }
    return it->second;
  };
  for (const SessionPhase* phase : phases) {
    CountServed(ServedOf(*phase), result);
    result->Count(static_cast<int64_t>(phase->append_ms.size()),
                  phase->append_failures);
    for (const SessionServe& sv : phase->serves) {
      if (!sv.served.ok || !sv.served.full) continue;
      bool matched = false;
      for (uint32_t a = sv.lo; a <= sv.hi && !matched; ++a) {
        matched = SameRanking(sv.served.items, ranking(sv.user, a));
      }
      if (!matched) {
        result->Fail("user " + std::to_string(sv.user) +
                     ": session top-10 matches no mirrored history between " +
                     std::to_string(sv.lo) + " and " + std::to_string(sv.hi) +
                     " appends");
      }
    }
  }
}

RunResult RunSessionCluster(const Options& o) {
  RunResult result;
  double setup_s = 0.0;
  SessionSetup s = TimedSetup<SessionSetup>(
      SetupReps(o), &setup_s, [&] { return MakeSessionSetup(o); });
  const size_t users = static_cast<size_t>(s.split->num_users());
  const double mixed_s = 0.8 * RunSeconds(o);
  const SessionInputs base_in = MakeSessionInputs(o.seed, 50, users, mixed_s);
  const SessionInputs traced_in =
      o.trace ? MakeSessionInputs(o.seed, 51, users, mixed_s) : SessionInputs{};
  const std::vector<AppendOp> restore_ops =
      MakeRestoreAppends(o.seed, users, kRestoreCycles);
  Mirror mirror = MakeMirror(
      *s.split, {&base_in.appends, &traced_in.appends, &restore_ops});

  SpanLog off(false);
  const SessionPhase base = RunSessionPhase(s, &mirror, base_in, &off);
  // Read before the restores: each state reload briefly holds the old and
  // the new user map, and where that lands relative to allocator arenas
  // moved the peak by up to 6 MB from run to run.
  const double peak_rss = PeakRssMb();
  SpanLog spans(o.trace);
  SessionPhase traced;
  if (o.trace) traced = RunSessionPhase(s, &mirror, traced_in, &spans);
  const RestoreRuns restores = RunRestoreCycles(
      s, &mirror, restore_ops, kRestoreCycles, o.trace ? &spans : &off,
      &result);
  VerifySessions(o.seed, mirror, {&base, &traced}, &result);

  if (!o.trace) {
    AddEndToEnd(setup_s, peak_rss, &result);
  } else {
    const std::vector<Served> base_served = ServedOf(base);
    PhaseLayers m = base.shard_counters;
    m.op = OkLatency(base_served);
    m.quiet_ms = QuietLatency(base_served);
    m.restore_ms = QuietValue(restores.restore_ms);
    // Missed appends recovered per second of RestoreShard: the hints a
    // cycle replays (its 1,000 appends) over the quiet restore time.
    m.work_per_s = static_cast<double>(restores.replayed) / kRestoreCycles /
                   (m.restore_ms * 1e-3);
    m.slo_miss_ratio = SloMissRatio(base_served);
    m.lag_ms = base.lag_ms;
    m.session_hit_ratio =
        base.hits + base.misses > 0
            ? static_cast<double>(base.hits) / (base.hits + base.misses)
            : 0.0;
    const int64_t routed = base.after.requests - base.before.requests;
    m.attempts_per_request =
        routed > 0 ? static_cast<double>(base.after.attempts -
                                         base.before.attempts) /
                         routed
                   : 0.0;
    m.retries = base.after.retries - base.before.retries;
    m.failovers = base.after.failovers - base.before.failovers;
    m.hedges = base.after.hedges - base.before.hedges;
    m.hints_replayed_per_restore =
        static_cast<double>(restores.replayed) / kRestoreCycles;
    m.repair_items_per_restore =
        static_cast<double>(restores.repair_items) / kRestoreCycles;
    m.append_ms = base.append_ms;
    m.append_ms.insert(m.append_ms.end(), restores.append_ms.begin(),
                       restores.append_ms.end());
    m.overhead_ratio = QuietLatency(ServedOf(traced)) / m.quiet_ms;
    FinishTrace(o, kCatalog, {s.split->TestInput(0)}, kProbeTrainBatch, -1.0,
                m, &spans, &result);
  }
  // Tear down before removing the state directory under the fleet.
  s.fleet.reset();
  std::filesystem::remove_all(SessionStateDir(o));
  return result;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "serve_catalog", "score_longseq", "train_contrastive",
      "session_cluster"};
  return names;
}

RunResult RunWorkload(const Options& options) {
  if (options.workload == "serve_catalog") return RunServeCatalog(options);
  if (options.workload == "score_longseq") return RunScoreLongseq(options);
  if (options.workload == "train_contrastive") {
    return RunTrainContrastive(options);
  }
  if (options.workload == "session_cluster") {
    return RunSessionCluster(options);
  }
  RunResult result;
  result.Fail("unknown workload " + options.workload);
  return result;
}

}  // namespace bench
}  // namespace slime
