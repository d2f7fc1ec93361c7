#include "serving/model_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "compute/thread_pool.h"
#include "core/slime4rec.h"
#include "data/dataset.h"
#include "io/env.h"
#include "models/model_factory.h"
#include "models/recommender.h"
#include "observability/export.h"
#include "observability/metrics.h"
#include "observability/trace.h"
#include "tensor/tensor.h"
#include "train/trainer.h"

namespace slime {
namespace serving {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// A deterministic stand-in model for server chaos tests. Scores depend
/// only on a single checkpointed parameter ("shift"): item j scores
/// fmod(j + shift, num_items + 1), so the top item is num_items - shift
/// and a reload that changes `shift` visibly changes every ranking. A
/// non-finite shift poisons every score, which is exactly what canary
/// validation must catch. When given a FakeClock and a latency script,
/// each ScoreAll call advances the clock by the scripted amount (the last
/// entry repeats), simulating slow inference without wall-clock sleeps.
class ScriptedModel : public models::SequentialRecommender {
 public:
  ScriptedModel(const models::ModelConfig& config, float shift,
                FakeClock* clock = nullptr,
                std::vector<int64_t> latencies = {})
      : SequentialRecommender(config),
        clock_(clock),
        latencies_(std::move(latencies)) {
    shift_ = RegisterParameter(
        "shift", autograd::Variable(Tensor::Scalar(shift),
                                    /*requires_grad=*/true));
  }

  autograd::Variable Loss(const data::Batch& batch) override {
    (void)batch;
    return shift_;
  }

  Tensor ScoreAll(const data::Batch& batch) override {
    // Forward passes are serialised by the server's inference mutex, so a
    // plain counter is race-free even in the multi-threaded chaos tests.
    const size_t call = static_cast<size_t>(calls_++);
    if (clock_ != nullptr && !latencies_.empty()) {
      clock_->Advance(latencies_[std::min(latencies_.size() - 1, call)]);
    }
    const float shift = shift_.value().data()[0];
    const int64_t cols = config_.num_items + 1;
    Tensor scores = Tensor::Zeros({batch.size, cols});
    float* out = scores.data();
    for (int64_t b = 0; b < batch.size; ++b) {
      for (int64_t j = 0; j < cols; ++j) {
        // A non-finite shift propagates as-is; fmod(x, inf-path) would
        // yield NaN anyway but an explicit branch keeps scores at the
        // exact poisoned value.
        out[b * cols + j] =
            std::isfinite(shift)
                ? std::fmod(static_cast<float>(j) + shift,
                            static_cast<float>(cols))
                : shift;
      }
    }
    return scores;
  }

  std::string name() const override { return "Scripted"; }
  int64_t calls() const { return calls_; }

 private:
  autograd::Variable shift_;
  FakeClock* clock_;
  std::vector<int64_t> latencies_;
  int64_t calls_ = 0;
};

models::ModelConfig TinyConfig() {
  models::ModelConfig c;
  c.num_items = 10;
  c.num_users = 4;
  c.max_len = 8;
  c.hidden_dim = 4;
  c.num_layers = 1;
  return c;
}

std::vector<int64_t> Items(const std::vector<Recommendation>& recs) {
  std::vector<int64_t> items;
  items.reserve(recs.size());
  for (const auto& r : recs) items.push_back(r.item);
  return items;
}

RecommendOptions Top3Unfiltered() {
  RecommendOptions o;
  o.top_k = 3;
  o.exclude_seen = false;
  return o;
}

/// Samples recorded so far by the registry histogram `name` (0 if absent).
int64_t HistogramCount(const obs::MetricsRegistry& registry,
                       const std::string& name) {
  for (const obs::HistogramValue& h : registry.Snapshot().histograms) {
    if (h.name == name) return h.count;
  }
  return 0;
}

/// True if the latest trace annotates span `span` with key = value.
bool LastTraceAnnotates(const obs::Tracer& tracer, const std::string& span,
                        const std::string& key, const std::string& value) {
  const std::vector<obs::Trace> traces = tracer.Traces();
  if (traces.empty()) return false;
  for (const obs::SpanRecord& s : traces.back().spans) {
    if (s.name != span) continue;
    for (const auto& [k, v] : s.annotations) {
      if (k == key && v == value) return true;
    }
  }
  return false;
}

// --- Clock ---------------------------------------------------------------

TEST(ClockTest, FakeClockAdvancesAndSets) {
  FakeClock clock(5);
  EXPECT_EQ(clock.NowNanos(), 5);
  clock.Advance(10);
  EXPECT_EQ(clock.NowNanos(), 15);
  clock.Set(3);
  EXPECT_EQ(clock.NowNanos(), 3);
}

TEST(ClockTest, DefaultClockIsMonotonic) {
  Clock* clock = Clock::Default();
  const int64_t a = clock->NowNanos();
  const int64_t b = clock->NowNanos();
  EXPECT_GE(b, a);
}

// --- Admission control ---------------------------------------------------

TEST(AdmissionTest, InFlightCapShedsAndReleases) {
  FakeClock clock;
  AdmissionOptions options;
  options.max_in_flight = 2;
  AdmissionController admission(options, &clock);
  EXPECT_TRUE(admission.TryAdmit().admitted);
  EXPECT_TRUE(admission.TryAdmit().admitted);
  const AdmissionDecision shed = admission.TryAdmit();
  EXPECT_FALSE(shed.admitted);
  EXPECT_STREQ(shed.limit, "in-flight");
  EXPECT_EQ(shed.retry_after_nanos, kInFlightRetryHintNanos);
  admission.Release();
  EXPECT_TRUE(admission.TryAdmit().admitted);
  EXPECT_EQ(admission.in_flight(), 2);
}

TEST(AdmissionTest, TokenBucketRefillsOnFakeClock) {
  FakeClock clock;
  AdmissionOptions options;
  options.max_in_flight = 100;
  options.tokens_per_second = 2.0;
  options.burst = 1.0;
  AdmissionController admission(options, &clock);
  EXPECT_TRUE(admission.TryAdmit().admitted);  // the one burst token
  admission.Release();
  const AdmissionDecision shed = admission.TryAdmit();
  ASSERT_FALSE(shed.admitted);
  EXPECT_STREQ(shed.limit, "rate");
  // 2 tokens/s from an empty bucket: next token in exactly half a second.
  EXPECT_EQ(shed.retry_after_nanos, kNanosPerSecond / 2);
  clock.Advance(shed.retry_after_nanos);
  EXPECT_TRUE(admission.TryAdmit().admitted);
}

// --- Popularity fallback -------------------------------------------------

TEST(FallbackTest, RanksByCountWithItemIdTieBreak) {
  const auto fallback =
      PopularityFallback::FromCounts({0, 5, 2, 5});  // items 1..3
  ASSERT_TRUE(fallback.Available());
  EXPECT_EQ(fallback.num_items(), 3);
  const auto top = fallback.Recommend({2}, Top3Unfiltered());
  EXPECT_EQ(Items(top), (std::vector<int64_t>{1, 3, 2}));
}

TEST(FallbackTest, HonoursExclusionsAndIgnoresOutOfRangeHistory) {
  const auto fallback = PopularityFallback::FromCounts({0, 5, 2, 5});
  RecommendOptions options;
  options.top_k = 3;
  // Out-of-range ids in the history must not crash the last-resort tier.
  const auto top = fallback.Recommend({1, 999, -7, 0}, options);
  EXPECT_EQ(Items(top), (std::vector<int64_t>{3, 2}));
}

TEST(FallbackTest, DefaultConstructedIsUnavailable) {
  const PopularityFallback fallback;
  EXPECT_FALSE(fallback.Available());
  EXPECT_EQ(fallback.num_items(), 0);
}

TEST(FallbackTest, FromSplitCountsTrainingRegionOnly) {
  const data::InteractionDataset dataset(
      "toy",
      {{1, 1, 2, 9, 10}, {2, 2, 9, 10}},  // last 2 per user = valid/test
      10);
  const data::SplitDataset split(dataset);
  const auto fallback = PopularityFallback::FromSplit(split);
  RecommendOptions options;
  options.top_k = 4;
  options.exclude_seen = false;
  // Train regions: {1,1,2} and {2,2}: counts 1->2, 2->3; items 9/10 are
  // held-out targets and must score as never-seen.
  const auto top = fallback.Recommend({1}, options);
  EXPECT_EQ(Items(top), (std::vector<int64_t>{2, 1, 3, 4}));
}

// --- Canary export -------------------------------------------------------

TEST(CanaryTest, ExportPicksLongestTrainRegionsTiesByUserId) {
  const data::InteractionDataset dataset("toy",
                                         {{1, 2, 1, 2, 3},     // region len 3
                                          {1, 2, 3},           // region len 1
                                          {2, 3, 2, 3, 4},     // region len 3
                                          {1, 2, 3, 4, 5, 6}},  // len 4
                                         6);
  const data::SplitDataset split(dataset);
  const auto two = train::ExportCanarySet(split, 2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], (std::vector<int64_t>{1, 2, 3, 4}));  // user 3
  EXPECT_EQ(two[1], (std::vector<int64_t>{1, 2, 1}));     // user 0 beats 2
  const auto all = train::ExportCanarySet(split, 10);
  ASSERT_EQ(all.size(), 4u);  // k capped at the user count
  EXPECT_EQ(all[2], (std::vector<int64_t>{2, 3, 2}));
  EXPECT_EQ(all[3], (std::vector<int64_t>{1}));
}

// --- Server lifecycle ----------------------------------------------------

TEST(ModelServerTest, UnavailableBeforeStartAndWhileDraining) {
  FakeClock clock;
  ModelServer server(ModelServerOptions{}, nullptr, &clock);
  EXPECT_EQ(server.health(), HealthState::kStarting);
  ServeRequest request;
  request.history = {1, 2};
  const auto before = server.Serve(request);
  ASSERT_FALSE(before.ok());
  EXPECT_EQ(before.status().code(), Status::Code::kUnavailable);

  ASSERT_TRUE(
      server.Start(std::make_unique<ScriptedModel>(TinyConfig(), 0.0f)).ok());
  EXPECT_EQ(server.health(), HealthState::kServing);
  server.BeginDrain();
  EXPECT_EQ(server.health(), HealthState::kDraining);
  const auto draining = server.Serve(request);
  ASSERT_FALSE(draining.ok());
  EXPECT_EQ(draining.status().code(), Status::Code::kUnavailable);
}

TEST(ModelServerTest, StartRejectsModelFailingCanaries) {
  FakeClock clock;
  ModelServer server(ModelServerOptions{}, nullptr, &clock);
  server.set_canary_requests({{1, 2, 3}});
  const Status status = server.Start(std::make_unique<ScriptedModel>(
      TinyConfig(), std::numeric_limits<float>::infinity()));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kAborted);
  EXPECT_NE(status.message().find("non-finite"), std::string::npos)
      << status.message();
  EXPECT_EQ(server.health(), HealthState::kStarting);
  EXPECT_EQ(server.stats().rollbacks, 1);
  EXPECT_EQ(server.generation(), 0);
}

TEST(ModelServerTest, ServesFullTierWhenHealthy) {
  FakeClock clock;
  ModelServer server(ModelServerOptions{}, nullptr, &clock);
  server.set_canary_requests({{1, 2, 3}});
  ASSERT_TRUE(
      server.Start(std::make_unique<ScriptedModel>(TinyConfig(), 0.0f)).ok());
  ServeRequest request;
  request.history = {1, 2, 3};
  request.options = Top3Unfiltered();
  const auto response = server.Serve(request).value();
  EXPECT_EQ(response.tier, ServeTier::kFullModel);
  EXPECT_TRUE(response.complete);
  EXPECT_EQ(response.generation, 1);
  // shift = 0: score of item j is j, so the top items are 10, 9, 8.
  EXPECT_EQ(Items(response.items), (std::vector<int64_t>{10, 9, 8}));
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 1);
  EXPECT_EQ(stats.served, 1);
  EXPECT_EQ(stats.full_model_served, 1);
  EXPECT_EQ(stats.deadline_exceeded, 0);
  EXPECT_EQ(server.health(), HealthState::kServing);
}

TEST(ModelServerTest, InvalidRequestFailsInsteadOfFallingBack) {
  FakeClock clock;
  ModelServer server(ModelServerOptions{}, nullptr, &clock);
  server.set_fallback(PopularityFallback::FromCounts({0, 3, 2, 1}));
  ASSERT_TRUE(
      server.Start(std::make_unique<ScriptedModel>(TinyConfig(), 0.0f)).ok());
  ServeRequest request;
  request.history = {999};  // out of catalogue
  const auto response = server.Serve(request);
  ASSERT_FALSE(response.ok());
  // Bad input is a client error, never silently served by the fallback.
  EXPECT_EQ(response.status().code(), Status::Code::kInvalidArgument);
}

// --- Degradation ladder --------------------------------------------------

TEST(ModelServerLadderTest, DeadlineDropsToFallbackThenRecovers) {
  FakeClock clock;
  obs::Tracer tracer(&clock);
  ModelServerOptions options;
  options.default_deadline_nanos = 50 * kNanosPerMilli;
  options.tracer = &tracer;
  ModelServer server(options, nullptr, &clock);
  server.set_fallback(PopularityFallback::FromCounts(
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  // First forward pass takes 100 ms (double the deadline); later ones are
  // instantaneous.
  ASSERT_TRUE(server
                  .Start(std::make_unique<ScriptedModel>(
                      TinyConfig(), 0.0f, &clock,
                      std::vector<int64_t>{100 * kNanosPerMilli, 0}))
                  .ok());

  ServeRequest request;
  request.history = {1, 2, 3};
  request.options = Top3Unfiltered();

  // Request 1: the slow pass blows the deadline mid-flight; the popularity
  // fallback rescues the user and the server marks itself degraded.
  const auto first = server.Serve(request).value();
  EXPECT_EQ(first.tier, ServeTier::kPopularityFallback);
  EXPECT_EQ(Items(first.items), (std::vector<int64_t>{10, 9, 8}));
  EXPECT_EQ(server.health(), HealthState::kDegraded);
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.fallback_served, 1);
  EXPECT_EQ(stats.deadline_exceeded, 1);
  // The blown pass trained the full-tier cost estimate.
  EXPECT_EQ(stats.full_cost_estimate_nanos, 100 * kNanosPerMilli);

  // Request 2: the 50 ms budget is below the 100 ms estimate, so the full
  // tier is skipped outright — no forward pass starts — and the popularity
  // fallback serves within budget.
  const int64_t passes =
      HistogramCount(server.metrics(), "serving.tier.full_pass_nanos");
  const auto second = server.Serve(request).value();
  EXPECT_EQ(second.tier, ServeTier::kPopularityFallback);
  EXPECT_EQ(Items(second.items), (std::vector<int64_t>{10, 9, 8}));
  EXPECT_EQ(HistogramCount(server.metrics(), "serving.tier.full_pass_nanos"),
            passes);
  EXPECT_TRUE(LastTraceAnnotates(tracer, "forward.full", "skipped", "budget"));
  EXPECT_EQ(server.health(), HealthState::kDegraded);

  // Requests 3-10: a generous budget clears the estimate gate, the model is
  // fast again, and eight consecutive full-tier responses restore kServing.
  request.deadline_nanos = 400 * kNanosPerMilli;
  for (int i = 1; i < 8; ++i) {
    EXPECT_EQ(server.Serve(request).value().tier, ServeTier::kFullModel);
    EXPECT_EQ(server.health(), HealthState::kDegraded) << i << " of 8 needed";
  }
  EXPECT_EQ(server.Serve(request).value().tier, ServeTier::kFullModel);
  EXPECT_EQ(server.health(), HealthState::kServing);
  // The estimate decays (3/4 old + 1/4 new) as fast passes accumulate.
  EXPECT_LT(server.stats().full_cost_estimate_nanos, 100 * kNanosPerMilli);
}

TEST(ModelServerLadderTest, SkippedFullTierRemeasuresItsCost) {
  // Every request below runs at the 50 ms default budget. A skip folds the
  // declined budget into the cost estimate (3/4 old + 1/4 budget, integer
  // arithmetic), which walks a 100 ms estimate down to the budget in 60
  // skips; the next request then re-measures the model.
  struct Outcome {
    int64_t full = 0;
    int64_t fallback = 0;
    int64_t model_calls = 0;
    ServerStats stats;
    HealthState health = HealthState::kStarting;
  };
  const auto serve_200 = [](std::vector<int64_t> latencies) {
    FakeClock clock;
    ModelServer server(ModelServerOptions{}, nullptr, &clock);
    server.set_fallback(PopularityFallback::FromCounts(
        {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
    auto model = std::make_unique<ScriptedModel>(TinyConfig(), 0.0f, &clock,
                                                 std::move(latencies));
    const ScriptedModel* scripted = model.get();
    SLIME_CHECK(server.Start(std::move(model)).ok());
    ServeRequest request;
    request.history = {1, 2, 3};
    request.options = Top3Unfiltered();
    Outcome out;
    for (int i = 0; i < 200; ++i) {
      if (server.Serve(request).value().tier == ServeTier::kFullModel) {
        ++out.full;
      } else {
        ++out.fallback;
      }
    }
    out.model_calls = scripted->calls();
    out.stats = server.stats();
    out.health = server.health();
    return out;
  };

  // One stall, then an instant model: the full tier comes back after the
  // skips and the hysteresis window (8 full responses) restores kServing.
  const Outcome stall = serve_200({100 * kNanosPerMilli, 0});
  EXPECT_EQ(stall.fallback, 61);  // the stalled pass + 60 budget skips
  EXPECT_EQ(stall.full, 139);
  EXPECT_EQ(stall.model_calls, 140);  // skips start no forward pass
  EXPECT_EQ(stall.health, HealthState::kServing);
  EXPECT_EQ(stall.stats.full_cost_estimate_nanos, 0);

  // A model that always takes 100 ms: each re-measurement overruns and
  // re-arms the estimate, so only 4 of 200 requests start a doomed pass.
  const Outcome slow = serve_200({100 * kNanosPerMilli});
  EXPECT_EQ(slow.full, 0);
  EXPECT_EQ(slow.fallback, 200);
  EXPECT_EQ(slow.model_calls, 4);
  EXPECT_EQ(slow.stats.deadline_exceeded, 200);
  EXPECT_EQ(slow.health, HealthState::kDegraded);
}

TEST(ModelServerLadderTest, DeadlineWithoutFallbackIsDeadlineExceeded) {
  FakeClock clock;
  ModelServerOptions options;
  options.default_deadline_nanos = 50 * kNanosPerMilli;
  ModelServer server(options, nullptr, &clock);
  ASSERT_TRUE(server
                  .Start(std::make_unique<ScriptedModel>(
                      TinyConfig(), 0.0f, &clock,
                      std::vector<int64_t>{100 * kNanosPerMilli}))
                  .ok());
  ServeRequest request;
  request.history = {1, 2, 3};
  const auto response = server.Serve(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), Status::Code::kDeadlineExceeded);
  EXPECT_EQ(server.stats().deadline_exceeded, 1);
  EXPECT_EQ(server.stats().served, 0);
}

TEST(ModelServerLadderTest, ShedBurstDegradesThenRecovers) {
  FakeClock clock;
  ModelServerOptions options;
  options.admission.tokens_per_second = 1.0;
  options.admission.burst = 1.0;
  ModelServer server(options, nullptr, &clock);
  ASSERT_TRUE(
      server.Start(std::make_unique<ScriptedModel>(TinyConfig(), 0.0f)).ok());

  ServeRequest request;
  request.history = {1, 2};
  request.options = Top3Unfiltered();
  ASSERT_TRUE(server.Serve(request).ok());  // consumes the burst token
  const auto shed = server.Serve(request);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), Status::Code::kResourceExhausted);
  EXPECT_NE(shed.status().message().find("retry after"), std::string::npos)
      << shed.status().message();
  EXPECT_EQ(server.health(), HealthState::kDegraded);
  EXPECT_EQ(server.stats().shed, 1);

  // One token a second: eight admitted full-tier responses in a row
  // restore kServing.
  for (int i = 1; i <= 8; ++i) {
    clock.Advance(kNanosPerSecond);  // bucket refills
    EXPECT_EQ(server.Serve(request).value().tier, ServeTier::kFullModel);
    EXPECT_EQ(server.health(),
              i < 8 ? HealthState::kDegraded : HealthState::kServing)
        << i;
  }
}

// --- Validated hot reload ------------------------------------------------

ModelServer::ModelFactory TinyFactory() {
  return [] { return std::make_unique<ScriptedModel>(TinyConfig(), 0.0f); };
}

TEST(ModelServerReloadTest, ValidReloadSwapsModelAndGeneration) {
  FakeClock clock;
  const std::string path = TempPath("ms_reload_ok.ckpt");
  {
    ScriptedModel next(TinyConfig(), 3.0f);
    ASSERT_TRUE(models::SaveCheckpoint(next, path).ok());
  }
  ModelServer server(ModelServerOptions{}, TinyFactory(), &clock);
  server.set_canary_requests({{1, 2, 3}});
  ASSERT_TRUE(
      server.Start(std::make_unique<ScriptedModel>(TinyConfig(), 0.0f)).ok());
  EXPECT_EQ(server.generation(), 1);

  ServeRequest request;
  request.history = {1, 2};
  request.options = Top3Unfiltered();
  EXPECT_EQ(Items(server.Serve(request).value().items),
            (std::vector<int64_t>{10, 9, 8}));

  ASSERT_TRUE(server.Reload(path).ok());
  EXPECT_EQ(server.generation(), 2);
  EXPECT_EQ(server.stats().reloads, 1);
  // shift = 3: item 7 now scores 10, item 6 scores 9, item 5 scores 8.
  const auto after = server.Serve(request).value();
  EXPECT_EQ(after.generation, 2);
  EXPECT_EQ(Items(after.items), (std::vector<int64_t>{7, 6, 5}));
}

TEST(ModelServerReloadTest, CorruptCheckpointRollsBackToLiveModel) {
  FakeClock clock;
  const std::string path = TempPath("ms_reload_corrupt.ckpt");
  {
    ScriptedModel next(TinyConfig(), 3.0f);
    ASSERT_TRUE(models::SaveCheckpoint(next, path).ok());
  }
  // Flip one payload byte: the CRC-32 check must refuse the file.
  io::Env* env = io::Env::Default();
  std::string bytes = env->ReadFile(path).value();
  bytes[bytes.size() / 2] ^= 0x40;
  ASSERT_TRUE(env->WriteFile(path, bytes).ok());

  ModelServer server(ModelServerOptions{}, TinyFactory(), &clock);
  server.set_canary_requests({{1, 2, 3}});
  ASSERT_TRUE(
      server.Start(std::make_unique<ScriptedModel>(TinyConfig(), 0.0f)).ok());
  const Status status = server.Reload(path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kCorruption) << status.ToString();
  EXPECT_EQ(server.stats().rollbacks, 1);
  EXPECT_EQ(server.stats().reloads, 0);
  EXPECT_EQ(server.generation(), 1);
  // The previous model keeps serving, untouched.
  ServeRequest request;
  request.history = {1, 2};
  request.options = Top3Unfiltered();
  EXPECT_EQ(Items(server.Serve(request).value().items),
            (std::vector<int64_t>{10, 9, 8}));
  EXPECT_EQ(server.health(), HealthState::kServing);
}

TEST(ModelServerReloadTest, CanaryFailureRollsBackToLiveModel) {
  FakeClock clock;
  // The checkpoint loads cleanly (CRC is fine) but holds a poisoned
  // parameter; only canary validation can catch this class of bad model.
  const std::string path = TempPath("ms_reload_poison.ckpt");
  {
    ScriptedModel poisoned(TinyConfig(),
                           std::numeric_limits<float>::infinity());
    ASSERT_TRUE(models::SaveCheckpoint(poisoned, path).ok());
  }
  ModelServer server(ModelServerOptions{}, TinyFactory(), &clock);
  server.set_canary_requests({{1, 2, 3}});
  ASSERT_TRUE(
      server.Start(std::make_unique<ScriptedModel>(TinyConfig(), 0.0f)).ok());
  const Status status = server.Reload(path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kAborted);
  EXPECT_NE(status.message().find("rolled back"), std::string::npos)
      << status.message();
  EXPECT_EQ(server.stats().rollbacks, 1);
  EXPECT_EQ(server.generation(), 1);
  ServeRequest request;
  request.history = {1, 2};
  request.options = Top3Unfiltered();
  EXPECT_EQ(Items(server.Serve(request).value().items),
            (std::vector<int64_t>{10, 9, 8}));
}

/// A SLIME4Rec that counts its ScoreAll calls, so a test sees whether a
/// reload ran its canaries.
class CountingSlime : public core::Slime4Rec {
 public:
  CountingSlime(const core::Slime4RecConfig& config, int* calls)
      : Slime4Rec(config), calls_(calls) {}

  Tensor ScoreAll(const data::Batch& batch) override {
    ++*calls_;
    return Slime4Rec::ScoreAll(batch);
  }

 private:
  int* calls_;
};

core::Slime4RecConfig SlimeConfig(double alpha, uint64_t seed) {
  core::Slime4RecConfig c;
  static_cast<models::ModelConfig&>(c) = TinyConfig();
  c.mixer.alpha = alpha;
  c.seed = seed;
  return c;
}

TEST(ModelServerReloadTest, AnotherAlphaRollsBackBeforeAnyCanary) {
  // alpha shapes no parameter, so only the header tells the two apart.
  FakeClock clock;
  const std::string other_alpha = TempPath("ms_reload_alpha.ckpt");
  const std::string other_seed = TempPath("ms_reload_seed.ckpt");
  ASSERT_TRUE(models::SaveCheckpoint(core::Slime4Rec(SlimeConfig(0.9, 7)),
                                     other_alpha)
                  .ok());
  ASSERT_TRUE(models::SaveCheckpoint(core::Slime4Rec(SlimeConfig(0.4, 3)),
                                     other_seed)
                  .ok());
  int calls = 0;
  ModelServer server(
      ModelServerOptions{},
      [&calls] {
        return std::make_unique<CountingSlime>(SlimeConfig(0.4, 7), &calls);
      },
      &clock);
  server.set_canary_requests({{1, 2, 3}});
  ASSERT_TRUE(server
                  .Start(std::make_unique<CountingSlime>(SlimeConfig(0.4, 7),
                                                         &calls))
                  .ok());
  const int after_start = calls;
  ASSERT_GT(after_start, 0);

  const Status status = server.Reload(other_alpha);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument)
      << status.ToString();
  EXPECT_NE(status.message().find("alpha 0.9 differs from the model's 0.4"),
            std::string::npos)
      << status.message();
  EXPECT_EQ(server.stats().rollbacks, 1);
  EXPECT_EQ(server.stats().reloads, 0);
  EXPECT_EQ(server.generation(), 1);
  EXPECT_EQ(calls, after_start);  // no canary ran

  // A retrain under another seed is the normal hot reload.
  ASSERT_TRUE(server.Reload(other_seed).ok());
  EXPECT_EQ(server.generation(), 2);
  EXPECT_EQ(server.stats().reloads, 1);
  EXPECT_GT(calls, after_start);
}

TEST(ModelServerReloadTest, ReloadBeforeStartIsRejected) {
  FakeClock clock;
  ModelServer server(ModelServerOptions{}, TinyFactory(), &clock);
  const Status status = server.Reload(TempPath("ms_never_written.ckpt"));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
}

// --- Eval-mode contract --------------------------------------------------

TEST(EvalModeDeathTest, ServingAModelInTrainingModeFails) {
  // A freshly built model, like one inside Trainer::Fit, is in training
  // mode: serving it would rank with dropout on.
  ScriptedModel model(TinyConfig(), 0.0f);
  ASSERT_TRUE(model.training());
  RecommendationService service(&model);
  EXPECT_DEATH((void)service.Recommend({1, 2}), "eval mode");

  // The server puts its model into eval mode once, at Start. A trainer
  // switching the live model back to training mode makes the next
  // request fail loudly.
  ModelServer server(ModelServerOptions{});
  auto owned = std::make_unique<ScriptedModel>(TinyConfig(), 0.0f);
  ScriptedModel* live = owned.get();
  ASSERT_TRUE(server.Start(std::move(owned)).ok());
  EXPECT_FALSE(live->training());
  ServeRequest request;
  request.history = {1, 2};
  request.options = Top3Unfiltered();
  ASSERT_TRUE(server.Serve(request).ok());
  live->SetTraining(true);
  EXPECT_DEATH((void)server.Serve(request), "eval mode");
}

// --- Determinism ---------------------------------------------------------

/// Runs a fixed chaos scenario (slow pass, budget skip, recovery, hot
/// reload) and returns a full signature of every observable outcome.
std::string RunScenario(int threads, const std::string& reload_path) {
  compute::ComputeContext ctx(threads);
  FakeClock clock;
  // External registry + tracer: all serving metrics (including the
  // request-latency histograms) and all span times are FakeClock-driven,
  // so their JSONL exports belong in the determinism signature.
  obs::MetricsRegistry registry;
  obs::Tracer tracer(&clock);
  ModelServerOptions options;
  options.default_deadline_nanos = 50 * kNanosPerMilli;
  options.metrics = &registry;
  options.tracer = &tracer;
  ModelServer server(options, TinyFactory(), &clock);
  // No canaries here: a canary forward pass at Start/Reload would consume
  // scripted latency entries and shift the scenario.
  server.set_fallback(PopularityFallback::FromCounts(
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  SLIME_CHECK(server
                  .Start(std::make_unique<ScriptedModel>(
                      TinyConfig(), 0.0f, &clock,
                      std::vector<int64_t>{100 * kNanosPerMilli, 0}))
                  .ok());

  std::ostringstream sig;
  BatchServeRequest batch;
  batch.histories = {{1, 2, 3}, {4, 5}, {6, 7, 8, 9}};
  batch.options.top_k = 4;
  batch.options.exclude_seen = false;
  for (int round = 0; round < 6; ++round) {
    if (round == 4) {
      SLIME_CHECK(server.Reload(reload_path).ok());
    }
    batch.deadline_nanos =
        round >= 2 ? 400 * kNanosPerMilli : 50 * kNanosPerMilli;
    const auto result = server.ServeBatch(batch);
    SLIME_CHECK(result.ok());
    const BatchServeResponse& response = result.value();
    sig << "round " << round << " gen " << response.generation
        << " deadline_hit " << response.deadline_hit << "\n";
    for (const ServeResponse& r : response.responses) {
      sig << "  " << ToString(r.tier) << " [";
      for (const Recommendation& rec : r.items) {
        sig << rec.item << ":" << rec.score << " ";
      }
      sig << "]\n";
    }
  }
  const ServerStats stats = server.stats();
  sig << "served " << stats.served << " fallback " << stats.fallback_served
      << " full " << stats.full_model_served << " deadline "
      << stats.deadline_exceeded << " full_est "
      << stats.full_cost_estimate_nanos << " health "
      << ToString(server.health()) << "\n";
  sig << obs::SnapshotToJsonl(registry.Snapshot());
  sig << obs::TracesToJsonl(tracer.Traces());
  return sig.str();
}

TEST(ModelServerDeterminismTest, ScenarioIsBitIdenticalAcrossThreadCounts) {
  const std::string path = TempPath("ms_determinism.ckpt");
  {
    ScriptedModel next(TinyConfig(), 3.0f);
    ASSERT_TRUE(models::SaveCheckpoint(next, path).ok());
  }
  const std::string base = RunScenario(1, path);
  // The scenario exercises both tiers and a budget skip; make sure it is
  // not trivially empty.
  EXPECT_NE(base.find("popularity-fallback"), std::string::npos) << base;
  EXPECT_NE(base.find("full-model"), std::string::npos) << base;
  EXPECT_NE(base.find("\"skipped\":\"budget\""), std::string::npos) << base;
  // The signature now folds in the registry snapshot and trace JSONL, so
  // this also proves metrics and span times (all FakeClock-driven) are
  // bit-identical across thread counts and across repeated runs.
  EXPECT_NE(base.find("\"type\":\"histogram\""), std::string::npos) << base;
  EXPECT_NE(base.find("\"type\":\"trace\""), std::string::npos) << base;
  EXPECT_EQ(base, RunScenario(1, path));
  EXPECT_EQ(base, RunScenario(2, path));
  EXPECT_EQ(base, RunScenario(8, path));
}

// --- Observability wiring -------------------------------------------------

TEST(ModelServerObservabilityTest, StatsAreThinViewsOverRegistry) {
  FakeClock clock;
  obs::MetricsRegistry registry;
  ModelServerOptions options;
  options.metrics = &registry;
  ModelServer server(options, nullptr, &clock);
  ASSERT_TRUE(
      server.Start(std::make_unique<ScriptedModel>(TinyConfig(), 0.0f))
          .ok());
  ServeRequest request;
  request.history = {1, 2, 3};
  request.options = Top3Unfiltered();
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(server.Serve(request).ok());

  // The ServerStats accessor and the registry must agree: same storage.
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 3);
  EXPECT_EQ(stats.served, 3);
  EXPECT_EQ(stats.full_model_served, 3);
  int64_t reg_requests = -1, reg_full = -1, reg_health = -1;
  const obs::MetricsSnapshot snap = registry.Snapshot();
  for (const obs::MetricValue& c : snap.counters) {
    if (c.name == "serving.requests") reg_requests = c.value;
    if (c.name == "serving.tier.full_served") reg_full = c.value;
  }
  for (const obs::MetricValue& g : snap.gauges) {
    if (g.name == "serving.health") reg_health = g.value;
  }
  EXPECT_EQ(reg_requests, 3);
  EXPECT_EQ(reg_full, 3);
  EXPECT_EQ(reg_health, static_cast<int64_t>(HealthState::kServing));
  // The request-latency histogram saw every request.
  bool found_hist = false;
  for (const obs::HistogramValue& h : snap.histograms) {
    if (h.name == "serving.request_nanos") {
      found_hist = true;
      EXPECT_EQ(h.count, 3);
    }
  }
  EXPECT_TRUE(found_hist);
}

TEST(ModelServerObservabilityTest, NoopRegistryServesNormallyReadsZeros) {
  // Injecting the NoopRegistry turns instrumentation off: serving must be
  // fully functional while every stats field reads zero (the documented
  // trade of the disabled path).
  FakeClock clock;
  obs::NoopRegistry noop;
  ModelServerOptions options;
  options.metrics = &noop;
  ModelServer server(options, nullptr, &clock);
  ASSERT_TRUE(
      server.Start(std::make_unique<ScriptedModel>(TinyConfig(), 0.0f))
          .ok());
  ServeRequest request;
  request.history = {1, 2, 3};
  request.options = Top3Unfiltered();
  const auto response = server.Serve(request).value();
  EXPECT_EQ(response.tier, ServeTier::kFullModel);
  EXPECT_EQ(Items(response.items).size(), 3u);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 0);
  EXPECT_EQ(stats.served, 0);
  EXPECT_TRUE(noop.Snapshot().counters.empty());
}

TEST(ModelServerObservabilityTest, LadderTraceAnnotatesDowngrades) {
  // The deadline-blown ladder request must leave a complete trace: the
  // full-model span marked cancelled and the fallback span recording the
  // downgrade, all timed by the FakeClock.
  FakeClock clock;
  obs::Tracer tracer(&clock);
  ModelServerOptions options;
  options.default_deadline_nanos = 50 * kNanosPerMilli;
  options.tracer = &tracer;
  ModelServer server(options, nullptr, &clock);
  server.set_fallback(PopularityFallback::FromCounts(
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  ASSERT_TRUE(server
                  .Start(std::make_unique<ScriptedModel>(
                      TinyConfig(), 0.0f, &clock,
                      std::vector<int64_t>{100 * kNanosPerMilli, 0}))
                  .ok());
  ServeRequest request;
  request.history = {1, 2, 3};
  request.options = Top3Unfiltered();
  const auto response = server.Serve(request).value();
  ASSERT_EQ(response.tier, ServeTier::kPopularityFallback);

  const std::vector<obs::Trace> traces = tracer.Traces();
  ASSERT_EQ(traces.size(), 1u);
  const obs::Trace& t = traces[0];
  ASSERT_FALSE(t.spans.empty());
  EXPECT_EQ(t.spans[0].name, "request");
  EXPECT_EQ(t.spans[0].parent, -1);
  // The 100 ms scripted pass is inside the trace.
  EXPECT_EQ(t.spans[0].duration_nanos(), 100 * kNanosPerMilli);
  bool saw_cancelled = false, saw_fallback_downgrade = false;
  bool saw_admit = false, saw_snapshot = false;
  for (const obs::SpanRecord& s : t.spans) {
    if (s.name == "admit") saw_admit = true;
    if (s.name == "snapshot") saw_snapshot = true;
    for (const auto& [key, value] : s.annotations) {
      if (s.name == "forward.full" && key == "cancelled") {
        saw_cancelled = value == "deadline";
      }
      if (s.name == "fallback" && key == "downgraded") {
        saw_fallback_downgrade = true;
      }
    }
  }
  EXPECT_TRUE(saw_admit);
  EXPECT_TRUE(saw_snapshot);
  EXPECT_TRUE(saw_cancelled);
  EXPECT_TRUE(saw_fallback_downgrade);
}

// --- Reload racing live traffic (the TSan chaos test) --------------------

TEST(ModelServerChaosTest, ReloadRacingRequestsNeverServesPartialModel) {
  FakeClock clock;
  const std::string ckpt_a = TempPath("ms_race_a.ckpt");
  const std::string ckpt_b = TempPath("ms_race_b.ckpt");
  {
    ScriptedModel a(TinyConfig(), 0.0f);
    ScriptedModel b(TinyConfig(), 3.0f);
    ASSERT_TRUE(models::SaveCheckpoint(a, ckpt_a).ok());
    ASSERT_TRUE(models::SaveCheckpoint(b, ckpt_b).ok());
  }
  ModelServerOptions options;
  options.admission.max_in_flight = 8;
  ModelServer server(options, TinyFactory(), &clock);
  server.set_canary_requests({{1, 2, 3}});
  ASSERT_TRUE(server.StartFromCheckpoint(ckpt_a).ok());

  // Start() installed generation 1 from checkpoint A, and the reloader
  // below alternates B, A, B, ... — so odd generations are always model A
  // (top items 10,9,8) and even generations model B (7,6,5). Any other
  // ranking would mean a request observed a half-loaded model.
  const std::vector<int64_t> expected_a = {10, 9, 8};
  const std::vector<int64_t> expected_b = {7, 6, 5};
  std::atomic<int64_t> mismatches{0};
  std::atomic<int64_t> errors{0};
  auto reader = [&] {
    ServeRequest request;
    request.history = {1, 2};
    request.options = Top3Unfiltered();
    for (int i = 0; i < 200; ++i) {
      const auto response = server.Serve(request);
      if (!response.ok()) {
        errors.fetch_add(1);
        continue;
      }
      const auto& expected =
          response.value().generation % 2 == 1 ? expected_a : expected_b;
      if (Items(response.value().items) != expected) mismatches.fetch_add(1);
    }
  };
  std::thread r1(reader);
  std::thread r2(reader);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(server.Reload(i % 2 == 0 ? ckpt_b : ckpt_a).ok());
  }
  r1.join();
  r2.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(server.stats().rollbacks, 0);
  EXPECT_EQ(server.stats().reloads, 20);
  EXPECT_EQ(server.generation(), 21);
  EXPECT_EQ(server.health(), HealthState::kServing);
}

// --- Drain, external cancel, typed shed hints ----------------------------

/// Scripted model that fires a hook on its first forward pass — used to
/// flip server state from *inside* an in-flight request.
class HookOnScoreModel : public ScriptedModel {
 public:
  HookOnScoreModel(const models::ModelConfig& config,
                   std::function<void()> hook)
      : ScriptedModel(config, 0.0f), hook_(std::move(hook)) {}

  Tensor ScoreAll(const data::Batch& batch) override {
    if (!fired_) {
      fired_ = true;
      hook_();
    }
    return ScriptedModel::ScoreAll(batch);
  }

 private:
  std::function<void()> hook_;
  bool fired_ = false;
};

TEST(ModelServerTest, DrainRejectsNewWhileInFlightCompletes) {
  FakeClock clock;
  ModelServer server(ModelServerOptions{}, nullptr, &clock);
  // BeginDrain fires from inside this request's own forward pass — the
  // tightest possible "drain begins while a request is in flight".
  ASSERT_TRUE(server
                  .Start(std::make_unique<HookOnScoreModel>(
                      TinyConfig(), [&server] { server.BeginDrain(); }))
                  .ok());

  ServeRequest request;
  request.history = {1, 2};
  request.options = Top3Unfiltered();
  // The in-flight request completes at full fidelity on its snapshot:
  // drain only flips the state flag, it interrupts nothing.
  const auto inflight = server.Serve(request);
  ASSERT_TRUE(inflight.ok()) << inflight.status().ToString();
  EXPECT_EQ(inflight.value().tier, ServeTier::kFullModel);
  EXPECT_EQ(Items(inflight.value().items), (std::vector<int64_t>{10, 9, 8}));
  EXPECT_EQ(server.health(), HealthState::kDraining);

  // Every subsequent request is rejected up front with a typed status,
  // before admission — no slot consumed, no shed counted.
  const auto rejected = server.Serve(request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), Status::Code::kUnavailable);
  EXPECT_NE(rejected.status().message().find("draining"), std::string::npos)
      << rejected.status().message();
  EXPECT_EQ(server.stats().requests, 1);
  EXPECT_EQ(server.stats().shed, 0);
}

TEST(ModelServerTest, ExternalCancelAbortsInsteadOfDegrading) {
  FakeClock clock;
  ModelServer server(ModelServerOptions{}, nullptr, &clock);
  server.set_fallback(PopularityFallback::FromCounts(
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  ASSERT_TRUE(
      server.Start(std::make_unique<ScriptedModel>(TinyConfig(), 0.0f)).ok());

  ServeRequest request;
  request.history = {1, 2};
  request.options = Top3Unfiltered();
  request.cancel = [] { return true; };  // caller already gone
  const auto result = server.Serve(request);
  ASSERT_FALSE(result.ok());
  // A deadline overrun would have degraded down to the fallback; an
  // external cancel must abort outright — nobody wants the answer.
  EXPECT_EQ(result.status().code(), Status::Code::kAborted);
  EXPECT_EQ(server.stats().fallback_served, 0);
  EXPECT_EQ(server.stats().served, 0);
}

TEST(ModelServerTest, ShedStatusCarriesTypedRetryAfterHint) {
  FakeClock clock;
  ModelServerOptions options;
  options.admission.tokens_per_second = 1.0;
  options.admission.burst = 1.0;
  ModelServer server(options, nullptr, &clock);
  ASSERT_TRUE(
      server.Start(std::make_unique<ScriptedModel>(TinyConfig(), 0.0f)).ok());

  ServeRequest request;
  request.history = {1, 2};
  request.options = Top3Unfiltered();
  ASSERT_TRUE(server.Serve(request).ok());  // drains the single token
  const auto shed = server.Serve(request);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), Status::Code::kResourceExhausted);
  // The machine-readable twin of the message's retry-after text: at 1
  // token/s with an empty bucket the next token is ~1s out. This is the
  // hint cluster::NextRetry sleeps on.
  EXPECT_GE(shed.status().retry_after_nanos(),
            kNanosPerSecond - kNanosPerMilli);
  EXPECT_LE(shed.status().retry_after_nanos(),
            kNanosPerSecond + kNanosPerMilli);
}

// --- Health hysteresis under flapping ------------------------------------

TEST(ModelServerHealthTest, FlappingStaysDegradedThroughHysteresisWindow) {
  FakeClock clock;
  ModelServerOptions options;
  options.default_deadline_nanos = 50 * kNanosPerMilli;
  ModelServer server(options, nullptr, &clock);
  server.set_fallback(PopularityFallback::FromCounts(
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  // Pass latencies alternate blown/instant: the server flaps between
  // serving a request at full tier and blowing the deadline.
  ASSERT_TRUE(server
                  .Start(std::make_unique<ScriptedModel>(
                      TinyConfig(), 0.0f, &clock,
                      std::vector<int64_t>{100 * kNanosPerMilli, 0,
                                           100 * kNanosPerMilli, 0}))
                  .ok());

  ServeRequest tight;
  tight.history = {1, 2, 3};
  tight.options = Top3Unfiltered();
  ServeRequest roomy = tight;
  roomy.deadline_nanos = 400 * kNanosPerMilli;

  // Flap 1: blown pass → fallback → kDegraded.
  EXPECT_EQ(server.Serve(tight).value().tier,
            ServeTier::kPopularityFallback);
  EXPECT_EQ(server.health(), HealthState::kDegraded);
  // One good full-tier response must NOT flip health back to kServing —
  // that is exactly the oscillation the hysteresis window forbids.
  EXPECT_EQ(server.Serve(roomy).value().tier, ServeTier::kFullModel);
  EXPECT_EQ(server.health(), HealthState::kDegraded);
  // Flap 2: degraded again (the full tier is estimate-gated out at 50 ms
  // and the fallback answers) → recovery progress resets.
  EXPECT_EQ(server.Serve(tight).value().tier,
            ServeTier::kPopularityFallback);
  EXPECT_EQ(server.health(), HealthState::kDegraded);
  // Recovery: kServing only after the full hysteresis window of eight
  // consecutive full-tier responses, never sooner.
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(server.Serve(roomy).value().tier, ServeTier::kFullModel)
        << "request " << i;
    EXPECT_EQ(server.health(), HealthState::kDegraded) << "request " << i;
  }
  EXPECT_EQ(server.Serve(roomy).value().tier, ServeTier::kFullModel);
  EXPECT_EQ(server.health(), HealthState::kServing);
}

// --- Session cache -------------------------------------------------------

TEST(ModelServerSessionTest, FallbackAnswerIsNotCached) {
  FakeClock clock;
  ModelServerOptions options;
  options.default_deadline_nanos = 50 * kNanosPerMilli;
  ModelServer server(options, nullptr, &clock);
  // Popularity reversed against the scripted scores, so the two tiers
  // rank differently: fallback {1, 2, 3}, model {10, 9, 8}.
  server.set_fallback(PopularityFallback::FromCounts(
      {0, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}));
  auto model = std::make_unique<ScriptedModel>(
      TinyConfig(), 0.0f, &clock,
      std::vector<int64_t>{100 * kNanosPerMilli, 0});
  const ScriptedModel* scripted = model.get();
  ASSERT_TRUE(server.Start(std::move(model)).ok());

  state::StateStoreOptions store_options;
  store_options.dir = TempPath("ms_session_fallback");
  store_options.sync = state::SyncMode::kAlways;
  for (const char* file : {"/state.wal", "/state.snapshot"}) {
    (void)io::Env::Default()->RemoveFile(store_options.dir + file);
  }
  Result<std::unique_ptr<state::StateStore>> store =
      state::StateStore::Open(store_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  server.AttachStateStore(std::move(store.value()));
  ASSERT_TRUE(server.AppendEvent(7, {4, 5, 6}).ok());
  const int64_t version = server.state_store()->UserVersion(7);

  // The slow first pass blows the 50 ms deadline: the fallback answers.
  ServeRequest request;
  request.options = Top3Unfiltered();
  const ServeResponse first = server.ServeSession(7, request).value();
  EXPECT_EQ(first.tier, ServeTier::kPopularityFallback);
  EXPECT_EQ(Items(first.items), (std::vector<int64_t>{1, 2, 3}));

  // With a budget that covers the pass, the model answers again, though
  // the user's state has not changed since the fallback answer.
  request.deadline_nanos = 400 * kNanosPerMilli;
  const ServeResponse second = server.ServeSession(7, request).value();
  EXPECT_EQ(second.tier, ServeTier::kFullModel);
  EXPECT_EQ(Items(second.items), (std::vector<int64_t>{10, 9, 8}));
  EXPECT_EQ(server.state_store()->UserVersion(7), version);
  EXPECT_EQ(server.state_store()->History(7),
            (std::vector<int64_t>{4, 5, 6}));

  // The full-model answer is cached: the next call runs no pass.
  const int64_t calls = scripted->calls();
  const ServeResponse third = server.ServeSession(7, request).value();
  EXPECT_EQ(third.tier, ServeTier::kFullModel);
  EXPECT_EQ(Items(third.items), (std::vector<int64_t>{10, 9, 8}));
  EXPECT_EQ(scripted->calls(), calls);
}

}  // namespace
}  // namespace serving
}  // namespace slime
