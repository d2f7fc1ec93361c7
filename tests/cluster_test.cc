#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/retry.h"
#include "cluster/ring.h"
#include "common/macros.h"
#include "compute/thread_pool.h"
#include "models/model_factory.h"
#include "models/recommender.h"
#include "observability/export.h"
#include "observability/metrics.h"
#include "observability/trace.h"
#include "tensor/tensor.h"

namespace slime {
namespace cluster {
namespace {

using serving::FakeClock;
using serving::kNanosPerMilli;
using serving::kNanosPerSecond;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Same deterministic stand-in as the model-server tests: scores depend
/// only on the checkpointed "shift" parameter, and an optional latency
/// script advances a FakeClock inside ScoreAll to simulate slow inference.
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
        out[b * cols + j] = std::fmod(static_cast<float>(j) + shift,
                                      static_cast<float>(cols));
      }
    }
    return scores;
  }

  std::string name() const override { return "Scripted"; }

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

ClusterServer::ModelFactory TinyFactory() {
  return [] { return std::make_unique<ScriptedModel>(TinyConfig(), 0.0f); };
}

serving::ServeRequest TinyRequest() {
  serving::ServeRequest request;
  request.history = {1, 2};
  request.options.top_k = 3;
  request.options.exclude_seen = false;
  return request;
}

std::vector<int64_t> Items(const std::vector<serving::Recommendation>& recs) {
  std::vector<int64_t> items;
  items.reserve(recs.size());
  for (const auto& r : recs) items.push_back(r.item);
  return items;
}

/// Finds a user key whose replica list is exactly `want` (in order).
uint64_t KeyRoutedTo(const ShardRing& ring, const std::vector<int64_t>& want) {
  for (uint64_t key = 0; key < 100000; ++key) {
    if (ring.Route(key) == want) return key;
  }
  SLIME_CHECK_MSG(false, "no key found for requested route");
  return 0;
}

// --- ShardRing -----------------------------------------------------------

TEST(ShardRingTest, SameOptionsSameRouting) {
  RingOptions options;
  options.num_shards = 5;
  options.replication = 3;
  ShardRing a(options);
  ShardRing b(options);
  for (uint64_t key = 0; key < 2000; ++key) {
    EXPECT_EQ(a.SegmentOf(key), b.SegmentOf(key));
    EXPECT_EQ(a.Route(key), b.Route(key));
  }
  // A different seed reshuffles at least some placements.
  options.seed ^= 0xdeadbeefull;
  ShardRing c(options);
  int64_t moved = 0;
  for (uint64_t key = 0; key < 2000; ++key) {
    if (a.Route(key) != c.Route(key)) ++moved;
  }
  EXPECT_GT(moved, 0);
}

TEST(ShardRingTest, ReplicasAreDistinctAndComplete) {
  RingOptions options;
  options.num_shards = 4;
  options.replication = 2;
  ShardRing ring(options);
  EXPECT_EQ(ring.num_segments(), options.num_shards * kVnodesPerShard);
  for (int64_t seg = 0; seg < ring.num_segments(); ++seg) {
    const std::vector<int64_t>& replicas = ring.Replicas(seg);
    ASSERT_EQ(static_cast<int64_t>(replicas.size()), ring.replication());
    std::set<int64_t> distinct(replicas.begin(), replicas.end());
    EXPECT_EQ(distinct.size(), replicas.size()) << "segment " << seg;
    for (int64_t shard : replicas) {
      EXPECT_GE(shard, 0);
      EXPECT_LT(shard, options.num_shards);
    }
  }
}

TEST(ShardRingTest, KeysSpreadAcrossAllShards) {
  RingOptions options;
  options.num_shards = 4;
  options.replication = 2;
  ShardRing ring(options);
  std::vector<int64_t> primaries(static_cast<size_t>(options.num_shards), 0);
  const int64_t keys = 20000;
  for (uint64_t key = 0; key < static_cast<uint64_t>(keys); ++key) {
    ++primaries[static_cast<size_t>(ring.Route(key)[0])];
  }
  for (int64_t shard = 0; shard < options.num_shards; ++shard) {
    // Loose balance bound: every shard owns a real slice of the keyspace
    // (uniform would be 25%; vnode placement keeps it within a few x).
    EXPECT_GT(primaries[static_cast<size_t>(shard)], keys / 20)
        << "shard " << shard;
  }
}

TEST(ShardRingTest, ReplicationClampedToFleet) {
  RingOptions options;
  options.num_shards = 2;
  options.replication = 5;
  ShardRing ring(options);
  EXPECT_EQ(ring.replication(), 2);
}

TEST(ShardRingTest, SharesSegmentMatchesSegmentLists) {
  RingOptions options;
  options.num_shards = 4;
  options.replication = 2;
  ShardRing ring(options);
  for (int64_t a = 0; a < options.num_shards; ++a) {
    const std::vector<int64_t> segs_a = ring.SegmentsOfShard(a);
    for (int64_t b = 0; b < options.num_shards; ++b) {
      const std::vector<int64_t> segs_b = ring.SegmentsOfShard(b);
      bool intersect = false;
      for (int64_t s : segs_a) {
        if (std::find(segs_b.begin(), segs_b.end(), s) != segs_b.end()) {
          intersect = true;
        }
      }
      EXPECT_EQ(ring.SharesSegment(a, b), intersect) << a << " vs " << b;
    }
  }
}

// --- Retry policy ---------------------------------------------------------

/// The jitter factor BackoffNanos applies on its next draw from `rng`,
/// taken from a copy so `rng` itself is not advanced.
double NextJitterFactor(const Rng& rng) {
  Rng copy = rng;
  return 1.0 + kBackoffJitter * (2.0 * copy.UniformDouble() - 1.0);
}

TEST(RetryPolicyTest, ExponentialBackoffGrowsAndCaps) {
  // Unjittered base per failed attempt: 2 ms doubling, capped at 64 ms.
  const std::vector<int64_t> base_ms = {2, 4, 8, 16, 32, 64, 64, 64};
  Rng rng(42);
  for (size_t attempt = 0; attempt < base_ms.size(); ++attempt) {
    const double factor = NextJitterFactor(rng);
    const int64_t want = static_cast<int64_t>(
        static_cast<double>(base_ms[attempt] * kNanosPerMilli) * factor);
    EXPECT_EQ(BackoffNanos(static_cast<int64_t>(attempt), &rng), want)
        << "attempt " << attempt;
  }
}

TEST(RetryPolicyTest, JitterIsBoundedAndSeedDeterministic) {
  Rng a(42);
  Rng b(42);
  int64_t lo = kMaxBackoffNanos;
  int64_t hi = 0;
  for (int i = 0; i < 64; ++i) {
    const int64_t wait_a = BackoffNanos(0, &a);
    const int64_t wait_b = BackoffNanos(0, &b);
    EXPECT_EQ(wait_a, wait_b);  // same seed, same jitter stream
    EXPECT_GE(wait_a, static_cast<int64_t>(kInitialBackoffNanos * 0.75) - 1);
    EXPECT_LE(wait_a, static_cast<int64_t>(kInitialBackoffNanos * 1.25) + 1);
    lo = std::min(lo, wait_a);
    hi = std::max(hi, wait_a);
  }
  // The band is actually used: 64 draws spread over more than half of it.
  EXPECT_GT(hi - lo, static_cast<int64_t>(kInitialBackoffNanos * 0.25));
}

TEST(RetryPolicyTest, HonorsServerRetryAfterHint) {
  Rng rng(1);
  const Status shed = Status::ResourceExhausted("rate limited")
                          .WithRetryAfter(30 * kNanosPerMilli);
  const RetryDecision d = NextRetry(
      /*attempt=*/0, shed, /*same_shard=*/true,
      /*remaining_budget_nanos=*/kNanosPerSecond, &rng);
  ASSERT_TRUE(d.retry);
  // Backoff alone would be at most 2.5 ms; the server said 30 ms.
  EXPECT_EQ(d.wait_nanos, 30 * kNanosPerMilli);
  EXPECT_STREQ(d.reason, "backoff");
}

TEST(RetryPolicyTest, ImmediateFailoverOnTransportErrorToOtherShard) {
  Rng rng(7);
  const RetryDecision d = NextRetry(
      /*attempt=*/0, Status::Unavailable("refused"), /*same_shard=*/false,
      /*remaining_budget_nanos=*/kNanosPerSecond, &rng);
  ASSERT_TRUE(d.retry);
  EXPECT_EQ(d.wait_nanos, 0);
  EXPECT_STREQ(d.reason, "failover");
  // A failover draws no jitter, so the request's stream stays aligned.
  Rng fresh(7);
  EXPECT_EQ(rng.NextUint64(), fresh.NextUint64());
}

TEST(RetryPolicyTest, RefusesWhenBudgetCannotCoverWaitPlusAttempt) {
  // The wait the seeded stream yields, then the budget boundary around it:
  // wait + kMinAttemptBudgetNanos is admitted, one nanosecond less is not.
  Rng probe(9);
  const int64_t wait = BackoffNanos(0, &probe);
  const Status shed = Status::ResourceExhausted("shed");
  Rng fits(9);
  const RetryDecision admitted = NextRetry(
      /*attempt=*/0, shed, /*same_shard=*/true,
      /*remaining_budget_nanos=*/wait + kMinAttemptBudgetNanos, &fits);
  ASSERT_TRUE(admitted.retry);
  EXPECT_EQ(admitted.wait_nanos, wait);
  Rng short_of(9);
  const RetryDecision refused = NextRetry(
      /*attempt=*/0, shed, /*same_shard=*/true,
      /*remaining_budget_nanos=*/wait + kMinAttemptBudgetNanos - 1,
      &short_of);
  EXPECT_FALSE(refused.retry);
  EXPECT_STREQ(refused.reason, "budget");
}

TEST(RetryPolicyTest, PermanentFailuresAndAttemptCapAreTerminal) {
  Rng rng(3);
  const RetryDecision permanent = NextRetry(
      0, Status::InvalidArgument("bad request"), true, kNanosPerSecond, &rng);
  EXPECT_FALSE(permanent.retry);
  EXPECT_STREQ(permanent.reason, "permanent");
  const RetryDecision last_retry = NextRetry(
      kMaxAttempts - 2, Status::Unavailable("down"), false, kNanosPerSecond,
      &rng);
  EXPECT_TRUE(last_retry.retry);
  const RetryDecision exhausted = NextRetry(
      kMaxAttempts - 1, Status::Unavailable("down"), false, kNanosPerSecond,
      &rng);
  EXPECT_FALSE(exhausted.retry);
  EXPECT_STREQ(exhausted.reason, "attempts");
}

TEST(HedgeDelayTrackerTest, InitialDelayThenWindowPercentile) {
  HedgeDelayTracker tracker;
  EXPECT_EQ(tracker.DelayNanos(), kHedgeInitialDelayNanos);
  // Until kHedgeMinSamples latencies are seen the initial delay stands.
  for (int64_t i = 1; i < kHedgeMinSamples; ++i) {
    tracker.Observe(5 * kNanosPerMilli);
    EXPECT_EQ(tracker.DelayNanos(), kHedgeInitialDelayNanos) << i;
  }
  tracker.Observe(5 * kNanosPerMilli);
  EXPECT_EQ(tracker.DelayNanos(), 5 * kNanosPerMilli);
  // Only the last kHedgeWindow = 64 samples count: after 1..100 ms the
  // window holds 37..100 ms, whose nearest-rank p95 (rank 61) is 97 ms.
  for (int64_t v = 1; v <= 100; ++v) tracker.Observe(v * kNanosPerMilli);
  EXPECT_EQ(tracker.DelayNanos(), 97 * kNanosPerMilli);
  // A window of instant attempts still waits kHedgeMinDelayNanos.
  for (int64_t i = 0; i < kHedgeWindow; ++i) tracker.Observe(0);
  EXPECT_EQ(tracker.DelayNanos(), kHedgeMinDelayNanos);
}

// --- ClusterServer -------------------------------------------------------

ClusterOptions TinyClusterOptions() {
  ClusterOptions options;
  options.num_shards = 4;
  options.replication = 2;
  options.default_deadline_nanos = 50 * kNanosPerMilli;
  return options;
}

/// One model per shard, in Start()'s boot order: shard 0's passes each
/// advance `clock` by `primary_latency`, every other shard is instant.
ClusterServer::ModelFactory SlowPrimaryFactory(FakeClock* clock,
                                               int64_t primary_latency) {
  auto created = std::make_shared<int64_t>(0);
  return [clock, primary_latency, created] {
    std::vector<int64_t> latencies;
    if ((*created)++ == 0) latencies = {primary_latency};
    return std::unique_ptr<models::SequentialRecommender>(
        std::make_unique<ScriptedModel>(TinyConfig(), 0.0f, clock,
                                        latencies));
  };
}

TEST(ClusterServerTest, HealthyClusterServesEveryKey) {
  FakeClock clock;
  ClusterServer cluster(TinyClusterOptions(), TinyFactory(), &clock);
  ASSERT_TRUE(cluster.Start().ok());
  EXPECT_EQ(cluster.health(), ClusterHealth::kServing);

  for (uint64_t key = 0; key < 64; ++key) {
    const auto result = cluster.Serve(key, TinyRequest());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().tier, serving::ServeTier::kFullModel);
    // Scripted shift 0: scores are j mod 11, so top-3 is {10, 9, 8} on
    // every shard — routing must not change the answer.
    EXPECT_EQ(Items(result.value().items), (std::vector<int64_t>{10, 9, 8}));
  }
  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.requests, 64);
  EXPECT_EQ(stats.served, 64);
  EXPECT_EQ(stats.attempts, 64);  // one attempt each, no retries
  EXPECT_EQ(stats.retries, 0);
  EXPECT_EQ(stats.typed_failures, 0);
}

TEST(ClusterServerTest, KilledShardFailsOverWithZeroLoss) {
  FakeClock clock;
  ClusterServer cluster(TinyClusterOptions(), TinyFactory(), &clock);
  ASSERT_TRUE(cluster.Start().ok());
  cluster.KillShard(1);
  EXPECT_EQ(cluster.health(), ClusterHealth::kDegraded);
  EXPECT_EQ(cluster.shard_liveness(1), ShardLiveness::kDown);

  int64_t routed_to_dead_primary = 0;
  for (uint64_t key = 0; key < 128; ++key) {
    if (cluster.ring().Route(key)[0] == 1) ++routed_to_dead_primary;
    const auto result = cluster.Serve(key, TinyRequest());
    ASSERT_TRUE(result.ok()) << "key " << key << ": "
                             << result.status().ToString();
    EXPECT_EQ(Items(result.value().items), (std::vector<int64_t>{10, 9, 8}));
  }
  ASSERT_GT(routed_to_dead_primary, 0) << "test vacuous: no key hit shard 1";
  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.served, 128);  // zero loss
  EXPECT_EQ(stats.typed_failures, 0);
  EXPECT_GT(stats.failovers, 0);
  // After enough consecutive refusals the dead shard is ejected, so later
  // requests stop paying the failed first attempt.
  EXPECT_GE(stats.ejections, 1);
  EXPECT_EQ(cluster.shard_liveness(1), ShardLiveness::kDown);
  EXPECT_LT(stats.attempts, stats.requests + routed_to_dead_primary + 8);
}

TEST(ClusterServerTest, DeadSegmentReturnsTypedUnavailable) {
  FakeClock clock;
  ClusterServer cluster(TinyClusterOptions(), TinyFactory(), &clock);
  ASSERT_TRUE(cluster.Start().ok());

  const uint64_t key = KeyRoutedTo(cluster.ring(), {0, 1});
  cluster.KillShard(0);
  cluster.KillShard(1);
  EXPECT_EQ(cluster.health(), ClusterHealth::kUnavailable);

  const auto result = cluster.Serve(key, TinyRequest());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kUnavailable)
      << result.status().ToString();
  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.typed_failures, 1);
  EXPECT_EQ(stats.unavailable, 1);

  // Keys whose segments kept a live replica still get answers: degraded,
  // not dark, for the rest of the keyspace.
  const uint64_t live_key = KeyRoutedTo(cluster.ring(), {2, 3});
  EXPECT_TRUE(cluster.Serve(live_key, TinyRequest()).ok());
}

TEST(ClusterServerTest, RetryWaitsAtLeastServerRetryAfterHint) {
  // Single shard, token bucket of one: the second request is shed with an
  // exact refill hint. The cluster client must sleep through that hint
  // (not its own shorter backoff) before re-admission succeeds.
  ClusterOptions options;
  options.num_shards = 1;
  options.replication = 1;
  options.shard.admission.tokens_per_second = 1.0;  // refill hint = 1s
  options.shard.admission.burst = 1.0;
  FakeClock clock;
  ClusterServer cluster(options, TinyFactory(), &clock);
  ASSERT_TRUE(cluster.Start().ok());

  serving::ServeRequest request = TinyRequest();
  request.deadline_nanos = 3 * kNanosPerSecond;
  ASSERT_TRUE(cluster.Serve(1, request).ok());  // drains the only token

  const int64_t before = clock.NowNanos();
  const auto result = cluster.Serve(2, request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The shed carried retry_after ~= 1s (one token at 1 tps); the retried
  // request may not be re-issued before the hint elapses.
  EXPECT_GE(clock.NowNanos() - before, kNanosPerSecond);
  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.retries, 1);
  EXPECT_EQ(stats.backoff_waits, 1);
  EXPECT_EQ(stats.served, 2);
}

TEST(ClusterServerTest, EjectionThenProbationThenReinstatement) {
  ClusterOptions options = TinyClusterOptions();
  options.num_shards = 2;
  options.replication = 2;
  FakeClock clock;
  ClusterServer cluster(options, TinyFactory(), &clock);
  ASSERT_TRUE(cluster.Start().ok());

  const uint64_t key = KeyRoutedTo(cluster.ring(), {0, 1});
  cluster.KillShard(0);
  serving::ServeRequest request = TinyRequest();
  // kEjectionFailures failed first-attempts eject the dead primary, and
  // not one fewer.
  for (int64_t i = 1; i <= kEjectionFailures; ++i) {
    ASSERT_TRUE(cluster.Serve(key, request).ok());
    EXPECT_EQ(cluster.stats().ejections, i == kEjectionFailures ? 1 : 0)
        << "after " << i << " failure(s)";
  }
  EXPECT_EQ(cluster.shard_liveness(0), ShardLiveness::kDown);

  // Restore does NOT reinstate: the shard must sit out its window first.
  cluster.RestoreShard(0);
  EXPECT_EQ(cluster.shard_liveness(0), ShardLiveness::kEjected);
  EXPECT_EQ(cluster.health(), ClusterHealth::kDegraded);

  clock.Advance(kEjectionNanos + kNanosPerMilli);
  EXPECT_EQ(cluster.shard_liveness(0), ShardLiveness::kProbation);
  EXPECT_EQ(cluster.health(), ClusterHealth::kDegraded) << "probation is "
                                                           "not yet healthy";

  // kReinstateSuccesses successes through the probing shard reinstate it.
  for (int64_t i = 1; i < kReinstateSuccesses; ++i) {
    ASSERT_TRUE(cluster.Serve(key, request).ok());
    EXPECT_EQ(cluster.shard_liveness(0), ShardLiveness::kProbation) << i;
  }
  ASSERT_TRUE(cluster.Serve(key, request).ok());
  EXPECT_EQ(cluster.shard_liveness(0), ShardLiveness::kHealthy);
  EXPECT_EQ(cluster.stats().reinstatements, 1);
  EXPECT_EQ(cluster.health(), ClusterHealth::kServing);
}

TEST(ClusterServerTest, FlappingShardBacksOffExponentially) {
  // A shard that fails exactly as it re-enters rotation must not whip the
  // cluster between serving and degraded at the flap frequency: each
  // probation failure multiplies the ejection window by kEjectionBackoff,
  // up to kMaxEjectionNanos.
  ClusterOptions options = TinyClusterOptions();
  options.num_shards = 2;
  options.replication = 2;
  FakeClock clock;
  ClusterServer cluster(options, TinyFactory(), &clock);
  ASSERT_TRUE(cluster.Start().ok());

  const uint64_t key = KeyRoutedTo(cluster.ring(), {0, 1});
  cluster.KillShard(0);
  serving::ServeRequest request = TinyRequest();
  for (int64_t i = 0; i < kEjectionFailures; ++i) {
    ASSERT_TRUE(cluster.Serve(key, request).ok());  // replica answers
  }
  ASSERT_EQ(cluster.stats().ejections, 1);

  // Flap loop: the shard comes back inside its window, is probed the
  // moment the window ends, and is down again. Windows 100, 200, 400,
  // 800, 1600 ms, then the 1600 ms cap.
  int64_t window = kEjectionNanos;
  for (int flap = 0; flap < 6; ++flap) {
    ASSERT_TRUE(cluster.RestoreShard(0).ok());
    clock.Advance(window - kNanosPerMilli);
    EXPECT_EQ(cluster.shard_liveness(0), ShardLiveness::kEjected)
        << "flap " << flap;
    clock.Advance(2 * kNanosPerMilli);
    EXPECT_EQ(cluster.shard_liveness(0), ShardLiveness::kProbation)
        << "flap " << flap;
    cluster.KillShard(0);
    ASSERT_TRUE(cluster.Serve(key, request).ok());  // probe fails over
    EXPECT_EQ(cluster.stats().ejections, flap + 2);
    window = std::min(
        static_cast<int64_t>(static_cast<double>(window) * kEjectionBackoff),
        kMaxEjectionNanos);
  }
  EXPECT_EQ(window, kMaxEjectionNanos);
  EXPECT_EQ(cluster.stats().reinstatements, 0);
}

TEST(ClusterServerTest, HedgeAbandonsSlowPrimaryAndWinsOnReplica) {
  ClusterOptions options;
  options.num_shards = 2;
  options.replication = 2;
  options.default_deadline_nanos = 200 * kNanosPerMilli;
  FakeClock clock;
  obs::Tracer tracer(&clock);
  options.tracer = &tracer;

  // Shard 0's pass (50 ms) outlives the fresh tracker's hedge delay
  // (kHedgeInitialDelayNanos, 20 ms); shard 1 is instant.
  ClusterServer cluster(options,
                        SlowPrimaryFactory(&clock, 50 * kNanosPerMilli),
                        &clock);
  ASSERT_TRUE(cluster.Start().ok());

  const uint64_t key = KeyRoutedTo(cluster.ring(), {0, 1});
  const auto result = cluster.Serve(key, TinyRequest());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().tier, serving::ServeTier::kFullModel);
  EXPECT_EQ(Items(result.value().items), (std::vector<int64_t>{10, 9, 8}));

  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.hedges, 1);
  EXPECT_EQ(stats.hedge_wins, 1);
  EXPECT_EQ(stats.served, 1);
  // The abandoned primary is slow, not broken: no health penalty.
  EXPECT_EQ(stats.ejections, 0);
  EXPECT_EQ(cluster.shard_liveness(0), ShardLiveness::kHealthy);

  // The trace records the hedged attempt and the winning replica.
  const std::string jsonl = obs::TracesToJsonl(tracer.Traces());
  EXPECT_NE(jsonl.find("\"outcome\":\"hedged\""), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"hedge\":\"true\""), std::string::npos) << jsonl;
}

TEST(ClusterServerTest, BudgetExhaustedAfterHedgeNamesTheLastAttempt) {
  // The primary's pass (60 ms) outlives the whole 40 ms budget after the
  // hedge was armed at 20 ms: the hedge fires, but no budget is left for
  // the replica. The failure keeps its DeadlineExceeded code and names
  // what the abandoned attempt returned.
  ClusterOptions options = TinyClusterOptions();
  options.num_shards = 2;
  options.default_deadline_nanos = 40 * kNanosPerMilli;
  FakeClock clock;
  ClusterServer cluster(options,
                        SlowPrimaryFactory(&clock, 60 * kNanosPerMilli),
                        &clock);
  ASSERT_TRUE(cluster.Start().ok());

  const uint64_t key = KeyRoutedTo(cluster.ring(), {0, 1});
  const auto result = cluster.Serve(key, TinyRequest());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kDeadlineExceeded);
  const std::string message = result.status().ToString();
  EXPECT_NE(message.find("budget exhausted before attempt 1"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("last attempt: Aborted: request cancelled by caller"),
            std::string::npos)
      << message;
  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_EQ(stats.hedges, 1);
  EXPECT_EQ(stats.typed_failures, 1);
}

TEST(ClusterServerTest, CallerCancelIsPermanentNotRetried) {
  FakeClock clock;
  ClusterServer cluster(TinyClusterOptions(), TinyFactory(), &clock);
  ASSERT_TRUE(cluster.Start().ok());
  serving::ServeRequest request = TinyRequest();
  request.cancel = [] { return true; };  // client already hung up
  const auto result = cluster.Serve(7, request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kAborted);
  EXPECT_EQ(cluster.stats().attempts, 1);  // no retry, no hedge
}

TEST(ClusterServerTest, ReloadWavesNeverPairCoReplicatedShards) {
  FakeClock clock;
  ClusterOptions options = TinyClusterOptions();
  options.num_shards = 6;
  options.replication = 3;
  ClusterServer cluster(options, TinyFactory(), &clock);
  ASSERT_TRUE(cluster.Start().ok());

  const auto waves = cluster.ReloadWaves();
  std::set<int64_t> covered;
  for (const auto& wave : waves) {
    for (size_t i = 0; i < wave.size(); ++i) {
      covered.insert(wave[i]);
      for (size_t j = i + 1; j < wave.size(); ++j) {
        EXPECT_FALSE(cluster.ring().SharesSegment(wave[i], wave[j]))
            << "wave holds two replicas of one segment: " << wave[i]
            << " and " << wave[j];
      }
    }
  }
  EXPECT_EQ(covered.size(), static_cast<size_t>(options.num_shards));
}

TEST(ClusterServerTest, RollingReloadSwapsEveryShardWithLiveTraffic) {
  FakeClock clock;
  ClusterServer cluster(TinyClusterOptions(), TinyFactory(), &clock);
  ASSERT_TRUE(cluster.Start().ok());

  const std::string path = TempPath("cluster_rolling.ckpt");
  {
    ScriptedModel next(TinyConfig(), 3.0f);
    ASSERT_TRUE(models::SaveCheckpoint(next, path).ok());
  }

  // Traffic between waves must keep succeeding against the mixed fleet.
  int64_t waves_seen = 0;
  const Status status = cluster.RollingReload(
      path, [&cluster, &waves_seen](int64_t wave) {
        (void)wave;
        ++waves_seen;
        for (uint64_t key = 0; key < 8; ++key) {
          SLIME_CHECK(cluster.Serve(key, TinyRequest()).ok());
        }
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_GT(waves_seen, 0);
  EXPECT_EQ(cluster.health(), ClusterHealth::kServing);
  for (int64_t s = 0; s < cluster.num_shards(); ++s) {
    EXPECT_EQ(cluster.shard_server(s)->generation(), 2) << "shard " << s;
    EXPECT_EQ(cluster.shard_server(s)->stats().reloads, 1);
  }
  // Shift 3 reorders the ranking: new top-3 is {7, 6, 5}
  // (scores (j + 3) mod 11, argmax j = 7).
  const auto result = cluster.Serve(3, TinyRequest());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Items(result.value().items), (std::vector<int64_t>{7, 6, 5}));
}

TEST(ClusterServerTest, RollingReloadOfAnotherModelChangesNoShard) {
  FakeClock clock;
  ClusterServer cluster(TinyClusterOptions(), TinyFactory(), &clock);
  ASSERT_TRUE(cluster.Start().ok());
  // The same single "shift" parameter, so only the header's hidden_dim
  // tells this checkpoint from one the fleet can load.
  const std::string path = TempPath("cluster_rolling_mismatch.ckpt");
  models::ModelConfig wider = TinyConfig();
  wider.hidden_dim = 8;
  ASSERT_TRUE(
      models::SaveCheckpoint(ScriptedModel(wider, 3.0f), path).ok());

  const Status status = cluster.RollingReload(path);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument)
      << status.ToString();
  EXPECT_NE(status.message().find("hidden_dim 8 differs"), std::string::npos)
      << status.message();
  for (int64_t s = 0; s < cluster.num_shards(); ++s) {
    EXPECT_EQ(cluster.shard_server(s)->generation(), 1) << "shard " << s;
    EXPECT_EQ(cluster.shard_server(s)->stats().reloads, 0) << "shard " << s;
  }
  const auto result = cluster.Serve(3, TinyRequest());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Items(result.value().items), (std::vector<int64_t>{10, 9, 8}));
}

// --- Determinism ---------------------------------------------------------

/// A fixed chaos-flavoured scenario: mixed traffic, a mid-run shard kill,
/// a whole-segment blackout probe, restore, window expiry, reinstatement,
/// and a rolling reload — everything timed on the FakeClock. Returns a
/// byte-signature of every outcome plus the metrics/trace exports.
std::string RunClusterScenario(int threads, const std::string& reload_path) {
  compute::ComputeContext ctx(threads);
  FakeClock clock;
  obs::MetricsRegistry registry;
  obs::Tracer tracer(&clock);
  ClusterOptions options;
  options.num_shards = 4;
  options.replication = 2;
  options.seed = 0xfeed5eedull;
  options.metrics = &registry;
  options.tracer = &tracer;
  ClusterServer cluster(options, TinyFactory(), &clock);
  SLIME_CHECK(cluster.Start().ok());

  std::ostringstream sig;
  serving::ServeRequest request = TinyRequest();
  const auto serve = [&](uint64_t key) {
    const auto result = cluster.Serve(key, request);
    sig << "key " << key << " ";
    if (result.ok()) {
      sig << ToString(result.value().tier) << " gen "
          << result.value().generation << " [";
      for (const serving::Recommendation& rec : result.value().items) {
        sig << rec.item << ":" << rec.score << " ";
      }
      sig << "]";
    } else {
      sig << "error " << result.status().ToString();
    }
    sig << " health " << ToString(cluster.health()) << "\n";
  };

  for (uint64_t key = 0; key < 24; ++key) serve(key);
  cluster.KillShard(2);
  for (uint64_t key = 24; key < 48; ++key) serve(key);
  cluster.KillShard(3);  // segments replicated on {2,3} are now dark
  for (uint64_t key = 48; key < 64; ++key) serve(key);
  serve(KeyRoutedTo(cluster.ring(), {2, 3}));  // typed kUnavailable probe
  cluster.RestoreShard(2);
  cluster.RestoreShard(3);
  clock.Advance(500 * kNanosPerMilli);  // windows expire → probation
  for (uint64_t key = 64; key < 96; ++key) serve(key);
  SLIME_CHECK(cluster.RollingReload(reload_path).ok());
  for (uint64_t key = 96; key < 112; ++key) serve(key);

  const ClusterStats stats = cluster.stats();
  sig << "requests " << stats.requests << " served " << stats.served
      << " attempts " << stats.attempts << " retries " << stats.retries
      << " failovers " << stats.failovers << " backoffs "
      << stats.backoff_waits << " hedges " << stats.hedges << " wins "
      << stats.hedge_wins << " ejections " << stats.ejections
      << " reinstatements " << stats.reinstatements << " typed "
      << stats.typed_failures << " unavailable " << stats.unavailable
      << " health " << ToString(cluster.health()) << "\n";
  sig << obs::SnapshotToJsonl(registry.Snapshot());
  sig << obs::TracesToJsonl(tracer.Traces());
  return sig.str();
}

TEST(ClusterDeterminismTest, ScenarioIsBitIdenticalAcrossThreadCounts) {
  const std::string path = TempPath("cluster_determinism.ckpt");
  {
    ScriptedModel next(TinyConfig(), 3.0f);
    ASSERT_TRUE(models::SaveCheckpoint(next, path).ok());
  }
  const std::string base = RunClusterScenario(1, path);
  // The scenario must actually exercise the machinery it claims to pin.
  EXPECT_NE(base.find("error Unavailable"), std::string::npos) << base;
  EXPECT_NE(base.find("health degraded"), std::string::npos) << base;
  EXPECT_NE(base.find("gen 2"), std::string::npos) << base;
  EXPECT_NE(base.find("\"type\":\"trace\""), std::string::npos) << base;
  EXPECT_EQ(base, RunClusterScenario(1, path));
  EXPECT_EQ(base, RunClusterScenario(2, path));
  EXPECT_EQ(base, RunClusterScenario(8, path));
}

}  // namespace
}  // namespace cluster
}  // namespace slime
