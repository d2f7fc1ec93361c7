#include "serving/recommendation_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "compute/thread_pool.h"
#include "core/slime4rec.h"
#include "models/model_factory.h"

namespace slime {
namespace serving {
namespace {

core::Slime4RecConfig SmallConfig() {
  core::Slime4RecConfig c;
  c.num_items = 25;
  c.num_users = 5;
  c.max_len = 8;
  c.hidden_dim = 8;
  c.num_layers = 1;
  c.mixer.alpha = 1.0;
  c.seed = 19;
  return c;
}

TEST(ServingTest, ReturnsKRankedItems) {
  core::Slime4Rec model(SmallConfig());
  model.SetTraining(false);
  RecommendationService service(&model);
  RecommendOptions options;
  options.top_k = 5;
  const auto recs = service.Recommend({1, 2, 3}, options).value();
  ASSERT_EQ(recs.size(), 5u);
  for (size_t i = 1; i < recs.size(); ++i) {
    EXPECT_GE(recs[i - 1].score, recs[i].score);  // descending
  }
  std::set<int64_t> unique;
  for (const auto& r : recs) {
    EXPECT_GE(r.item, 1);
    EXPECT_LE(r.item, 25);
    unique.insert(r.item);
  }
  EXPECT_EQ(unique.size(), recs.size());
}

TEST(ServingTest, ExcludeSeenFiltersHistory) {
  core::Slime4Rec model(SmallConfig());
  model.SetTraining(false);
  RecommendationService service(&model);
  const std::vector<int64_t> history = {4, 9, 17};
  RecommendOptions options;
  options.top_k = 22;
  const auto recs = service.Recommend(history, options).value();
  // 25 items - 3 seen = 22 remain.
  ASSERT_EQ(recs.size(), 22u);
  for (const auto& r : recs) {
    EXPECT_TRUE(std::find(history.begin(), history.end(), r.item) ==
                history.end());
  }
}

TEST(ServingTest, ExcludeSeenOffKeepsHistoryItems) {
  core::Slime4Rec model(SmallConfig());
  model.SetTraining(false);
  RecommendationService service(&model);
  RecommendOptions options;
  options.top_k = 25;
  options.exclude_seen = false;
  const auto recs = service.Recommend({4, 9, 17}, options).value();
  EXPECT_EQ(recs.size(), 25u);
}

TEST(ServingTest, BatchMatchesSingleRequests) {
  core::Slime4Rec model(SmallConfig());
  model.SetTraining(false);
  RecommendationService service(&model);
  const std::vector<std::vector<int64_t>> histories = {{1, 2}, {7, 8, 9}};
  RecommendOptions options;
  options.top_k = 4;
  const auto batched = service.RecommendBatch(histories, options).value();
  ASSERT_EQ(batched.size(), 2u);
  for (size_t i = 0; i < histories.size(); ++i) {
    const auto single = service.Recommend(histories[i], options).value();
    ASSERT_EQ(single.size(), batched[i].size());
    for (size_t j = 0; j < single.size(); ++j) {
      EXPECT_EQ(single[j].item, batched[i][j].item) << i << "," << j;
      // Exact: a user's scores must not depend on who shares the batch.
      EXPECT_EQ(single[j].score, batched[i][j].score) << i << "," << j;
    }
  }
}

TEST(ServingTest, LongHistoryTruncatedToMostRecent) {
  // Histories longer than max_len must not crash and should use the most
  // recent items (PadTruncate semantics).
  core::Slime4Rec model(SmallConfig());
  model.SetTraining(false);
  RecommendationService service(&model);
  std::vector<int64_t> history;
  for (int i = 0; i < 40; ++i) history.push_back(1 + (i % 25));
  RecommendOptions options;
  options.top_k = 3;
  // The 40-item history covers the whole catalogue; keep seen items so
  // candidates remain.
  options.exclude_seen = false;
  const auto recs = service.Recommend(history, options).value();
  EXPECT_EQ(recs.size(), 3u);
}

TEST(ServingTest, WorksWithEveryZooModel) {
  models::ModelConfig c;
  c.num_items = 15;
  c.num_users = 4;
  c.max_len = 8;
  c.hidden_dim = 8;
  c.num_layers = 1;
  c.num_heads = 2;
  for (const auto& name : models::AllModelNames()) {
    auto model = models::CreateModel(name, c);
    model->SetTraining(false);
    RecommendationService service(model.get());
    RecommendOptions options;
    options.top_k = 3;
    const auto recs = service.Recommend({3, 5}, options);
    if (name == "BPR-MF" || name == "Caser") {
      // They score by user id, and a request carries only a history: one
      // user's ranking would be served to everyone.
      ASSERT_FALSE(recs.ok()) << name;
      EXPECT_EQ(recs.status().code(), Status::Code::kInvalidArgument) << name;
      EXPECT_TRUE(model->needs_user_ids()) << name;
      continue;
    }
    ASSERT_TRUE(recs.ok()) << name << ": " << recs.status().ToString();
    EXPECT_EQ(recs.value().size(), 3u) << name;
    EXPECT_FALSE(model->needs_user_ids()) << name;
  }
}

TEST(ServingTest, TopKFromScoresTieBreaksByItemId) {
  std::vector<float> row = {0.0f, 1.0f, 1.0f, 1.0f};
  std::vector<bool> excluded(4, false);
  const auto recs = TopKFromScores(row.data(), 3, 2, excluded);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].item, 1);
  EXPECT_EQ(recs[1].item, 2);
}

TEST(ServingTest, TopKAllEqualScoresYieldAscendingItemIds) {
  // A fully tied score row must come back as ascending item ids, not in
  // whatever order partial_sort visited them.
  std::vector<float> row(26, 7.5f);
  std::vector<bool> excluded(26, false);
  const auto recs = TopKFromScores(row.data(), 25, 6, excluded);
  ASSERT_EQ(recs.size(), 6u);
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(recs[i].item, i + 1);
  }
}

TEST(ServingTest, TopKTieBreakRespectsExclusions) {
  std::vector<float> row = {0.0f, 1.0f, 2.0f, 2.0f, 2.0f, 1.0f};
  std::vector<bool> excluded = {false, false, false, true, false, false};
  const auto recs = TopKFromScores(row.data(), 5, 5, excluded);
  ASSERT_EQ(recs.size(), 4u);  // item 3 excluded
  EXPECT_EQ(recs[0].item, 2);  // score-2 tie: lowest surviving id first
  EXPECT_EQ(recs[1].item, 4);
  EXPECT_EQ(recs[2].item, 1);  // score-1 tie: id 1 before id 5
  EXPECT_EQ(recs[3].item, 5);
}

// Reference: every surviving item, fully sorted, cut to k.
std::vector<Recommendation> NaiveTopK(const std::vector<float>& row,
                                      int64_t k,
                                      const std::vector<bool>& excluded) {
  std::vector<Recommendation> all;
  for (int64_t item = 1; item < static_cast<int64_t>(row.size()); ++item) {
    if (!excluded[item]) all.push_back({item, row[item]});
  }
  std::sort(all.begin(), all.end(),
            [](const Recommendation& a, const Recommendation& b) {
              return a.score > b.score ||
                     (a.score == b.score && a.item < b.item);
            });
  if (static_cast<int64_t>(all.size()) > k) all.resize(k);
  return all;
}

TEST(ServingTest, TopKHeapMatchesNaiveFullSort) {
  Rng rng(2026);
  const int64_t num_items = 300;
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<float> row(num_items + 1);
    for (float& s : row) s = 2.0f * rng.UniformFloat() - 1.0f;
    // Plant ties: every 7th item shares one high score, so tied items
    // straddle the top-k cut.
    const float tied = 0.5f + 0.5f * rng.UniformFloat();
    for (int64_t item = 1; item <= num_items; item += 7) row[item] = tied;
    std::vector<bool> excluded(num_items + 1, false);
    const double p_excluded = (trial % 3) * 0.4;  // 0, 0.4, 0.8
    for (int64_t item = 1; item <= num_items; ++item) {
      excluded[item] = rng.Bernoulli(p_excluded);
    }
    // k below, near and above the number of surviving candidates.
    for (const int64_t k : {int64_t{1}, int64_t{10}, int64_t{57},
                            num_items, num_items + 5}) {
      const auto got = TopKFromScores(row.data(), num_items, k, excluded);
      const auto want = NaiveTopK(row, k, excluded);
      ASSERT_EQ(got.size(), want.size()) << "trial " << trial << " k " << k;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].item, want[i].item) << trial << "," << k << "," << i;
        EXPECT_EQ(got[i].score, want[i].score);
      }
      EXPECT_LE(static_cast<int64_t>(got.capacity()), k);
    }
  }
}

TEST(ServingTest, TopKWithEveryItemExcludedIsEmpty) {
  std::vector<float> row = {0.0f, 3.0f, 1.0f, 2.0f};
  const std::vector<bool> excluded = {false, true, true, true};
  const auto recs = TopKFromScores(row.data(), 3, 2, excluded);
  EXPECT_TRUE(recs.empty());
  EXPECT_LE(recs.capacity(), 2u);
}

TEST(ServingTest, RankingsBitIdenticalAcrossThreadCounts) {
  core::Slime4Rec model(SmallConfig());
  model.SetTraining(false);
  RecommendationService service(&model);
  const std::vector<std::vector<int64_t>> histories = {
      {1, 2, 3}, {4, 5}, {6, 7, 8, 9, 10}, {11}};
  RecommendOptions options;
  options.top_k = 10;
  auto run = [&](int threads) {
    compute::ComputeContext ctx(threads);
    return service.RecommendBatch(histories, options).value();
  };
  const auto base = run(1);
  for (const int threads : {2, 8}) {
    const auto other = run(threads);
    ASSERT_EQ(other.size(), base.size());
    for (size_t i = 0; i < base.size(); ++i) {
      ASSERT_EQ(other[i].size(), base[i].size()) << threads;
      for (size_t j = 0; j < base[i].size(); ++j) {
        EXPECT_EQ(other[i][j].item, base[i][j].item) << threads;
        // Exact float equality on purpose: the contract is bit-identity.
        EXPECT_EQ(other[i][j].score, base[i][j].score) << threads;
      }
    }
  }
}

// --- Untrusted-input hardening -------------------------------------------

TEST(ServingValidationTest, RejectsOutOfCatalogueItemIds) {
  core::Slime4Rec model(SmallConfig());
  model.SetTraining(false);
  RecommendationService service(&model);
  for (const int64_t bad : {int64_t{0}, int64_t{-3}, int64_t{26},
                            int64_t{1000000}}) {
    const auto r = service.Recommend({1, bad, 2});
    ASSERT_FALSE(r.ok()) << "item " << bad;
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
    EXPECT_NE(r.status().message().find(std::to_string(bad)),
              std::string::npos)
        << r.status().message();
  }
}

TEST(ServingValidationTest, RejectsEmptyHistory) {
  core::Slime4Rec model(SmallConfig());
  model.SetTraining(false);
  RecommendationService service(&model);
  const auto single = service.Recommend({});
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(single.status().code(), Status::Code::kInvalidArgument);
  // A batch with one empty history among valid ones is rejected whole.
  const auto batch = service.RecommendBatch({{1, 2}, {}, {3}});
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(batch.status().message().find("history 1"), std::string::npos)
      << batch.status().message();
}

TEST(ServingValidationTest, EmptyBatchYieldsEmptyResult) {
  core::Slime4Rec model(SmallConfig());
  model.SetTraining(false);
  RecommendationService service(&model);
  const auto r = service.RecommendBatch({});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
}

TEST(ServingValidationTest, RejectsNonPositiveTopK) {
  core::Slime4Rec model(SmallConfig());
  model.SetTraining(false);
  RecommendationService service(&model);
  RecommendOptions options;
  options.top_k = 0;
  const auto r = service.Recommend({1, 2}, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
}

}  // namespace
}  // namespace serving
}  // namespace slime
