#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "bench_util/experiment.h"
#include "bench_util/paper_values.h"
#include "bench_util/table_printer.h"

namespace slime {
namespace bench {
namespace {

/// Shared small split so the whole file trains on one dataset.
const data::SplitDataset& SmallSplit() {
  static const data::SplitDataset* split =
      new data::SplitDataset(BuildSplit(data::BeautySimConfig(0.25)));
  return *split;
}

train::TrainConfig FastConfig() {
  train::TrainConfig t = DefaultTrainConfig();
  t.max_epochs = 10;
  t.patience = 3;
  return t;
}

TEST(IntegrationTest, SlimeBeatsNonSequentialBaseline) {
  // The headline ordering of Table II at miniature scale: the frequency
  // model with contrastive learning clearly beats BPR-MF, which ignores
  // order entirely.
  const auto& split = SmallSplit();
  const models::ModelConfig mc = DefaultModelConfig(split);
  const ExperimentResult slime =
      RunModel("SLIME4Rec", split, mc, DefaultMixerOptions(split.name()),
               FastConfig());
  const ExperimentResult bpr =
      RunModel("BPR-MF", split, mc, {}, FastConfig());
  // At miniature scale (300 users) the margin is smaller than the paper's
  // full-size gap, but the ordering must hold decisively.
  EXPECT_GT(slime.test.ndcg10, bpr.test.ndcg10 * 1.1);
  EXPECT_GT(slime.test.hr10, 0.1);
}

TEST(IntegrationTest, SequentialSignalIsLearned) {
  // Any sequential neural model should beat random ranking (HR@10 on ~400
  // items would be ~0.025 at random).
  const auto& split = SmallSplit();
  const ExperimentResult fmlp =
      RunModel("FMLP-Rec", split, DefaultModelConfig(split), {},
               FastConfig());
  EXPECT_GT(fmlp.test.hr10, 0.08);
}

TEST(IntegrationTest, ResultsAreReproducible) {
  const auto& split = SmallSplit();
  train::TrainConfig t = FastConfig();
  t.max_epochs = 2;
  const models::ModelConfig mc = DefaultModelConfig(split);
  const auto mixer = DefaultMixerOptions(split.name());
  const ExperimentResult r1 = RunModel("SLIME4Rec", split, mc, mixer, t);
  const ExperimentResult r2 = RunModel("SLIME4Rec", split, mc, mixer, t);
  EXPECT_DOUBLE_EQ(r1.test.ndcg10, r2.test.ndcg10);
  EXPECT_DOUBLE_EQ(r1.test.hr5, r2.test.hr5);
}

TEST(BenchUtilTest, DefaultConfigsFollowDataset) {
  const auto& split = SmallSplit();
  const models::ModelConfig mc = DefaultModelConfig(split);
  EXPECT_EQ(mc.num_items, split.num_items());
  EXPECT_EQ(mc.max_len, 32);
  EXPECT_DOUBLE_EQ(DefaultMixerOptions("beauty-sim").alpha, 0.4);
  EXPECT_DOUBLE_EQ(DefaultMixerOptions("clothing-sim").alpha, 0.8);
  EXPECT_DOUBLE_EQ(DefaultMixerOptions("sports-sim").alpha, 0.3);
}

TEST(BenchUtilTest, BenchDataScaleIsAFactorOnTheBase) {
  const char* saved = std::getenv("SLIME_BENCH_SCALE");
  const std::string restore = saved == nullptr ? "" : saved;
  ::unsetenv("SLIME_BENCH_SCALE");
  EXPECT_DOUBLE_EQ(BenchDataScale(0.25), 0.25);
  ::setenv("SLIME_BENCH_SCALE", "2", 1);
  EXPECT_DOUBLE_EQ(BenchDataScale(0.25), 0.5);
  // Anything but a positive finite number leaves the base alone.
  for (const char* bad : {"abc", "0", "-1", "2x", "", "inf"}) {
    ::setenv("SLIME_BENCH_SCALE", bad, 1);
    EXPECT_DOUBLE_EQ(BenchDataScale(0.25), 0.25) << "'" << bad << "'";
  }
  if (saved == nullptr) {
    ::unsetenv("SLIME_BENCH_SCALE");
  } else {
    ::setenv("SLIME_BENCH_SCALE", restore.c_str(), 1);
  }
}

TEST(BenchUtilTest, TablePrinterAlignsColumns) {
  TablePrinter table({"Model", "HR@5"});
  table.AddRow({"SLIME4Rec", "0.0621"});
  table.AddSeparator();
  table.AddRow({"X", "1"});
  const std::string s = table.ToString();
  EXPECT_NE(s.find("| Model     | HR@5   |"), std::string::npos);
  EXPECT_NE(s.find("| SLIME4Rec | 0.0621 |"), std::string::npos);
}

TEST(BenchUtilTest, PaperValuesLookups) {
  const PaperMetrics* m = Table2Value("Beauty", "SLIME4Rec");
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->hr5, 0.0621);
  EXPECT_EQ(Table2Value("Beauty", "NotAModel"), nullptr);
  EXPECT_EQ(PaperDatasetName("ml1m-sim"), "ML-1M");
  const PaperDatasetStats* s = Table1Stats("ML-1M");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->users, 6041);
  const PaperModeMetrics* mode = Table4Value(4, "Yelp");
  ASSERT_NE(mode, nullptr);
  EXPECT_DOUBLE_EQ(mode->hr5, 0.0516);
}

TEST(BenchUtilTest, PaperTable2OrderingSlimeWinsEverywhere) {
  // Internal consistency of the transcribed table: SLIME4Rec is the best
  // model on every dataset and metric (the paper's bold row).
  for (const auto& dataset : Table2Datasets()) {
    const PaperMetrics* slime = Table2Value(dataset, "SLIME4Rec");
    ASSERT_NE(slime, nullptr);
    for (const auto& model : models::AllModelNames()) {
      if (model == "SLIME4Rec") continue;
      const PaperMetrics* other = Table2Value(dataset, model);
      ASSERT_NE(other, nullptr) << dataset << "/" << model;
      EXPECT_GT(slime->hr5, other->hr5) << dataset << "/" << model;
      EXPECT_GT(slime->hr10, other->hr10) << dataset << "/" << model;
      EXPECT_GT(slime->ndcg10, other->ndcg10) << dataset << "/" << model;
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace slime
