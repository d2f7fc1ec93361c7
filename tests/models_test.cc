#include "models/model_factory.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/batcher.h"
#include "models/cl4srec.h"
#include "models/coserec.h"
#include "models/most_pop.h"
#include "data/synthetic.h"
#include "optim/adam.h"
#include "train/trainer.h"

namespace slime {
namespace models {
namespace {

ModelConfig SmallConfig() {
  ModelConfig c;
  c.num_items = 20;
  c.num_users = 10;
  c.max_len = 8;
  c.hidden_dim = 16;
  c.num_layers = 2;
  c.num_heads = 2;
  c.dropout = 0.1f;
  c.emb_dropout = 0.1f;
  c.seed = 13;
  return c;
}

data::Batch SmallBatch() {
  data::Batch b;
  b.size = 4;
  b.max_len = 8;
  b.user_ids = {0, 1, 2, 3};
  b.targets = {5, 7, 2, 9};
  b.raw_prefixes = {{1, 2, 3}, {4, 5, 6, 7}, {1}, {8, 9, 10, 11, 12}};
  for (const auto& raw : b.raw_prefixes) {
    const auto padded = data::PadTruncate(raw, 8);
    b.input_ids.insert(b.input_ids.end(), padded.begin(), padded.end());
    b.positive_input_ids.insert(b.positive_input_ids.end(), padded.begin(),
                                padded.end());
  }
  return b;
}

class AllModelsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllModelsTest, ConstructsAndReportsName) {
  auto model = CreateModel(GetParam(), SmallConfig());
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->name(), GetParam());
  EXPECT_GT(model->ParameterCount(), 0);
}

TEST_P(AllModelsTest, LossIsFiniteScalarAndBackpropagates) {
  auto model = CreateModel(GetParam(), SmallConfig());
  autograd::Variable loss = model->Loss(SmallBatch());
  ASSERT_EQ(loss.numel(), 1);
  EXPECT_TRUE(std::isfinite(loss.value()[0]));
  EXPECT_GT(loss.value()[0], 0.0f);
  loss.Backward();
  int64_t with_grad = 0;
  for (const auto& p : model->Parameters()) {
    if (p.has_grad()) ++with_grad;
  }
  EXPECT_GT(with_grad, 0);
}

TEST_P(AllModelsTest, ScoreAllHasItemPlusPadColumns) {
  auto model = CreateModel(GetParam(), SmallConfig());
  model->SetTraining(false);
  const Tensor scores = model->ScoreAll(SmallBatch());
  EXPECT_EQ(scores.shape(), (std::vector<int64_t>{4, 21}));
  for (int64_t i = 0; i < scores.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(scores[i]));
  }
}

TEST_P(AllModelsTest, TenAdamStepsReduceLoss) {
  ModelConfig c = SmallConfig();
  c.dropout = 0.0f;
  c.emb_dropout = 0.0f;
  auto model = CreateModel(GetParam(), c);
  optim::Adam adam(model->Parameters(), {.lr = 0.02f});
  const data::Batch b = SmallBatch();
  // Average a few evaluations because some models are stochastic
  // (BERT4Rec masking, ContrastVAE sampling, CL4SRec augmentation).
  auto avg_loss = [&] {
    double sum = 0.0;
    for (int i = 0; i < 4; ++i) sum += model->Loss(b).value()[0];
    return sum / 4;
  };
  const double initial = avg_loss();
  for (int step = 0; step < 12; ++step) {
    autograd::Variable loss = model->Loss(b);
    loss.Backward();
    adam.Step();
  }
  EXPECT_LT(avg_loss(), initial);
}

INSTANTIATE_TEST_SUITE_P(Zoo, AllModelsTest,
                         ::testing::ValuesIn(AllModelNames()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

TEST(ModelFactoryTest, AllNamesHasElevenModels) {
  EXPECT_EQ(AllModelNames().size(), 11u);
}

TEST(ModelFactoryTest, PositivesOnlyForDuoRecAndSlime) {
  for (const auto& name : AllModelNames()) {
    auto model = CreateModel(name, SmallConfig());
    const bool expected = name == "DuoRec" || name == "SLIME4Rec";
    EXPECT_EQ(model->needs_positives(), expected) << name;
  }
}

TEST(AugmentTest, CropKeepsContiguousSubsequence) {
  Rng rng(1);
  const std::vector<int64_t> seq = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  for (int i = 0; i < 20; ++i) {
    const auto out = augment::Crop(seq, 0.5, &rng);
    ASSERT_EQ(out.size(), 5u);
    // Contiguity: consecutive ascending values from the source.
    for (size_t j = 1; j < out.size(); ++j) {
      EXPECT_EQ(out[j], out[j - 1] + 1);
    }
  }
}

TEST(AugmentTest, MaskReplacesWithPadToken) {
  Rng rng(2);
  const std::vector<int64_t> seq(100, 7);
  const auto out = augment::Mask(seq, 0.4, &rng);
  int64_t zeros = 0;
  for (int64_t v : out) {
    EXPECT_TRUE(v == 0 || v == 7);
    if (v == 0) ++zeros;
  }
  EXPECT_NEAR(zeros / 100.0, 0.4, 0.15);
}

TEST(AugmentTest, ReorderIsPermutationOfWindow) {
  Rng rng(3);
  const std::vector<int64_t> seq = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto out = augment::Reorder(seq, 0.5, &rng);
  ASSERT_EQ(out.size(), seq.size());
  auto sorted_in = seq;
  auto sorted_out = out;
  std::sort(sorted_in.begin(), sorted_in.end());
  std::sort(sorted_out.begin(), sorted_out.end());
  EXPECT_EQ(sorted_in, sorted_out);  // multiset preserved
}

TEST(AugmentTest, SingleItemSequencesSurviveAllOps) {
  Rng rng(4);
  const std::vector<int64_t> seq = {3};
  EXPECT_EQ(augment::Crop(seq, 0.5, &rng).size(), 1u);
  EXPECT_EQ(augment::Reorder(seq, 0.5, &rng), seq);
}

TEST(CoSeRecTest, CorrelationsFromTrainingData) {
  // Items 1 and 2 always co-occur; item 3 co-occurs with nothing else more
  // strongly.
  data::InteractionDataset dataset(
      "corr", {{1, 2, 1, 2, 1, 2}, {1, 2, 1, 2, 5, 4}, {3, 4, 3, 4, 3, 4}},
      5);
  data::SplitDataset split(dataset, 0);
  ModelConfig c = SmallConfig();
  c.num_items = 5;
  CoSeRec model(c);
  model.Prepare(split);
  EXPECT_EQ(model.MostCorrelated(1), 2);
  EXPECT_EQ(model.MostCorrelated(2), 1);
  EXPECT_EQ(model.MostCorrelated(3), 4);
}

TEST(CoSeRecTest, UnknownItemHasNoCorrelation) {
  ModelConfig c = SmallConfig();
  CoSeRec model(c);
  EXPECT_EQ(model.MostCorrelated(3), 0);  // Prepare() never called
}

TEST(Bert4RecTest, ScoreDropsMaskColumn) {
  auto model = CreateModel("BERT4Rec", SmallConfig());
  model->SetTraining(false);
  const Tensor scores = model->ScoreAll(SmallBatch());
  // num_items + 1 columns (pad included, [MASK] excluded).
  EXPECT_EQ(scores.size(1), 21);
}

}  // namespace
}  // namespace models
}  // namespace slime

namespace slime {
namespace models {
namespace {

TEST(MostPopTest, ScoresAreTrainingFrequencies) {
  data::InteractionDataset dataset(
      "pop", {{1, 1, 1, 2, 9}, {1, 2, 2, 3, 9}}, 9);
  data::SplitDataset split(dataset, 0);
  ModelConfig c = SmallConfig();
  c.num_items = 9;
  MostPop model(c);
  model.Prepare(split);
  // Training regions: {1,1,1} and {1,2,2}.
  EXPECT_EQ(model.Frequency(1), 4);
  EXPECT_EQ(model.Frequency(2), 2);
  EXPECT_EQ(model.Frequency(9), 0);  // only in held-out positions
  const Tensor scores = model.ScoreAll(SmallBatch());
  EXPECT_FLOAT_EQ(scores.At({0, 1}), 4.0f);
  EXPECT_FLOAT_EQ(scores.At({0, 2}), 2.0f);
}

TEST(MostPopTest, TrainableZooModelsBeatPopularityOnSequentialData) {
  // The sanity floor in action: a trained FMLP-Rec must out-rank MostPop
  // on data whose targets are chain successors, not popular items.
  data::SyntheticConfig cfg;
  cfg.num_users = 150;
  cfg.num_items = 60;
  cfg.num_categories = 6;
  cfg.num_clusters = 3;
  cfg.min_len = 6;
  cfg.max_len = 12;
  cfg.noise_prob = 0.05;
  cfg.seed = 33;
  const data::SplitDataset split(data::GenerateSynthetic(cfg), 4);
  ModelConfig c;
  c.num_items = split.num_items();
  c.num_users = split.num_users();
  c.max_len = 16;
  c.hidden_dim = 16;
  c.num_layers = 1;
  train::TrainConfig tc;
  tc.max_epochs = 6;
  tc.patience = 6;
  tc.lr = 5e-3f;
  auto pop = CreateModel("MostPop", c);
  auto fmlp = CreateModel("FMLP-Rec", c);
  train::Trainer trainer(tc);
  const auto pop_result = trainer.Fit(pop.get(), split).value();
  const auto fmlp_result = trainer.Fit(fmlp.get(), split).value();
  EXPECT_GT(fmlp_result.test.ndcg10, pop_result.test.ndcg10);
}

}  // namespace
}  // namespace models
}  // namespace slime
