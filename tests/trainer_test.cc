#include "train/trainer.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "models/model_factory.h"

namespace slime {
namespace train {
namespace {

data::SplitDataset TinySplit() {
  data::SyntheticConfig config;
  config.name = "trainer-tiny";
  config.num_users = 120;
  config.num_items = 40;
  config.num_categories = 4;
  config.num_clusters = 4;
  config.min_len = 6;
  config.max_len = 12;
  config.noise_prob = 0.05;
  config.seed = 77;
  return data::SplitDataset(data::GenerateSynthetic(config), 3);
}

models::ModelConfig TinyModelConfig(const data::SplitDataset& split) {
  models::ModelConfig c;
  c.num_items = split.num_items();
  c.num_users = split.num_users();
  c.max_len = 8;
  c.hidden_dim = 16;
  c.num_layers = 2;
  c.dropout = 0.1f;
  c.emb_dropout = 0.1f;
  c.seed = 5;
  return c;
}

TrainConfig FastTrainConfig(int64_t epochs) {
  TrainConfig t;
  t.max_epochs = epochs;
  t.batch_size = 64;
  t.lr = 5e-3f;
  t.patience = 100;  // effectively off
  t.seed = 31;
  return t;
}

TEST(EvaluateTest, UntrainedModelIsNearRandom) {
  const data::SplitDataset split = TinySplit();
  auto model = models::CreateModel("SASRec", TinyModelConfig(split));
  const metrics::RankingMetrics m = Evaluate(model.get(), split, false);
  // Random ranking over 40 items: HR@10 ~ 0.25. An untrained (but
  // structured) model should be loosely in that band, certainly below 0.6.
  EXPECT_LT(m.hr10, 0.6);
  EXPECT_GE(m.hr10, 0.0);
}

TEST(EvaluateTest, RestoresTrainingFlag) {
  const data::SplitDataset split = TinySplit();
  auto model = models::CreateModel("SASRec", TinyModelConfig(split));
  model->SetTraining(true);
  Evaluate(model.get(), split, false);
  EXPECT_TRUE(model->training());
  model->SetTraining(false);
  Evaluate(model.get(), split, true);
  EXPECT_FALSE(model->training());
}

TEST(TrainerTest, TrainingImprovesOverUntrained) {
  const data::SplitDataset split = TinySplit();
  auto model = models::CreateModel("FMLP-Rec", TinyModelConfig(split));
  const metrics::RankingMetrics before =
      Evaluate(model.get(), split, true);
  Trainer trainer(FastTrainConfig(6));
  const TrainResult result = trainer.Fit(model.get(), split).value();
  EXPECT_GT(result.test.ndcg10, before.ndcg10);
  EXPECT_GT(result.test.hr10, 0.2);  // far above the random ~0.25/2 band
  EXPECT_GE(result.best_epoch, 1);
  EXPECT_LE(result.best_epoch, result.epochs_run);
}

TEST(TrainerTest, EarlyStoppingHaltsBeforeMaxEpochs) {
  const data::SplitDataset split = TinySplit();
  auto model = models::CreateModel("GRU4Rec", TinyModelConfig(split));
  TrainConfig t = FastTrainConfig(60);
  t.patience = 1;
  t.lr = 0.05f;  // aggressive: validation degrades quickly after the peak
  Trainer trainer(t);
  const TrainResult result = trainer.Fit(model.get(), split).value();
  EXPECT_LT(result.epochs_run, 60);
}

TEST(TrainerTest, BestParametersRestoredForTest) {
  // After Fit, the model must score the test set identically to the stored
  // result (i.e. the restored snapshot is what was evaluated).
  const data::SplitDataset split = TinySplit();
  auto model = models::CreateModel("SASRec", TinyModelConfig(split));
  Trainer trainer(FastTrainConfig(4));
  const TrainResult result = trainer.Fit(model.get(), split).value();
  const metrics::RankingMetrics re_eval =
      Evaluate(model.get(), split, true);
  EXPECT_DOUBLE_EQ(result.test.ndcg10, re_eval.ndcg10);
  EXPECT_DOUBLE_EQ(result.test.hr5, re_eval.hr5);
}

TEST(TrainerTest, DuoRecTrainsWithPositives) {
  const data::SplitDataset split = TinySplit();
  models::ModelConfig c = TinyModelConfig(split);
  c.cl_weight = 0.1f;
  auto model = models::CreateModel("DuoRec", c);
  Trainer trainer(FastTrainConfig(3));
  const TrainResult result = trainer.Fit(model.get(), split).value();
  EXPECT_GT(result.test.hr10, 0.0);
  EXPECT_GT(result.final_train_loss, 0.0);
}

TEST(TrainerTest, DeterministicGivenSeeds) {
  const data::SplitDataset split = TinySplit();
  TrainResult r1;
  TrainResult r2;
  {
    auto model = models::CreateModel("FMLP-Rec", TinyModelConfig(split));
    r1 = Trainer(FastTrainConfig(2)).Fit(model.get(), split).value();
  }
  {
    auto model = models::CreateModel("FMLP-Rec", TinyModelConfig(split));
    r2 = Trainer(FastTrainConfig(2)).Fit(model.get(), split).value();
  }
  EXPECT_DOUBLE_EQ(r1.test.ndcg10, r2.test.ndcg10);
  EXPECT_DOUBLE_EQ(r1.final_train_loss, r2.final_train_loss);
}

}  // namespace
}  // namespace train
}  // namespace slime
