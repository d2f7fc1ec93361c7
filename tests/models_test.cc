#include "models/model_factory.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <string>

#include "common/crc32.h"
#include "compute/backend.h"
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

// A checkpoint stores each parameter under its NamedParameters() name, so
// the names, shapes and order below are every model's checkpoint layout,
// and the CRC-32 of the freshly initialised bytes pins the initialiser
// calls and their RNG draws. A refactor of a model must leave both alone.
std::string LayoutOf(const SequentialRecommender& model) {
  std::string layout;
  for (const auto& [name, param] : model.NamedParameters()) {
    if (!layout.empty()) layout += ' ';
    layout += name;
    char sep = '[';
    for (const int64_t dim : param.value().shape()) {
      layout += sep;
      layout += std::to_string(dim);
      sep = 'x';
    }
    layout += ']';
  }
  return layout;
}

uint32_t InitCrcOf(const SequentialRecommender& model) {
  uint32_t crc = 0;
  for (const auto& [name, param] : model.NamedParameters()) {
    crc = ExtendCrc32(crc, param.value().data(),
                      param.value().numel() * sizeof(float));
  }
  return crc;
}

TEST(CheckpointLayoutTest, NamesShapesAndInitialBytesArePinned) {
  struct Pin {
    std::string layout;
    uint32_t init_crc;
  };
  const std::string stem =
      "pos_emb[8x16] item_emb.weight[21x16] emb_norm.gamma[16] "
      "emb_norm.beta[16]";
  const std::string attention =
      "attn0.w_q.weight[16x16] attn0.w_q.bias[16] attn0.w_k.weight[16x16] "
      "attn0.w_k.bias[16] attn0.w_v.weight[16x16] attn0.w_v.bias[16] "
      "attn0.w_o.weight[16x16] attn0.w_o.bias[16] attn_norm0.gamma[16] "
      "attn_norm0.beta[16] ffn0.w1.weight[16x16] ffn0.w1.bias[16] "
      "ffn0.w2.weight[16x16] ffn0.w2.bias[16] ffn_norm0.gamma[16] "
      "ffn_norm0.beta[16] attn1.w_q.weight[16x16] attn1.w_q.bias[16] "
      "attn1.w_k.weight[16x16] attn1.w_k.bias[16] attn1.w_v.weight[16x16] "
      "attn1.w_v.bias[16] attn1.w_o.weight[16x16] attn1.w_o.bias[16] "
      "attn_norm1.gamma[16] attn_norm1.beta[16] ffn1.w1.weight[16x16] "
      "ffn1.w1.bias[16] ffn1.w2.weight[16x16] ffn1.w2.bias[16] "
      "ffn_norm1.gamma[16] ffn_norm1.beta[16]";
  const std::map<std::string, Pin> pins = {
      {"BPR-MF",
       {"user_emb.weight[10x16] item_emb.weight[21x16]",
        0x696d2ea7}},
      {"GRU4Rec",
       {"item_emb.weight[21x16] gru.w_x.weight[16x32] gru.w_x.bias[32] "
        "gru.w_h.weight[16x32] gru.w_c_x.weight[16x16] gru.w_c_x.bias[16] "
        "gru.w_c_h.weight[16x16]",
        0x9d7adb85}},
      {"Caser",
       {"item_emb.weight[21x16] user_emb.weight[10x16] horizontal.w2[4x2x16] "
        "horizontal.b2[4] horizontal.w3[4x3x16] horizontal.b3[4] "
        "horizontal.w4[4x4x16] horizontal.b4[4] vertical.weight[2x8] "
        "fc.weight[44x16] fc.bias[16] out.weight[32x16] out.bias[16]",
        0x28f088bd}},
      {"SASRec",
       {stem + " " + attention,
        0xd512f3b3}},
      {"BERT4Rec",
       {"pos_emb[8x16] item_emb.weight[22x16] emb_norm.gamma[16] "
        "emb_norm.beta[16] " + attention,
        0xaa29c63d}},
      {"FMLP-Rec",
       {stem + " " +
        "filter0.dynamic_filter.w_re[5x16] filter0.dynamic_filter.w_im[5x16] "
        "filter0.layer_norm.gamma[16] filter0.layer_norm.beta[16] "
        "ffn0.w1.weight[16x16] ffn0.w1.bias[16] ffn0.w2.weight[16x16] "
        "ffn0.w2.bias[16] ffn_norm0.gamma[16] ffn_norm0.beta[16] "
        "filter1.dynamic_filter.w_re[5x16] filter1.dynamic_filter.w_im[5x16] "
        "filter1.layer_norm.gamma[16] filter1.layer_norm.beta[16] "
        "ffn1.w1.weight[16x16] ffn1.w1.bias[16] ffn1.w2.weight[16x16] "
        "ffn1.w2.bias[16] ffn_norm1.gamma[16] ffn_norm1.beta[16]",
        0x3ac5f015}},
      {"CL4SRec",
       {stem + " " + attention,
        0xd512f3b3}},
      {"ContrastVAE",
       {stem + " " + attention + " " +
        "mu_head.weight[16x16] mu_head.bias[16] logvar_head.weight[16x16] "
        "logvar_head.bias[16]",
        0x94a415ae}},
      {"CoSeRec",
       {stem + " " + attention,
        0xd512f3b3}},
      {"DuoRec",
       {stem + " " + attention,
        0xd512f3b3}},
      {"SLIME4Rec",
       {stem + " " +
        "block0.mixer.dynamic_filter.w_re[5x16] "
        "block0.mixer.dynamic_filter.w_im[5x16] "
        "block0.mixer.static_filter.w_re[5x16] "
        "block0.mixer.static_filter.w_im[5x16] "
        "block0.mixer.layer_norm.gamma[16] block0.mixer.layer_norm.beta[16] "
        "block0.ffn.w1.weight[16x16] block0.ffn.w1.bias[16] "
        "block0.ffn.w2.weight[16x16] block0.ffn.w2.bias[16] "
        "block0.layer_norm.gamma[16] block0.layer_norm.beta[16] "
        "block1.mixer.dynamic_filter.w_re[5x16] "
        "block1.mixer.dynamic_filter.w_im[5x16] "
        "block1.mixer.static_filter.w_re[5x16] "
        "block1.mixer.static_filter.w_im[5x16] "
        "block1.mixer.layer_norm.gamma[16] block1.mixer.layer_norm.beta[16] "
        "block1.ffn.w1.weight[16x16] block1.ffn.w1.bias[16] "
        "block1.ffn.w2.weight[16x16] block1.ffn.w2.bias[16] "
        "block1.layer_norm.gamma[16] block1.layer_norm.beta[16]",
        0x17f12cc8}},
      {"MostPop",
       {"",
        0x00000000}},
  };
  std::vector<std::string> names = AllModelNames();
  names.push_back("MostPop");
  for (const std::string& name : names) {
    auto model = CreateModel(name, SmallConfig());
    const auto it = pins.find(name);
    ASSERT_NE(it, pins.end()) << name << " " << LayoutOf(*model) << " 0x"
                              << std::hex << InitCrcOf(*model);
    EXPECT_EQ(LayoutOf(*model), it->second.layout) << name;
    EXPECT_EQ(InitCrcOf(*model), it->second.init_crc) << name;
  }
}

/// `rows` histories of 1-11 items (truncated to N = 8), users cycling over
/// SmallConfig's 10.
data::Batch BatchOfRows(int64_t rows) {
  data::Batch b;
  b.size = rows;
  b.max_len = 8;
  for (int64_t u = 0; u < rows; ++u) {
    std::vector<int64_t> raw;
    for (int64_t j = 0; j < 1 + u % 11; ++j) {
      raw.push_back(1 + (u * 5 + j * 7) % 20);
    }
    const auto padded = data::PadTruncate(raw, 8);
    b.input_ids.insert(b.input_ids.end(), padded.begin(), padded.end());
    b.user_ids.push_back(u % 10);
    b.targets.push_back(1 + u % 20);
    b.raw_prefixes.push_back(std::move(raw));
  }
  return b;
}

struct ScalarBackendGuard {
  ~ScalarBackendGuard() { compute::SetKernelBackend("scalar").value(); }
};

// Every model's training loss, its parameter gradients and its scores over
// more than one scoring group, as bits, on each kernel tier. A refactor of
// the shared prediction head or objective must leave all three unchanged.
TEST(ZooBitsTest, LossGradientsAndGroupedScoresArePinned) {
  struct Pin {
    uint32_t loss_bits;
    uint32_t grad_crc;
    uint32_t score_crc;
  };
  const std::map<std::string, std::map<std::string, Pin>> pins = {
      {"scalar",
       {{"BPR-MF", {0x3f314a79, 0x2310b305, 0xdeb199cc}},
        {"GRU4Rec", {0x4042d8a9, 0x77e957e7, 0x13dba975}},
        {"Caser", {0x4042e952, 0x1d02a3db, 0x652adb53}},
        {"SASRec", {0x403ec03d, 0x0d512714, 0x9be685af}},
        {"BERT4Rec", {0x404630ce, 0x839bcb6d, 0xb0f7dfa7}},
        {"FMLP-Rec", {0x4040bc14, 0x6227b680, 0x22316479}},
        {"CL4SRec", {0x4048ec31, 0x68f2d473, 0x9be685af}},
        {"ContrastVAE", {0x4047f26b, 0xe72b3a5f, 0x1938cb61}},
        {"CoSeRec", {0x40491868, 0x95a9f56a, 0x9be685af}},
        {"DuoRec", {0x40491927, 0x76b6b261, 0x9be685af}},
        {"SLIME4Rec", {0x4045f281, 0x511c5b80, 0x7ebe3eb6}},
        {"MostPop", {0x00000000, 0x00000000, 0x2c83ee25}}}},
      {"simd",
       {{"BPR-MF", {0x3f314a79, 0x2310b305, 0x24435131}},
        {"GRU4Rec", {0x4042d8a9, 0x1d45910c, 0x7c8515d2}},
        {"Caser", {0x4042e952, 0x7c0f7081, 0x5b27ebf7}},
        {"SASRec", {0x403ec03d, 0x830a2aee, 0x67ce7529}},
        {"BERT4Rec", {0x404630ce, 0x94caed36, 0x8508c2ba}},
        {"FMLP-Rec", {0x4040bc14, 0x665f74ac, 0xc91fbe7a}},
        {"CL4SRec", {0x4048ec31, 0x22356f43, 0x67ce7529}},
        {"ContrastVAE", {0x4047f26b, 0x2fc14373, 0xa7260e37}},
        {"CoSeRec", {0x40491868, 0xfdae8a48, 0x67ce7529}},
        {"DuoRec", {0x40491927, 0xbcd9c205, 0x67ce7529}},
        {"SLIME4Rec", {0x4045f281, 0xaffd4488, 0x7d537a30}},
        {"MostPop", {0x00000000, 0x00000000, 0x2c83ee25}}}},
  };
  ScalarBackendGuard guard;
  // G = 2^17 / (N * d) = 1024 sequences per group at (N, d) = (8, 16).
  const data::Batch wide = BatchOfRows(1024 + 37);
  std::vector<std::string> names = AllModelNames();
  names.push_back("MostPop");
  for (const std::string& backend : compute::AvailableKernelBackends()) {
    compute::SetKernelBackend(backend).value();
    for (const std::string& name : names) {
      const std::string label = backend + " " + name;
      auto model = CreateModel(name, SmallConfig());
      autograd::Variable loss = model->Loss(SmallBatch());
      if (loss.requires_grad()) loss.Backward();
      uint32_t loss_bits = 0;
      std::memcpy(&loss_bits, loss.value().data(), sizeof(loss_bits));
      uint32_t grad_crc = 0;
      for (const auto& [param_name, param] : model->NamedParameters()) {
        if (!param.has_grad()) continue;
        grad_crc = ExtendCrc32(grad_crc, param.grad().data(),
                               param.grad().numel() * sizeof(float));
      }
      model->SetTraining(false);
      const Tensor scores = model->ScoreAll(wide);
      ASSERT_EQ(scores.shape(), (std::vector<int64_t>{wide.size, 21}))
          << label;
      const uint32_t score_crc =
          Crc32(scores.data(), scores.numel() * sizeof(float));
      const Pin& pin = pins.at(backend).at(name);
      EXPECT_EQ(loss_bits, pin.loss_bits) << label;
      EXPECT_EQ(grad_crc, pin.grad_crc) << label;
      EXPECT_EQ(score_crc, pin.score_crc) << label;
    }
  }
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
