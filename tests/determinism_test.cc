// End-to-end determinism of the parallel compute layer: training losses,
// learned parameters, recommendations, and gradcheck must be bit-identical
// at every thread count (the work split is fixed; see compute/thread_pool.h).

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "compute/backend.h"
#include "compute/thread_pool.h"
#include "core/slime4rec.h"
#include "data/batcher.h"
#include "data/synthetic.h"
#include "fft/spectral_ops.h"
#include "metrics/ranking.h"
#include "models/model_factory.h"
#include "observability/metrics.h"
#include "observability/telemetry.h"
#include "serving/recommendation_service.h"
#include "train/trainer.h"

namespace slime {
namespace {

data::SplitDataset TinySplit() {
  data::SyntheticConfig config;
  config.name = "determinism-tiny";
  config.num_users = 80;
  config.num_items = 30;
  config.num_categories = 3;
  config.num_clusters = 3;
  config.min_len = 6;
  config.max_len = 12;
  config.noise_prob = 0.05;
  config.seed = 99;
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
  c.seed = 7;
  return c;
}

/// Everything observable from a short training + serving run.
struct RunOutputs {
  double final_loss = 0.0;
  std::vector<std::vector<float>> params;
  std::vector<std::vector<int64_t>> rec_items;
  std::vector<std::vector<float>> rec_scores;
  std::vector<double> epoch_losses;  // only with metrics enabled
};

RunOutputs TrainAndServe(int threads, bool with_metrics = false) {
  compute::ComputeContext ctx(threads);
  // Metrics instrumentation must be invisible to the numerics: the compute
  // counters and telemetry sink observe the run without perturbing it.
  obs::MetricsRegistry registry;
  obs::TrainingTelemetry telemetry(/*echo=*/false);
  if (with_metrics) compute::SetMetricsRegistry(&registry);
  const data::SplitDataset split = TinySplit();
  auto model = models::CreateModel("SLIME4Rec", TinyModelConfig(split));
  train::TrainConfig t;
  t.max_epochs = 2;
  t.batch_size = 32;
  t.lr = 5e-3f;
  t.patience = 100;
  t.seed = 13;
  if (with_metrics) t.telemetry = &telemetry;
  train::Trainer trainer(t);
  const train::TrainResult result = trainer.Fit(model.get(), split).value();

  RunOutputs out;
  out.final_loss = result.final_train_loss;
  for (const auto& e : telemetry.epochs()) out.epoch_losses.push_back(e.loss);
  for (const auto& p : model->Parameters()) {
    out.params.push_back(p.value().ToVector());
  }
  model->SetTraining(false);
  serving::RecommendationService service(model.get());
  serving::RecommendOptions options;
  options.top_k = 10;
  const std::vector<std::vector<int64_t>> histories = {
      {1, 2, 3}, {4, 5, 6, 7, 8}, {9, 10}, {11, 12, 13, 14}};
  const auto recs = service.RecommendBatch(histories, options).value();
  for (const auto& user : recs) {
    std::vector<int64_t> items;
    std::vector<float> scores;
    for (const auto& r : user) {
      items.push_back(r.item);
      scores.push_back(r.score);
    }
    out.rec_items.push_back(std::move(items));
    out.rec_scores.push_back(std::move(scores));
  }
  // Detach before the local registry dies.
  if (with_metrics) compute::SetMetricsRegistry(nullptr);
  return out;
}

void ExpectBitIdentical(const RunOutputs& ref, const RunOutputs& got,
                        const std::string& label) {
  EXPECT_EQ(ref.final_loss, got.final_loss) << label;
  ASSERT_EQ(ref.params.size(), got.params.size());
  for (size_t i = 0; i < ref.params.size(); ++i) {
    ASSERT_EQ(ref.params[i].size(), got.params[i].size());
    EXPECT_EQ(std::memcmp(ref.params[i].data(), got.params[i].data(),
                          ref.params[i].size() * sizeof(float)),
              0)
        << "param " << i << " differs: " << label;
  }
  EXPECT_EQ(ref.rec_items, got.rec_items) << label;
  ASSERT_EQ(ref.rec_scores.size(), got.rec_scores.size());
  for (size_t u = 0; u < ref.rec_scores.size(); ++u) {
    EXPECT_EQ(std::memcmp(ref.rec_scores[u].data(), got.rec_scores[u].data(),
                          ref.rec_scores[u].size() * sizeof(float)),
              0)
        << "scores for user " << u << " differ: " << label;
  }
}

TEST(DeterminismTest, TrainAndServeBitIdenticalAcrossThreadCounts) {
  const RunOutputs ref = TrainAndServe(1);
  ASSERT_FALSE(ref.params.empty());
  for (int threads : {2, 8}) {
    // Scalar loss: exact double equality, not a tolerance (inside the
    // helper).
    ExpectBitIdentical(ref, TrainAndServe(threads),
                       "threads=" + std::to_string(threads));
  }
}

TEST(DeterminismTest, MetricsInstrumentationIsBitInvisible) {
  // The observability layer must not perturb the numerics: runs with the
  // compute registry + telemetry sink attached are bit-identical to the
  // un-instrumented baseline at every thread count, and the telemetry's
  // own per-epoch losses agree exactly across thread counts.
  const RunOutputs ref = TrainAndServe(1, /*with_metrics=*/false);
  RunOutputs first_instrumented;
  for (int threads : {1, 2, 8}) {
    RunOutputs got = TrainAndServe(threads, /*with_metrics=*/true);
    ExpectBitIdentical(
        ref, got, "metrics on, threads=" + std::to_string(threads));
    ASSERT_EQ(got.epoch_losses.size(), 2u);
    if (threads == 1) {
      first_instrumented = got;
    } else {
      EXPECT_EQ(first_instrumented.epoch_losses, got.epoch_losses)
          << "telemetry loss stream differs at threads=" << threads;
    }
  }
}

TEST(DeterminismTest, GradcheckPassesWithPoolActive) {
  compute::ComputeContext ctx(4);
  using autograd::Param;
  using autograd::Sum;
  using autograd::Variable;
  Rng rng(17);
  // The filter op on its broadcast path (B,M,d) * (M,d): two windowed
  // filters mixed, as the DFS+SFS layer runs it.
  std::vector<Variable> in = {Param(Tensor::Randn({2, 4, 3}, &rng, 0.5f)),
                              Param(Tensor::Randn({2, 4, 3}, &rng, 0.5f))};
  for (int i = 0; i < 4; ++i) {
    in.push_back(Param(Tensor::Randn({4, 3}, &rng, 0.5f)));
  }
  const Tensor dynamic_window = Tensor::FromVector({4, 1}, {0, 1, 1, 1});
  const Tensor static_window = Tensor::FromVector({4, 1}, {1, 1, 0, 0});
  const auto result = autograd::CheckGradients(
      [&](const std::vector<Variable>& in) {
        const fft::SpectralPair y = fft::FilterMix(
            {in[0], in[1]}, {{{in[2], in[3]}, dynamic_window, 0.5f},
                             {{in[4], in[5]}, static_window, 0.5f}});
        Rng wrng(5);
        Tensor w1 = Tensor::Randn({2, 4, 3}, &wrng);
        Tensor w2 = Tensor::Randn({2, 4, 3}, &wrng);
        return autograd::Add(Sum(autograd::MulConst(y.re, w1)),
                             Sum(autograd::MulConst(y.im, w2)));
      },
      in);
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(DeterminismTest, GradcheckLayerNormWithPoolActive) {
  compute::ComputeContext ctx(4);
  using autograd::Param;
  using autograd::Sum;
  using autograd::Variable;
  Rng rng(23);
  Variable x = Param(Tensor::Randn({3, 5}, &rng));
  Variable gamma = Param(Tensor::Ones({5}));
  Variable beta = Param(Tensor::Zeros({5}));
  const auto result = autograd::CheckGradients(
      [](const std::vector<Variable>& in) {
        Variable y = autograd::LayerNorm(in[0], in[1], in[2], 1e-5f);
        return Sum(autograd::Mul(y, y));
      },
      {x, gamma, beta});
  EXPECT_TRUE(result.ok) << result.message;
}

// ---- Kernel-backend determinism: bit-identity is a *within-backend*
// contract (each tier at any thread count); across tiers FMA contraction
// shifts the last ulp, so equivalence is gated by gradcheck and top-K
// ranking agreement instead (see docs/KERNELS.md).

/// Restores the default scalar backend when a test body returns.
struct BackendGuard {
  ~BackendGuard() { compute::SetKernelBackend("scalar").value(); }
};

bool SimdAvailable() {
  return compute::SimdBackendCompiled() && compute::CpuSupportsAvx2Fma();
}

TEST(BackendDeterminismTest, EachBackendBitIdenticalAcrossThreadCounts) {
  BackendGuard guard;
  for (const auto& backend : compute::AvailableKernelBackends()) {
    compute::SetKernelBackend(backend).value();
    const RunOutputs ref = TrainAndServe(1);
    ASSERT_FALSE(ref.params.empty());
    for (int threads : {2, 8}) {
      compute::SetKernelBackend(backend).value();
      ExpectBitIdentical(
          ref, TrainAndServe(threads),
          backend + " threads=" + std::to_string(threads));
    }
  }
}

TEST(BackendDeterminismTest, CrossBackendRankingAgreement) {
  if (!SimdAvailable()) GTEST_SKIP() << "simd backend unavailable";
  BackendGuard guard;
  // Same training + serving run under each tier. Losses and scores drift
  // by ulps, but the served rankings must agree almost everywhere.
  compute::SetKernelBackend("scalar").value();
  const RunOutputs scalar_run = TrainAndServe(4);
  compute::SetKernelBackend("simd").value();
  const RunOutputs simd_run = TrainAndServe(4);
  ASSERT_EQ(scalar_run.rec_items.size(), simd_run.rec_items.size());
  int64_t overlap = 0, total = 0;
  for (size_t u = 0; u < scalar_run.rec_items.size(); ++u) {
    for (const int64_t item : scalar_run.rec_items[u]) {
      ++total;
      for (const int64_t other : simd_run.rec_items[u]) {
        if (item == other) {
          ++overlap;
          break;
        }
      }
    }
  }
  ASSERT_GT(total, 0);
  EXPECT_GE(double(overlap) / double(total), 0.8)
      << "top-K overlap " << overlap << "/" << total;
  // The loss trajectories should be close in value even though they are
  // not bit-identical.
  EXPECT_NEAR(scalar_run.final_loss, simd_run.final_loss,
              1e-3 * (1.0 + std::abs(scalar_run.final_loss)));
}

TEST(BackendDeterminismTest, GradcheckPassesUnderSimdBackend) {
  if (!SimdAvailable()) GTEST_SKIP() << "simd backend unavailable";
  BackendGuard guard;
  compute::SetKernelBackend("simd").value();
  compute::ComputeContext ctx(4);
  using autograd::Param;
  using autograd::Sum;
  using autograd::Variable;
  Rng rng(29);
  // MatMul + GELU + LayerNorm chain: exercises the SIMD matmul family in
  // both forward and backward passes.
  Variable a = Param(Tensor::Randn({4, 6}, &rng, 0.5f));
  Variable b = Param(Tensor::Randn({6, 5}, &rng, 0.5f));
  Variable gamma = Param(Tensor::Ones({5}));
  Variable beta = Param(Tensor::Zeros({5}));
  const auto result = autograd::CheckGradients(
      [](const std::vector<Variable>& in) {
        Variable y = autograd::MatMul(in[0], in[1]);
        y = autograd::Gelu(y);
        y = autograd::LayerNorm(y, in[2], in[3], 1e-5f);
        return Sum(autograd::Mul(y, y));
      },
      {a, b, gamma, beta});
  EXPECT_TRUE(result.ok) << result.message;
}

// ---- Tape-free inference: serving and evaluation score inside
// autograd::NoGradScope, which changes no kernel and no operation order, so
// they must equal a graph-building ScoreAll exactly, under each backend at
// every thread count.

/// An eval batch of `histories`, left-padded to `n`.
data::Batch BatchOf(const std::vector<std::vector<int64_t>>& histories,
                    int64_t n) {
  data::Batch batch;
  batch.size = static_cast<int64_t>(histories.size());
  batch.max_len = n;
  for (const auto& h : histories) {
    batch.user_ids.push_back(0);
    batch.targets.push_back(1);
    batch.raw_prefixes.push_back(h);
    const std::vector<int64_t> padded = data::PadTruncate(h, n);
    batch.input_ids.insert(batch.input_ids.end(), padded.begin(),
                           padded.end());
  }
  return batch;
}

// Under NoGradScope the encoders also free activations at last use, reuse
// fresh buffers (Linear's bias add, FeedForward's GELU) and filter the
// spectrum in place, so the whole score tensor, not only the top-K, must
// equal graph-mode ScoreAll bit for bit: for every model of the factory
// and every filter-mixer variant.
TEST(NoGradDeterminismTest, ScoreTensorsEqualGraphModeForEveryModel) {
  BackendGuard guard;
  const data::SplitDataset split = TinySplit();
  struct Case {
    std::string label;
    std::string model;
    models::ModelConfig config;
    core::FilterMixerOptions mixer;
  };
  std::vector<Case> cases;
  for (const std::string& name : models::AllModelNames()) {
    cases.push_back({name, name, TinyModelConfig(split), {}});
  }
  // SLIME4Rec variants on (M, d) = (26, 13) planes: 60 users span 20,280
  // spectrum elements, so work-chunk edges fall inside batch items.
  models::ModelConfig wide = TinyModelConfig(split);
  wide.max_len = 50;
  wide.hidden_dim = 13;
  core::FilterMixerOptions dfs_only;
  dfs_only.use_static = false;
  core::FilterMixerOptions sfs_only;
  sfs_only.use_dynamic = false;
  // Windows over all M bins, which the layer leaves unmasked: DFS only at
  // alpha = 1, and both filters at alpha = 1 with L = 1.
  core::FilterMixerOptions global = dfs_only;
  global.alpha = 1.0;
  core::FilterMixerOptions full;
  full.alpha = 1.0;
  models::ModelConfig one_layer = wide;
  one_layer.num_layers = 1;
  cases.push_back({"SLIME4Rec dfs+sfs", "SLIME4Rec", wide, {}});
  cases.push_back({"SLIME4Rec dfs-only", "SLIME4Rec", wide, dfs_only});
  cases.push_back({"SLIME4Rec sfs-only", "SLIME4Rec", wide, sfs_only});
  cases.push_back({"SLIME4Rec dfs-only alpha=1", "SLIME4Rec", wide, global});
  cases.push_back(
      {"SLIME4Rec dfs+sfs alpha=1 L=1", "SLIME4Rec", one_layer, full});
  std::vector<std::vector<int64_t>> histories;
  for (int64_t u = 0; u < 60; ++u) {
    std::vector<int64_t> h;
    for (int64_t j = 0; j < 1 + u % 11; ++j) {
      h.push_back(1 + (u * 5 + j * 7) % (split.num_items() - 1));
    }
    histories.push_back(std::move(h));
  }
  for (const auto& backend : compute::AvailableKernelBackends()) {
    compute::SetKernelBackend(backend).value();
    for (int threads : {1, 2, 8}) {
      compute::ComputeContext ctx(threads);
      for (const Case& c : cases) {
        const std::string label =
            backend + " threads=" + std::to_string(threads) + " " + c.label;
        auto model = models::CreateModel(c.model, c.config, c.mixer);
        model->SetTraining(false);
        const data::Batch batch = BatchOf(histories, c.config.max_len);
        const Tensor graph = model->ScoreAll(batch);
        autograd::NoGradScope no_grad;
        const Tensor lean = model->ScoreAll(batch);
        ASSERT_EQ(lean.shape(), graph.shape()) << label;
        EXPECT_EQ(std::memcmp(lean.data(), graph.data(),
                              graph.numel() * sizeof(float)),
                  0)
            << label;
      }
    }
  }
}

// The shared ScoreAll runs a model's user vector over groups of
// ScoreGroupSize() sequences, and in eval mode SLIME4Rec computes only
// position N-1 after the final irFFT. Neither may move a bit: at batch sizes
// on either side of one and two group boundaries, graph-mode and no-grad
// ScoreAll at 1/2/8 threads must equal a single whole-batch pass built in
// graph mode (taken at 1 thread; that pass is itself thread-count
// invariant). `whole_pass` scores a batch in one pass.
void ExpectGroupsEqualWholePass(
    models::NextItemRecommender* model, const std::string& case_label,
    const std::function<Tensor(const data::Batch&)>& whole_pass) {
  const int64_t n = model->config().max_len;
  const int64_t num_items = model->config().num_items;
  const int64_t num_users = model->config().num_users;
  model->SetTraining(false);
  const int64_t g = model->ScoreGroupSize();
  std::vector<std::vector<int64_t>> histories;
  for (int64_t u = 0; u < 2 * g + 3; ++u) {
    std::vector<int64_t> h;
    for (int64_t j = 0; j < 1 + u % 11; ++j) {
      h.push_back(1 + (u * 5 + j * 7) % (num_items - 1));
    }
    histories.push_back(std::move(h));
  }
  std::vector<data::Batch> batches;
  std::vector<Tensor> wholes;
  for (const int64_t b : {int64_t{1}, g - 1, g, g + 1, 2 * g + 3}) {
    if (b < 1) continue;
    data::Batch batch = BatchOf({histories.begin(), histories.begin() + b}, n);
    for (int64_t u = 0; u < b; ++u) batch.user_ids[u] = u % num_users;
    batches.push_back(std::move(batch));
    compute::ComputeContext ctx(1);
    wholes.push_back(whole_pass(batches.back()));
  }
  for (int threads : {1, 2, 8}) {
    compute::ComputeContext ctx(threads);
    for (size_t i = 0; i < batches.size(); ++i) {
      const std::string label =
          compute::ActiveKernelBackend() + " threads=" +
          std::to_string(threads) + " " + case_label +
          " N=" + std::to_string(n) + " G=" + std::to_string(g) +
          " B=" + std::to_string(batches[i].size);
      const Tensor& whole = wholes[i];
      const Tensor graph = model->ScoreAll(batches[i]);
      Tensor lean;
      {
        autograd::NoGradScope no_grad;
        lean = model->ScoreAll(batches[i]);
      }
      ASSERT_EQ(graph.shape(), whole.shape()) << label;
      ASSERT_EQ(lean.shape(), whole.shape()) << label;
      EXPECT_EQ(std::memcmp(graph.data(), whole.data(),
                            whole.numel() * sizeof(float)),
                0)
          << "graph " << label;
      EXPECT_EQ(std::memcmp(lean.data(), whole.data(),
                            whole.numel() * sizeof(float)),
                0)
          << "no-grad " << label;
    }
  }
}

TEST(NoGradDeterminismTest, ScoreAllGroupsEqualOneWholeBatchPass) {
  BackendGuard guard;
  const data::SplitDataset split = TinySplit();
  struct Case {
    std::string label;
    int64_t n;
    int64_t d;
    core::FilterMixerOptions mixer;
    int64_t num_layers = 2;
  };
  core::FilterMixerOptions dfs_only;
  dfs_only.use_static = false;
  core::FilterMixerOptions sfs_only;
  sfs_only.use_dynamic = false;
  // Windows over all M bins, which the layer leaves unmasked.
  core::FilterMixerOptions global = dfs_only;
  global.alpha = 1.0;
  core::FilterMixerOptions full;
  full.alpha = 1.0;
  // (N, d) = (50, 13) puts work-chunk edges inside batch items; (200, 64)
  // is the long-sequence serving shape.
  const std::vector<Case> cases = {{"dfs+sfs", 50, 13, {}},
                                   {"dfs-only", 50, 13, dfs_only},
                                   {"sfs-only", 50, 13, sfs_only},
                                   {"dfs-only alpha=1", 50, 13, global},
                                   {"dfs+sfs alpha=1 L=1", 50, 13, full, 1},
                                   {"dfs+sfs", 200, 64, {}}};
  // Every other sequence model at TinyModelConfig's (N, d) = (8, 16).
  const models::ModelConfig zoo = TinyModelConfig(split);
  for (const auto& backend : compute::AvailableKernelBackends()) {
    compute::SetKernelBackend(backend).value();
    for (const Case& c : cases) {
      core::Slime4RecConfig config;
      static_cast<models::ModelConfig&>(config) = TinyModelConfig(split);
      config.max_len = c.n;
      config.hidden_dim = c.d;
      config.num_layers = c.num_layers;
      config.mixer = c.mixer;
      core::Slime4Rec model(config);
      // The reference encodes all positions; eval-mode EncodeLast does not.
      ExpectGroupsEqualWholePass(
          &model, "SLIME4Rec " + c.label, [&](const data::Batch& b) {
            return model
                .PredictLogits(autograd::Reshape(
                    autograd::Slice(model.Encode(b.input_ids, b.size), 1,
                                    c.n - 1, c.n),
                    {b.size, c.d}))
                .value();
          });
    }
    for (const std::string name :
         {"GRU4Rec", "Caser", "SASRec", "BERT4Rec", "FMLP-Rec", "CL4SRec",
          "ContrastVAE", "CoSeRec", "DuoRec"}) {
      auto owned = models::CreateModel(name, zoo);
      auto* model = dynamic_cast<models::NextItemRecommender*>(owned.get());
      ASSERT_NE(model, nullptr) << name;
      ExpectGroupsEqualWholePass(model, name, [&](const data::Batch& b) {
        // BERT4Rec scores through its own [MASK] pass, one pass already.
        if (name == "BERT4Rec") return model->ScoreAll(b);
        return model->PredictLogits(model->UserVector(b)).value();
      });
    }
  }
}

TEST(NoGradDeterminismTest, ServedRankingsEqualGraphBuildingScoreAll) {
  BackendGuard guard;
  const data::SplitDataset split = TinySplit();
  const std::vector<std::vector<int64_t>> histories = {
      {1, 2, 3}, {4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, {9}, {11, 12, 13, 14}};
  serving::RecommendOptions options;
  options.top_k = 10;
  for (const auto& backend : compute::AvailableKernelBackends()) {
    compute::SetKernelBackend(backend).value();
    for (int threads : {1, 2, 8}) {
      compute::ComputeContext ctx(threads);
      const std::string label = backend + " threads=" + std::to_string(threads);
      auto model = models::CreateModel("SLIME4Rec", TinyModelConfig(split));
      model->SetTraining(false);
      const auto served = serving::RecommendationService(model.get())
                              .RecommendBatch(histories, options)
                              .value();
      // Twin: the same batch scored outside any scope, graph and all.
      const int64_t num_items = model->config().num_items;
      const Tensor scores =
          model->ScoreAll(BatchOf(histories, model->config().max_len));
      ASSERT_EQ(served.size(), histories.size());
      for (size_t u = 0; u < histories.size(); ++u) {
        std::vector<bool> excluded(num_items + 1, false);
        for (int64_t item : histories[u]) excluded[item] = true;
        const auto twin = serving::TopKFromScores(
            scores.data() + u * (num_items + 1), num_items, options.top_k,
            excluded);
        ASSERT_EQ(served[u].size(), twin.size()) << label;
        for (size_t i = 0; i < twin.size(); ++i) {
          EXPECT_EQ(served[u][i].item, twin[i].item) << label << " u=" << u;
          EXPECT_EQ(served[u][i].score, twin[i].score) << label << " u=" << u;
        }
      }
    }
  }
}

TEST(NoGradDeterminismTest, EvaluateEqualsGraphBuildingLoop) {
  BackendGuard guard;
  const data::SplitDataset split = TinySplit();
  for (const auto& backend : compute::AvailableKernelBackends()) {
    compute::SetKernelBackend(backend).value();
    for (int threads : {1, 2, 8}) {
      compute::ComputeContext ctx(threads);
      const std::string label = backend + " threads=" + std::to_string(threads);
      auto model = models::CreateModel("SLIME4Rec", TinyModelConfig(split));
      for (const bool test : {false, true}) {
        const metrics::RankingMetrics got =
            train::Evaluate(model.get(), split, test, /*batch_size=*/32);
        model->SetTraining(false);
        metrics::RankingAccumulator acc;
        for (const data::Batch& batch : data::MakeEvalBatches(
                 split, test, /*batch_size=*/32, model->config().max_len)) {
          acc.Add(model->ScoreAll(batch), batch.targets);
        }
        const metrics::RankingMetrics want = metrics::RankingMetrics::From(acc);
        EXPECT_EQ(got.hr5, want.hr5) << label;
        EXPECT_EQ(got.hr10, want.hr10) << label;
        EXPECT_EQ(got.ndcg5, want.ndcg5) << label;
        EXPECT_EQ(got.ndcg10, want.ndcg10) << label;
        EXPECT_EQ(got.mrr, want.mrr) << label;
      }
    }
  }
}

}  // namespace
}  // namespace slime
