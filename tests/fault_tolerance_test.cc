// Fault-tolerance integration tests: crash-safe saves under injected I/O
// faults, kill-and-resume bit-for-bit equivalence, and divergence rollback.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/slime4rec.h"
#include "data/synthetic.h"
#include "io/env.h"
#include "models/model_factory.h"
#include "observability/telemetry.h"
#include "train/train_state.h"
#include "train/trainer.h"

namespace slime {
namespace {

using io::Env;
using io::FaultInjectionEnv;
using io::InjectedCrash;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

core::Slime4RecConfig SmallModelConfig(uint64_t seed) {
  core::Slime4RecConfig c;
  c.num_items = 15;
  c.num_users = 5;
  c.max_len = 8;
  c.hidden_dim = 8;
  c.num_layers = 2;
  c.mixer.alpha = 0.5;
  c.seed = seed;
  return c;
}

bool ParamsEqual(const nn::Module& a, const nn::Module& b) {
  const auto pa = a.NamedParameters();
  const auto pb = b.NamedParameters();
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    if (pa[i].first != pb[i].first) return false;
    const Tensor& ta = pa[i].second.value();
    const Tensor& tb = pb[i].second.value();
    if (ta.shape() != tb.shape() ||
        std::memcmp(ta.data(), tb.data(),
                    static_cast<size_t>(ta.numel()) * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// --- Injected save faults -------------------------------------------------

class SaveFaultTest
    : public ::testing::TestWithParam<FaultInjectionEnv::Fault> {};

// Every injected fault must surface as a non-OK Status with a descriptive
// message, and the previous checkpoint at the destination must survive.
TEST_P(SaveFaultTest, FailedSavePreservesPreviousCheckpoint) {
  const std::string path = TempPath("ft_save_fault.bin");
  FaultInjectionEnv env;
  core::Slime4Rec good(SmallModelConfig(3));
  ASSERT_TRUE(models::SaveCheckpoint(good, path, &env).ok());

  core::Slime4Rec other(SmallModelConfig(99));  // different weights
  ASSERT_FALSE(ParamsEqual(good, other));
  env.ArmFault(GetParam());
  const Status st = models::SaveCheckpoint(other, path, &env);
  ASSERT_FALSE(st.ok()) << "fault was swallowed";
  EXPECT_FALSE(st.message().empty());

  // The destination still holds the previous good checkpoint.
  core::Slime4Rec reloaded(SmallModelConfig(7));
  ASSERT_TRUE(models::LoadCheckpoint(&reloaded, path, &env).ok());
  EXPECT_TRUE(ParamsEqual(good, reloaded));

  // With the fault disarmed the same save succeeds.
  ASSERT_TRUE(models::SaveCheckpoint(other, path, &env).ok());
  core::Slime4Rec reloaded2(SmallModelConfig(7));
  ASSERT_TRUE(models::LoadCheckpoint(&reloaded2, path, &env).ok());
  EXPECT_TRUE(ParamsEqual(other, reloaded2));
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllFaults, SaveFaultTest,
    ::testing::Values(FaultInjectionEnv::Fault::kFailWrite,
                      FaultInjectionEnv::Fault::kShortWrite,
                      FaultInjectionEnv::Fault::kCorruptAfterWrite,
                      FaultInjectionEnv::Fault::kFailRename));

TEST(SaveFaultMessageTest, ShortWriteIsDetectedNotSilent) {
  // kShortWrite reports success from WriteFile; only the save path's
  // read-back verification can catch it.
  const std::string path = TempPath("ft_short_write.bin");
  FaultInjectionEnv env;
  core::Slime4Rec model(SmallModelConfig(3));
  env.ArmFault(FaultInjectionEnv::Fault::kShortWrite);
  const Status st = models::SaveCheckpoint(model, path, &env);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("short write"), std::string::npos)
      << st.message();
  EXPECT_FALSE(env.FileExists(path));  // nothing was renamed into place
  std::remove(path.c_str());
}

TEST(SaveFaultMessageTest, PostWriteCorruptionIsDetected) {
  const std::string path = TempPath("ft_bitrot.bin");
  FaultInjectionEnv env;
  core::Slime4Rec model(SmallModelConfig(3));
  env.ArmFault(FaultInjectionEnv::Fault::kCorruptAfterWrite);
  const Status st = models::SaveCheckpoint(model, path, &env);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
  EXPECT_NE(st.message().find("corruption"), std::string::npos)
      << st.message();
  std::remove(path.c_str());
}

TEST(SaveFaultMessageTest, CrashDuringWriteLeavesNoDestination) {
  const std::string path = TempPath("ft_crash_write.bin");
  FaultInjectionEnv env;
  core::Slime4Rec model(SmallModelConfig(3));
  env.ArmFault(FaultInjectionEnv::Fault::kCrashDuringWrite);
  EXPECT_THROW(models::SaveCheckpoint(model, path, &env), InjectedCrash);
  // The "process" died mid-write: only a partial temp file may exist; the
  // destination was never created, so a restart sees no checkpoint rather
  // than a corrupt one.
  EXPECT_FALSE(env.FileExists(path));
  std::remove((path + ".tmp").c_str());
}

// --- TrainState snapshot format -------------------------------------------

train::TrainState MakeState() {
  train::TrainState s;
  s.epoch = 3;
  s.base_lr = 0.0025f;
  s.rollbacks = 1;
  s.best_valid = 0.4375;
  s.best_epoch = 2;
  s.since_best = 1;
  s.final_train_loss = 1.625;
  s.best_metrics.hr10 = 0.5;
  s.best_metrics.ndcg10 = 0.4375;
  Rng rng(123);
  rng.Gaussian();  // populate the cached-gaussian half of the state
  s.batch_rng = rng.state();
  s.model_rng = Rng(77).state();
  s.batch_order = {2, 0, 3, 1};
  s.params.emplace_back("w", Tensor::FromVector({2, 2}, {1, 2, 3, 4}));
  s.params.emplace_back("b", Tensor::FromVector({2}, {-1, 0.5}));
  s.adam_step = 42;
  s.adam_m = {Tensor::FromVector({2, 2}, {0, 1, 0, 1}),
              Tensor::FromVector({2}, {2, 2})};
  s.adam_v = {Tensor::FromVector({2, 2}, {1, 1, 1, 1}),
              Tensor::FromVector({2}, {3, 3})};
  s.best_params = {Tensor::FromVector({2, 2}, {9, 8, 7, 6}),
                   Tensor::FromVector({2}, {5, 4})};
  return s;
}

TEST(TrainStateTest, RoundTripPreservesEveryField) {
  const std::string path = TempPath("ft_state_roundtrip.slt");
  const train::TrainState s = MakeState();
  ASSERT_TRUE(train::SaveTrainState(s, path).ok());
  Result<train::TrainState> loaded = train::LoadTrainState(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const train::TrainState& t = loaded.value();
  EXPECT_EQ(t.epoch, s.epoch);
  EXPECT_EQ(t.base_lr, s.base_lr);
  EXPECT_EQ(t.rollbacks, s.rollbacks);
  EXPECT_EQ(t.best_valid, s.best_valid);
  EXPECT_EQ(t.best_epoch, s.best_epoch);
  EXPECT_EQ(t.since_best, s.since_best);
  EXPECT_EQ(t.final_train_loss, s.final_train_loss);
  EXPECT_EQ(t.best_metrics.ndcg10, s.best_metrics.ndcg10);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(t.batch_rng.s[i], s.batch_rng.s[i]);
  EXPECT_EQ(t.batch_rng.have_cached_gaussian, s.batch_rng.have_cached_gaussian);
  EXPECT_EQ(t.batch_rng.cached_gaussian, s.batch_rng.cached_gaussian);
  EXPECT_EQ(t.batch_order, s.batch_order);
  ASSERT_EQ(t.params.size(), s.params.size());
  EXPECT_EQ(t.params[0].first, "w");
  EXPECT_EQ(t.params[1].second[1], 0.5f);
  EXPECT_EQ(t.adam_step, s.adam_step);
  ASSERT_EQ(t.adam_m.size(), 2u);
  ASSERT_EQ(t.best_params.size(), 2u);
  EXPECT_EQ(t.best_params[0][0], 9.0f);
  // Restored RNG streams continue identically.
  Rng a(1);
  Rng b(1);
  a.set_state(t.batch_rng);
  b.set_state(s.batch_rng);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
    EXPECT_EQ(a.Gaussian(), b.Gaussian());
  }
  std::remove(path.c_str());
}

TEST(TrainStateTest, NeverSteppedStateRoundTripsWithoutMoments) {
  const std::string path = TempPath("ft_state_fresh.slt");
  train::TrainState s = MakeState();
  s.adam_step = 0;
  s.adam_m.clear();
  s.adam_v.clear();
  ASSERT_TRUE(train::SaveTrainState(s, path).ok());
  Result<train::TrainState> loaded = train::LoadTrainState(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const train::TrainState& t = loaded.value();
  EXPECT_EQ(t.adam_step, 0);
  EXPECT_TRUE(t.adam_m.empty());
  EXPECT_TRUE(t.adam_v.empty());
  ASSERT_EQ(t.params.size(), s.params.size());
  EXPECT_EQ(t.params[1].second[1], 0.5f);
  ASSERT_EQ(t.best_params.size(), 2u);
  EXPECT_EQ(t.best_params[1][1], 4.0f);
  std::remove(path.c_str());
}

TEST(TrainStateTest, FlippedByteIsCorruption) {
  const std::string path = TempPath("ft_state_flip.slt");
  ASSERT_TRUE(train::SaveTrainState(MakeState(), path).ok());
  Env* env = Env::Default();
  std::string bytes = env->ReadFile(path).value();
  bytes[bytes.size() / 3] ^= 0x10;
  ASSERT_TRUE(env->WriteFile(path, bytes).ok());
  const Result<train::TrainState> r = train::LoadTrainState(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
  std::remove(path.c_str());
}

TEST(TrainStateTest, MissingSnapshotIsIOError) {
  const Result<train::TrainState> r =
      train::LoadTrainState(TempPath("ft_no_such_snapshot.slt"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kIOError);
}

TEST(TrainStateTest, ResolveResumePathMapsDirectoryToSnapshot) {
  EXPECT_EQ(train::ResolveResumePath("/tmp/ckpts"),
            train::SnapshotPath("/tmp/ckpts"));
  const std::string file = TempPath("ft_resolve_file.slt");
  ASSERT_TRUE(train::SaveTrainState(MakeState(), file).ok());
  EXPECT_EQ(train::ResolveResumePath(file), file);
  std::remove(file.c_str());
}

// --- Kill-and-resume ------------------------------------------------------

data::SplitDataset TinySplit() {
  data::SyntheticConfig config;
  config.name = "ft-tiny";
  config.num_users = 100;
  config.num_items = 30;
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
  c.num_layers = 1;
  c.dropout = 0.1f;  // exercises the model RNG stream across resume
  c.emb_dropout = 0.1f;
  c.seed = 5;
  return c;
}

train::TrainConfig FtTrainConfig(int64_t epochs) {
  train::TrainConfig t;
  t.max_epochs = epochs;
  t.batch_size = 64;
  t.lr = 5e-3f;
  t.patience = 100;
  t.seed = 31;
  return t;
}

TEST(KillAndResumeTest, ResumedRunMatchesUninterruptedBitForBit) {
  const data::SplitDataset split = TinySplit();

  // Uninterrupted baseline.
  train::TrainResult baseline;
  {
    auto model = models::CreateModel("FMLP-Rec", TinyModelConfig(split));
    baseline =
        train::Trainer(FtTrainConfig(5)).Fit(model.get(), split).value();
  }

  // The same run, killed by an injected crash while writing a snapshot.
  const std::string dir = ::testing::TempDir();
  const std::string snapshot = train::SnapshotPath(dir);
  std::remove(snapshot.c_str());
  std::remove(train::BestModelPath(dir).c_str());
  FaultInjectionEnv env;
  {
    auto model = models::CreateModel("FMLP-Rec", TinyModelConfig(split));
    train::TrainConfig tc = FtTrainConfig(5);
    tc.checkpoint_dir = dir;
    tc.checkpoint_every = 1;
    tc.env = &env;
    // Epoch 1 writes the snapshot and (having improved) the best-model
    // checkpoint; crash on a later write so at least one epoch is on disk.
    env.ArmFault(FaultInjectionEnv::Fault::kCrashDuringWrite, 4);
    train::Trainer trainer(tc);
    EXPECT_THROW(trainer.Fit(model.get(), split).value(), InjectedCrash);
  }
  ASSERT_TRUE(env.FileExists(snapshot)) << "no completed snapshot survived";
  env.Disarm();

  // Resume in a fresh process: new model object, state comes entirely from
  // the snapshot.
  train::TrainResult resumed;
  {
    auto model = models::CreateModel("FMLP-Rec", TinyModelConfig(split));
    train::TrainConfig tc = FtTrainConfig(5);
    tc.checkpoint_dir = dir;
    tc.env = &env;
    tc.resume_from = dir;
    resumed = train::Trainer(tc).Fit(model.get(), split).value();
  }

  EXPECT_EQ(resumed.best_epoch, baseline.best_epoch);
  EXPECT_EQ(resumed.epochs_run, baseline.epochs_run);
  EXPECT_DOUBLE_EQ(resumed.final_train_loss, baseline.final_train_loss);
  EXPECT_DOUBLE_EQ(resumed.valid.ndcg10, baseline.valid.ndcg10);
  EXPECT_DOUBLE_EQ(resumed.valid.hr10, baseline.valid.hr10);
  EXPECT_DOUBLE_EQ(resumed.test.ndcg10, baseline.test.ndcg10);
  EXPECT_DOUBLE_EQ(resumed.test.hr5, baseline.test.hr5);
  EXPECT_DOUBLE_EQ(resumed.test.mrr, baseline.test.mrr);

  std::remove(snapshot.c_str());
  std::remove(train::BestModelPath(dir).c_str());
}

TEST(KillAndResumeTest, SnapshotIOErrorsSurfaceFromFit) {
  // A failed snapshot save must abort Fit with the underlying Status, not
  // train on pretending the checkpoint exists.
  const data::SplitDataset split = TinySplit();
  auto model = models::CreateModel("SASRec", TinyModelConfig(split));
  FaultInjectionEnv env;
  train::TrainConfig tc = FtTrainConfig(3);
  tc.checkpoint_dir = ::testing::TempDir();
  tc.env = &env;
  env.ArmFault(FaultInjectionEnv::Fault::kFailWrite, 1);
  const Result<train::TrainResult> r =
      train::Trainer(tc).Fit(model.get(), split);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kIOError);
}

/// `t` with its extents reversed (same numel, a different shape unless
/// every extent matches).
Tensor ReversedShape(const Tensor& t) {
  std::vector<int64_t> shape(t.shape().rbegin(), t.shape().rend());
  return t.Clone().Reshape(std::move(shape));
}

TEST(KillAndResumeTest, RejectedSnapshotFailsResumeAndLeavesModelUntouched) {
  // Each CRC-valid edit of a real snapshot must fail Fit with
  // InvalidArgument before a byte of the model is written: a resume that
  // went ahead would train with a stale or misshapen parameter.
  const data::SplitDataset split = TinySplit();
  const std::string dir = ::testing::TempDir() + "/ft_rejected_resume";
  std::filesystem::create_directories(dir);
  train::TrainConfig tc = FtTrainConfig(1);
  tc.checkpoint_dir = dir;
  {
    auto model = models::CreateModel("SASRec", TinyModelConfig(split));
    ASSERT_TRUE(train::Trainer(tc).Fit(model.get(), split).ok());
  }
  const train::TrainState saved =
      train::LoadTrainState(train::SnapshotPath(dir)).value();
  ASSERT_GE(saved.params.size(), 2u);
  ASSERT_EQ(saved.best_params.size(), saved.params.size());
  // pos_emb is [max_len, hidden] = [8, 16]: reversing its extents keeps
  // numel and changes the shape.
  size_t pos = 0;
  while (pos < saved.params.size() && saved.params[pos].first != "pos_emb") {
    ++pos;
  }
  ASSERT_LT(pos, saved.params.size());

  const std::vector<
      std::pair<std::string, std::function<void(train::TrainState*)>>>
      edits = {
          {"repeated name",
           [](train::TrainState* s) {
             s->params.back().first = s->params.front().first;
             s->params.back().second = s->params.front().second.Clone();
           }},
          {"unknown name",
           [](train::TrainState* s) { s->params.back().first = "no_such"; }},
          {"changed shape",
           [pos](train::TrainState* s) {
             s->params[pos].second = ReversedShape(s->params[pos].second);
           }},
          {"dropped entry",
           [](train::TrainState* s) { s->params.pop_back(); }},
          // Resumed with max_epochs equal to the snapshot's epoch, so no
          // epoch runs before the best parameters are put back for the
          // final test pass.
          {"changed best-parameter shape",
           [pos](train::TrainState* s) {
             s->best_params[pos] = ReversedShape(s->best_params[pos]);
           }},
      };
  for (const auto& [what, edit] : edits) {
    SCOPED_TRACE(what);
    train::TrainState state = saved;
    edit(&state);
    const std::string path = dir + "/edited.slt";
    ASSERT_TRUE(train::SaveTrainState(state, path).ok());

    auto model = models::CreateModel("SASRec", TinyModelConfig(split));
    std::vector<Tensor> before;
    for (const auto& p : model->Parameters()) {
      before.push_back(p.value().Clone());
    }
    train::TrainConfig resume = FtTrainConfig(saved.epoch);
    resume.resume_from = path;
    const Result<train::TrainResult> r =
        train::Trainer(resume).Fit(model.get(), split);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument)
        << r.status().ToString();
    const auto params = model->Parameters();
    ASSERT_EQ(params.size(), before.size());
    for (size_t i = 0; i < params.size(); ++i) {
      const Tensor& now = params[i].value();
      ASSERT_EQ(now.shape(), before[i].shape()) << i;
      EXPECT_EQ(std::memcmp(now.data(), before[i].data(),
                            static_cast<size_t>(now.numel()) * sizeof(float)),
                0)
          << i;
    }
  }
  std::filesystem::remove_all(dir);
}

// --- Divergence rollback --------------------------------------------------

/// Wraps a real model and replaces the loss with NaN for a window of Loss()
/// calls. The call counter deliberately ignores rollbacks (like a transient
/// hardware fault would), so a finite window heals after a rollback while an
/// unbounded window keeps diverging.
class PoisonModel : public models::SequentialRecommender {
 public:
  PoisonModel(std::shared_ptr<models::SequentialRecommender> inner,
              int64_t poison_from, int64_t poison_count)
      : SequentialRecommender(inner->config()),
        poison_from_(poison_from),
        poison_count_(poison_count) {
    inner_ = RegisterModule("inner", std::move(inner));
  }

  autograd::Variable Loss(const data::Batch& batch) override {
    ++calls_;
    if (calls_ >= poison_from_ && calls_ < poison_from_ + poison_count_) {
      return autograd::Constant(
          Tensor::Full({1}, std::numeric_limits<float>::quiet_NaN()));
    }
    return inner_->Loss(batch);
  }

  Tensor ScoreAll(const data::Batch& batch) override {
    return inner_->ScoreAll(batch);
  }

  std::string name() const override { return "Poison"; }

 private:
  std::shared_ptr<models::SequentialRecommender> inner_;
  int64_t poison_from_;
  int64_t poison_count_;
  int64_t calls_ = 0;
};

TEST(DivergenceTest, TransientNaNRollsBackAndRecovers) {
  const data::SplitDataset split = TinySplit();
  models::ModelConfig c = TinyModelConfig(split);
  c.dropout = 0.0f;  // keep the wrapped model free of RNG coupling
  c.emb_dropout = 0.0f;
  PoisonModel model(models::CreateModel("SASRec", c), /*poison_from=*/3,
                    /*poison_count=*/1);
  train::TrainConfig tc = FtTrainConfig(3);
  tc.max_rollbacks = 2;
  const Result<train::TrainResult> r =
      train::Trainer(tc).Fit(&model, split);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().rollbacks, 1);
  EXPECT_EQ(r.value().epochs_run, 3);
  EXPECT_GT(r.value().test.hr10, 0.0);
}

TEST(DivergenceTest, RollbackHalvesLrForEveryLaterEpoch) {
  // After a divergence rollback every later epoch, the retried one
  // included, trains at the halved rate. One batch per epoch (batch_size
  // >> dataset) makes the PoisonModel's Loss-call counter count epochs, so
  // exactly epoch 3's first attempt diverges.
  const data::SplitDataset split = TinySplit();
  models::ModelConfig c = TinyModelConfig(split);
  c.dropout = 0.0f;
  c.emb_dropout = 0.0f;
  PoisonModel model(models::CreateModel("SASRec", c), /*poison_from=*/3,
                    /*poison_count=*/1);
  train::TrainConfig tc = FtTrainConfig(5);
  tc.batch_size = 100000;  // single batch per epoch
  tc.max_rollbacks = 2;
  obs::TrainingTelemetry telemetry(/*echo=*/false);
  tc.telemetry = &telemetry;
  const Result<train::TrainResult> r =
      train::Trainer(tc).Fit(&model, split);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().rollbacks, 1);

  // The rollback halves the base rate exactly once.
  ASSERT_EQ(telemetry.rollbacks().size(), 1u);
  const obs::RollbackRecord& rb = telemetry.rollbacks()[0];
  EXPECT_EQ(rb.diverged_epoch, 3);
  EXPECT_EQ(rb.rollback_to_epoch, 2);
  const float base0 = tc.lr;
  EXPECT_EQ(rb.old_base_lr, static_cast<double>(base0));
  EXPECT_EQ(rb.new_base_lr, static_cast<double>(base0 * 0.5f));

  // Epochs 1-2 ran on the original rate; epoch 3 retries, and 4-5
  // follow, on the halved one.
  const float half = base0 * 0.5f;
  const float expected[] = {base0, base0, half, half, half};
  ASSERT_EQ(telemetry.epochs().size(), 5u);
  for (int i = 0; i < 5; ++i) {
    const obs::EpochRecord& e = telemetry.epochs()[i];
    EXPECT_EQ(e.epoch, i + 1);
    EXPECT_EQ(e.lr, static_cast<double>(expected[i]))
        << "epoch " << i + 1 << " lr after rollback";
    EXPECT_EQ(e.batches, 1);
  }
}

TEST(DivergenceTest, EpochOneRollbackRestoresANeverSteppedOptimizer) {
  // The first Loss call diverges, before any Step(): the rollback restores
  // the initial snapshot, whose optimizer has no moments yet. The retried
  // run must then be exactly a clean run at half the rate.
  const data::SplitDataset split = TinySplit();
  models::ModelConfig c = TinyModelConfig(split);
  c.dropout = 0.0f;
  c.emb_dropout = 0.0f;
  train::TrainConfig tc = FtTrainConfig(3);
  tc.batch_size = 100000;  // single batch per epoch
  tc.max_rollbacks = 1;
  PoisonModel poisoned(models::CreateModel("SASRec", c), /*poison_from=*/1,
                       /*poison_count=*/1);
  const Result<train::TrainResult> r =
      train::Trainer(tc).Fit(&poisoned, split);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().rollbacks, 1);
  EXPECT_EQ(r.value().epochs_run, 3);

  PoisonModel clean(models::CreateModel("SASRec", c), /*poison_from=*/1,
                    /*poison_count=*/0);
  train::TrainConfig half = tc;
  half.lr = tc.lr * 0.5f;
  const Result<train::TrainResult> h = train::Trainer(half).Fit(&clean, split);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h.value().rollbacks, 0);
  EXPECT_TRUE(ParamsEqual(poisoned, clean));
}

TEST(DivergenceTest, PersistentNaNAbortsAfterMaxRollbacks) {
  const data::SplitDataset split = TinySplit();
  models::ModelConfig c = TinyModelConfig(split);
  c.dropout = 0.0f;
  c.emb_dropout = 0.0f;
  PoisonModel model(models::CreateModel("SASRec", c), /*poison_from=*/1,
                    /*poison_count=*/1 << 30);
  train::TrainConfig tc = FtTrainConfig(5);
  tc.max_rollbacks = 2;
  const Result<train::TrainResult> r =
      train::Trainer(tc).Fit(&model, split);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kAborted);
  EXPECT_NE(r.status().message().find("diverged"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("2 rollback"), std::string::npos)
      << r.status().message();
}

}  // namespace
}  // namespace slime
