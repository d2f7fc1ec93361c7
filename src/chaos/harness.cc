#include "chaos/harness.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <utility>

#include "autograd/ops.h"
#include "cluster/cluster.h"
#include "common/random.h"
#include "data/loader.h"
#include "data/synthetic.h"
#include "io/checkpoint.h"
#include "io/env.h"
#include "models/model_factory.h"
#include "observability/telemetry.h"
#include "serving/clock.h"
#include "serving/fallback.h"
#include "serving/model_server.h"
#include "state/state_store.h"
#include "state/wal.h"
#include "train/train_state.h"
#include "train/trainer.h"

namespace slime {
namespace chaos {

namespace {

const char* CodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk:
      return "ok";
    case Status::Code::kInvalidArgument:
      return "invalid_argument";
    case Status::Code::kNotFound:
      return "not_found";
    case Status::Code::kIOError:
      return "io_error";
    case Status::Code::kCorruption:
      return "corruption";
    case Status::Code::kAborted:
      return "aborted";
    case Status::Code::kDeadlineExceeded:
      return "deadline_exceeded";
    case Status::Code::kResourceExhausted:
      return "resource_exhausted";
    case Status::Code::kUnavailable:
      return "unavailable";
  }
  return "unknown";
}

/// Wraps a real model and injects one window of NaN losses — the
/// divergence fault. Downstream must roll back or abort, never train on.
class NanWindowModel : public models::SequentialRecommender {
 public:
  NanWindowModel(std::shared_ptr<models::SequentialRecommender> inner,
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

  void Prepare(const data::SplitDataset& split) override {
    inner_->Prepare(split);
  }

  std::string name() const override { return "NanWindow"; }

 private:
  std::shared_ptr<models::SequentialRecommender> inner_;
  int64_t poison_from_;
  int64_t poison_count_;
  int64_t calls_ = 0;
};

/// Wraps a real model and advances a FakeClock by a scripted amount per
/// forward pass (the last entry repeats) — deadline pressure without
/// wall-clock sleeps, so the serve stage is exactly reproducible.
class LatencyModel : public models::SequentialRecommender {
 public:
  LatencyModel(std::shared_ptr<models::SequentialRecommender> inner,
               serving::FakeClock* clock, std::vector<int64_t> latencies)
      : SequentialRecommender(inner->config()),
        clock_(clock),
        latencies_(std::move(latencies)) {
    inner_ = RegisterModule("inner", std::move(inner));
  }

  autograd::Variable Loss(const data::Batch& batch) override {
    return inner_->Loss(batch);
  }

  Tensor ScoreAll(const data::Batch& batch) override {
    // Forward passes are serialised by the server's inference mutex, so a
    // plain counter is race-free.
    const size_t call = static_cast<size_t>(calls_++);
    if (!latencies_.empty()) {
      clock_->Advance(latencies_[std::min(latencies_.size() - 1, call)]);
    }
    return inner_->ScoreAll(batch);
  }

  /// Replaces the latency script and restarts the call counter — used
  /// after Start() so canary-validation passes don't shift the
  /// per-request alignment.
  void set_latencies(std::vector<int64_t> latencies) {
    latencies_ = std::move(latencies);
    calls_ = 0;
  }

  std::string name() const override { return "Latency"; }

 private:
  std::shared_ptr<models::SequentialRecommender> inner_;
  serving::FakeClock* clock_;
  std::vector<int64_t> latencies_;
  int64_t calls_ = 0;
};

models::ModelConfig ChaosModelConfig(const data::SplitDataset& split) {
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

/// The harness's running state: events, fault accounting, first failure.
struct Run {
  const ChaosOptions& options;
  ChaosResult result;

  explicit Run(const ChaosOptions& opts) : options(opts) {}

  void Event(const std::string& stage, const std::string& kind,
             const std::string& detail) {
    result.events.push_back({stage, kind, detail});
    if (options.echo) {
      std::printf("[chaos] %s|%s|%s\n", stage.c_str(), kind.c_str(),
                  detail.c_str());
    }
  }

  void Fault(const std::string& stage, const std::string& detail) {
    ++result.faults_injected;
    Event(stage, "fault", detail);
  }

  void Typed(const std::string& stage, const std::string& detail) {
    ++result.typed_failures;
    Event(stage, "typed_failure", detail);
  }

  void Violation(const std::string& stage, const std::string& detail) {
    if (result.failure.empty()) result.failure = stage + ": " + detail;
    Event(stage, "violation", detail);
  }
};

data::ValidationOptions ChaosLoadOptions(data::ValidationPolicy policy,
                                         io::Env* env) {
  data::ValidationOptions o;
  o.policy = policy;
  o.limits.max_item_id = 1000;  // low cap so a planted huge id trips it
  o.renumber_sparse_vocab = false;
  o.env = env;
  return o;
}

/// Builds the corrupted dataset text: the clean sequences re-serialised
/// with one corruption of each class planted on seed-chosen distinct
/// lines, plus one garbage-only line. Returns the planted per-class
/// deltas through `planted`.
std::string CorruptDatasetText(
    const data::InteractionDataset& clean, Rng* rng,
    std::array<int64_t, data::kNumErrorClasses>* planted) {
  planted->fill(0);
  const auto& seqs = clean.sequences();
  std::vector<std::string> lines(seqs.size());
  for (size_t u = 0; u < seqs.size(); ++u) {
    std::string& line = lines[u];
    for (size_t i = 0; i < seqs[u].size(); ++i) {
      if (i > 0) line += ' ';
      line += std::to_string(seqs[u][i]);
    }
  }

  // Five distinct victim lines, one per planted corruption.
  std::vector<size_t> victims;
  while (victims.size() < 5) {
    const size_t v = static_cast<size_t>(rng->Uniform(lines.size()));
    if (std::find(victims.begin(), victims.end(), v) == victims.end()) {
      victims.push_back(v);
    }
  }
  const auto plant = [&lines, rng](size_t victim, const std::string& token) {
    // Insert as a new token after a random existing token: dropping the
    // planted token in repair mode restores the original adjacency, so the
    // clean file's natural consecutive-repeat count is unchanged.
    std::string& line = lines[victim];
    const size_t space = std::count(line.begin(), line.end(), ' ');
    size_t pos = 0;
    const size_t skip = rng->Uniform(space + 1);
    for (size_t s = 0; s < skip; ++s) pos = line.find(' ', pos) + 1;
    const size_t end = line.find(' ', pos);
    const size_t at = end == std::string::npos ? line.size() : end;
    line.insert(at, " " + token);
  };

  using data::ErrorClass;
  plant(victims[0], "gl!tch");
  ++(*planted)[static_cast<size_t>(ErrorClass::kNonNumericToken)];
  plant(victims[1], "99999999999999999999");  // > int64: out of range
  ++(*planted)[static_cast<size_t>(ErrorClass::kItemIdOutOfRange)];
  plant(victims[2], "0");
  ++(*planted)[static_cast<size_t>(ErrorClass::kNonPositiveItemId)];
  plant(victims[3], "500000");  // fits in int64, above the 1000 cap
  ++(*planted)[static_cast<size_t>(ErrorClass::kItemIdAboveCap)];
  {
    // Duplicate the first token of the fifth victim in place.
    std::string& line = lines[victims[4]];
    const size_t end = line.find(' ');
    const std::string first =
        end == std::string::npos ? line : line.substr(0, end);
    line.insert(0, first + " ");
    ++(*planted)[static_cast<size_t>(ErrorClass::kConsecutiveRepeat)];
  }

  std::string text;
  for (const std::string& line : lines) {
    text += line;
    text += '\n';
  }
  // A line with no salvageable token at all.
  text += "?? !!\n";
  (*planted)[static_cast<size_t>(ErrorClass::kNonNumericToken)] += 2;
  ++(*planted)[static_cast<size_t>(ErrorClass::kEmptyAfterRepair)];
  return text;
}

}  // namespace

std::string ChaosResult::EventLog() const {
  std::string log;
  for (const ChaosEvent& e : events) {
    log += e.stage;
    log += '|';
    log += e.kind;
    log += '|';
    log += e.detail;
    log += '\n';
  }
  return log;
}

Result<ChaosResult> RunChaosPipeline(const ChaosOptions& options) {
  if (options.work_dir.empty()) {
    return Status::InvalidArgument("chaos work_dir is required");
  }
  if (options.epochs < 3) {
    return Status::InvalidArgument("chaos epochs must be >= 3");
  }
  Run run(options);
  Rng rng(options.seed);
  io::FaultInjectionEnv env;

  // ---- Stage 1: data — corrupt, validate, repair, read faults ----------
  data::SyntheticConfig synth;
  synth.name = "chaos";
  synth.num_users = 60;
  synth.num_items = 30;
  synth.num_categories = 4;
  synth.num_clusters = 4;
  synth.min_len = 6;
  synth.max_len = 12;
  synth.noise_prob = 0.05;
  synth.seed = options.seed * 2654435761ull + 7;
  const data::InteractionDataset clean_data = data::GenerateSynthetic(synth);

  const std::string clean_path = options.work_dir + "/chaos_clean.txt";
  const std::string corrupt_path = options.work_dir + "/chaos_corrupt.txt";
  SLIME_RETURN_IF_ERROR(data::SaveSequenceFile(clean_data, clean_path, &env));

  // Baseline: the clean file under repair gives the natural per-class
  // counts (synthetic data can contain genuine consecutive repeats).
  data::QuarantineReport baseline_report;
  Result<data::InteractionDataset> clean_loaded =
      data::LoadSequenceFileValidated(
          clean_path, "chaos-clean",
          ChaosLoadOptions(data::ValidationPolicy::kRepair, &env),
          &baseline_report);
  if (!clean_loaded.ok()) return clean_loaded.status();
  run.Event("data", "ok",
            "clean baseline repeats=" +
                std::to_string(baseline_report.count(
                    data::ErrorClass::kConsecutiveRepeat)));

  std::array<int64_t, data::kNumErrorClasses> planted;
  const std::string corrupt_text =
      CorruptDatasetText(clean_data, &rng, &planted);
  SLIME_RETURN_IF_ERROR(env.WriteFile(corrupt_path, corrupt_text));
  run.Fault("data", "planted " +
                        std::to_string(planted[0] + planted[1] + planted[2] +
                                       planted[3] + planted[4] + planted[7]) +
                        " corruptions");

  // Strict: the first planted corruption (in line order, seed-dependent)
  // must fail the load with a typed Status.
  {
    const Result<data::InteractionDataset> strict =
        data::LoadSequenceFileValidated(
            corrupt_path, "chaos-corrupt",
            ChaosLoadOptions(data::ValidationPolicy::kStrict, &env));
    if (strict.ok()) {
      run.Violation("data", "strict load of corrupted dataset succeeded");
    } else {
      run.Typed("data", std::string("strict rejected: ") +
                            CodeName(strict.status().code()));
    }
  }

  // Repair: salvages, and the quarantine must account for every planted
  // corruption exactly (on top of the clean file's natural counts).
  data::InteractionDataset repaired;
  {
    Result<data::InteractionDataset> r = data::LoadSequenceFileValidated(
        corrupt_path, "chaos-repaired",
        ChaosLoadOptions(data::ValidationPolicy::kRepair, &env),
        &run.result.quarantine);
    if (!r.ok()) {
      run.Violation("data", std::string("repair load failed: ") +
                                CodeName(r.status().code()));
      return std::move(run.result);  // nothing downstream can run
    }
    repaired = std::move(r).value();
    bool exact = true;
    for (int i = 0; i < data::kNumErrorClasses; ++i) {
      const int64_t expect = baseline_report.counts[static_cast<size_t>(i)] +
                             planted[static_cast<size_t>(i)];
      if (run.result.quarantine.counts[static_cast<size_t>(i)] != expect) {
        exact = false;
        run.Violation(
            "data",
            std::string("quarantine count mismatch for ") +
                data::ToString(static_cast<data::ErrorClass>(i)) + ": got " +
                std::to_string(
                    run.result.quarantine.counts[static_cast<size_t>(i)]) +
                " want " + std::to_string(expect));
      }
    }
    if (exact) {
      run.Event("data", "ok",
                "repair quarantined " +
                    std::to_string(run.result.quarantine.total_errors()) +
                    " offences, all planted corruptions accounted");
    }
  }

  // Media faults on the read path, through the same io::Env seam the
  // checkpoint layer uses.
  env.ArmFault(io::FaultInjectionEnv::Fault::kFailRead);
  {
    const Result<data::InteractionDataset> r =
        data::LoadSequenceFileValidated(
            clean_path, "chaos-eio",
            ChaosLoadOptions(data::ValidationPolicy::kStrict, &env));
    run.Fault("data", "injected EIO on dataset read");
    if (!r.ok()) {
      run.Typed("data",
                std::string("read failure: ") + CodeName(r.status().code()));
    } else {
      run.Violation("data", "injected read failure went unnoticed");
    }
  }
  env.ArmFault(io::FaultInjectionEnv::Fault::kCorruptRead);
  {
    const Result<data::InteractionDataset> r =
        data::LoadSequenceFileValidated(
            clean_path, "chaos-bitrot",
            ChaosLoadOptions(data::ValidationPolicy::kStrict, &env));
    run.Fault("data", "injected bit rot on dataset read");
    // ^0x40 never maps a digit to a digit, so strict must reject.
    if (!r.ok()) {
      run.Typed("data",
                std::string("bit rot: ") + CodeName(r.status().code()));
    } else {
      run.Violation("data", "bit-rotten dataset loaded as valid");
    }
  }
  env.Disarm();

  // ---- Stage 2: train -> checkpoint -> kill -> resume ------------------
  const data::SplitDataset split(repaired, 3);
  const models::ModelConfig model_config = ChaosModelConfig(split);
  serving::FakeClock train_clock;
  train::TrainConfig tc;
  tc.max_epochs = options.epochs;
  tc.batch_size = 64;
  tc.lr = 5e-3f;
  tc.patience = 100;
  tc.seed = 31 + (options.seed & 0xff);
  tc.checkpoint_every = 1;
  tc.clock = &train_clock;

  // Uninterrupted baseline for the bit-identical-resume invariant.
  train::TrainResult baseline;
  {
    auto model = models::CreateModel("FMLP-Rec", model_config);
    Result<train::TrainResult> r = train::Trainer(tc).Fit(model.get(), split);
    if (!r.ok()) return r.status();
    baseline = r.value();
    run.Event("train", "ok",
              "baseline best_epoch=" + std::to_string(baseline.best_epoch));
  }

  const std::string snapshot = train::SnapshotPath(options.work_dir);
  (void)env.RemoveFile(snapshot);
  (void)env.RemoveFile(train::BestModelPath(options.work_dir));
  obs::TrainingTelemetry telemetry(/*echo=*/false);
  {
    auto model = models::CreateModel("FMLP-Rec", model_config);
    train::TrainConfig killed = tc;
    killed.checkpoint_dir = options.work_dir;
    killed.env = &env;
    killed.telemetry = &telemetry;
    // Epoch 1 writes the snapshot and (having improved) the best-model
    // checkpoint, so killing write 3 or 4 always leaves a completed
    // snapshot behind and always lands mid-run.
    const int64_t kill_at = 3 + static_cast<int64_t>(rng.Uniform(2));
    env.ArmFault(io::FaultInjectionEnv::Fault::kCrashDuringWrite, kill_at);
    run.Fault("train",
              "kill during checkpoint write " + std::to_string(kill_at));
    bool crashed = false;
    try {
      (void)train::Trainer(killed).Fit(model.get(), split);
    } catch (const io::InjectedCrash&) {
      crashed = true;
    }
    if (crashed) {
      run.Typed("train", "process killed mid-checkpoint (InjectedCrash)");
    } else {
      run.Violation("train", "armed kill never fired");
    }
    env.Disarm();
    if (!env.FileExists(snapshot)) {
      run.Violation("train", "no completed snapshot survived the kill");
    }
  }

  if (env.FileExists(snapshot)) {
    auto model = models::CreateModel("FMLP-Rec", model_config);
    train::TrainConfig resumed_config = tc;
    resumed_config.checkpoint_dir = options.work_dir;
    resumed_config.env = &env;
    resumed_config.telemetry = &telemetry;
    resumed_config.resume_from = options.work_dir;
    Result<train::TrainResult> r =
        train::Trainer(resumed_config).Fit(model.get(), split);
    if (!r.ok()) {
      run.Violation("train", std::string("resume failed: ") +
                                 CodeName(r.status().code()));
    } else {
      const train::TrainResult& resumed = r.value();
      const bool identical =
          resumed.best_epoch == baseline.best_epoch &&
          resumed.epochs_run == baseline.epochs_run &&
          resumed.final_train_loss == baseline.final_train_loss &&
          resumed.valid.ndcg10 == baseline.valid.ndcg10 &&
          resumed.valid.hr10 == baseline.valid.hr10 &&
          resumed.test.ndcg10 == baseline.test.ndcg10 &&
          resumed.test.hr10 == baseline.test.hr10 &&
          resumed.test.mrr == baseline.test.mrr;
      if (identical) {
        run.Event("train", "ok", "resumed run bit-identical to baseline");
      } else {
        run.Violation("train", "resumed run diverged from baseline");
      }
    }
  }
  run.result.telemetry_jsonl = telemetry.jsonl();

  // ---- Stage 3: divergence (NaN window) --------------------------------
  {
    models::ModelConfig nan_config = model_config;
    nan_config.dropout = 0.0f;  // keep the wrapped model RNG-decoupled
    nan_config.emb_dropout = 0.0f;
    NanWindowModel model(models::CreateModel("SASRec", nan_config),
                         /*poison_from=*/2, /*poison_count=*/1);
    train::TrainConfig dc;
    dc.max_epochs = 3;
    dc.batch_size = 100000;  // one batch per epoch: calls count epochs
    dc.lr = 5e-3f;
    dc.patience = 100;
    dc.seed = tc.seed;
    dc.max_rollbacks = 2;
    dc.clock = &train_clock;
    run.Fault("diverge", "NaN loss window at epoch 2");
    const Result<train::TrainResult> r =
        train::Trainer(dc).Fit(&model, split);
    if (r.ok() && r.value().rollbacks > 0) {
      run.Typed("diverge", "rolled back " +
                               std::to_string(r.value().rollbacks) +
                               " time(s) and recovered");
    } else if (!r.ok() && r.status().code() == Status::Code::kAborted) {
      run.Typed("diverge", "aborted after rollback budget");
    } else {
      run.Violation("diverge", "divergence neither rolled back nor aborted");
    }
  }

  // ---- Stage 4: serve under deadline pressure + corrupt reload ---------
  {
    serving::FakeClock clock;
    serving::ModelServerOptions server_options;
    const auto factory = [&model_config]() {
      return models::CreateModel("FMLP-Rec", model_config);
    };
    serving::ModelServer server(server_options, factory, &clock, &env);
    server.set_canary_requests(train::ExportCanarySet(split, 2));
    std::vector<int64_t> counts(
        static_cast<size_t>(repaired.num_items()) + 1, 0);
    for (const auto& seq : repaired.sequences()) {
      for (const int64_t item : seq) ++counts[static_cast<size_t>(item)];
    }
    server.set_fallback(serving::PopularityFallback::FromCounts(counts));

    // Seed-chosen forward passes stall past the 50ms default deadline; the
    // script is installed after Start() so canary-validation passes run
    // fast and don't shift the alignment. Each request runs at most one
    // pass, none when it is skipped for budget, so the script never runs
    // out.
    const int64_t kFast = serving::kNanosPerMilli;
    const int64_t kSlow = 200 * serving::kNanosPerMilli;
    constexpr int kRequests = 6;
    std::vector<bool> slow(kRequests, false);
    int slow_count = 0;
    while (slow_count < 2) {
      const size_t at = static_cast<size_t>(rng.Uniform(kRequests));
      if (!slow[at]) {
        slow[at] = true;
        ++slow_count;
      }
    }
    auto model = std::make_unique<LatencyModel>(
        models::CreateModel("FMLP-Rec", model_config), &clock,
        std::vector<int64_t>{kFast});
    LatencyModel* latency_model = model.get();
    const Status started = server.Start(std::move(model));
    if (!started.ok()) {
      run.Violation("serve", std::string("server failed to start: ") +
                                 CodeName(started.code()));
    } else {
      std::vector<int64_t> latencies;
      for (int i = 0; i < kRequests; ++i) {
        latencies.push_back(slow[static_cast<size_t>(i)] ? kSlow : kFast);
      }
      latency_model->set_latencies(std::move(latencies));
      run.Fault("serve", "deadline pressure on 2 of " +
                             std::to_string(kRequests) + " requests");
      int degraded = 0;
      for (int i = 0; i < kRequests; ++i) {
        serving::ServeRequest request;
        request.history =
            split.train_region()[static_cast<size_t>(i) %
                                 static_cast<size_t>(split.num_users())];
        request.options.top_k = 5;
        request.options.exclude_seen = false;
        const Result<serving::ServeResponse> response =
            server.Serve(request);
        if (!response.ok()) {
          run.Event("serve", "ok",
                    "request " + std::to_string(i) + " -> " +
                        CodeName(response.status().code()));
          ++degraded;
        } else {
          run.Event("serve", "ok",
                    "request " + std::to_string(i) + " -> " +
                        serving::ToString(response.value().tier));
          if (response.value().tier != serving::ServeTier::kFullModel) {
            ++degraded;
          }
        }
      }
      if (degraded > 0) {
        run.Typed("serve", std::to_string(degraded) +
                               " request(s) degraded or typed-failed "
                               "under deadline pressure");
      } else {
        run.Violation("serve", "deadline pressure never surfaced");
      }

      // A corrupted checkpoint reload must roll back, not poison serving.
      const std::string ckpt = options.work_dir + "/chaos_model.ckpt";
      {
        auto fresh = factory();
        SLIME_RETURN_IF_ERROR(io::SaveCheckpoint(*fresh, ckpt, &env));
      }
      Result<std::string> bytes = env.ReadFile(ckpt);
      if (!bytes.ok()) return bytes.status();
      std::string flipped = std::move(bytes).value();
      flipped[flipped.size() / 2] ^= 0x01;
      SLIME_RETURN_IF_ERROR(env.WriteFile(ckpt, flipped));
      run.Fault("serve", "flipped one checkpoint byte before reload");
      const int64_t generation = server.generation();
      const Status reload = server.Reload(ckpt);
      if (!reload.ok() && server.generation() == generation) {
        run.Typed("serve", std::string("reload rolled back: ") +
                               CodeName(reload.code()));
      } else {
        run.Violation("serve", "corrupt checkpoint was installed");
      }
    }
  }

  // ---- Stage 5: cluster — shard kill, failover, dark segment, reload ---
  {
    serving::FakeClock clock;
    cluster::ClusterOptions copts;
    copts.num_shards = 4;
    copts.replication = 2;
    copts.seed = options.seed * 0x9E3779B97F4A7C15ull + 0xC105ull;
    const auto factory = [&model_config]() {
      return models::CreateModel("FMLP-Rec", model_config);
    };
    cluster::ClusterServer fleet(copts, factory, &clock, &env);
    fleet.set_canary_requests(train::ExportCanarySet(split, 2));
    std::vector<int64_t> counts(
        static_cast<size_t>(repaired.num_items()) + 1, 0);
    for (const auto& seq : repaired.sequences()) {
      for (const int64_t item : seq) ++counts[static_cast<size_t>(item)];
    }
    fleet.set_fallback(serving::PopularityFallback::FromCounts(counts));

    const Status started = fleet.Start();
    if (!started.ok()) {
      run.Violation("cluster", std::string("fleet failed to start: ") +
                                   CodeName(started.code()));
    } else {
      const auto serve = [&fleet, &split](uint64_t key) {
        serving::ServeRequest request;
        request.history = split.train_region()[static_cast<size_t>(
            key % static_cast<uint64_t>(split.num_users()))];
        request.options.top_k = 5;
        request.options.exclude_seen = false;
        return fleet.Serve(key, request);
      };
      // First key (scanning up from `salt`) whose routing primary is
      // `shard`. Bounded scan: with 4 shards ~1 in 4 keys qualifies.
      const auto key_with_primary = [&fleet](int64_t shard,
                                             uint64_t salt) -> uint64_t {
        for (uint64_t key = salt; key < salt + (1u << 16); ++key) {
          if (fleet.ring().Route(key)[0] == shard) return key;
        }
        return salt;  // unreachable in practice
      };

      // Phase A: healthy traffic.
      int healthy_ok = 0;
      for (int i = 0; i < 6; ++i) {
        if (serve(rng.Uniform(1u << 20)).ok()) ++healthy_ok;
      }
      if (healthy_ok == 6) {
        run.Event("cluster", "ok",
                  "4 shards R=2 started; 6/6 healthy requests served");
      } else {
        run.Violation("cluster",
                      std::to_string(6 - healthy_ok) +
                          " request(s) failed on a healthy cluster");
      }

      // Phase B: kill one seed-chosen shard mid-traffic. Every admitted
      // request must still succeed via failover to the surviving replica.
      const int64_t victim = static_cast<int64_t>(rng.Uniform(4));
      const cluster::ClusterStats before_kill = fleet.stats();
      run.Fault("cluster", "killed shard " + std::to_string(victim) +
                               " mid-traffic (replication=2)");
      fleet.KillShard(victim);
      int killed_ok = 0;
      // Three victim-primary keys drive the ejection threshold
      // deterministically; the rest is background traffic.
      for (int i = 0; i < 3; ++i) {
        const uint64_t key = key_with_primary(
            victim, static_cast<uint64_t>(rng.Uniform(1u << 20)));
        if (serve(key).ok()) ++killed_ok;
      }
      for (int i = 0; i < 5; ++i) {
        if (serve(rng.Uniform(1u << 20)).ok()) ++killed_ok;
      }
      const cluster::ClusterStats after_kill = fleet.stats();
      const int64_t failovers = after_kill.failovers - before_kill.failovers;
      if (killed_ok == 8 && failovers >= 3) {
        run.Typed("cluster", "kill absorbed: " + std::to_string(failovers) +
                                 " failover(s), zero admitted requests lost");
      } else {
        run.Violation("cluster",
                      std::to_string(8 - killed_ok) +
                          " admitted request(s) lost after single-shard "
                          "kill (failovers=" +
                          std::to_string(failovers) + ")");
      }

      // Phase C: kill the victim's co-replica too — that segment is now
      // completely dark and must fail with typed kUnavailable, and the
      // quorum rule must report the whole cluster kUnavailable.
      const uint64_t dark_key = key_with_primary(
          victim, static_cast<uint64_t>(rng.Uniform(1u << 20)));
      const int64_t partner = fleet.ring().Route(dark_key)[1];
      run.Fault("cluster", "killed shard " + std::to_string(partner) +
                               ": segment of shards {" +
                               std::to_string(victim) + "," +
                               std::to_string(partner) + "} fully dark");
      fleet.KillShard(partner);
      const Result<serving::ServeResponse> dark = serve(dark_key);
      if (!dark.ok() &&
          dark.status().code() == Status::Code::kUnavailable &&
          fleet.health() == cluster::ClusterHealth::kUnavailable) {
        run.Typed("cluster",
                  "dark segment -> unavailable; cluster health unavailable");
      } else {
        run.Violation("cluster",
                      dark.ok() ? "dark segment request succeeded"
                                : std::string("dark segment gave ") +
                                      CodeName(dark.status().code()) +
                                      ", cluster " +
                                      cluster::ToString(fleet.health()));
      }

      // Phase D: restore both shards. Restoration lifts the kill switch but
      // not the ejection — the victim must earn its way back through the
      // window-expiry -> probation -> reinstatement path.
      fleet.RestoreShard(victim);
      fleet.RestoreShard(partner);
      clock.Advance(2 * serving::kNanosPerSecond);  // every window expires
      int restored_ok = 0;
      for (int i = 0; i < 3; ++i) {
        const uint64_t key = key_with_primary(
            victim, static_cast<uint64_t>(rng.Uniform(1u << 20)));
        if (serve(key).ok()) ++restored_ok;
      }
      if (restored_ok == 3 &&
          fleet.health() == cluster::ClusterHealth::kServing) {
        run.Event("cluster", "ok",
                  "shards restored and reinstated; cluster health serving");
      } else {
        run.Violation("cluster",
                      std::string("cluster stuck ") +
                          cluster::ToString(fleet.health()) +
                          " after restore (ok=" +
                          std::to_string(restored_ok) + "/3)");
      }

      // Phase E: rolling reload under traffic. Waves must never contain
      // two replicas of the same segment, and mid-rollout requests must
      // keep succeeding.
      const std::string ckpt = options.work_dir + "/chaos_cluster.ckpt";
      {
        auto fresh = factory();
        SLIME_RETURN_IF_ERROR(io::SaveCheckpoint(*fresh, ckpt, &env));
      }
      const std::vector<std::vector<int64_t>> waves = fleet.ReloadWaves();
      bool waves_safe = true;
      for (const std::vector<int64_t>& wave : waves) {
        for (size_t a = 0; a < wave.size(); ++a) {
          for (size_t b = a + 1; b < wave.size(); ++b) {
            if (fleet.ring().SharesSegment(wave[a], wave[b])) {
              waves_safe = false;
            }
          }
        }
      }
      int rollout_ok = 0;
      int rollout_total = 0;
      const Status reload = fleet.RollingReload(
          ckpt, [&serve, &rng, &rollout_ok, &rollout_total](int64_t) {
            for (int i = 0; i < 2; ++i) {
              ++rollout_total;
              if (serve(rng.Uniform(1u << 20)).ok()) ++rollout_ok;
            }
          });
      if (reload.ok() && waves_safe && rollout_ok == rollout_total) {
        run.Event("cluster", "ok",
                  "rolling reload: " + std::to_string(waves.size()) +
                      " waves, co-replication invariant held, " +
                      std::to_string(rollout_ok) + "/" +
                      std::to_string(rollout_total) +
                      " mid-rollout requests served");
      } else {
        run.Violation(
            "cluster",
            std::string("rolling reload ") +
                (reload.ok() ? "completed" : CodeName(reload.code())) +
                (waves_safe ? "" : "; wave held two replicas of a segment") +
                "; mid-rollout ok=" + std::to_string(rollout_ok) + "/" +
                std::to_string(rollout_total));
      }
    }
  }

  // ---- Stage 6: state — durable user-state store under kills -----------
  // Four single-node faults (kill mid-WAL-append, kill mid-compaction, a
  // silently torn tail, a failed fsync) and a replicated-append shard kill.
  // The invariant throughout: every recovery reproduces the acked event
  // set exactly — loss is only ever the in-flight victim, and it is
  // truncated with typed byte accounting, never silently.
  {
    const std::string sdir = options.work_dir + "/state_single";
    for (const char* file : {"/state.wal", "/state.snapshot",
                             "/state.wal.tmp", "/state.snapshot.tmp"}) {
      (void)env.RemoveFile(sdir + file);
    }
    state::StateStoreOptions sopts;
    sopts.dir = sdir;
    sopts.sync = state::SyncMode::kAlways;
    sopts.snapshot_every_records = 0;  // compaction driven explicitly below
    sopts.env = &env;

    // Every event acked to a caller, for exact-loss checks after recovery.
    std::map<uint64_t, std::vector<int64_t>> acked;
    const auto append_acked = [&acked](state::StateStore* store,
                                       uint64_t user, int64_t item) {
      if (!store->Append(user, {item}).ok()) return false;
      acked[user].push_back(item);
      return true;
    };
    const auto acked_intact = [&acked](state::StateStore* store) {
      for (const auto& entry : acked) {
        if (store->History(entry.first) != entry.second) return false;
      }
      return true;
    };
    // WAL frame size of a single-item event: header + user + count + item.
    const int64_t frame = static_cast<int64_t>(
        state::WriteAheadLog::kFrameHeader + 8 + 4 + 8);

    // Fault 1: kill the process mid-WAL-append, at a seed-chosen byte
    // offset strictly inside the victim's frame.
    {
      Result<std::unique_ptr<state::StateStore>> opened =
          state::StateStore::Open(sopts);
      if (!opened.ok()) {
        run.Violation("state", std::string("store failed to open: ") +
                                   CodeName(opened.status().code()));
      } else {
        std::unique_ptr<state::StateStore> store = std::move(opened.value());
        bool seeded = true;
        for (int e = 0; e < 8 && seeded; ++e) {
          seeded = append_acked(store.get(), rng.Uniform(4),
                                static_cast<int64_t>(rng.UniformInt(1, 999)));
        }
        if (!seeded) run.Violation("state", "seed append refused");
        const int64_t torn = static_cast<int64_t>(
            rng.Uniform(static_cast<uint64_t>(frame)));
        env.set_torn_tail_bytes(torn);
        env.ArmFault(io::FaultInjectionEnv::Fault::kCrashDuringWrite);
        run.Fault("state", "killed process mid-WAL-append after " +
                               std::to_string(torn) + " of " +
                               std::to_string(frame) + " frame bytes");
        bool crashed = false;
        try {
          (void)store->Append(9000, {777});
        } catch (const io::InjectedCrash&) {
          crashed = true;
        }
        env.set_torn_tail_bytes(-1);
        env.Disarm();
        if (crashed) {
          run.Typed("state", "mid-append kill surfaced as InjectedCrash");
        } else {
          run.Violation("state", "mid-append kill did not surface");
        }
        // The store object dies with the "process" here.
      }
    }

    // Recovery 1, then fault 2: kill mid-compaction (the snapshot stage
    // write never reaches the rename, so the WAL still covers everything).
    {
      Result<std::unique_ptr<state::StateStore>> opened =
          state::StateStore::Open(sopts);
      if (!opened.ok() || !acked_intact(opened.value().get()) ||
          !opened.value()->History(9000).empty()) {
        run.Violation("state", "recovery after mid-append kill lost or "
                               "fabricated acked events");
      } else {
        const state::RecoveryReport& report = opened.value()->recovery();
        run.Event("state", "ok",
                  "recovered after mid-append kill: " +
                      std::to_string(report.wal_records_replayed) +
                      " records replayed, " +
                      std::to_string(report.wal_bytes_truncated) +
                      " torn byte(s) truncated, zero acked loss");
        env.ArmFault(io::FaultInjectionEnv::Fault::kCrashDuringWrite);
        run.Fault("state", "killed process mid-snapshot-compaction");
        bool crashed = false;
        try {
          (void)opened.value()->Compact();
        } catch (const io::InjectedCrash&) {
          crashed = true;
        }
        env.Disarm();
        if (crashed) {
          run.Typed("state", "mid-compaction kill surfaced as InjectedCrash");
        } else {
          run.Violation("state", "mid-compaction kill did not surface");
        }
      }
    }

    // Recovery 2 + a clean compaction, then fault 3: the disk lies — an
    // acked append whose tail never hit the platter (kTornTailWrite).
    int64_t lied_bytes = 0;
    {
      Result<std::unique_ptr<state::StateStore>> opened =
          state::StateStore::Open(sopts);
      if (!opened.ok() || !acked_intact(opened.value().get())) {
        run.Violation("state",
                      "recovery after mid-compaction kill lost acked events");
      } else {
        std::unique_ptr<state::StateStore> store = std::move(opened.value());
        const Status compacted = store->Compact();
        if (!compacted.ok() || store->wal_records() != 0) {
          run.Violation("state", std::string("clean compaction failed: ") +
                                     CodeName(compacted.code()));
        } else {
          run.Event("state", "ok",
                    "clean compaction: snapshot covers " +
                        std::to_string(store->num_users()) +
                        " users, WAL truncated");
        }
        lied_bytes = 1 + static_cast<int64_t>(
                             rng.Uniform(static_cast<uint64_t>(frame - 1)));
        env.set_torn_tail_bytes(lied_bytes);
        env.ArmFault(io::FaultInjectionEnv::Fault::kTornTailWrite);
        run.Fault("state", "disk lied: append acked but only " +
                               std::to_string(lied_bytes) + " of " +
                               std::to_string(frame) +
                               " frame bytes persisted");
        if (!store->Append(9000, {555}).ok()) {
          run.Violation("state", "lying-disk append refused (fault should "
                                 "be silent at append time)");
        }
        env.set_torn_tail_bytes(-1);
      }
    }

    // Recovery 3 must detect the lie with exact accounting; fault 4: a
    // failed fsync barrier must refuse the ack and leave the store usable.
    {
      Result<std::unique_ptr<state::StateStore>> opened =
          state::StateStore::Open(sopts);
      if (!opened.ok()) {
        run.Violation("state", std::string("recovery after torn tail: ") +
                                   CodeName(opened.status().code()));
      } else {
        std::unique_ptr<state::StateStore> store = std::move(opened.value());
        const state::RecoveryReport& report = store->recovery();
        if (acked_intact(store.get()) && store->History(9000).empty() &&
            report.wal_torn && report.wal_bytes_truncated == lied_bytes &&
            report.tail_status.code() == Status::Code::kCorruption) {
          run.Typed("state", "silent torn tail detected on recovery: " +
                                 std::to_string(report.wal_bytes_truncated) +
                                 " byte(s) truncated, typed corruption");
        } else {
          run.Violation("state", "silent torn tail not detected or "
                                 "mis-accounted on recovery");
        }
        env.ArmFault(io::FaultInjectionEnv::Fault::kFailSync);
        run.Fault("state", "fsync failure during append barrier");
        const Result<state::AppendAck> refused = store->Append(2, {424242});
        if (!refused.ok() && store->History(2) == acked[2]) {
          run.Typed("state", std::string("failed sync refused the ack: ") +
                                 CodeName(refused.status().code()));
        } else {
          run.Violation("state",
                        "failed sync was acked or applied in-memory");
        }
        if (!append_acked(store.get(), 2, 434343) ||
            !acked_intact(store.get())) {
          run.Violation("state", "store unusable after sync failure");
        } else {
          run.Event("state", "ok",
                    "single-node store survived 4 faults: " +
                        std::to_string(store->num_users()) +
                        " users, last_seq " +
                        std::to_string(store->last_seq()) +
                        ", zero acked-event loss");
        }
      }
    }

    // Fault 5: replicated appends across a cluster shard kill. The acked
    // write must survive on the other replica, and the restored shard must
    // recover exactly its own durable prefix.
    {
      const std::string cdir = options.work_dir + "/state_cluster";
      for (int s = 0; s < 3; ++s) {
        for (const char* file : {"/state.wal", "/state.snapshot",
                                 "/state.wal.tmp", "/state.snapshot.tmp"}) {
          (void)env.RemoveFile(cdir + "/shard_" + std::to_string(s) + file);
        }
      }
      serving::FakeClock clock;
      cluster::ClusterOptions copts;
      copts.num_shards = 3;
      copts.replication = 2;
      copts.seed = options.seed * 0x9E3779B97F4A7C15ull + 0x57A7Eull;
      copts.state_dir = cdir;
      copts.state_sync = state::SyncMode::kAlways;
      const auto factory = [&model_config]() {
        return models::CreateModel("FMLP-Rec", model_config);
      };
      cluster::ClusterServer fleet(copts, factory, &clock, &env);
      const Status started = fleet.Start();
      if (!started.ok()) {
        run.Violation("state", std::string("stateful fleet failed to "
                                           "start: ") +
                                   CodeName(started.code()));
      } else {
        const uint64_t user = rng.Uniform(1u << 20);
        // Session histories are validated against the model vocabulary.
        const int64_t first_item =
            static_cast<int64_t>(rng.UniformInt(1, model_config.num_items));
        const int64_t second_item =
            static_cast<int64_t>(rng.UniformInt(1, model_config.num_items));
        serving::ServeRequest session;
        session.options.top_k = 5;
        session.options.exclude_seen = false;
        const int64_t primary = fleet.ring().Route(user)[0];
        bool cluster_ok = fleet.AppendEvent(user, {first_item}).ok() &&
                          fleet.ServeSession(user, session).ok();
        run.Fault("state", "killed primary replica of a user's segment "
                           "under replicated appends (R=2)");
        fleet.KillShard(primary);
        if (cluster_ok && fleet.AppendEvent(user, {second_item}).ok() &&
            fleet.ServeSession(user, session).ok()) {
          // The ack must also confess its replication level: one append
          // missed the dead primary, so exactly one under-replicated
          // append has been counted.
          if (fleet.stats().underreplicated_appends == 1) {
            run.Typed("state", "replicated append survived the shard kill "
                               "(acked by the surviving replica, counted "
                               "under-replicated)");
          } else {
            run.Violation("state",
                          "append that missed a dead replica was not "
                          "counted under-replicated (count " +
                              std::to_string(
                                  fleet.stats().underreplicated_appends) +
                              ", expected 1)");
            cluster_ok = false;
          }
        } else {
          run.Violation("state",
                        "append or session serve lost to a single-shard "
                        "kill at R=2");
          cluster_ok = false;
        }
        fleet.RestoreShard(primary);
        const state::StateStore* restored =
            fleet.shard_server(primary)->state_store();
        const bool prefix_ok =
            restored != nullptr &&
            restored->History(user) == std::vector<int64_t>{first_item};
        const std::string ckpt =
            options.work_dir + "/chaos_state_cluster.ckpt";
        Status reload = Status::OK();
        {
          auto fresh = factory();
          reload = io::SaveCheckpoint(*fresh, ckpt, &env);
        }
        if (reload.ok()) reload = fleet.RollingReload(ckpt);
        const state::StateStore* survivor_store =
            fleet.shard_server(fleet.ring().Route(user)[1])->state_store();
        const bool survived_reload =
            reload.ok() && survivor_store != nullptr &&
            survivor_store->History(user) ==
                (std::vector<int64_t>{first_item, second_item});
        if (cluster_ok && prefix_ok && survived_reload) {
          run.Event("state", "ok",
                    "restored shard recovered its durable prefix; state "
                    "survived a rolling reload");
        } else if (cluster_ok) {
          run.Violation("state",
                        prefix_ok ? "state lost across rolling reload"
                                  : "restored shard recovered the wrong "
                                    "durable prefix");
        }
      }
    }
  }

  // ---- Stage 7: repair — anti-entropy closes a kill-induced fork --------
  // Kill a primary, let appends miss it, restore with hinted-handoff
  // replay plus a digest repair sweep, and require full convergence:
  // per-segment digests byte-identical across replicas, zero acked events
  // lost, zero fabricated (the repaired history is exactly the acked
  // sequence), and the hint backlog drained to zero. Every count below is
  // seed-derived, so the emitted repair report is byte-identical across
  // same-seed runs (tools/chaos_runner double-runs and compares).
  {
    const std::string rdir = options.work_dir + "/state_repair";
    for (int s = 0; s < 3; ++s) {
      for (const char* file : {"/state.wal", "/state.snapshot",
                               "/state.wal.tmp", "/state.snapshot.tmp"}) {
        (void)env.RemoveFile(rdir + "/shard_" + std::to_string(s) + file);
      }
    }
    serving::FakeClock clock;
    cluster::ClusterOptions copts;
    copts.num_shards = 3;
    copts.replication = 2;
    copts.seed = options.seed * 0x9E3779B97F4A7C15ull + 0xA9E17ull;
    copts.state_dir = rdir;
    copts.state_sync = state::SyncMode::kAlways;
    copts.hinted_handoff = true;
    copts.handoff.max_hints_per_shard = 64;
    copts.repair_on_restore = true;
    const auto factory = [&model_config]() {
      return models::CreateModel("FMLP-Rec", model_config);
    };
    cluster::ClusterServer fleet(copts, factory, &clock, &env);
    const Status started = fleet.Start();
    std::string report;
    if (!started.ok()) {
      run.Violation("repair", std::string("stateful fleet failed to "
                                          "start: ") +
                                  CodeName(started.code()));
    } else {
      const uint64_t user = rng.Uniform(1u << 20);
      std::vector<int64_t> acked_items;
      const auto append_one = [&fleet, &rng, &model_config, &acked_items,
                               user]() {
        const int64_t item =
            static_cast<int64_t>(rng.UniformInt(1, model_config.num_items));
        Result<state::AppendAck> ack = fleet.AppendEvent(user, {item});
        if (ack.ok()) acked_items.push_back(item);
        return ack;
      };
      const int64_t primary = fleet.ring().Route(user)[0];
      const Result<state::AppendAck> seeded = append_one();
      bool stage_ok = seeded.ok() && seeded.value().replica_acks == 2;
      if (!stage_ok) {
        run.Violation("repair", "seed append was not acked by both "
                                "replicas");
      }
      const int64_t missed = 2 + static_cast<int64_t>(rng.Uniform(3));
      run.Fault("repair",
                "killed primary replica; " + std::to_string(missed) +
                    " subsequent appends will miss it");
      fleet.KillShard(primary);
      for (int64_t i = 0; stage_ok && i < missed; ++i) {
        const Result<state::AppendAck> ack = append_one();
        // The survivor acks alone, and the ack says so.
        if (!ack.ok() || ack.value().replica_acks != 1) {
          run.Violation("repair", "append during the kill was lost or "
                                  "mis-reported its replica acks");
          stage_ok = false;
        }
      }
      const cluster::ClusterStats mid = fleet.stats();
      if (stage_ok && mid.underreplicated_appends == missed &&
          mid.hints_pending == missed && mid.hints_dropped == 0) {
        run.Typed("repair",
                  "appends acked under-replicated (" +
                      std::to_string(mid.underreplicated_appends) +
                      " counted) with " +
                      std::to_string(mid.hints_pending) +
                      " hint(s) queued for the dead shard");
      } else if (stage_ok) {
        run.Violation("repair",
                      "under-replication mis-counted or hints not queued "
                      "(underreplicated " +
                          std::to_string(mid.underreplicated_appends) +
                          ", pending " + std::to_string(mid.hints_pending) +
                          ", expected " + std::to_string(missed) + ")");
        stage_ok = false;
      }
      report += "{\"type\":\"repair\",\"event\":\"underreplicated\","
                "\"appends\":" +
                std::to_string(mid.underreplicated_appends) +
                ",\"hints_pending\":" + std::to_string(mid.hints_pending) +
                "}\n";
      const Status restored = fleet.RestoreShard(primary);
      const cluster::ClusterStats after = fleet.stats();
      if (stage_ok && restored.ok() && after.hints_pending == 0 &&
          after.hints_replayed == missed && after.hints_dropped == 0 &&
          after.repair_conflicts == 0) {
        run.Event("repair", "ok",
                  "restore replayed " +
                      std::to_string(after.hints_replayed) +
                      " hint(s) and swept digests (" +
                      std::to_string(after.repair_items_transferred) +
                      " item(s) left for the sweep); backlog drained to 0");
      } else if (stage_ok) {
        run.Violation("repair",
                      std::string("restore did not drain the backlog "
                                  "cleanly: ") +
                          CodeName(restored.code()) + ", pending " +
                          std::to_string(after.hints_pending) +
                          ", replayed " +
                          std::to_string(after.hints_replayed) +
                          ", conflicts " +
                          std::to_string(after.repair_conflicts));
        stage_ok = false;
      }
      report += "{\"type\":\"repair\",\"event\":\"restore\","
                "\"hints_replayed\":" +
                std::to_string(after.hints_replayed) +
                ",\"hints_dropped\":" + std::to_string(after.hints_dropped) +
                ",\"sweep_items_transferred\":" +
                std::to_string(after.repair_items_transferred) +
                ",\"conflicts\":" + std::to_string(after.repair_conflicts) +
                ",\"hints_pending\":" + std::to_string(after.hints_pending) +
                "}\n";
      // Convergence: the acked history must be reproduced exactly on
      // every replica (zero loss, zero fabrication), and every segment's
      // digest enumeration must be byte-identical across its replicas.
      bool histories_ok = stage_ok;
      for (int64_t s : fleet.ring().Route(user)) {
        const state::StateStore* store =
            fleet.shard_server(s)->state_store();
        if (store == nullptr || store->History(user) != acked_items) {
          histories_ok = false;
        }
      }
      const auto segment_digests = [&fleet](int64_t shard,
                                            int64_t segment) {
        const state::StateStore* store =
            fleet.shard_server(shard)->state_store();
        std::string bytes;
        if (store == nullptr) return bytes;
        const cluster::ShardRing& ring = fleet.ring();
        for (const state::UserDigest& d : store->EnumerateDigests(
                 [&ring, segment](uint64_t user_id) {
                   return ring.SegmentOf(user_id) == segment;
                 })) {
          bytes += std::to_string(d.user_id) + ":" +
                   std::to_string(d.items_total) + ":" +
                   std::to_string(d.crc) + ";";
        }
        return bytes;
      };
      int64_t segments_checked = 0;
      int64_t segments_diverged = 0;
      for (int64_t seg = 0; seg < fleet.ring().num_segments(); ++seg) {
        const std::vector<int64_t>& reps = fleet.ring().Replicas(seg);
        const std::string first = segment_digests(reps[0], seg);
        ++segments_checked;
        for (size_t r = 1; r < reps.size(); ++r) {
          if (segment_digests(reps[r], seg) != first) ++segments_diverged;
        }
      }
      if (stage_ok && histories_ok && segments_diverged == 0) {
        run.Event("repair", "ok",
                  "replicas converged: " +
                      std::to_string(segments_checked) +
                      " segment digest set(s) byte-identical, acked "
                      "history exact on every replica");
      } else if (stage_ok) {
        run.Violation("repair",
                      histories_ok
                          ? std::to_string(segments_diverged) +
                                " segment digest set(s) still diverged "
                                "after repair"
                          : "repaired history is not the exact acked "
                            "sequence (lost or fabricated events)");
      }
      report += "{\"type\":\"repair\",\"event\":\"converged\","
                "\"segments_checked\":" +
                std::to_string(segments_checked) +
                ",\"segments_diverged\":" +
                std::to_string(segments_diverged) + ",\"acked_history_exact\":" +
                (histories_ok ? "true" : "false") + "}\n";
    }
    run.result.repair_report_jsonl = report;
  }

  // ---- Invariants -------------------------------------------------------
  if (run.result.typed_failures != run.result.faults_injected) {
    run.Violation(
        "chaos", "typed_failures " +
                     std::to_string(run.result.typed_failures) +
                     " != faults_injected " +
                     std::to_string(run.result.faults_injected));
  }
  run.result.invariants_ok = run.result.failure.empty();
  run.Event("chaos", run.result.invariants_ok ? "ok" : "violation",
            "faults=" + std::to_string(run.result.faults_injected) +
                " typed=" + std::to_string(run.result.typed_failures) +
                " invariants=" +
                (run.result.invariants_ok ? "ok" : run.result.failure));
  return std::move(run.result);
}

}  // namespace chaos
}  // namespace slime
