// slime4rec — command-line interface to the library.
//
// Subcommands and the flags each one reads; any other flag exits 2 and
// names the subcommand's valid set. Every subcommand also takes the global
// --threads N and --kernel-backend auto|scalar|simd, and every --data
// subcommand takes --data-policy strict|repair (validated ingestion, see
// docs/DATA.md) and --quarantine-out FILE (JSONL quarantine report).
//   stats      --data FILE
//   generate   --preset NAME --scale S --out FILE [--seed N]
//   train      --data FILE [MODEL] [--max-prefixes N] [--epochs N]
//              [--patience N] [--batch B] [--lr LR] [--save CKPT]
//              [--checkpoint-dir DIR] [--checkpoint-every N]
//              [--resume DIR_OR_SNAPSHOT] [--metrics-out FILE]
//   evaluate   --data FILE --load CKPT [--max-prefixes N]
//   recommend  --data FILE --load CKPT --user U [--topk K]
//   serve      --data FILE --load CKPT [--requests N] [--topk K]
//              [--deadline-ms D] [--max-inflight M] [--rate QPS]
//              [--burst B] [--canaries C] [--reload CKPT2]
//              [--metrics-out FILE] [--shards N] [--replication R]
//              [--state-dir DIR] [--state-sync always|group|none]
//              [--read-repair 1]
//              Each mode takes only the flags it reads: --replication
//              needs --shards N >= 2, --state-sync needs --state-dir, and
//              --read-repair needs both; any other flag exits 2 naming
//              the mode's valid set.
//   append-events --state-dir DIR --events FILE
//              [--state-sync always|group|none] [--compact 1]
//   repair     --state-dir DIR --shards N [--replication R]
//              [--state-sync always|group|none]
// MODEL is any of [--model NAME] [--alpha A] [--gamma G] [--layers L]
// [--hidden D] [--heads H] [--max-len N] [--dropout P] [--cl-weight W]
// [--cl-temperature T] [--seed N]; a value no model takes exits 2 naming
// its flag. evaluate, recommend and serve take no MODEL flag: they build
// the model that the --load checkpoint's header names.
//
// With --state-dir, `serve` opens the durable per-user state store (WAL +
// snapshot, see docs/STATE.md), streams each traffic user's history into
// it as append events, and serves from live state (ServeSession) instead
// of request-supplied histories. `append-events` is the offline
// ingestion/backfill path: it replays a plain-text event file (one
// "user item item..." line per event) into the store and prints the
// recovery report, so a crash-repaired WAL is visible.
//
// With --shards N (N >= 2) `serve` boots a replicated in-process cluster
// (src/cluster/) instead of a single server: user keys route by consistent
// hash, failed shards are retried on replicas, and --reload performs a
// rolling per-shard reload. See docs/CLUSTER.md. With --state-dir,
// --read-repair 1 turns on serve-path divergence detection and healing
// (docs/CLUSTER.md "Anti-entropy").
//
// `repair` is the offline counterpart: it opens the per-shard state
// directories a cluster `serve` run left behind (DIR/shard_<i>), rebuilds
// the same consistent-hash ring, and runs the digest-based anti-entropy
// sweep across every segment's replica set — back-filling missed suffixes
// through the normal durable append path and reporting conflicts it will
// not auto-resolve. --shards and --replication must match the serve run
// that wrote the stores, or the segment->replica mapping will not line
// up; the vnode count and ring seed are the ones every cluster uses.
//
// --metrics-out writes a JSONL observability log (see
// docs/OBSERVABILITY.md): training telemetry plus compute-layer metrics
// for `train`, the serving metrics snapshot plus request traces for
// `serve`.
//
// Dataset files use the plain-text format of data/loader.h (one user per
// line, chronological 1-based item ids).

#include <sys/stat.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "autograd/variable.h"
#include "bench_util/table_printer.h"
#include "cluster/cluster.h"
#include "cluster/repair.h"
#include "cluster/ring.h"
#include "common/string_util.h"
#include "compute/backend.h"
#include "compute/thread_pool.h"
#include "data/loader.h"
#include "data/synthetic.h"
#include "data/validation.h"
#include "io/env.h"
#include "models/model_factory.h"
#include "observability/export.h"
#include "observability/metrics.h"
#include "observability/telemetry.h"
#include "observability/trace.h"
#include "serving/model_server.h"
#include "serving/recommendation_service.h"
#include "state/state_store.h"
#include "train/trainer.h"

namespace slime {
namespace cli {
namespace {

/// Exits 2 with "`what` (valid: --a, --b, ...)".
[[noreturn]] void ExitInvalidFlag(const std::string& what,
                                  const std::vector<std::string>& valid) {
  std::string names;
  for (const std::string& v : valid) {
    names += (names.empty() ? "--" : ", --") + v;
  }
  std::fprintf(stderr, "%s (valid: %s)\n", what.c_str(), names.c_str());
  std::exit(2);
}

/// Minimal --key value flag parser; flags may appear in any order. A flag
/// outside `valid` exits 2 naming the valid set, so a misspelt or retired
/// flag is never silently ignored.
class Flags {
 public:
  Flags(int argc, char** argv, int first, const std::string& cmd,
        const std::vector<std::string>& valid) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", key.c_str());
        std::exit(2);
      }
      key = key.substr(2);
      if (std::find(valid.begin(), valid.end(), key) == valid.end()) {
        ExitInvalidFlag("unknown flag --" + key + " for " + cmd, valid);
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag --%s needs a value\n", key.c_str());
        std::exit(2);
      }
      values_[key] = argv[++i];
    }
  }

  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  double GetDouble(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }

  int64_t GetInt(const std::string& key, int64_t fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atoll(it->second.c_str());
  }

  /// Exits 2, naming `mode` and `valid`, on any given flag outside `valid`:
  /// for a subcommand whose modes read fewer flags than the subcommand.
  void RejectOutside(const std::string& mode,
                     const std::vector<std::string>& valid) const {
    for (const auto& [key, value] : values_) {
      if (std::find(valid.begin(), valid.end(), key) == valid.end()) {
        ExitInvalidFlag("flag --" + key + " is not read by " + mode, valid);
      }
    }
  }

  std::string Require(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      std::fprintf(stderr, "missing required flag --%s\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// The flags `cmd` reads, the global --threads and --kernel-backend first;
/// empty for an unknown subcommand.
std::vector<std::string> ValidFlags(const std::string& cmd) {
  using Names = std::vector<std::string>;
  const Names data = {"data", "data-policy", "quarantine-out"};
  const Names model = {"model",     "alpha",          "gamma", "layers",
                       "hidden",    "heads",          "max-len", "dropout",
                       "cl-weight", "cl-temperature", "seed"};
  const std::map<std::string, std::vector<Names>> table = {
      {"stats", {data}},
      {"generate", {{"preset", "scale", "out", "seed"}}},
      {"train",
       {data, model,
        {"max-prefixes", "epochs", "patience", "batch", "lr", "save",
         "checkpoint-dir", "checkpoint-every", "resume", "metrics-out"}}},
      {"evaluate", {data, {"load", "max-prefixes"}}},
      {"recommend", {data, {"load", "user", "topk"}}},
      {"serve",
       {data,
        {"load", "requests", "topk", "deadline-ms", "max-inflight", "rate",
         "burst", "canaries", "reload", "metrics-out", "shards",
         "replication", "state-dir", "state-sync", "read-repair"}}},
      {"append-events", {{"state-dir", "events", "state-sync", "compact"}}},
      {"repair", {{"state-dir", "shards", "replication", "state-sync"}}},
  };
  const auto it = table.find(cmd);
  if (it == table.end()) return {};
  Names valid = {"threads", "kernel-backend"};
  for (const Names& part : it->second) {
    valid.insert(valid.end(), part.begin(), part.end());
  }
  return valid;
}

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

/// Loads --data under the policy selected by --data-policy (strict by
/// default; repair salvages corrupt files and quarantines the damage).
/// With --quarantine-out the per-load quarantine report is written as
/// JSONL regardless of policy.
data::InteractionDataset LoadOrDie(const Flags& flags) {
  const std::string path = flags.Require("data");
  const Result<data::ValidationPolicy> policy =
      data::ParseValidationPolicy(flags.Get("data-policy", "strict"));
  if (!policy.ok()) {
    std::fprintf(stderr, "invalid --data-policy: %s\n",
                 policy.status().message().c_str());
    std::exit(2);
  }
  data::ValidationOptions options;
  options.policy = policy.value();
  data::QuarantineReport report;
  Result<data::InteractionDataset> r =
      data::LoadSequenceFileValidated(path, path, options, &report);
  const std::string quarantine_out = flags.Get("quarantine-out");
  if (!quarantine_out.empty()) {
    const Status qs = data::WriteQuarantineJsonl(report, quarantine_out);
    if (!qs.ok()) {
      std::fprintf(stderr, "error writing quarantine report: %s\n",
                   qs.ToString().c_str());
      std::exit(1);
    }
    std::printf("wrote quarantine report to %s\n", quarantine_out.c_str());
  }
  if (!r.ok()) {
    std::fprintf(stderr, "error: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  if (report.total_errors() > 0) {
    std::printf("repair: quarantined %lld offence(s), dropped %lld line(s)%s\n",
                static_cast<long long>(report.total_errors()),
                static_cast<long long>(report.lines_dropped),
                report.vocab_renumbered ? ", vocabulary renumbered" : "");
  }
  return std::move(r).value();
}

/// The model train's flags describe, on `split`'s items and users. A value
/// that ValidateModelSpec rejects exits 2 naming its flag.
std::unique_ptr<models::SequentialRecommender> ModelFromFlags(
    const Flags& flags, const data::SplitDataset& split) {
  models::ModelSpec spec;
  spec.name = flags.Get("model", "SLIME4Rec");
  models::ModelConfig& c = spec.config;
  c.num_items = split.num_items();
  c.num_users = split.num_users();
  c.max_len = flags.GetInt("max-len", 32);
  c.hidden_dim = flags.GetInt("hidden", 32);
  c.num_layers = flags.GetInt("layers", 2);
  c.num_heads = flags.GetInt("heads", 2);
  c.dropout = static_cast<float>(flags.GetDouble("dropout", 0.2));
  c.emb_dropout = c.dropout;
  c.cl_weight = static_cast<float>(flags.GetDouble("cl-weight", 0.1));
  c.cl_temperature =
      static_cast<float>(flags.GetDouble("cl-temperature", 0.5));
  c.seed = flags.GetInt("seed", 7);
  spec.mixer.alpha = flags.GetDouble("alpha", 0.4);
  spec.mixer.gamma = flags.GetDouble("gamma", 0.5);
  std::string field;
  const Status valid = models::ValidateModelSpec(spec, &field);
  if (!valid.ok()) {
    // The flag that sets each field; the data sets the item and user counts.
    const std::map<std::string, std::string> flag_of = {
        {"name", "model"},
        {"max_len", "max-len"},
        {"hidden_dim", "hidden"},
        {"num_layers", "layers"},
        {"num_heads", "heads"},
        {"dropout", "dropout"},
        {"emb_dropout", "dropout"},
        {"cl_weight", "cl-weight"},
        {"cl_temperature", "cl-temperature"},
        {"alpha", "alpha"},
        {"gamma", "gamma"}};
    const auto it = flag_of.find(field);
    if (it == flag_of.end()) std::exit(Fail(valid));
    std::fprintf(stderr, "invalid --%s: %s\n", it->second.c_str(),
                 valid.message().c_str());
    std::exit(2);
  }
  return models::CreateModel(spec.name, spec.config, spec.mixer);
}

/// The header of the --load checkpoint, whose model must score `split`'s
/// catalogue: its item and user counts are the data's. Exits 1 on a bad or
/// mismatched file, before any model is built.
models::ModelSpec CheckpointSpecOrDie(const Flags& flags,
                                      const data::SplitDataset& split) {
  const std::string path = flags.Require("load");
  Result<models::ModelSpec> spec = models::ReadCheckpointSpec(path);
  if (!spec.ok()) std::exit(Fail(spec.status()));
  const models::ModelConfig& c = spec.value().config;
  if (c.num_items != split.num_items() || c.num_users != split.num_users()) {
    std::exit(Fail(Status::InvalidArgument(
        "checkpoint " + path + " holds a model of " +
        std::to_string(c.num_items) + " items and " +
        std::to_string(c.num_users) + " users, --data has " +
        std::to_string(split.num_items()) + " and " +
        std::to_string(split.num_users()))));
  }
  return std::move(spec).value();
}

/// `spec`'s model, prepared on `split` as Fit prepares a model before
/// training: state that Prepare derives from the data (MostPop's counts,
/// CoSeRec's correlations) is not in a checkpoint.
std::unique_ptr<models::SequentialRecommender> PreparedModel(
    const models::ModelSpec& spec, const data::SplitDataset& split) {
  auto model = models::CreateModel(spec.name, spec.config, spec.mixer);
  model->Prepare(split);
  return model;
}

/// The --load checkpoint's model, prepared on `split` and loaded. Exits 1
/// on any failure.
std::unique_ptr<models::SequentialRecommender> LoadedModelOrDie(
    const Flags& flags, const data::SplitDataset& split) {
  auto model = PreparedModel(CheckpointSpecOrDie(flags, split), split);
  const Status st = models::LoadCheckpoint(model.get(), flags.Require("load"));
  if (!st.ok()) std::exit(Fail(st));
  return model;
}

void PrintMetrics(const char* label, const metrics::RankingMetrics& m) {
  std::printf("%s  HR@5 %.4f  NDCG@5 %.4f  HR@10 %.4f  NDCG@10 %.4f\n",
              label, m.hr5, m.ndcg5, m.hr10, m.ndcg10);
}

int CmdStats(const Flags& flags) {
  const data::InteractionDataset dataset =
      LoadOrDie(flags);
  const data::DatasetStats s = dataset.Stats();
  bench::TablePrinter table({"users", "items", "actions", "avg len",
                             "sparsity"});
  table.AddRow({std::to_string(s.num_users), std::to_string(s.num_items),
                std::to_string(s.num_actions), FormatFloat(s.avg_length, 2),
                FormatFloat(100.0 * s.sparsity, 2) + "%"});
  table.Print();
  return 0;
}

int CmdGenerate(const Flags& flags) {
  const std::string preset = flags.Get("preset", "beauty-sim");
  const double scale = flags.GetDouble("scale", 1.0);
  data::SyntheticConfig config;
  bool found = false;
  for (const auto& p : data::AllPresets(scale)) {
    if (p.name == preset) {
      config = p;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr,
                 "unknown preset '%s' (beauty-sim, clothing-sim, sports-sim, "
                 "ml1m-sim, yelp-sim)\n",
                 preset.c_str());
    return 2;
  }
  config.seed = flags.GetInt("seed", config.seed);
  const data::InteractionDataset dataset = data::GenerateSynthetic(config);
  const Status st = data::SaveSequenceFile(dataset, flags.Require("out"));
  if (!st.ok()) return Fail(st);
  std::printf("wrote %lld sequences to %s\n",
              static_cast<long long>(dataset.num_users()),
              flags.Get("out").c_str());
  return 0;
}

int CmdTrain(const Flags& flags) {
  const data::InteractionDataset dataset =
      LoadOrDie(flags).FilterMinInteractions(5);
  const data::SplitDataset split(dataset,
                                 flags.GetInt("max-prefixes", 4));
  auto model = ModelFromFlags(flags, split);
  std::printf("training %s (%lld parameters) on %s: %lld users, %lld "
              "items\n",
              model->name().c_str(),
              static_cast<long long>(model->ParameterCount()),
              flags.Get("data").c_str(),
              static_cast<long long>(split.num_users()),
              static_cast<long long>(split.num_items()));
  train::TrainConfig tc;
  tc.max_epochs = flags.GetInt("epochs", 20);
  tc.patience = flags.GetInt("patience", 3);
  tc.batch_size = flags.GetInt("batch", 128);
  tc.lr = static_cast<float>(flags.GetDouble("lr", 1e-3));
  tc.verbose = true;
  tc.checkpoint_dir = flags.Get("checkpoint-dir");
  tc.checkpoint_every = flags.GetInt("checkpoint-every", 1);
  tc.resume_from = flags.Get("resume");
  if (!tc.checkpoint_dir.empty()) {
    // Best effort; an unwritable directory surfaces as a snapshot IOError.
    ::mkdir(tc.checkpoint_dir.c_str(), 0755);
  }
  // Telemetry sink: echoes the classic per-epoch console lines and, with
  // --metrics-out, persists the JSONL log crash-safely after every epoch.
  const std::string metrics_out = flags.Get("metrics-out");
  obs::TrainingTelemetry telemetry(/*echo=*/true, metrics_out,
                                   io::Env::Default());
  tc.telemetry = &telemetry;
  obs::MetricsRegistry registry;
  if (!metrics_out.empty()) compute::SetMetricsRegistry(&registry);
  train::Trainer trainer(tc);
  Result<train::TrainResult> fit = trainer.Fit(model.get(), split);
  if (!metrics_out.empty()) compute::SetMetricsRegistry(nullptr);
  if (!fit.ok()) return Fail(fit.status());
  const train::TrainResult result = std::move(fit).value();
  PrintMetrics("valid(best)", result.valid);
  PrintMetrics("test       ", result.test);
  const std::string ckpt = flags.Get("save");
  if (!ckpt.empty()) {
    const Status st = models::SaveCheckpoint(*model, ckpt);
    if (!st.ok()) return Fail(st);
    std::printf("saved checkpoint to %s\n", ckpt.c_str());
  }
  if (!metrics_out.empty()) {
    if (!telemetry.status().ok()) return Fail(telemetry.status());
    // Final write: the telemetry records plus the compute-layer snapshot.
    const Status ws = io::Env::Default()->WriteFile(
        metrics_out,
        telemetry.jsonl() + obs::SnapshotToJsonl(registry.Snapshot()));
    if (!ws.ok()) return Fail(ws);
    std::printf("wrote metrics to %s\n", metrics_out.c_str());
  }
  return 0;
}

int CmdEvaluate(const Flags& flags) {
  const data::InteractionDataset dataset =
      LoadOrDie(flags).FilterMinInteractions(5);
  const data::SplitDataset split(dataset, flags.GetInt("max-prefixes", 4));
  auto model = LoadedModelOrDie(flags, split);
  PrintMetrics("valid", train::Evaluate(model.get(), split, false));
  PrintMetrics("test ", train::Evaluate(model.get(), split, true));
  return 0;
}

int CmdRecommend(const Flags& flags) {
  const data::InteractionDataset dataset =
      LoadOrDie(flags).FilterMinInteractions(5);
  const data::SplitDataset split(dataset, 4);
  auto model = LoadedModelOrDie(flags, split);
  const int64_t user = flags.GetInt("user", 0);
  if (user < 0 || user >= split.num_users()) {
    std::fprintf(stderr, "user %lld out of range [0, %lld)\n",
                 static_cast<long long>(user),
                 static_cast<long long>(split.num_users()));
    return 2;
  }
  const int64_t topk = flags.GetInt("topk", 10);
  model->SetTraining(false);
  data::Batch batch;
  batch.size = 1;
  batch.max_len = model->config().max_len;
  batch.user_ids = {user};
  batch.targets = {split.test_targets()[user]};
  const std::vector<int64_t> history = split.TestInput(user);
  batch.raw_prefixes = {history};
  batch.input_ids = data::PadTruncate(history, batch.max_len);
  autograd::NoGradScope no_grad;
  const Tensor scores = model->ScoreAll(batch);
  // Serving's ranking: the history's items are left out, and equal scores
  // list the lower item id first.
  std::vector<bool> seen(split.num_items() + 1, false);
  std::printf("history:");
  for (int64_t v : history) {
    std::printf(" %lld", static_cast<long long>(v));
    if (v >= 1 && v <= split.num_items()) seen[v] = true;
  }
  std::printf("\ntop-%lld:", static_cast<long long>(topk));
  for (const serving::Recommendation& r : serving::TopKFromScores(
           scores.data(), split.num_items(), topk, seen)) {
    std::printf(" %lld", static_cast<long long>(r.item));
  }
  std::printf("\n");
  return 0;
}

/// Parses --state-sync (default "group") or exits with the valid set.
state::SyncMode SyncModeOrDie(const Flags& flags) {
  const Result<state::SyncMode> mode =
      state::ParseSyncMode(flags.Get("state-sync", "group"));
  if (!mode.ok()) {
    std::fprintf(stderr, "invalid --state-sync: %s\n",
                 mode.status().message().c_str());
    std::exit(2);
  }
  return mode.value();
}

/// Opens the state store at --state-dir and prints its recovery report —
/// the first thing an operator wants after a crash: what was replayed and
/// whether a torn WAL tail was repaired (with exact byte accounting).
Result<std::unique_ptr<state::StateStore>> OpenStateStore(
    const Flags& flags, obs::MetricsRegistry* metrics, obs::Tracer* tracer) {
  state::StateStoreOptions sopts;
  sopts.dir = flags.Require("state-dir");
  sopts.sync = SyncModeOrDie(flags);
  sopts.metrics = metrics;
  sopts.tracer = tracer;
  Result<std::unique_ptr<state::StateStore>> store =
      state::StateStore::Open(sopts);
  if (!store.ok()) return store;
  const state::RecoveryReport& rec = store.value()->recovery();
  std::printf("state recovered: %lld record(s) replayed, %lld byte(s) "
              "truncated, %lld user(s), sync %s%s\n",
              static_cast<long long>(rec.wal_records_replayed),
              static_cast<long long>(rec.wal_bytes_truncated),
              static_cast<long long>(rec.users),
              state::SyncModeName(sopts.sync),
              rec.wal_torn ? " (torn tail repaired)" : "");
  return store;
}

/// `append-events --state-dir DIR --events FILE`: offline ingestion into
/// the durable state store. Each non-blank line of the events file is one
/// append: a user id followed by one or more item ids.
int CmdAppendEvents(const Flags& flags) {
  Result<std::unique_ptr<state::StateStore>> opened =
      OpenStateStore(flags, nullptr, nullptr);
  if (!opened.ok()) return Fail(opened.status());
  std::unique_ptr<state::StateStore> store = std::move(opened.value());

  const std::string events_path = flags.Require("events");
  const Result<std::string> text = io::Env::Default()->ReadFile(events_path);
  if (!text.ok()) return Fail(text.status());
  int64_t appended = 0;
  int64_t total_items = 0;
  int64_t line_no = 0;
  for (const std::string& raw : Split(text.value(), '\n')) {
    ++line_no;
    const std::string line = Trim(raw);
    if (line.empty()) continue;
    uint64_t user = 0;
    std::vector<int64_t> items;
    bool first = true;
    for (const std::string& token : Split(line, ' ')) {
      if (token.empty()) continue;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (end == token.c_str() || *end != '\0' || (first && v < 0)) {
        return Fail(Status::InvalidArgument(
            events_path + ":" + std::to_string(line_no) +
            ": bad token '" + token + "' (want: user item [item ...])"));
      }
      if (first) {
        user = static_cast<uint64_t>(v);
        first = false;
      } else {
        items.push_back(v);
      }
    }
    const Result<state::AppendAck> ack = store->Append(user, items);
    if (!ack.ok()) {
      std::fprintf(stderr, "%s:%lld: ", events_path.c_str(),
                   static_cast<long long>(line_no));
      return Fail(ack.status());
    }
    ++appended;
    total_items += static_cast<int64_t>(items.size());
  }
  const Status synced = store->Sync();
  if (!synced.ok()) return Fail(synced);
  if (flags.GetInt("compact", 0) != 0) {
    const Status cs = store->Compact();
    if (!cs.ok()) return Fail(cs);
    std::printf("compacted: snapshot covers %lld user(s), WAL truncated\n",
                static_cast<long long>(store->num_users()));
  }
  std::printf("appended %lld event(s) (%lld item(s)); %lld user(s), "
              "last_seq %llu\n",
              static_cast<long long>(appended),
              static_cast<long long>(total_items),
              static_cast<long long>(store->num_users()),
              static_cast<unsigned long long>(store->last_seq()));
  return 0;
}

/// `repair --state-dir DIR --shards N`: offline anti-entropy sweep over
/// the per-shard state stores a cluster `serve` run wrote. Rebuilds the
/// serve run's consistent-hash ring and heals every segment's replica set
/// with cluster::RepairReplicaSet, the election the cluster's own sweeps
/// use. Equal-length-but-different histories are conflicts: counted and
/// left untouched, never overwritten.
int CmdRepair(const Flags& flags) {
  const std::string state_dir = flags.Require("state-dir");
  const int64_t shards = flags.GetInt("shards", 2);
  if (shards < 2 || shards > 64) {
    std::fprintf(stderr, "--shards must be in [2,64] for repair\n");
    return 2;
  }
  // The ring `serve --shards N --replication R` routed over: the same
  // ClusterOptions defaults, so the same vnodes and seed.
  cluster::ClusterOptions fleet;
  fleet.num_shards = shards;
  fleet.replication = flags.GetInt("replication", 2);
  const cluster::ShardRing ring(cluster::FleetRing(fleet));

  // Same per-shard directory layout `serve --shards N --state-dir DIR`
  // uses; every store's crash recovery runs (and is reported) on open.
  std::vector<std::unique_ptr<state::StateStore>> stores;
  for (int64_t s = 0; s < shards; ++s) {
    state::StateStoreOptions sopts;
    sopts.dir = state_dir + "/shard_" + std::to_string(s);
    sopts.sync = SyncModeOrDie(flags);
    Result<std::unique_ptr<state::StateStore>> store =
        state::StateStore::Open(sopts);
    if (!store.ok()) return Fail(store.status());
    const state::RecoveryReport& rec = store.value()->recovery();
    std::printf("shard %lld: %lld user(s), %lld record(s) replayed%s\n",
                static_cast<long long>(s),
                static_cast<long long>(rec.users),
                static_cast<long long>(rec.wal_records_replayed),
                rec.wal_torn ? " (torn tail repaired)" : "");
    stores.push_back(std::move(store.value()));
  }

  cluster::RepairStats total;
  int64_t segments_diverged = 0;
  for (int64_t seg = 0; seg < ring.num_segments(); ++seg) {
    std::vector<state::StateStore*> replicas;
    for (const int64_t shard : ring.Replicas(seg)) {
      replicas.push_back(stores[static_cast<size_t>(shard)].get());
    }
    const int64_t diverged_before = total.users_diverged;
    const Status st = cluster::RepairReplicaSet(
        replicas,
        [&ring, seg](uint64_t u) { return ring.SegmentOf(u) == seg; },
        &total);
    if (!st.ok()) return Fail(st);
    if (total.users_diverged != diverged_before) ++segments_diverged;
  }
  for (const std::unique_ptr<state::StateStore>& store : stores) {
    const Status synced = store->Sync();
    if (!synced.ok()) return Fail(synced);
  }
  std::printf("repair: %lld segment(s) swept (%lld diverged), %lld user "
              "pair(s) scanned, %lld repaired, %lld item(s) transferred, "
              "%lld conflict(s)\n",
              static_cast<long long>(ring.num_segments()),
              static_cast<long long>(segments_diverged),
              static_cast<long long>(total.users_scanned),
              static_cast<long long>(total.users_repaired),
              static_cast<long long>(total.items_transferred),
              static_cast<long long>(total.conflicts));
  return total.conflicts == 0 ? 0 : 1;
}

/// Reads the request deadline and admission limits both serve modes take.
void ReadServeLimits(const Flags& flags, int64_t* deadline_nanos,
                     serving::AdmissionOptions* admission) {
  *deadline_nanos = static_cast<int64_t>(
      flags.GetDouble("deadline-ms", 50.0) * serving::kNanosPerMilli);
  admission->max_in_flight = flags.GetInt("max-inflight", 64);
  admission->tokens_per_second = flags.GetDouble("rate", 0.0);
  admission->burst = flags.GetDouble("burst", 32.0);
}

/// What one `serve` mode adds to the traffic that ServeTraffic sends to a
/// single ModelServer and to a ClusterServer fleet alike.
template <typename Server>
struct ServeMode {
  /// Runs after the checkpoint boot: attaches or reports durable state.
  /// `registry` and `tracer` are null without --metrics-out.
  std::function<Status(Server&, obs::MetricsRegistry* registry,
                       obs::Tracer* tracer)>
      after_start;
  /// The mid-run --reload; prints its outcome.
  std::function<void(Server&, const std::string& path)> reload;
  /// Serves request `i`, which carries its user's history.
  std::function<Result<serving::ServeResponse>(
      Server&, int64_t i, const serving::ServeRequest&)>
      serve;
  /// Prints the mode's summary once the traffic is done.
  std::function<void(Server&, int64_t state_appends)> report;
};

/// Boots a `Server` from --load, building the model its header names, with
/// canaries and the popularity fallback, then sends --requests requests
/// round-robin over the users, reloading halfway through with --reload.
/// With --state-dir each user's history is appended the first time they
/// show up and served from live state (ServeSession). Prints the mode's report and the outcome tally, and
/// writes the metrics snapshot and traces to --metrics-out.
template <typename Server, typename Options>
int ServeTraffic(const Flags& flags, const data::SplitDataset& split,
                 Options opts, const ServeMode<Server>& mode) {
  const models::ModelSpec spec = CheckpointSpecOrDie(flags, split);
  // Declared before the server so its handles never outlive the registry.
  const std::string metrics_out = flags.Get("metrics-out");
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  if (!metrics_out.empty()) {
    opts.metrics = &registry;
    opts.tracer = &tracer;
    compute::SetMetricsRegistry(&registry);
  }

  Server server(opts, [&spec, &split] { return PreparedModel(spec, split); });
  server.set_canary_requests(
      train::ExportCanarySet(split, flags.GetInt("canaries", 8)));
  server.set_fallback(serving::PopularityFallback::FromSplit(split));
  Status start = server.StartFromCheckpoint(flags.Require("load"));
  if (start.ok()) start = mode.after_start(server, opts.metrics, opts.tracer);
  if (!start.ok()) return Fail(start);

  const bool stateful = !flags.Get("state-dir").empty();
  serving::RecommendOptions ropts;
  ropts.top_k = flags.GetInt("topk", 10);
  const int64_t requests = flags.GetInt("requests", 32);
  const std::string reload = flags.Get("reload");
  int64_t ok_count = 0, shed_count = 0, deadline_count = 0, other_err = 0;
  int64_t state_appends = 0;
  std::vector<bool> streamed(static_cast<size_t>(split.num_users()), false);
  for (int64_t i = 0; i < requests; ++i) {
    // A rolled-back reload (bad checkpoint) is reported, and traffic keeps
    // flowing on the previous model.
    if (!reload.empty() && i == requests / 2) mode.reload(server, reload);
    const int64_t user = i % split.num_users();
    serving::ServeRequest req;
    req.options = ropts;
    const Result<serving::ServeResponse> r =
        [&]() -> Result<serving::ServeResponse> {
      if (!stateful) {
        req.history = split.TestInput(user);
        return mode.serve(server, i, req);
      }
      // Stream each user's history in as an append the first time they
      // show up, then serve from live state.
      if (!streamed[static_cast<size_t>(user)]) {
        const Result<state::AppendAck> ack = server.AppendEvent(
            static_cast<uint64_t>(user), split.TestInput(user));
        if (!ack.ok()) return ack.status();
        streamed[static_cast<size_t>(user)] = true;
        ++state_appends;
      }
      return server.ServeSession(static_cast<uint64_t>(user), req);
    }();
    if (r.ok()) {
      ++ok_count;
    } else if (r.status().code() == Status::Code::kResourceExhausted) {
      ++shed_count;
    } else if (r.status().code() == Status::Code::kDeadlineExceeded) {
      ++deadline_count;
    } else {
      ++other_err;
    }
  }

  mode.report(server, state_appends);
  std::printf("requests ok %lld, shed %lld, deadline %lld, errors %lld\n",
              static_cast<long long>(ok_count),
              static_cast<long long>(shed_count),
              static_cast<long long>(deadline_count),
              static_cast<long long>(other_err));
  if (!metrics_out.empty()) {
    compute::SetMetricsRegistry(nullptr);
    const Status ws = io::Env::Default()->WriteFile(
        metrics_out, obs::SnapshotToJsonl(registry.Snapshot()) +
                         obs::TracesToJsonl(tracer.Traces()));
    if (!ws.ok()) return Fail(ws);
    std::printf("wrote metrics to %s\n", metrics_out.c_str());
  }
  return other_err == 0 ? 0 : 1;
}

/// `serve --shards N` (N >= 2): the same traffic against a replicated
/// ClusterServer instead of a single ModelServer. Each request routes by
/// user key through the consistent-hash ring; --reload becomes a rolling
/// per-shard reload that never takes two replicas of a segment down.
int CmdServeCluster(const Flags& flags, const data::SplitDataset& split,
                    int64_t shards) {
  cluster::ClusterOptions opts;
  opts.num_shards = shards;
  opts.replication = flags.GetInt("replication", 2);
  if (shards > 64 || opts.replication < 1) {
    std::fprintf(stderr, "--shards must be in [1,64], --replication >= 1\n");
    return 2;
  }
  ReadServeLimits(flags, &opts.default_deadline_nanos,
                  &opts.shard.admission);
  const std::string state_dir = flags.Get("state-dir");
  if (!state_dir.empty()) {
    opts.state_dir = state_dir;
    opts.state_sync = SyncModeOrDie(flags);
    // Anti-entropy is opt-in (docs/CLUSTER.md): --read-repair turns on
    // serve-path divergence detection and healing.
    if (flags.GetInt("read-repair", 0) != 0) opts.read_repair = true;
  }

  ServeMode<cluster::ClusterServer> mode;
  mode.after_start = [&state_dir, shards](cluster::ClusterServer& fleet,
                                          obs::MetricsRegistry*,
                                          obs::Tracer*) {
    if (state_dir.empty()) return Status::OK();
    for (int64_t s = 0; s < shards; ++s) {
      const state::RecoveryReport& rec =
          fleet.shard_server(s)->state_store()->recovery();
      std::printf("state shard %lld recovered: %lld record(s), %lld "
                  "user(s)%s\n",
                  static_cast<long long>(s),
                  static_cast<long long>(rec.wal_records_replayed),
                  static_cast<long long>(rec.users),
                  rec.wal_torn ? " (torn tail repaired)" : "");
    }
    return Status::OK();
  };
  mode.reload = [](cluster::ClusterServer& fleet, const std::string& path) {
    const Status rs = fleet.RollingReload(path);
    std::printf("rolling reload %s: %s\n", path.c_str(),
                rs.ok() ? "installed on all shards" : rs.ToString().c_str());
  };
  mode.serve = [](cluster::ClusterServer& fleet, int64_t i,
                  const serving::ServeRequest& req) {
    return fleet.Serve(static_cast<uint64_t>(i), req);
  };
  mode.report = [&state_dir, shards, read_repair = opts.read_repair](
                    cluster::ClusterServer& fleet, int64_t state_appends) {
    const cluster::ClusterStats stats = fleet.stats();
    std::printf("cluster health: %s (%lld shards, replication %lld)\n",
                cluster::ToString(fleet.health()),
                static_cast<long long>(fleet.num_shards()),
                static_cast<long long>(fleet.ring().replication()));
    bench::TablePrinter table({"served", "attempts", "retries", "failovers",
                               "hedges", "hedge_wins", "ejections",
                               "typed"});
    table.AddRow({std::to_string(stats.served),
                  std::to_string(stats.attempts),
                  std::to_string(stats.retries),
                  std::to_string(stats.failovers),
                  std::to_string(stats.hedges),
                  std::to_string(stats.hedge_wins),
                  std::to_string(stats.ejections),
                  std::to_string(stats.typed_failures)});
    table.Print();
    if (!state_dir.empty()) {
      std::printf("state: %lld replicated append(s) across %lld shard "
                  "store(s)\n",
                  static_cast<long long>(state_appends),
                  static_cast<long long>(shards));
    }
    if (read_repair) {
      std::printf("anti-entropy: %lld underreplicated append(s), %lld "
                  "hint(s) queued, %lld replayed, %lld dropped, %lld "
                  "user(s) repaired, %lld conflict(s)\n",
                  static_cast<long long>(stats.underreplicated_appends),
                  static_cast<long long>(stats.hints_queued),
                  static_cast<long long>(stats.hints_replayed),
                  static_cast<long long>(stats.hints_dropped),
                  static_cast<long long>(stats.repair_users_repaired),
                  static_cast<long long>(stats.repair_conflicts));
    }
  };
  return ServeTraffic(flags, split, opts, mode);
}

/// `serve` reads --replication only with --shards N >= 2, --state-sync
/// only with --state-dir, and --read-repair only with both; each mode
/// rejects the flags it does not read.
void CheckServeMode(const Flags& flags) {
  const bool cluster = flags.GetInt("shards", 1) > 1;
  const bool state = !flags.Get("state-dir").empty();
  std::vector<std::string> valid = ValidFlags("serve");
  std::erase_if(valid, [cluster, state](const std::string& name) {
    return (!cluster && (name == "replication" || name == "read-repair")) ||
           (!state && (name == "state-sync" || name == "read-repair"));
  });
  const std::string mode =
      std::string(cluster ? "serve --shards N" : "serve on one server") +
      (state ? " with --state-dir" : " without --state-dir");
  flags.RejectOutside(mode, valid);
}

int CmdServe(const Flags& flags) {
  CheckServeMode(flags);
  const data::InteractionDataset dataset =
      LoadOrDie(flags).FilterMinInteractions(5);
  const data::SplitDataset split(dataset, 4);

  const int64_t shards = flags.GetInt("shards", 1);
  if (shards > 1) return CmdServeCluster(flags, split, shards);

  serving::ModelServerOptions opts;
  ReadServeLimits(flags, &opts.default_deadline_nanos, &opts.admission);
  const bool stateful = !flags.Get("state-dir").empty();
  ServeMode<serving::ModelServer> mode;
  mode.after_start = [&flags, stateful](serving::ModelServer& server,
                                        obs::MetricsRegistry* registry,
                                        obs::Tracer* tracer) {
    if (!stateful) return Status::OK();
    Result<std::unique_ptr<state::StateStore>> store =
        OpenStateStore(flags, registry, tracer);
    if (!store.ok()) return store.status();
    server.AttachStateStore(std::move(store.value()));
    return Status::OK();
  };
  mode.reload = [](serving::ModelServer& server, const std::string& path) {
    const Status rs = server.Reload(path);
    std::printf("reload %s: %s\n", path.c_str(),
                rs.ok() ? "installed" : rs.ToString().c_str());
  };
  mode.serve = [](serving::ModelServer& server, int64_t,
                  const serving::ServeRequest& req) {
    return server.Serve(req);
  };
  mode.report = [stateful](serving::ModelServer& server,
                           int64_t state_appends) {
    if (stateful) {
      // Fold the streamed events into a durable snapshot before exit, so
      // the next boot recovers from the snapshot instead of a long WAL
      // replay.
      const Status compacted = server.state_store()->Compact();
      std::printf("state: %lld append(s), %lld user(s), last_seq %llu, "
                  "compaction %s\n",
                  static_cast<long long>(state_appends),
                  static_cast<long long>(server.state_store()->num_users()),
                  static_cast<unsigned long long>(
                      server.state_store()->last_seq()),
                  compacted.ok() ? "ok" : compacted.ToString().c_str());
    }
    const serving::ServerStats stats = server.stats();
    std::printf("health: %s\n", serving::ToString(server.health()));
    bench::TablePrinter table({"served", "shed", "deadline", "full",
                               "fallback", "reloads", "rollbacks"});
    table.AddRow({std::to_string(stats.served), std::to_string(stats.shed),
                  std::to_string(stats.deadline_exceeded),
                  std::to_string(stats.full_model_served),
                  std::to_string(stats.fallback_served),
                  std::to_string(stats.reloads),
                  std::to_string(stats.rollbacks)});
    table.Print();
  };
  return ServeTraffic(flags, split, opts, mode);
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: slime4rec_cli "
      "<stats|generate|train|evaluate|recommend|serve|append-events|repair>"
      " [--flag value ...]\n"
      "  global    [--threads N]  compute threads (default: "
      "SLIME_NUM_THREADS or hardware)\n"
      "            [--kernel-backend auto|scalar|simd]  kernel tier "
      "(default: SLIME_KERNEL_BACKEND or scalar; auto picks simd on "
      "AVX2/FMA hosts)\n"
      "  any --data command also takes [--data-policy strict|repair] "
      "[--quarantine-out FILE]\n"
      "  stats     --data FILE\n"
      "  generate  --preset beauty-sim --scale 0.5 --out FILE\n"
      "  train     --data FILE [--model SLIME4Rec] [--epochs 20] "
      "[--alpha 0.4] [--save CKPT]\n"
      "            [--checkpoint-dir DIR] [--checkpoint-every 1] "
      "[--resume DIR] [--metrics-out FILE]\n"
      "  evaluate  --data FILE --load CKPT [--max-prefixes 4]  (the "
      "checkpoint names its model)\n"
      "  recommend --data FILE --load CKPT --user 0 [--topk 10]\n"
      "  serve     --data FILE --load CKPT [--requests 32] "
      "[--deadline-ms 50]\n"
      "            [--max-inflight 64] [--rate QPS] [--burst 32]\n"
      "            [--canaries 8] [--reload CKPT2] [--metrics-out FILE]\n"
      "            [--shards 1] [--replication 2]   (cluster mode when "
      "--shards >= 2)\n"
      "            [--state-dir DIR] [--state-sync always|group|none]  "
      "(durable session state, docs/STATE.md)\n"
      "            [--read-repair 1]  (cluster mode with --state-dir; "
      "docs/CLUSTER.md)\n"
      "  append-events --state-dir DIR --events FILE "
      "[--state-sync group] [--compact 1]\n"
      "  repair    --state-dir DIR --shards N [--replication 2]\n"
      "            (offline digest anti-entropy over a cluster's shard "
      "state dirs)\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  const std::vector<std::string> valid = ValidFlags(cmd);
  if (valid.empty()) return Usage();
  const Flags flags(argc, argv, 2, cmd, valid);
  // --threads overrides SLIME_NUM_THREADS (which overrides the hardware
  // default). Pin --threads 1 for paper-exact single-thread runs. The
  // value is untrusted input: reject garbage up front instead of spawning
  // a million workers or silently running single-threaded.
  const std::string threads_flag = flags.Get("threads");
  if (!threads_flag.empty()) {
    const Result<int> threads = compute::ParseThreadCount(threads_flag);
    if (!threads.ok()) {
      std::fprintf(stderr, "invalid --threads: %s\n",
                   threads.status().message().c_str());
      return 2;
    }
    compute::SetNumThreads(threads.value());
  }
  // --kernel-backend overrides SLIME_KERNEL_BACKEND. Same validation
  // posture as --threads: unknown names are rejected with the valid set
  // instead of silently computing on the wrong tier.
  const std::string backend_flag = flags.Get("kernel-backend");
  if (!backend_flag.empty()) {
    const Result<std::string> backend =
        compute::SetKernelBackend(backend_flag);
    if (!backend.ok()) {
      std::fprintf(stderr, "invalid --kernel-backend: %s\n",
                   backend.status().message().c_str());
      return 2;
    }
  }
  if (cmd == "train" || cmd == "serve" || cmd == "evaluate" ||
      cmd == "recommend") {
    std::printf("kernel backend: %s\n",
                compute::ActiveKernelBackend().c_str());
  }
  if (cmd == "stats") return CmdStats(flags);
  if (cmd == "generate") return CmdGenerate(flags);
  if (cmd == "train") return CmdTrain(flags);
  if (cmd == "evaluate") return CmdEvaluate(flags);
  if (cmd == "recommend") return CmdRecommend(flags);
  if (cmd == "serve") return CmdServe(flags);
  if (cmd == "append-events") return CmdAppendEvents(flags);
  if (cmd == "repair") return CmdRepair(flags);
  return Usage();
}

}  // namespace
}  // namespace cli
}  // namespace slime

int main(int argc, char** argv) { return slime::cli::Main(argc, argv); }
