// Deterministic byte-mutation fuzzing of the binary-input surfaces: the
// sequence-file loader, the SLM3 checkpoint reader (the whole file, and
// its model header inside a valid envelope) and the WAL. Every variant
// is derived from a fixed seed, so a failure reproduces exactly; the
// property under test is uniform: adversarial bytes may be rejected or
// (in repair mode) salvaged, but must always come back as a typed Status
// within the configured resource caps — never a crash, hang, or
// unbounded allocation. Runs under ASan/UBSan in CI via the full ctest
// sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/slime4rec.h"
#include "data/validation.h"
#include "io/checkpoint.h"
#include "io/env.h"
#include "models/model_factory.h"
#include "state/state_store.h"
#include "state/wal.h"

namespace slime {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Applies one random edit: flip a byte, insert a byte, delete a byte,
// truncate, or duplicate a chunk. Compound damage comes from applying
// this 1-4 times per variant.
void MutateOnce(std::string* bytes, Rng* rng) {
  if (bytes->empty()) {
    bytes->push_back(static_cast<char>(rng->Uniform(256)));
    return;
  }
  const size_t pos = rng->Uniform(bytes->size());
  switch (rng->Uniform(5)) {
    case 0:  // bit/byte flip
      (*bytes)[pos] = static_cast<char>(rng->Uniform(256));
      break;
    case 1:  // insert
      bytes->insert(pos, 1, static_cast<char>(rng->Uniform(256)));
      break;
    case 2:  // delete
      bytes->erase(pos, 1);
      break;
    case 3:  // truncate
      bytes->resize(pos);
      break;
    case 4: {  // duplicate a chunk (models a botched partial rewrite)
      const size_t len =
          std::min(bytes->size() - pos, static_cast<size_t>(16));
      bytes->insert(pos, bytes->substr(pos, len));
      break;
    }
  }
}

std::string MutateVariant(const std::string& base, Rng* rng) {
  std::string bytes = base;
  const int edits = static_cast<int>(rng->UniformInt(1, 4));
  for (int i = 0; i < edits; ++i) MutateOnce(&bytes, rng);
  return bytes;
}

TEST(DataFuzzTest, MutatedSequenceFilesAlwaysReturnTypedStatus) {
  // A well-formed baseline: 16 users over a 40-item vocabulary.
  std::string base;
  Rng gen(101);
  for (int u = 0; u < 16; ++u) {
    const int len = static_cast<int>(gen.UniformInt(3, 10));
    for (int i = 0; i < len; ++i) {
      if (i > 0) base += ' ';
      base += std::to_string(gen.UniformInt(1, 40));
    }
    base += '\n';
  }

  // Tight caps so even a "successful" parse of garbage stays tiny.
  data::ValidationLimits limits;
  limits.max_file_bytes = 1 << 16;
  limits.max_line_bytes = 1 << 12;
  limits.max_users = 256;
  limits.max_sequence_length = 64;
  limits.max_item_id = 10000;

  const std::string path = TempPath("fuzz_seq.txt");
  io::Env* env = io::Env::Default();
  Rng rng(4242);
  for (int trial = 0; trial < 512; ++trial) {
    const std::string bytes = MutateVariant(base, &rng);
    ASSERT_TRUE(env->WriteFile(path, bytes).ok());
    data::ValidationOptions options;
    options.policy = (trial % 2 == 0) ? data::ValidationPolicy::kStrict
                                      : data::ValidationPolicy::kRepair;
    options.limits = limits;
    data::QuarantineReport report;
    const Result<data::InteractionDataset> r =
        data::LoadSequenceFileValidated(path, "fuzz", options, &report);
    if (r.ok()) {
      EXPECT_LE(r.value().num_users(), limits.max_users) << "trial " << trial;
      EXPECT_LE(r.value().num_items(), limits.max_item_id)
          << "trial " << trial;
      for (const auto& seq : r.value().sequences()) {
        EXPECT_LE(static_cast<int64_t>(seq.size()),
                  limits.max_sequence_length);
      }
    } else {
      EXPECT_FALSE(r.status().message().empty()) << "trial " << trial;
    }
    // The accounting invariant holds on every path that parsed lines.
    EXPECT_EQ(report.tokens_kept + report.tokens_dropped,
              report.tokens_total)
        << "trial " << trial;
  }
  std::remove(path.c_str());
}

TEST(DataFuzzTest, MutatedCheckpointsAlwaysReturnTypedStatus) {
  core::Slime4RecConfig config;
  config.num_items = 15;
  config.num_users = 5;
  config.max_len = 8;
  config.hidden_dim = 8;
  config.num_layers = 2;
  config.seed = 3;

  const std::string path = TempPath("fuzz_ckpt.bin");
  io::Env* env = io::Env::Default();
  std::string base;
  {
    core::Slime4Rec model(config);
    ASSERT_TRUE(models::SaveCheckpoint(model, path).ok());
    Result<std::string> bytes = env->ReadFile(path);
    ASSERT_TRUE(bytes.ok());
    base = std::move(bytes).value();
  }

  Rng rng(90210);
  int rejected = 0;
  for (int trial = 0; trial < 512; ++trial) {
    const std::string bytes = MutateVariant(base, &rng);
    ASSERT_TRUE(env->WriteFile(path, bytes).ok());
    // A fresh model every time: LoadCheckpoint documents that a failed
    // load may leave partially-copied parameters behind.
    core::Slime4Rec model(config);
    const Status st = models::LoadCheckpoint(&model, path);
    if (!st.ok()) {
      ++rejected;
      EXPECT_FALSE(st.message().empty()) << "trial " << trial;
    }
    // An ok() here means the CRC survived the mutation byte-for-byte —
    // astronomically unlikely but not a bug; the requirement is only
    // "typed Status, no crash".
  }
  // The CRC footer must catch essentially everything.
  EXPECT_GE(rejected, 510);
  std::remove(path.c_str());
}

TEST(DataFuzzTest, MutatedCheckpointHeadersAlwaysReturnTypedStatus) {
  // The corpus above run over the model header alone: each variant is
  // wrapped in a valid envelope, so the header decoder and its validation
  // see bytes the CRC would otherwise have rejected.
  core::Slime4RecConfig config;
  config.num_items = 15;
  config.num_users = 5;
  config.max_len = 8;
  config.hidden_dim = 8;
  config.num_layers = 2;
  config.seed = 3;
  const core::Slime4Rec saved(config);
  io::BinaryWriter header;
  models::PutModelSpec(&header, models::SpecOf(saved));
  io::NamedTensors named;
  for (const auto& [name, variable] : saved.NamedParameters()) {
    named.emplace_back(name, variable.value());
  }
  io::BinaryWriter entries;
  io::PutNamedTensors(&entries, named);

  const std::string path = TempPath("fuzz_ckpt_header.bin");
  io::Env* env = io::Env::Default();
  config.seed = 4;  // the target's weights differ from the file's
  Rng rng(31337);
  int rejected = 0;
  for (int trial = 0; trial < 512; ++trial) {
    const std::string bytes = MutateVariant(header.buffer(), &rng);
    ASSERT_TRUE(
        io::WriteEnvelope(env, path, "SLM3", bytes + entries.buffer()).ok());
    core::Slime4Rec model(config);
    std::vector<Tensor> before;
    for (const auto& p : model.Parameters()) {
      before.push_back(p.value().Clone());
    }
    const Status st = models::LoadCheckpoint(&model, path);
    const Result<models::ModelSpec> spec = models::ReadCheckpointSpec(path);
    if (!spec.ok()) {
      EXPECT_FALSE(spec.status().message().empty()) << "trial " << trial;
    }
    if (st.ok()) continue;  // a flip in a training-only field, say the seed
    ++rejected;
    EXPECT_FALSE(st.message().empty()) << "trial " << trial;
    EXPECT_TRUE(st.code() == Status::Code::kCorruption ||
                st.code() == Status::Code::kInvalidArgument)
        << "trial " << trial << ": " << st.ToString();
    // A rejected load copies nothing.
    const auto params = model.Parameters();
    for (size_t i = 0; i < params.size(); ++i) {
      ASSERT_EQ(std::memcmp(params[i].value().data(), before[i].data(),
                            static_cast<size_t>(before[i].numel()) *
                                sizeof(float)),
                0)
          << "trial " << trial;
    }
  }
  // Most edits shift or change a field the model shares with its file.
  EXPECT_GE(rejected, 400);
  std::remove(path.c_str());
}

// True if `got` is a prefix of `want`.
bool IsPrefixOf(const std::vector<int64_t>& got,
                const std::vector<int64_t>& want) {
  if (got.size() > want.size()) return false;
  return std::equal(got.begin(), got.end(), want.begin());
}

TEST(DataFuzzTest, MutatedWalSegmentsRecoverWithoutFabricatedState) {
  // A known event stream: user u accumulates items u*100+1, u*100+2, ...
  // one per append, round-robin over 4 users, 24 events total. The CRC
  // framing must guarantee that recovery from ANY mutation of the WAL
  // yields per-user histories that are prefixes of this stream — damage
  // may cost events (truncation at the first bad frame) but can never
  // fabricate, reorder, or alter one.
  const std::string dir = TempPath("fuzz_wal_dir");
  io::Env* env = io::Env::Default();
  (void)env->RemoveFile(dir + "/state.snapshot");
  std::vector<std::vector<int64_t>> full(4);
  std::string base;
  {
    state::StateStoreOptions options;
    options.dir = dir;
    options.sync = state::SyncMode::kAlways;
    options.snapshot_every_records = 0;
    (void)env->RemoveFile(dir + "/state.wal");
    Result<std::unique_ptr<state::StateStore>> store =
        state::StateStore::Open(options);
    ASSERT_TRUE(store.ok());
    for (int e = 0; e < 24; ++e) {
      const uint64_t user = static_cast<uint64_t>(e % 4);
      const int64_t item = static_cast<int64_t>(user) * 100 + e / 4 + 1;
      full[user].push_back(item);
      ASSERT_TRUE(store.value()->Append(user, {item}).ok());
    }
    Result<std::string> bytes = env->ReadFile(dir + "/state.wal");
    ASSERT_TRUE(bytes.ok());
    base = std::move(bytes).value();
  }

  Rng rng(777);
  for (int trial = 0; trial < 512; ++trial) {
    const std::string bytes = MutateVariant(base, &rng);
    ASSERT_TRUE(env->WriteFile(dir + "/state.wal", bytes).ok());
    state::StateStoreOptions options;
    options.dir = dir;
    options.sync = state::SyncMode::kNone;
    options.snapshot_every_records = 0;
    Result<std::unique_ptr<state::StateStore>> store =
        state::StateStore::Open(options);
    // A damaged WAL never fails recovery: it truncates at the last valid
    // frame, typed and accounted.
    ASSERT_TRUE(store.ok()) << "trial " << trial << ": "
                            << store.status().ToString();
    const state::RecoveryReport& report = store.value()->recovery();
    EXPECT_LE(report.wal_records_replayed, 24) << "trial " << trial;
    EXPECT_GE(report.wal_bytes_truncated, 0) << "trial " << trial;
    EXPECT_EQ(report.wal_torn, !report.tail_status.ok()) << "trial " << trial;
    for (uint64_t u = 0; u < 4; ++u) {
      EXPECT_TRUE(IsPrefixOf(store.value()->History(u), full[u]))
          << "trial " << trial << " user " << u;
    }
    // Recovery repaired the file in place: a second recovery must be clean
    // and byte-identical in outcome.
    Result<std::unique_ptr<state::StateStore>> again =
        state::StateStore::Open(options);
    ASSERT_TRUE(again.ok()) << "trial " << trial;
    EXPECT_FALSE(again.value()->recovery().wal_torn) << "trial " << trial;
    EXPECT_EQ(again.value()->last_seq(), store.value()->last_seq())
        << "trial " << trial;
    for (uint64_t u = 0; u < 4; ++u) {
      EXPECT_EQ(again.value()->History(u), store.value()->History(u))
          << "trial " << trial << " user " << u;
    }
  }
  std::remove((dir + "/state.wal").c_str());
}

TEST(DataFuzzTest, MutatedSnapshotsAlwaysReturnTypedStatus) {
  const std::string dir = TempPath("fuzz_snap_dir");
  io::Env* env = io::Env::Default();
  std::string base;
  {
    state::StateStoreOptions options;
    options.dir = dir;
    options.sync = state::SyncMode::kAlways;
    options.snapshot_every_records = 0;
    (void)env->RemoveFile(dir + "/state.wal");
    (void)env->RemoveFile(dir + "/state.snapshot");
    Result<std::unique_ptr<state::StateStore>> store =
        state::StateStore::Open(options);
    ASSERT_TRUE(store.ok());
    for (int e = 0; e < 12; ++e) {
      ASSERT_TRUE(
          store.value()->Append(static_cast<uint64_t>(e % 3), {e + 1}).ok());
    }
    ASSERT_TRUE(store.value()->Compact().ok());
    Result<std::string> bytes = env->ReadFile(dir + "/state.snapshot");
    ASSERT_TRUE(bytes.ok());
    base = std::move(bytes).value();
  }

  Rng rng(31337);
  int rejected = 0;
  for (int trial = 0; trial < 512; ++trial) {
    const std::string bytes = MutateVariant(base, &rng);
    ASSERT_TRUE(env->WriteFile(dir + "/state.snapshot", bytes).ok());
    state::StateStoreOptions options;
    options.dir = dir;
    options.sync = state::SyncMode::kNone;
    options.snapshot_every_records = 0;
    Result<std::unique_ptr<state::StateStore>> store =
        state::StateStore::Open(options);
    // Unlike the WAL (append-only, truncate-and-continue), a snapshot is
    // load-bearing: serving must not start from silently-drifted state, so
    // a damaged one fails Open with a typed status.
    if (!store.ok()) {
      ++rejected;
      EXPECT_FALSE(store.status().message().empty()) << "trial " << trial;
    }
    // ok() means the envelope CRC survived byte-for-byte — astronomically
    // unlikely, not a bug; the requirement is "typed Status, no crash".
  }
  EXPECT_GE(rejected, 510);
  std::remove((dir + "/state.snapshot").c_str());
  std::remove((dir + "/state.wal").c_str());
}

}  // namespace
}  // namespace slime
