#include "state/state_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/macros.h"
#include "io/atomic_write.h"
#include "io/checkpoint.h"
#include "io/env.h"
#include "models/recommender.h"
#include "observability/metrics.h"
#include "serving/model_server.h"
#include "state/wal.h"
#include "tensor/tensor.h"

namespace slime {
namespace state {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Returns a state dir guaranteed to start empty (TempDir persists across
/// test runs; stale WAL/snapshot files would change recovery).
std::string FreshStateDir(const std::string& name) {
  const std::string dir = TempPath(name);
  io::Env* env = io::Env::Default();
  for (const char* file : {"/state.wal", "/state.snapshot",
                           "/state.wal.tmp", "/state.snapshot.tmp"}) {
    (void)env->RemoveFile(dir + file);
  }
  return dir;
}

StateStoreOptions Opts(const std::string& dir, SyncMode sync,
                       io::Env* env = nullptr) {
  StateStoreOptions o;
  o.dir = dir;
  o.sync = sync;
  o.snapshot_every_records = 0;  // explicit Compact() only, unless a test opts in
  o.env = env;
  return o;
}

std::unique_ptr<StateStore> MustOpen(const StateStoreOptions& options) {
  Result<std::unique_ptr<StateStore>> store = StateStore::Open(options);
  SLIME_CHECK_MSG(store.ok(), store.status().ToString());
  return std::move(store.value());
}

// --- WriteAheadLog -------------------------------------------------------

TEST(WalTest, AppendScanRoundTrip) {
  io::Env* env = io::Env::Default();
  const std::string path = TempPath("wal_roundtrip.wal");
  (void)env->RemoveFile(path);
  WriteAheadLog wal(path, env);
  ASSERT_TRUE(wal.Append(1, "alpha").ok());
  ASSERT_TRUE(wal.Append(2, "").ok());
  ASSERT_TRUE(wal.Append(3, "gamma-with-longer-payload").ok());
  ASSERT_TRUE(wal.Sync().ok());

  WalScanReport report;
  Result<std::vector<WalRecord>> records =
      WriteAheadLog::Scan(env, path, &report);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), 3u);
  EXPECT_EQ(records.value()[0].payload, "alpha");
  EXPECT_EQ(records.value()[1].payload, "");
  EXPECT_EQ(records.value()[2].payload, "gamma-with-longer-payload");
  EXPECT_EQ(records.value()[2].seq, 3u);
  EXPECT_FALSE(report.torn);
  EXPECT_EQ(report.bytes_truncated, 0);
  EXPECT_TRUE(report.tail_status.ok());
}

TEST(WalTest, MissingFileIsEmptyLog) {
  WalScanReport report;
  Result<std::vector<WalRecord>> records = WriteAheadLog::Scan(
      io::Env::Default(), TempPath("wal_never_written.wal"), &report);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records.value().empty());
  EXPECT_FALSE(report.torn);
}

// The heart of the recovery contract: for EVERY possible tear offset, the
// scan recovers exactly the complete frames before the tear and accounts
// for every dropped byte.
TEST(WalTest, TornTailAtEveryByteOffsetTruncatesExactly) {
  io::Env* env = io::Env::Default();
  const std::string full = WriteAheadLog::EncodeFrame(1, "first-payload") +
                           WriteAheadLog::EncodeFrame(2, "second") +
                           WriteAheadLog::EncodeFrame(3, "third-x");
  const size_t f1 = WriteAheadLog::EncodeFrame(1, "first-payload").size();
  const size_t f2 = f1 + WriteAheadLog::EncodeFrame(2, "second").size();
  const std::string path = TempPath("wal_torn.wal");
  for (size_t cut = 0; cut <= full.size(); ++cut) {
    ASSERT_TRUE(env->WriteFile(path, full.substr(0, cut)).ok());
    WalScanReport report;
    Result<std::vector<WalRecord>> records =
        WriteAheadLog::Scan(env, path, &report);
    ASSERT_TRUE(records.ok()) << "cut=" << cut;
    const size_t want_records = cut >= full.size() ? 3 : cut >= f2 ? 2
                                : cut >= f1       ? 1
                                                  : 0;
    EXPECT_EQ(records.value().size(), want_records) << "cut=" << cut;
    const size_t valid = want_records == 3   ? full.size()
                         : want_records == 2 ? f2
                         : want_records == 1 ? f1
                                             : 0;
    EXPECT_EQ(report.bytes_truncated, static_cast<int64_t>(cut - valid))
        << "cut=" << cut;
    EXPECT_EQ(report.torn, cut != valid) << "cut=" << cut;
    EXPECT_EQ(report.tail_status.ok(), cut == valid) << "cut=" << cut;
  }
}

TEST(WalTest, BitFlipAtEveryOffsetNeverYieldsWrongRecords) {
  io::Env* env = io::Env::Default();
  const std::string full = WriteAheadLog::EncodeFrame(1, "payload-one") +
                           WriteAheadLog::EncodeFrame(2, "payload-two");
  const std::string path = TempPath("wal_bitflip.wal");
  for (size_t i = 0; i < full.size(); ++i) {
    std::string mutated = full;
    mutated[i] ^= 0x20;
    ASSERT_TRUE(env->WriteFile(path, mutated).ok());
    WalScanReport report;
    Result<std::vector<WalRecord>> records =
        WriteAheadLog::Scan(env, path, &report);
    ASSERT_TRUE(records.ok()) << "flip=" << i;
    // Every recovered record must be one of the two originals: a flip can
    // cost records (truncation) but never fabricate or alter one.
    for (const WalRecord& rec : records.value()) {
      if (rec.seq == 1) {
        EXPECT_EQ(rec.payload, "payload-one") << "flip=" << i;
      } else {
        EXPECT_EQ(rec.seq, 2u) << "flip=" << i;
        EXPECT_EQ(rec.payload, "payload-two") << "flip=" << i;
      }
    }
    EXPECT_TRUE(report.torn) << "flip=" << i;
  }
}

TEST(WalTest, SequenceGapTruncatesAtTheGap) {
  io::Env* env = io::Env::Default();
  const std::string path = TempPath("wal_gap.wal");
  ASSERT_TRUE(env->WriteFile(path, WriteAheadLog::EncodeFrame(1, "a") +
                                       WriteAheadLog::EncodeFrame(2, "b") +
                                       WriteAheadLog::EncodeFrame(4, "d"))
                  .ok());
  WalScanReport report;
  Result<std::vector<WalRecord>> records =
      WriteAheadLog::Scan(env, path, &report);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records.value().size(), 2u);
  EXPECT_TRUE(report.torn);
  EXPECT_FALSE(report.tail_status.ok());
}

// --- StateStore basics ---------------------------------------------------

TEST(StateStoreTest, ParseSyncMode) {
  EXPECT_TRUE(ParseSyncMode("always").ok());
  EXPECT_TRUE(ParseSyncMode("group").ok());
  EXPECT_TRUE(ParseSyncMode("none").ok());
  Result<SyncMode> bad = ParseSyncMode("sometimes");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), Status::Code::kInvalidArgument);
}

TEST(StateStoreTest, AppendHistoryVersionAndReopen) {
  const std::string dir = FreshStateDir("store_basic");
  auto store = MustOpen(Opts(dir, SyncMode::kAlways));
  EXPECT_EQ(store->num_users(), 0);
  EXPECT_TRUE(store->History(7).empty());
  EXPECT_EQ(store->UserVersion(7), 0);

  Result<AppendAck> a1 = store->Append(7, {1, 2, 3});
  ASSERT_TRUE(a1.ok());
  EXPECT_EQ(a1.value().seq, 1u);
  EXPECT_TRUE(a1.value().durable);
  EXPECT_EQ(a1.value().version, 1);
  Result<AppendAck> a2 = store->Append(7, {4});
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(a2.value().version, 2);
  ASSERT_TRUE(store->Append(9, {5, 6}).ok());

  EXPECT_EQ(store->History(7), (std::vector<int64_t>{1, 2, 3, 4}));
  EXPECT_EQ(store->History(9), (std::vector<int64_t>{5, 6}));
  EXPECT_EQ(store->num_users(), 2);
  EXPECT_EQ(store->last_seq(), 3u);

  // A second process opening the same dir recovers the identical state.
  auto reopened = MustOpen(Opts(dir, SyncMode::kAlways));
  EXPECT_EQ(reopened->History(7), (std::vector<int64_t>{1, 2, 3, 4}));
  EXPECT_EQ(reopened->History(9), (std::vector<int64_t>{5, 6}));
  EXPECT_EQ(reopened->UserVersion(7), 2);
  EXPECT_EQ(reopened->last_seq(), 3u);
  EXPECT_EQ(reopened->recovery().wal_records_replayed, 3);
  EXPECT_FALSE(reopened->recovery().wal_torn);
}

TEST(StateStoreTest, EmptyAppendIsRejected) {
  auto store = MustOpen(Opts(FreshStateDir("store_empty_append"),
                             SyncMode::kNone));
  Result<AppendAck> ack = store->Append(1, {});
  ASSERT_FALSE(ack.ok());
  EXPECT_EQ(ack.status().code(), Status::Code::kInvalidArgument);
}

TEST(StateStoreTest, CompactThenReopenReplaysSnapshotPlusTail) {
  const std::string dir = FreshStateDir("store_compact");
  auto store = MustOpen(Opts(dir, SyncMode::kAlways));
  ASSERT_TRUE(store->Append(1, {10, 11}).ok());
  ASSERT_TRUE(store->Append(2, {20}).ok());
  ASSERT_TRUE(store->Compact().ok());
  EXPECT_EQ(store->wal_records(), 0);
  EXPECT_TRUE(io::Env::Default()->FileExists(dir + "/state.snapshot"));
  // Post-compaction appends land in the (fresh) WAL tail.
  ASSERT_TRUE(store->Append(1, {12}).ok());

  auto reopened = MustOpen(Opts(dir, SyncMode::kAlways));
  EXPECT_TRUE(reopened->recovery().snapshot_loaded);
  EXPECT_EQ(reopened->recovery().snapshot_seq, 2u);
  EXPECT_EQ(reopened->recovery().wal_records_replayed, 1);
  EXPECT_EQ(reopened->History(1), (std::vector<int64_t>{10, 11, 12}));
  EXPECT_EQ(reopened->History(2), (std::vector<int64_t>{20}));
  EXPECT_EQ(reopened->UserVersion(1), 2);
  EXPECT_EQ(reopened->last_seq(), 3u);
}

TEST(StateStoreTest, AutoCompactionTriggersAtThreshold) {
  StateStoreOptions opts = Opts(FreshStateDir("store_autocompact"),
                                SyncMode::kNone);
  opts.snapshot_every_records = 3;
  auto store = MustOpen(opts);
  ASSERT_TRUE(store->Append(1, {1}).ok());
  ASSERT_TRUE(store->Append(1, {2}).ok());
  EXPECT_EQ(store->wal_records(), 2);
  ASSERT_TRUE(store->Append(1, {3}).ok());  // third record trips the snapshot
  EXPECT_EQ(store->wal_records(), 0);
  EXPECT_TRUE(io::Env::Default()->FileExists(opts.dir + "/state.snapshot"));
}

/// Items first..last, in order.
std::vector<int64_t> ItemRange(int64_t first, int64_t last) {
  std::vector<int64_t> items;
  for (int64_t item = first; item <= last; ++item) items.push_back(item);
  return items;
}

TEST(StateStoreTest, MaxHistoryPerUserTrimsOldest) {
  StateStoreOptions opts = Opts(FreshStateDir("store_trim"), SyncMode::kNone);
  auto store = MustOpen(opts);
  ASSERT_TRUE(store->Append(1, ItemRange(1, kMaxHistoryPerUser)).ok());
  EXPECT_EQ(store->History(1), ItemRange(1, kMaxHistoryPerUser));
  ASSERT_TRUE(store->Append(1, {kMaxHistoryPerUser + 1,
                                kMaxHistoryPerUser + 2}).ok());
  const std::vector<int64_t> want = ItemRange(3, kMaxHistoryPerUser + 2);
  EXPECT_EQ(store->History(1), want);
  // The trim is part of the replayed state machine: recovery agrees.
  ASSERT_TRUE(store->Sync().ok());
  auto reopened = MustOpen(opts);
  EXPECT_EQ(reopened->History(1), want);
}

TEST(StateStoreTest, GroupCommitSyncsEveryNthAppend) {
  io::FaultInjectionEnv env;
  StateStoreOptions opts =
      Opts(FreshStateDir("store_group"), SyncMode::kGroup, &env);
  auto store = MustOpen(opts);
  const int64_t baseline = env.syncs_seen();
  for (int64_t i = 1; i < kGroupCommitEvery; ++i) {
    Result<AppendAck> ack = store->Append(1, {i});
    ASSERT_TRUE(ack.ok());
    EXPECT_FALSE(ack.value().durable) << i;
  }
  EXPECT_EQ(env.syncs_seen(), baseline);  // no barrier yet
  Result<AppendAck> last = store->Append(1, {kGroupCommitEvery});
  ASSERT_TRUE(last.ok());
  EXPECT_TRUE(last.value().durable);  // the 8th append runs the barrier
  EXPECT_EQ(env.syncs_seen(), baseline + 1);
  // Explicit barrier flushes a partial group.
  ASSERT_TRUE(store->Append(1, {4}).ok());
  ASSERT_TRUE(store->Sync().ok());
  EXPECT_EQ(env.syncs_seen(), baseline + 2);
  // And an empty group is a no-op.
  ASSERT_TRUE(store->Sync().ok());
  EXPECT_EQ(env.syncs_seen(), baseline + 2);
}

TEST(StateStoreTest, FailedSyncBarrierRefusesTheAck) {
  io::FaultInjectionEnv env;
  auto store = MustOpen(
      Opts(FreshStateDir("store_failsync"), SyncMode::kAlways, &env));
  ASSERT_TRUE(store->Append(1, {1}).ok());
  env.ArmFault(io::FaultInjectionEnv::Fault::kFailSync);
  Result<AppendAck> refused = store->Append(1, {2});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), Status::Code::kIOError);
  // The event was not accepted: the in-memory state does not include it.
  EXPECT_EQ(store->History(1), (std::vector<int64_t>{1}));
  EXPECT_EQ(store->UserVersion(1), 1);
  // The store remains usable once the fault clears.
  Result<AppendAck> next = store->Append(1, {3});
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(store->History(1), (std::vector<int64_t>{1, 3}));
  // A refused event is expunged by the next compaction (its WAL bytes are
  // covered by snapshot_seq), so recovery converges to the refused-free
  // state.
  ASSERT_TRUE(store->Compact().ok());
  auto reopened = MustOpen(
      Opts(TempPath("store_failsync"), SyncMode::kAlways, &env));
  EXPECT_EQ(reopened->History(1), (std::vector<int64_t>{1, 3}));
}

TEST(StateStoreTest, CorruptSnapshotFailsOpenTyped) {
  const std::string dir = FreshStateDir("store_badsnap");
  {
    auto store = MustOpen(Opts(dir, SyncMode::kAlways));
    ASSERT_TRUE(store->Append(1, {1, 2}).ok());
    ASSERT_TRUE(store->Compact().ok());
  }
  io::Env* env = io::Env::Default();
  Result<std::string> bytes = env->ReadFile(dir + "/state.snapshot");
  ASSERT_TRUE(bytes.ok());
  std::string mutated = bytes.value();
  mutated[mutated.size() / 2] ^= 0x01;
  ASSERT_TRUE(env->WriteFile(dir + "/state.snapshot", mutated).ok());
  Result<std::unique_ptr<StateStore>> reopened =
      StateStore::Open(Opts(dir, SyncMode::kAlways));
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), Status::Code::kCorruption);
}

// --- Kill-at-any-byte property tests -------------------------------------

/// For every crash offset b inside the victim record's frame: recovery
/// yields exactly the acked set; the victim survives only when its frame
/// landed completely (b == frame size), in which case the log is clean.
TEST(StateStoreKillTest, KillAtAnyByteDuringWalAppendLosesOnlyTheVictim) {
  // Event payload: u64 user_id + u32 count + count * i64 items.
  const size_t frame_size = WriteAheadLog::kFrameHeader + 8 + 4 + 8;
  for (size_t b = 0; b <= frame_size; ++b) {
    io::FaultInjectionEnv env;
    const std::string dir =
        FreshStateDir("kill_append_" + std::to_string(b));
    StateStoreOptions opts = Opts(dir, SyncMode::kAlways, &env);
    {
      auto store = MustOpen(opts);
      ASSERT_TRUE(store->Append(1, {10, 11}).ok());
      ASSERT_TRUE(store->Append(2, {20}).ok());
      ASSERT_TRUE(store->Append(1, {12}).ok());
      // The acked set is now {seq 1..3}. Kill the process after exactly b
      // bytes of the victim's frame reach the file.
      env.set_torn_tail_bytes(static_cast<int64_t>(b));
      env.ArmFault(io::FaultInjectionEnv::Fault::kCrashDuringWrite);
      EXPECT_THROW((void)store->Append(5, {99}), io::InjectedCrash);
      // The store object dies with the process.
    }
    env.set_torn_tail_bytes(-1);
    env.Disarm();
    auto recovered = MustOpen(opts);
    // Zero acked loss, at every crash offset.
    EXPECT_EQ(recovered->History(1), (std::vector<int64_t>{10, 11, 12}))
        << "b=" << b;
    EXPECT_EQ(recovered->History(2), (std::vector<int64_t>{20})) << "b=" << b;
    const bool victim_survived = b == frame_size;
    EXPECT_EQ(recovered->History(5),
              victim_survived ? std::vector<int64_t>{99}
                              : std::vector<int64_t>{})
        << "b=" << b;
    EXPECT_EQ(recovered->last_seq(), victim_survived ? 4u : 3u) << "b=" << b;
    // Exact loss accounting: precisely the b torn bytes, typed.
    const RecoveryReport& report = recovered->recovery();
    if (b == 0 || victim_survived) {
      EXPECT_FALSE(report.wal_torn) << "b=" << b;
      EXPECT_TRUE(report.tail_status.ok()) << "b=" << b;
    } else {
      EXPECT_TRUE(report.wal_torn) << "b=" << b;
      EXPECT_EQ(report.wal_bytes_truncated, static_cast<int64_t>(b))
          << "b=" << b;
      EXPECT_EQ(report.tail_status.code(), Status::Code::kCorruption)
          << "b=" << b;
    }
    // Recovery repaired the log: a second recovery is clean and identical.
    auto again = MustOpen(opts);
    EXPECT_FALSE(again->recovery().wal_torn) << "b=" << b;
    EXPECT_EQ(again->History(1), recovered->History(1)) << "b=" << b;
    EXPECT_EQ(again->last_seq(), recovered->last_seq()) << "b=" << b;
  }
}

/// Crash the snapshot staging write at every byte offset: the WAL still
/// holds everything, so recovery must reproduce the full acked set with
/// zero loss, every time.
TEST(StateStoreKillTest, KillAtAnyByteDuringCompactionLosesNothing) {
  // Probe the snapshot file size once (staged bytes = envelope size).
  size_t snapshot_size = 0;
  {
    const std::string dir = FreshStateDir("kill_compact_probe");
    auto store = MustOpen(Opts(dir, SyncMode::kAlways));
    ASSERT_TRUE(store->Append(1, {10, 11}).ok());
    ASSERT_TRUE(store->Append(2, {20}).ok());
    ASSERT_TRUE(store->Compact().ok());
    Result<std::string> bytes =
        io::Env::Default()->ReadFile(dir + "/state.snapshot");
    ASSERT_TRUE(bytes.ok());
    snapshot_size = bytes.value().size();
    ASSERT_GT(snapshot_size, 0u);
  }
  for (size_t b = 0; b <= snapshot_size; ++b) {
    io::FaultInjectionEnv env;
    StateStoreOptions opts =
        Opts(FreshStateDir("kill_compact_" + std::to_string(b)),
             SyncMode::kAlways, &env);
    {
      auto store = MustOpen(opts);
      ASSERT_TRUE(store->Append(1, {10, 11}).ok());
      ASSERT_TRUE(store->Append(2, {20}).ok());
      env.set_torn_tail_bytes(static_cast<int64_t>(b));
      env.ArmFault(io::FaultInjectionEnv::Fault::kCrashDuringWrite);
      EXPECT_THROW((void)store->Compact(), io::InjectedCrash);
    }
    env.set_torn_tail_bytes(-1);
    env.Disarm();
    auto recovered = MustOpen(opts);
    EXPECT_EQ(recovered->History(1), (std::vector<int64_t>{10, 11}))
        << "b=" << b;
    EXPECT_EQ(recovered->History(2), (std::vector<int64_t>{20})) << "b=" << b;
    EXPECT_EQ(recovered->last_seq(), 2u) << "b=" << b;
    // The crash hit the staged .tmp; the published snapshot never existed.
    EXPECT_FALSE(recovered->recovery().snapshot_loaded) << "b=" << b;
  }
}

/// Crash between the published snapshot and the WAL truncation: recovery
/// must not double-apply the records the snapshot already covers.
TEST(StateStoreKillTest, KillBetweenSnapshotAndWalResetDoesNotDoubleApply) {
  io::FaultInjectionEnv env;
  StateStoreOptions opts =
      Opts(FreshStateDir("kill_reset"), SyncMode::kAlways, &env);
  {
    auto store = MustOpen(opts);
    ASSERT_TRUE(store->Append(1, {10, 11}).ok());
    ASSERT_TRUE(store->Append(2, {20}).ok());
    // Compaction's write-kind ops: 1 = snapshot .tmp stage, 2 = WAL reset.
    env.ArmFault(io::FaultInjectionEnv::Fault::kCrashDuringWrite, 2);
    EXPECT_THROW((void)store->Compact(), io::InjectedCrash);
  }
  env.Disarm();
  auto recovered = MustOpen(opts);
  EXPECT_TRUE(recovered->recovery().snapshot_loaded);
  EXPECT_EQ(recovered->recovery().wal_records_replayed, 0);
  EXPECT_EQ(recovered->History(1), (std::vector<int64_t>{10, 11}));
  EXPECT_EQ(recovered->History(2), (std::vector<int64_t>{20}));
  EXPECT_EQ(recovered->last_seq(), 2u);
}

TEST(StateStoreKillTest, FailedSnapshotRenameKeepsServingAndRecovers) {
  io::FaultInjectionEnv env;
  StateStoreOptions opts =
      Opts(FreshStateDir("fail_rename"), SyncMode::kAlways, &env);
  auto store = MustOpen(opts);
  ASSERT_TRUE(store->Append(1, {10}).ok());
  env.ArmFault(io::FaultInjectionEnv::Fault::kFailRename);
  EXPECT_FALSE(store->Compact().ok());
  // The store keeps serving and the WAL still covers the state.
  ASSERT_TRUE(store->Append(1, {11}).ok());
  EXPECT_EQ(store->History(1), (std::vector<int64_t>{10, 11}));
  auto recovered = MustOpen(opts);
  EXPECT_EQ(recovered->History(1), (std::vector<int64_t>{10, 11}));
}

/// A lying disk: the append "succeeds" (and syncs) but only a prefix hit
/// the platter. Recovery must detect the torn tail, lose exactly the lied-
/// about event, and report the loss typed.
TEST(StateStoreKillTest, SilentTornTailIsDetectedAndAccounted) {
  io::FaultInjectionEnv env;
  StateStoreOptions opts =
      Opts(FreshStateDir("silent_torn"), SyncMode::kAlways, &env);
  uint64_t acked_seq = 0;
  {
    auto store = MustOpen(opts);
    ASSERT_TRUE(store->Append(1, {10, 11}).ok());
    acked_seq = store->last_seq();
    env.set_torn_tail_bytes(7);
    env.ArmFault(io::FaultInjectionEnv::Fault::kTornTailWrite);
    Result<AppendAck> lied = store->Append(2, {20});
    ASSERT_TRUE(lied.ok());  // the env lied; the store cannot know
  }
  env.set_torn_tail_bytes(-1);
  auto recovered = MustOpen(opts);
  EXPECT_EQ(recovered->History(1), (std::vector<int64_t>{10, 11}));
  EXPECT_TRUE(recovered->History(2).empty());
  EXPECT_EQ(recovered->last_seq(), acked_seq);
  EXPECT_TRUE(recovered->recovery().wal_torn);
  EXPECT_EQ(recovered->recovery().wal_bytes_truncated, 7);
  EXPECT_EQ(recovered->recovery().tail_status.code(),
            Status::Code::kCorruption);
}

// --- Per-user digests (anti-entropy) -------------------------------------

/// The digest is an incremental fold over every item ever appended: the
/// store's value must equal folding ExtendItemDigest over the appends by
/// hand, and items_total must count appends monotonically (not history
/// length).
TEST(DigestTest, DigestIsTheIncrementalFoldOverAppendedItems) {
  auto store = MustOpen(Opts(FreshStateDir("digest_fold"), SyncMode::kNone));
  EXPECT_EQ(store->Digest(1).items_total, 0u);
  EXPECT_EQ(store->Digest(1).crc, 0u);
  const std::vector<int64_t> a = {10, 11};
  const std::vector<int64_t> b = {12};
  ASSERT_TRUE(store->Append(1, a).ok());
  ASSERT_TRUE(store->Append(1, b).ok());
  uint32_t crc = 0;
  crc = ExtendItemDigest(crc, a.data(), a.size());
  crc = ExtendItemDigest(crc, b.data(), b.size());
  const UserDigest d = store->Digest(1);
  EXPECT_EQ(d.user_id, 1u);
  EXPECT_EQ(d.items_total, 3u);
  EXPECT_EQ(d.crc, crc);
  // One-shot and incremental folds agree (the repair path relies on this
  // to pre-verify a suffix before appending it).
  const std::vector<int64_t> all = {10, 11, 12};
  EXPECT_EQ(ExtendItemDigest(0, all.data(), all.size()), crc);
}

/// Two replicas that saw the same appends report the same digest even if
/// their WAL seqs differ — the digest is replica-comparable.
TEST(DigestTest, DigestIgnoresReplicaLocalSequencing) {
  auto a = MustOpen(Opts(FreshStateDir("digest_seq_a"), SyncMode::kNone));
  auto b = MustOpen(Opts(FreshStateDir("digest_seq_b"), SyncMode::kNone));
  // Replica b has extra traffic for other users, skewing its seqs.
  ASSERT_TRUE(b->Append(9, {1}).ok());
  ASSERT_TRUE(b->Append(9, {2}).ok());
  ASSERT_TRUE(a->Append(1, {10, 11}).ok());
  ASSERT_TRUE(b->Append(1, {10, 11}).ok());
  EXPECT_NE(a->last_seq(), b->last_seq());
  EXPECT_EQ(a->Digest(1), b->Digest(1));
}

TEST(DigestTest, TailItemsReturnsTheSuffix) {
  auto store = MustOpen(Opts(FreshStateDir("digest_tail"), SyncMode::kNone));
  ASSERT_TRUE(store->Append(1, {10, 11, 12}).ok());
  EXPECT_EQ(store->TailItems(1, 0), (std::vector<int64_t>{}));
  EXPECT_EQ(store->TailItems(1, 2), (std::vector<int64_t>{11, 12}));
  EXPECT_EQ(store->TailItems(1, 3), (std::vector<int64_t>{10, 11, 12}));
  // Asking for more than is retained returns what remains, not padding —
  // the repair path detects a too-deep trim from the short length.
  EXPECT_EQ(store->TailItems(1, 99), (std::vector<int64_t>{10, 11, 12}));
  EXPECT_EQ(store->TailItems(42, 5), (std::vector<int64_t>{}));
}

TEST(DigestTest, EnumerateDigestsIsOrderedAndFilterable) {
  auto store = MustOpen(Opts(FreshStateDir("digest_enum"), SyncMode::kNone));
  ASSERT_TRUE(store->Append(3, {30}).ok());
  ASSERT_TRUE(store->Append(1, {10}).ok());
  ASSERT_TRUE(store->Append(2, {20}).ok());
  const std::vector<UserDigest> all = store->EnumerateDigests();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].user_id, 1u);
  EXPECT_EQ(all[1].user_id, 2u);
  EXPECT_EQ(all[2].user_id, 3u);
  const std::vector<UserDigest> odd = store->EnumerateDigests(
      [](uint64_t user) { return user % 2 == 1; });
  ASSERT_EQ(odd.size(), 2u);
  EXPECT_EQ(odd[0].user_id, 1u);
  EXPECT_EQ(odd[1].user_id, 3u);
}

/// History trimming keeps the digest: the digest covers every item ever
/// appended, so a trimmed store's digest equals ExtendItemDigest folded
/// over the whole append stream — and the digest survives reopen (it rides
/// in the snapshot because it cannot be recomputed from a trimmed
/// history).
TEST(DigestTest, DigestSurvivesTrimCompactionAndReopen) {
  const StateStoreOptions trimmed_opts =
      Opts(FreshStateDir("digest_trim"), SyncMode::kAlways);
  // A digest folded over every item appended, without any trimming.
  uint32_t untrimmed_crc = 0;
  // Five appends of 1000 items: the store keeps the last kMaxHistoryPerUser.
  const int64_t total = 5000;
  const std::vector<int64_t> kept =
      ItemRange(100 + total - kMaxHistoryPerUser, 100 + total - 1);
  UserDigest expected;
  {
    auto trimmed = MustOpen(trimmed_opts);
    for (int64_t first = 100; first < 100 + total; first += 1000) {
      const std::vector<int64_t> items = ItemRange(first, first + 999);
      ASSERT_TRUE(trimmed->Append(1, items).ok());
      untrimmed_crc = ExtendItemDigest(untrimmed_crc, items.data(),
                                       items.size());
    }
    EXPECT_EQ(trimmed->History(1), kept);
    expected.user_id = 1;
    expected.items_total = total;
    expected.crc = untrimmed_crc;
    EXPECT_EQ(trimmed->Digest(1), expected);
    // Compact so recovery comes from the snapshot alone: the digest can
    // only survive if it was persisted.
    ASSERT_TRUE(trimmed->Compact().ok());
  }
  auto reopened = MustOpen(trimmed_opts);
  EXPECT_EQ(reopened->History(1), kept);
  EXPECT_EQ(reopened->Digest(1), expected);
}

/// digest(recovered) == digest(never-crashed) at every crash offset inside
/// the victim frame: WAL recovery replays the digest fold exactly.
TEST(DigestTest, DigestIdenticalAfterKillAtAnyByteWalRecovery) {
  // Reference store that never crashes, holding only the acked set.
  auto reference =
      MustOpen(Opts(FreshStateDir("digest_kill_ref"), SyncMode::kNone));
  ASSERT_TRUE(reference->Append(1, {10, 11}).ok());
  ASSERT_TRUE(reference->Append(2, {20}).ok());
  ASSERT_TRUE(reference->Append(1, {12}).ok());
  const size_t frame_size = WriteAheadLog::kFrameHeader + 8 + 4 + 8;
  for (size_t b = 0; b < frame_size; ++b) {
    io::FaultInjectionEnv env;
    StateStoreOptions opts =
        Opts(FreshStateDir("digest_kill_" + std::to_string(b)),
             SyncMode::kAlways, &env);
    {
      auto store = MustOpen(opts);
      ASSERT_TRUE(store->Append(1, {10, 11}).ok());
      ASSERT_TRUE(store->Append(2, {20}).ok());
      ASSERT_TRUE(store->Append(1, {12}).ok());
      env.set_torn_tail_bytes(static_cast<int64_t>(b));
      env.ArmFault(io::FaultInjectionEnv::Fault::kCrashDuringWrite);
      EXPECT_THROW((void)store->Append(5, {99}), io::InjectedCrash);
    }
    env.set_torn_tail_bytes(-1);
    env.Disarm();
    auto recovered = MustOpen(opts);
    EXPECT_EQ(recovered->Digest(1), reference->Digest(1)) << "b=" << b;
    EXPECT_EQ(recovered->Digest(2), reference->Digest(2)) << "b=" << b;
    // The victim never acked; its digest must be absent, not partial.
    EXPECT_EQ(recovered->Digest(5).items_total, 0u) << "b=" << b;
    EXPECT_EQ(recovered->Digest(5).crc, 0u) << "b=" << b;
  }
}

/// digest(recovered) == digest(never-crashed) when the crash lands inside
/// the snapshot staging write: recovery falls back to the WAL and replays
/// the same fold.
TEST(DigestTest, DigestIdenticalAfterKillDuringCompaction) {
  auto reference =
      MustOpen(Opts(FreshStateDir("digest_compact_ref"), SyncMode::kNone));
  ASSERT_TRUE(reference->Append(1, {10, 11}).ok());
  ASSERT_TRUE(reference->Append(2, {20}).ok());
  for (size_t b = 0; b < 24; ++b) {
    io::FaultInjectionEnv env;
    StateStoreOptions opts =
        Opts(FreshStateDir("digest_compact_" + std::to_string(b)),
             SyncMode::kAlways, &env);
    {
      auto store = MustOpen(opts);
      ASSERT_TRUE(store->Append(1, {10, 11}).ok());
      ASSERT_TRUE(store->Append(2, {20}).ok());
      env.set_torn_tail_bytes(static_cast<int64_t>(b));
      env.ArmFault(io::FaultInjectionEnv::Fault::kCrashDuringWrite);
      EXPECT_THROW((void)store->Compact(), io::InjectedCrash);
    }
    env.set_torn_tail_bytes(-1);
    env.Disarm();
    auto recovered = MustOpen(opts);
    EXPECT_EQ(recovered->Digest(1), reference->Digest(1)) << "b=" << b;
    EXPECT_EQ(recovered->Digest(2), reference->Digest(2)) << "b=" << b;
  }
}

/// A pre-digest (v1) snapshot must fail open with a typed error rather
/// than decode with silently-zero digests that would defeat repair.
TEST(DigestTest, StaleSnapshotVersionFailsOpenTyped) {
  const std::string dir = FreshStateDir("digest_stale_snap");
  {
    auto store = MustOpen(Opts(dir, SyncMode::kAlways));
    ASSERT_TRUE(store->Append(1, {1, 2}).ok());
    ASSERT_TRUE(store->Compact().ok());
  }
  io::Env* env = io::Env::Default();
  Result<std::string> bytes = env->ReadFile(dir + "/state.snapshot");
  ASSERT_TRUE(bytes.ok());
  std::string mutated = bytes.value();
  ASSERT_EQ(mutated.substr(0, 4), "SST2");
  mutated[3] = '1';  // regress the magic to the digest-less v1 layout
  ASSERT_TRUE(env->WriteFile(dir + "/state.snapshot", mutated).ok());
  Result<std::unique_ptr<StateStore>> reopened =
      StateStore::Open(Opts(dir, SyncMode::kAlways));
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), Status::Code::kCorruption);
}

// --- ModelServer session serving ----------------------------------------

class SessionModel : public models::SequentialRecommender {
 public:
  explicit SessionModel(const models::ModelConfig& config)
      : SequentialRecommender(config) {
    shift_ = RegisterParameter(
        "shift", autograd::Variable(Tensor::Scalar(0.0f),
                                    /*requires_grad=*/true));
  }
  autograd::Variable Loss(const data::Batch& batch) override {
    (void)batch;
    return shift_;
  }
  Tensor ScoreAll(const data::Batch& batch) override {
    ++calls_;
    const int64_t cols = config_.num_items + 1;
    Tensor scores = Tensor::Zeros({batch.size, cols});
    float* out = scores.data();
    for (int64_t b = 0; b < batch.size; ++b) {
      for (int64_t j = 0; j < cols; ++j) {
        out[b * cols + j] = static_cast<float>(j);
      }
    }
    return scores;
  }
  std::string name() const override { return "Session"; }
  int64_t calls() const { return calls_; }

 private:
  autograd::Variable shift_;
  int64_t calls_ = 0;
};

models::ModelConfig TinyConfig() {
  models::ModelConfig c;
  c.num_items = 10;
  c.num_users = 4;
  c.max_len = 8;
  c.hidden_dim = 4;
  c.num_layers = 1;
  return c;
}

serving::ServeRequest SessionRequest() {
  serving::ServeRequest request;
  request.options.top_k = 3;
  request.options.exclude_seen = false;
  return request;
}

int64_t CounterValue(const obs::MetricsRegistry& registry,
                     const std::string& name) {
  for (const auto& c : registry.Snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

TEST(SessionServingTest, ServeSessionReadsLiveStateAndCaches) {
  obs::MetricsRegistry metrics;
  serving::ModelServerOptions options;
  options.metrics = &metrics;
  serving::ModelServer server(options);
  auto model = std::make_unique<SessionModel>(TinyConfig());
  SessionModel* model_ptr = model.get();
  ASSERT_TRUE(server.Start(std::move(model)).ok());

  // Stateless server: session APIs refuse, typed.
  EXPECT_EQ(server.ServeSession(1, SessionRequest()).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(server.AppendEvent(1, {1}).status().code(),
            Status::Code::kInvalidArgument);

  StateStoreOptions sopts =
      Opts(FreshStateDir("session_store"), SyncMode::kAlways);
  sopts.metrics = &metrics;
  server.AttachStateStore(MustOpen(sopts));
  ASSERT_NE(server.state_store(), nullptr);

  // Unknown user: typed NotFound, not an empty ranking.
  EXPECT_EQ(server.ServeSession(1, SessionRequest()).status().code(),
            Status::Code::kNotFound);

  ASSERT_TRUE(server.AppendEvent(1, {3, 4}).ok());
  Result<serving::ServeResponse> first =
      server.ServeSession(1, SessionRequest());
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().items.size(), 3u);
  const int64_t calls_after_first = model_ptr->calls();
  EXPECT_EQ(CounterValue(metrics, "state.session_misses"), 1);

  // Same user, unchanged state: served from cache, no forward pass.
  Result<serving::ServeResponse> second =
      server.ServeSession(1, SessionRequest());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(model_ptr->calls(), calls_after_first);
  EXPECT_EQ(CounterValue(metrics, "state.session_hits"), 1);

  // An append invalidates the cached entry; the next session recomputes.
  ASSERT_TRUE(server.AppendEvent(1, {5}).ok());
  EXPECT_EQ(CounterValue(metrics, "state.session_invalidations"), 1);
  Result<serving::ServeResponse> third =
      server.ServeSession(1, SessionRequest());
  ASSERT_TRUE(third.ok());
  EXPECT_GT(model_ptr->calls(), calls_after_first);
  EXPECT_EQ(CounterValue(metrics, "state.session_misses"), 2);

  // Different ranking options bypass the cached entry too.
  serving::ServeRequest top5 = SessionRequest();
  top5.options.top_k = 5;
  Result<serving::ServeResponse> fourth = server.ServeSession(1, top5);
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ(fourth.value().items.size(), 5u);
  EXPECT_EQ(CounterValue(metrics, "state.session_misses"), 3);
}

TEST(SessionServingTest, ReloadStateFromDiskRecoversDurableState) {
  serving::ModelServerOptions options;
  serving::ModelServer server(options);
  ASSERT_TRUE(server.Start(std::make_unique<SessionModel>(TinyConfig())).ok());
  StateStoreOptions sopts =
      Opts(FreshStateDir("session_reload"), SyncMode::kAlways);
  server.AttachStateStore(MustOpen(sopts));
  ASSERT_TRUE(server.AppendEvent(1, {3, 4}).ok());
  ASSERT_TRUE(server.ServeSession(1, SessionRequest()).ok());
  ASSERT_TRUE(server.ReloadStateFromDisk().ok());
  EXPECT_EQ(server.state_store()->History(1), (std::vector<int64_t>{3, 4}));
  ASSERT_TRUE(server.ServeSession(1, SessionRequest()).ok());
}

// --- Cluster state -------------------------------------------------------

TEST(ClusterStateTest, ReplicatedAppendsSurviveShardKillAndRecoverOnRestore) {
  cluster::ClusterOptions options;
  options.num_shards = 3;
  options.replication = 2;
  options.state_dir = FreshStateDir("cluster_state");
  options.state_sync = SyncMode::kAlways;
  // Clear per-shard files from previous runs.
  for (int64_t s = 0; s < options.num_shards; ++s) {
    FreshStateDir("cluster_state/shard_" + std::to_string(s));
  }
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  cluster::ClusterServer cluster(
      options, [] { return std::make_unique<SessionModel>(TinyConfig()); });
  ASSERT_TRUE(cluster.Start().ok());

  const uint64_t user = 42;
  const std::vector<int64_t> replicas =
      cluster.ring().Replicas(cluster.ring().SegmentOf(user));
  ASSERT_EQ(replicas.size(), 2u);
  const int64_t primary = replicas[0];
  const int64_t secondary = replicas[1];

  // A replicated write lands on both replicas and says so in the ack.
  Result<AppendAck> a1 = cluster.AppendEvent(user, {3, 4});
  ASSERT_TRUE(a1.ok());
  EXPECT_TRUE(a1.value().durable);
  EXPECT_EQ(a1.value().replica_acks, 2);
  EXPECT_EQ(cluster.shard_server(primary)->state_store()->History(user),
            (std::vector<int64_t>{3, 4}));
  EXPECT_EQ(cluster.shard_server(secondary)->state_store()->History(user),
            (std::vector<int64_t>{3, 4}));

  // Kill the primary: appends keep acking via the survivor; session serving
  // fails over.
  cluster.KillShard(primary);
  Result<AppendAck> a2 = cluster.AppendEvent(user, {5});
  ASSERT_TRUE(a2.ok());
  // The ack is honest about the blast radius: one replica short of R.
  EXPECT_EQ(a2.value().replica_acks, 1);
  EXPECT_EQ(CounterValue(metrics, "cluster.state.underreplicated_appends"),
            1);
  Result<serving::ServeResponse> served =
      cluster.ServeSession(user, SessionRequest());
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(cluster.shard_server(secondary)->state_store()->History(user),
            (std::vector<int64_t>{3, 4, 5}));

  // Restore: the revived shard recovers exactly its own durable prefix.
  // Anti-entropy (hinted handoff, repair_on_restore) is opt-in and off
  // here, so the append it missed while dead lives only on the survivor —
  // see the ClusterAntiEntropyTest suite for the repair paths.
  ASSERT_TRUE(cluster.RestoreShard(primary).ok());
  EXPECT_EQ(cluster.shard_server(primary)->state_store()->History(user),
            (std::vector<int64_t>{3, 4}));
  EXPECT_EQ(CounterValue(metrics, "cluster.state_appends"), 2);

  // A stateless cluster refuses the session APIs, typed.
  cluster::ClusterOptions stateless = options;
  stateless.state_dir.clear();
  stateless.metrics = nullptr;
  cluster::ClusterServer plain(
      stateless, [] { return std::make_unique<SessionModel>(TinyConfig()); });
  ASSERT_TRUE(plain.Start().ok());
  EXPECT_EQ(plain.AppendEvent(user, {1}).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(plain.ServeSession(user, SessionRequest()).status().code(),
            Status::Code::kInvalidArgument);
}

TEST(ClusterStateTest, StateSurvivesRollingReload) {
  const std::string ckpt = TempPath("cluster_state_reload.ckpt");
  {
    SessionModel model(TinyConfig());
    ASSERT_TRUE(io::SaveCheckpoint(model, ckpt).ok());
  }
  cluster::ClusterOptions options;
  options.num_shards = 2;
  options.replication = 2;
  options.state_dir = FreshStateDir("cluster_state_rr");
  options.state_sync = SyncMode::kGroup;
  for (int64_t s = 0; s < options.num_shards; ++s) {
    FreshStateDir("cluster_state_rr/shard_" + std::to_string(s));
  }
  cluster::ClusterServer cluster(
      options, [] { return std::make_unique<SessionModel>(TinyConfig()); });
  ASSERT_TRUE(cluster.Start().ok());
  const uint64_t user = 7;
  ASSERT_TRUE(cluster.AppendEvent(user, {2, 3}).ok());
  ASSERT_TRUE(cluster.RollingReload(ckpt).ok());
  // Model generations swapped; the per-shard stores were untouched.
  for (int64_t s = 0; s < options.num_shards; ++s) {
    EXPECT_EQ(cluster.shard_server(s)->state_store()->History(user),
              (std::vector<int64_t>{2, 3}));
  }
  ASSERT_TRUE(cluster.ServeSession(user, SessionRequest()).ok());
}

// --- Cluster anti-entropy ------------------------------------------------

/// Stateful 3-shard R=2 cluster with a fresh state tree; anti-entropy
/// flags stay at their defaults (off) so each test arms exactly what it
/// exercises.
cluster::ClusterOptions AntiEntropyClusterOptions(const std::string& name) {
  cluster::ClusterOptions options;
  options.num_shards = 3;
  options.replication = 2;
  options.state_dir = FreshStateDir(name);
  options.state_sync = SyncMode::kAlways;
  for (int64_t s = 0; s < options.num_shards; ++s) {
    FreshStateDir(name + "/shard_" + std::to_string(s));
  }
  return options;
}

cluster::ClusterServer::ModelFactory SessionFactory() {
  return [] { return std::make_unique<SessionModel>(TinyConfig()); };
}

TEST(ClusterAntiEntropyTest, HintedHandoffReplaysMissedAppendsOnRestore) {
  cluster::ClusterOptions options = AntiEntropyClusterOptions("ae_handoff");
  options.hinted_handoff = true;
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  cluster::ClusterServer cluster(options, SessionFactory());
  ASSERT_TRUE(cluster.Start().ok());

  const uint64_t user = 42;
  const std::vector<int64_t> replicas =
      cluster.ring().Replicas(cluster.ring().SegmentOf(user));
  const int64_t primary = replicas[0];
  const int64_t secondary = replicas[1];
  ASSERT_TRUE(cluster.AppendEvent(user, {3, 4}).ok());

  cluster.KillShard(primary);
  ASSERT_TRUE(cluster.AppendEvent(user, {5}).ok());
  ASSERT_TRUE(cluster.AppendEvent(user, {6}).ok());
  EXPECT_EQ(cluster.hints_pending(), 2);
  const cluster::ClusterStats mid = cluster.stats();
  EXPECT_EQ(mid.underreplicated_appends, 2);
  EXPECT_EQ(mid.hints_queued, 2);
  EXPECT_EQ(mid.hints_dropped, 0);

  // Restore replays the backlog in origin order before the shard takes
  // traffic: the revived replica holds the full acked history, exactly.
  ASSERT_TRUE(cluster.RestoreShard(primary).ok());
  EXPECT_EQ(cluster.shard_server(primary)->state_store()->History(user),
            (std::vector<int64_t>{3, 4, 5, 6}));
  EXPECT_EQ(cluster.hints_pending(), 0);
  const cluster::ClusterStats after = cluster.stats();
  EXPECT_EQ(after.hints_replayed, 2);
  EXPECT_EQ(after.hints_dropped, 0);
  EXPECT_EQ(after.hints_pending, 0);
  EXPECT_EQ(cluster.shard_server(primary)->state_store()->Digest(user),
            cluster.shard_server(secondary)->state_store()->Digest(user));
  EXPECT_EQ(CounterValue(metrics, "cluster.repair.hints_replayed"), 2);
}

TEST(ClusterAntiEntropyTest, RepairOnRestoreBackfillsWithoutHints) {
  cluster::ClusterOptions options = AntiEntropyClusterOptions("ae_sweep");
  options.repair_on_restore = true;  // no hinted handoff: sweep-only heal
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  cluster::ClusterServer cluster(options, SessionFactory());
  ASSERT_TRUE(cluster.Start().ok());

  const uint64_t user = 42;
  const std::vector<int64_t> replicas =
      cluster.ring().Replicas(cluster.ring().SegmentOf(user));
  const int64_t primary = replicas[0];
  const int64_t secondary = replicas[1];
  ASSERT_TRUE(cluster.AppendEvent(user, {3, 4}).ok());
  cluster.KillShard(primary);
  ASSERT_TRUE(cluster.AppendEvent(user, {5}).ok());
  ASSERT_TRUE(cluster.AppendEvent(user, {6}).ok());
  EXPECT_EQ(cluster.hints_pending(), 0);  // handoff off: nothing queued

  // The post-restore sweep digest-diffs the revived shard against its
  // peers and back-fills the missing suffix through the durable path.
  ASSERT_TRUE(cluster.RestoreShard(primary).ok());
  EXPECT_EQ(cluster.shard_server(primary)->state_store()->History(user),
            (std::vector<int64_t>{3, 4, 5, 6}));
  const cluster::ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.repair_users_repaired, 1);
  EXPECT_EQ(stats.repair_items_transferred, 2);
  EXPECT_EQ(stats.repair_conflicts, 0);
  // The serving layer exposes the same digest the repair compared.
  Result<UserDigest> dp =
      cluster.shard_server(primary)->UserStateDigest(user);
  Result<UserDigest> ds =
      cluster.shard_server(secondary)->UserStateDigest(user);
  ASSERT_TRUE(dp.ok());
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(dp.value(), ds.value());
  EXPECT_EQ(CounterValue(metrics, "cluster.repair.items_transferred"), 2);
}

TEST(ClusterAntiEntropyTest, FullHintQueueKeepsPrefixAndSweepHeals) {
  cluster::ClusterOptions options = AntiEntropyClusterOptions("ae_fullq");
  options.hinted_handoff = true;
  options.handoff.max_hints_per_shard = 1;
  options.repair_on_restore = true;
  cluster::ClusterServer cluster(options, SessionFactory());
  ASSERT_TRUE(cluster.Start().ok());

  const uint64_t user = 42;
  const int64_t primary =
      cluster.ring().Replicas(cluster.ring().SegmentOf(user))[0];
  ASSERT_TRUE(cluster.AppendEvent(user, {3, 4}).ok());
  cluster.KillShard(primary);
  ASSERT_TRUE(cluster.AppendEvent(user, {5}).ok());
  ASSERT_TRUE(cluster.AppendEvent(user, {6}).ok());
  ASSERT_TRUE(cluster.AppendEvent(user, {7}).ok());
  // Exact overflow accounting: one admitted, two refused.
  EXPECT_EQ(cluster.hints_pending(), 1);
  EXPECT_EQ(cluster.stats().hints_dropped, 2);

  // A full queue refuses the newest hints and keeps the OLDEST, so the
  // replayed backlog is a prefix of the missed stream — exactly the shape
  // the digest sweep can finish healing (suffix transfer), with zero
  // conflicts.
  ASSERT_TRUE(cluster.RestoreShard(primary).ok());
  EXPECT_EQ(cluster.shard_server(primary)->state_store()->History(user),
            (std::vector<int64_t>{3, 4, 5, 6, 7}));
  const cluster::ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.hints_replayed, 1);
  EXPECT_EQ(stats.repair_items_transferred, 2);
  EXPECT_EQ(stats.repair_conflicts, 0);
}

TEST(ClusterAntiEntropyTest, EqualLengthForkIsAConflictNotAGuess) {
  cluster::ClusterOptions options = AntiEntropyClusterOptions("ae_fork");
  options.repair_on_restore = true;
  cluster::ClusterServer cluster(options, SessionFactory());
  ASSERT_TRUE(cluster.Start().ok());

  const uint64_t user = 42;
  const std::vector<int64_t> replicas =
      cluster.ring().Replicas(cluster.ring().SegmentOf(user));
  const int64_t primary = replicas[0];
  const int64_t secondary = replicas[1];
  ASSERT_TRUE(cluster.AppendEvent(user, {3, 4}).ok());
  // Fork the replicas: each store takes a different event straight
  // through its own shard, so both streams are 3 items long with
  // different digests.
  ASSERT_TRUE(cluster.shard_server(primary)->AppendEvent(user, {5}).ok());
  ASSERT_TRUE(cluster.shard_server(secondary)->AppendEvent(user, {6}).ok());

  // The restore sweep must refuse to paper over the fork: no suffix
  // transfer can reconcile equal-length streams without rewriting one
  // side's acked past, so this is a counted conflict and both histories
  // are left untouched — repair never fabricates a merge.
  cluster.KillShard(primary);
  ASSERT_TRUE(cluster.RestoreShard(primary).ok());
  EXPECT_EQ(cluster.shard_server(primary)->state_store()->History(user),
            (std::vector<int64_t>{3, 4, 5}));
  EXPECT_EQ(cluster.shard_server(secondary)->state_store()->History(user),
            (std::vector<int64_t>{3, 4, 6}));
  EXPECT_EQ(cluster.stats().repair_conflicts, 1);
  EXPECT_EQ(cluster.stats().repair_items_transferred, 0);

  // One side pulls ahead of the fork: the length gap now suggests a
  // suffix transfer, but that suffix does not extend the behind stream's
  // digest, so the pre-verified splice refuses it too.
  ASSERT_TRUE(cluster.shard_server(secondary)->AppendEvent(user, {7}).ok());
  cluster.KillShard(primary);
  ASSERT_TRUE(cluster.RestoreShard(primary).ok());
  EXPECT_EQ(cluster.shard_server(primary)->state_store()->History(user),
            (std::vector<int64_t>{3, 4, 5}));
  EXPECT_EQ(cluster.shard_server(secondary)->state_store()->History(user),
            (std::vector<int64_t>{3, 4, 6, 7}));
  EXPECT_EQ(cluster.stats().repair_conflicts, 2);
  EXPECT_EQ(cluster.stats().repair_items_transferred, 0);
}

TEST(ClusterAntiEntropyTest, RestoreStaysDeadWhenStateRecoveryFails) {
  cluster::ClusterOptions options = AntiEntropyClusterOptions("ae_badsnap");
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  cluster::ClusterServer cluster(options, SessionFactory());
  ASSERT_TRUE(cluster.Start().ok());

  const uint64_t user = 42;
  const int64_t primary =
      cluster.ring().Replicas(cluster.ring().SegmentOf(user))[0];
  ASSERT_TRUE(cluster.AppendEvent(user, {3, 4}).ok());
  cluster.KillShard(primary);

  // Plant a corrupt snapshot in the dead shard's state dir: the reload
  // that RestoreShard runs must fail typed, and the shard must STAY DEAD
  // instead of rejoining with empty state and serving wrong answers.
  const std::string snapshot = options.state_dir + "/shard_" +
                               std::to_string(primary) + "/state.snapshot";
  ASSERT_TRUE(io::Env::Default()->WriteFile(snapshot, "not-a-snapshot").ok());
  const Status refused = cluster.RestoreShard(primary);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), Status::Code::kUnavailable);
  EXPECT_EQ(cluster.shard_liveness(primary), cluster::ShardLiveness::kDown);
  EXPECT_EQ(cluster.stats().restore_failures, 1);
  EXPECT_EQ(CounterValue(metrics, "cluster.state.restore_failures"), 1);
  // Traffic keeps flowing through the survivor meanwhile.
  ASSERT_TRUE(cluster.AppendEvent(user, {5}).ok());
  ASSERT_TRUE(cluster.ServeSession(user, SessionRequest()).ok());

  // Clearing the corruption lets a later restore succeed normally.
  ASSERT_TRUE(io::Env::Default()->RemoveFile(snapshot).ok());
  ASSERT_TRUE(cluster.RestoreShard(primary).ok());
  EXPECT_NE(cluster.shard_liveness(primary), cluster::ShardLiveness::kDown);
  EXPECT_EQ(cluster.shard_server(primary)->state_store()->History(user),
            (std::vector<int64_t>{3, 4}));
}

TEST(ClusterAntiEntropyTest, ReadRepairCountsAndHealsServeTimeDivergence) {
  cluster::ClusterOptions options = AntiEntropyClusterOptions("ae_readrep");
  options.read_repair = true;
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  cluster::ClusterServer cluster(options, SessionFactory());
  ASSERT_TRUE(cluster.Start().ok());

  const uint64_t user = 42;
  const std::vector<int64_t> replicas =
      cluster.ring().Replicas(cluster.ring().SegmentOf(user));
  const int64_t primary = replicas[0];
  const int64_t secondary = replicas[1];
  ASSERT_TRUE(cluster.AppendEvent(user, {3, 4}).ok());
  // Manufacture divergence: the primary misses one append while dead and
  // comes back without handoff or a restore sweep (both off here).
  cluster.KillShard(primary);
  ASSERT_TRUE(cluster.AppendEvent(user, {5}).ok());
  ASSERT_TRUE(cluster.RestoreShard(primary).ok());
  ASSERT_EQ(cluster.shard_server(primary)->state_store()->History(user),
            (std::vector<int64_t>{3, 4}));

  // Serving the user observes the divergence and heals it inline.
  ASSERT_TRUE(cluster.ServeSession(user, SessionRequest()).ok());
  EXPECT_EQ(cluster.stats().read_divergence, 1);
  EXPECT_EQ(cluster.shard_server(primary)->state_store()->History(user),
            (std::vector<int64_t>{3, 4, 5}));
  EXPECT_EQ(cluster.shard_server(primary)->state_store()->Digest(user),
            cluster.shard_server(secondary)->state_store()->Digest(user));
  // Converged: further serves see no divergence.
  ASSERT_TRUE(cluster.ServeSession(user, SessionRequest()).ok());
  EXPECT_EQ(cluster.stats().read_divergence, 1);
  EXPECT_EQ(CounterValue(metrics, "cluster.repair.read_divergence"), 1);
}

TEST(ClusterAntiEntropyTest, RepairSegmentIsIdempotentAndScoped) {
  cluster::ClusterOptions options = AntiEntropyClusterOptions("ae_segment");
  cluster::ClusterServer cluster(options, SessionFactory());
  ASSERT_TRUE(cluster.Start().ok());

  const uint64_t user = 42;
  const int64_t segment = cluster.ring().SegmentOf(user);
  const int64_t primary = cluster.ring().Replicas(segment)[0];
  ASSERT_TRUE(cluster.AppendEvent(user, {3, 4}).ok());
  cluster.KillShard(primary);
  ASSERT_TRUE(cluster.AppendEvent(user, {5}).ok());
  ASSERT_TRUE(cluster.RestoreShard(primary).ok());

  // An explicit segment sweep heals the lagging replica; running it again
  // finds nothing (idempotent), and a foreign segment transfers nothing.
  Result<cluster::RepairStats> first = cluster.RepairSegment(segment);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().users_repaired, 1);
  EXPECT_EQ(first.value().items_transferred, 1);
  EXPECT_EQ(cluster.shard_server(primary)->state_store()->History(user),
            (std::vector<int64_t>{3, 4, 5}));
  Result<cluster::RepairStats> second = cluster.RepairSegment(segment);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().users_repaired, 0);
  EXPECT_EQ(second.value().items_transferred, 0);
  Result<cluster::RepairStats> foreign = cluster.RepairSegment(
      (segment + 1) % cluster.ring().num_segments());
  ASSERT_TRUE(foreign.ok());
  EXPECT_EQ(foreign.value().items_transferred, 0);
  // Out-of-range and stateless clusters are refused, typed.
  EXPECT_EQ(cluster.RepairSegment(-1).status().code(),
            Status::Code::kInvalidArgument);
  cluster::ClusterOptions stateless = options;
  stateless.state_dir.clear();
  cluster::ClusterServer plain(stateless, SessionFactory());
  ASSERT_TRUE(plain.Start().ok());
  EXPECT_EQ(plain.RepairSegment(segment).status().code(),
            Status::Code::kInvalidArgument);
}

}  // namespace
}  // namespace state
}  // namespace slime
