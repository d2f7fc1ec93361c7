#include "state/state_store.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>

#include "common/crc32.h"
#include "io/atomic_write.h"
#include "io/serializer.h"

namespace slime {
namespace state {

namespace {

/// Snapshot envelope magic: "SLIME state v2" (v2 added the per-user
/// anti-entropy digest; a v1 snapshot fails typed rather than decoding
/// into a store with silently-zero digests).
constexpr std::string_view kSnapshotMagic = "SST2";

}  // namespace

// Explicit byte order keeps the digest identical across platforms (and
// identical to what a remote replica computes over the same stream).
uint32_t ExtendItemDigest(uint32_t crc, const int64_t* items, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const uint64_t bits = static_cast<uint64_t>(items[i]);
    unsigned char bytes[8];
    for (int k = 0; k < 8; ++k) {
      bytes[k] = static_cast<unsigned char>(bits >> (8 * k));
    }
    crc = ExtendCrc32(crc, bytes, sizeof(bytes));
  }
  return crc;
}

namespace {

/// Creates `dir` and any missing parents (POSIX mkdir; EEXIST is fine).
Status EnsureDir(const std::string& dir) {
  if (dir.empty()) {
    return Status::InvalidArgument("state store dir must not be empty");
  }
  std::string prefix;
  prefix.reserve(dir.size());
  for (size_t i = 0; i <= dir.size(); ++i) {
    if (i < dir.size() && dir[i] != '/') {
      prefix += dir[i];
      continue;
    }
    if (i < dir.size()) prefix += '/';
    if (prefix.empty() || prefix == "/") continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError("cannot create state dir " + prefix);
    }
  }
  struct ::stat st;
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::IOError("state dir " + dir + " is not a directory");
  }
  return Status::OK();
}

}  // namespace

Result<SyncMode> ParseSyncMode(const std::string& name) {
  if (name == "always") return SyncMode::kAlways;
  if (name == "group") return SyncMode::kGroup;
  if (name == "none") return SyncMode::kNone;
  return Status::InvalidArgument("unknown state sync mode '" + name +
                                 "' (valid: always, group, none)");
}

const char* SyncModeName(SyncMode mode) {
  switch (mode) {
    case SyncMode::kAlways:
      return "always";
    case SyncMode::kGroup:
      return "group";
    case SyncMode::kNone:
      return "none";
  }
  return "unknown";
}

StateStore::StateStore(const StateStoreOptions& options)
    : options_(options),
      env_(options.env != nullptr ? options.env : io::Env::Default()),
      wal_(options.dir + "/state.wal", env_) {
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& m = *options_.metrics;
    appends_ = m.counter("state.appends");
    events_ = m.counter("state.events");
    syncs_ = m.counter("state.syncs");
    sync_failures_ = m.counter("state.sync_failures");
    compactions_ = m.counter("state.compactions");
    compaction_failures_ = m.counter("state.compaction_failures");
    recovered_records_ = m.counter("state.recovered_records");
    truncated_bytes_ = m.counter("state.truncated_bytes");
    torn_tails_ = m.counter("state.torn_tails");
    users_gauge_ = m.gauge("state.users");
    wal_records_gauge_ = m.gauge("state.wal_records");
    last_seq_gauge_ = m.gauge("state.last_seq");
  }
}

Result<std::unique_ptr<StateStore>> StateStore::Open(
    const StateStoreOptions& options) {
  SLIME_RETURN_IF_ERROR(EnsureDir(options.dir));
  std::unique_ptr<StateStore> store(new StateStore(options));
  std::lock_guard<std::mutex> lock(store->mu_);
  SLIME_RETURN_IF_ERROR(store->RecoverLocked());
  return store;
}

Status StateStore::Reload() {
  std::lock_guard<std::mutex> lock(mu_);
  return RecoverLocked();
}

std::string StateStore::EncodeEvent(uint64_t user_id,
                                    const std::vector<int64_t>& items) {
  io::BinaryWriter w;
  w.PutU64(user_id);
  w.PutU32(static_cast<uint32_t>(items.size()));
  for (int64_t item : items) w.PutI64(item);
  return std::string(w.buffer());
}

void StateStore::ApplyLocked(uint64_t user_id, const int64_t* items,
                             size_t n) {
  UserState& user = users_[user_id];
  // Digest before trimming: it covers the full append stream, so it keeps
  // advancing even when the retained history window drops old items.
  user.items_total += static_cast<uint64_t>(n);
  user.crc = ExtendItemDigest(user.crc, items, n);
  user.items.insert(user.items.end(), items, items + n);
  if (static_cast<int64_t>(user.items.size()) > kMaxHistoryPerUser) {
    const size_t drop =
        user.items.size() - static_cast<size_t>(kMaxHistoryPerUser);
    user.items.erase(user.items.begin(),
                     user.items.begin() + static_cast<int64_t>(drop));
  }
  ++user.version;
}

Status StateStore::ApplyEventLocked(std::string_view payload, uint64_t seq) {
  io::BinaryReader r(payload);
  uint64_t user_id = 0;
  uint32_t count = 0;
  if (!r.GetU64(&user_id) || !r.GetU32(&count) ||
      static_cast<size_t>(count) * sizeof(int64_t) != r.remaining()) {
    return Status::Corruption("undecodable WAL event at seq " +
                              std::to_string(seq));
  }
  std::vector<int64_t> items(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!r.GetI64(&items[i])) {
      return Status::Corruption("undecodable WAL event at seq " +
                                std::to_string(seq));
    }
  }
  ApplyLocked(user_id, items.data(), items.size());
  return Status::OK();
}

std::string StateStore::EncodeSnapshotLocked() const {
  io::BinaryWriter w;
  w.PutU64(last_seq_);
  w.PutU64(static_cast<uint64_t>(users_.size()));
  // std::map iteration is sorted by user id: snapshot bytes are a pure
  // function of the state, which is what makes chaos double-runs
  // byte-identical.
  for (const auto& [user_id, user] : users_) {
    w.PutU64(user_id);
    w.PutI64(user.version);
    // The digest must ride in the snapshot: after a trim it cannot be
    // recomputed from the retained items, and recovery must reproduce it
    // exactly for cross-replica comparison to stay sound.
    w.PutU64(user.items_total);
    w.PutU32(user.crc);
    w.PutU32(static_cast<uint32_t>(user.items.size()));
    for (int64_t item : user.items) w.PutI64(item);
  }
  return std::string(w.buffer());
}

Status StateStore::DecodeSnapshotLocked(std::string_view payload) {
  io::BinaryReader r(payload);
  uint64_t snap_seq = 0;
  uint64_t num_users = 0;
  if (!r.GetU64(&snap_seq) || !r.GetU64(&num_users)) {
    return Status::Corruption("truncated state snapshot header");
  }
  std::map<uint64_t, UserState> users;
  uint64_t prev_user = 0;
  for (uint64_t u = 0; u < num_users; ++u) {
    uint64_t user_id = 0;
    UserState user;
    uint32_t count = 0;
    if (!r.GetU64(&user_id) || !r.GetI64(&user.version) ||
        !r.GetU64(&user.items_total) || !r.GetU32(&user.crc) ||
        !r.GetU32(&count) ||
        static_cast<size_t>(count) * sizeof(int64_t) > r.remaining()) {
      return Status::Corruption("truncated state snapshot at user " +
                                std::to_string(u));
    }
    if (user.items_total < count) {
      return Status::Corruption("state snapshot digest under-counts user " +
                                std::to_string(user_id));
    }
    if (u > 0 && user_id <= prev_user) {
      return Status::Corruption("state snapshot users out of order");
    }
    prev_user = user_id;
    user.items.resize(count);
    for (uint32_t i = 0; i < count; ++i) {
      if (!r.GetI64(&user.items[i])) {
        return Status::Corruption("truncated state snapshot at user " +
                                  std::to_string(u));
      }
    }
    users.emplace(user_id, std::move(user));
  }
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes in state snapshot");
  }
  users_ = std::move(users);
  snapshot_seq_ = snap_seq;
  last_seq_ = snap_seq;
  return Status::OK();
}

Status StateStore::RecoverLocked() {
  users_.clear();
  last_seq_ = 0;
  snapshot_seq_ = 0;
  wal_records_ = 0;
  unsynced_records_ = 0;
  recovery_ = RecoveryReport();

  obs::TraceBuilder trace;
  if (options_.tracer != nullptr) {
    trace = options_.tracer->StartTrace("state.open");
  }

  // 1. Snapshot, if any. Corruption here is gated: serving from
  // silently-drifted state is worse than refusing to start.
  const std::string snap = snapshot_path();
  if (env_->FileExists(snap)) {
    obs::TraceSpan span(trace, "snapshot");
    Result<std::string> payload = io::ReadEnvelope(env_, snap, kSnapshotMagic);
    if (!payload.ok()) {
      trace.Finish();
      return Status::Corruption("state snapshot " + snap +
                                " unreadable: " +
                                payload.status().message());
    }
    Status st = DecodeSnapshotLocked(payload.value());
    if (!st.ok()) {
      trace.Finish();
      return st;
    }
    recovery_.snapshot_loaded = true;
    recovery_.snapshot_seq = snapshot_seq_;
  }

  // 2. WAL tail replay. A torn/corrupt tail truncates at the last valid
  // frame (typed + accounted, never fatal); records the snapshot already
  // covers are skipped (a crash between snapshot rename and WAL reset
  // leaves them behind — replaying them would double-apply).
  obs::TraceSpan span(trace, "replay");
  WalScanReport scan;
  Result<std::vector<WalRecord>> records =
      WriteAheadLog::Scan(env_, wal_path(), &scan);
  if (!records.ok()) {
    trace.Finish();
    return records.status();
  }
  int64_t applied = 0;
  size_t valid = 0;  // records whose frames stay in the rewritten WAL
  Status tail = scan.tail_status;
  int64_t truncated = scan.bytes_truncated;
  for (const WalRecord& rec : records.value()) {
    if (rec.seq <= snapshot_seq_) {
      ++valid;
      continue;
    }
    Status st = ApplyEventLocked(rec.payload, rec.seq);
    if (!st.ok()) {
      // A CRC-valid but undecodable frame: treat it and everything after
      // as the corrupt tail (appends are ordered; nothing later can be
      // trusted either).
      for (size_t i = valid; i < records.value().size(); ++i) {
        truncated += static_cast<int64_t>(WriteAheadLog::kFrameHeader +
                                          records.value()[i].payload.size());
      }
      if (tail.ok()) tail = st;
      break;
    }
    ++valid;
    ++applied;
    last_seq_ = rec.seq;
    ++wal_records_;
  }
  const bool torn = truncated > 0;
  if (torn) {
    // Repair: rewrite the WAL as exactly its valid prefix (EncodeFrame is
    // canonical, so this reproduces the original bytes) so the next append
    // extends a clean log instead of a torn one.
    std::string prefix;
    for (size_t i = 0; i < valid; ++i) {
      const WalRecord& rec = records.value()[i];
      prefix += WriteAheadLog::EncodeFrame(rec.seq, rec.payload);
    }
    Status st = io::AtomicWriteFile(env_, wal_path(), prefix,
                                    /*sync_after=*/true);
    if (!st.ok()) {
      trace.Finish();
      return st;
    }
  }

  recovery_.wal_records_replayed = applied;
  recovery_.wal_bytes_truncated = truncated;
  recovery_.wal_torn = torn;
  recovery_.tail_status = tail;
  recovery_.users = static_cast<int64_t>(users_.size());

  recovered_records_.Increment(applied);
  truncated_bytes_.Increment(truncated);
  if (torn) torn_tails_.Increment();
  users_gauge_.Set(static_cast<int64_t>(users_.size()));
  wal_records_gauge_.Set(wal_records_);
  last_seq_gauge_.Set(static_cast<int64_t>(last_seq_));
  trace.Finish();
  return Status::OK();
}

Status StateStore::SyncLocked() {
  if (unsynced_records_ == 0) return Status::OK();
  Status st = wal_.Sync();
  if (!st.ok()) {
    sync_failures_.Increment();
    return st;
  }
  unsynced_records_ = 0;
  syncs_.Increment();
  return Status::OK();
}

Result<AppendAck> StateStore::Append(uint64_t user_id,
                                     const std::vector<int64_t>& items) {
  if (items.empty()) {
    return Status::InvalidArgument("append requires at least one item");
  }
  std::lock_guard<std::mutex> lock(mu_);
  obs::TraceBuilder trace;
  if (options_.tracer != nullptr) {
    trace = options_.tracer->StartTrace("state.append");
  }
  const uint64_t seq = last_seq_ + 1;
  const std::string payload = EncodeEvent(user_id, items);
  {
    obs::TraceSpan span(trace, "wal");
    Status st = wal_.Append(seq, payload);
    if (!st.ok()) {
      trace.Finish();
      return st;
    }
  }
  last_seq_ = seq;
  ++wal_records_;
  ++unsynced_records_;

  bool durable = false;
  if (options_.sync == SyncMode::kAlways ||
      (options_.sync == SyncMode::kGroup &&
       unsynced_records_ >= kGroupCommitEvery)) {
    obs::TraceSpan span(trace, "sync");
    Status st = SyncLocked();
    if (!st.ok()) {
      // The barrier never ran, so the event must not be acknowledged. Its
      // bytes sit in the WAL unapplied; the next compaction's snapshot_seq
      // covers and thereby expunges it (see docs/STATE.md).
      trace.Finish();
      return st;
    }
    durable = true;
  }

  ApplyLocked(user_id, items.data(), items.size());
  appends_.Increment();
  events_.Increment(static_cast<int64_t>(items.size()));
  users_gauge_.Set(static_cast<int64_t>(users_.size()));
  wal_records_gauge_.Set(wal_records_);
  last_seq_gauge_.Set(static_cast<int64_t>(last_seq_));

  AppendAck ack;
  ack.seq = seq;
  ack.durable = durable;
  ack.version = users_[user_id].version;

  if (options_.snapshot_every_records > 0 &&
      wal_records_ >= options_.snapshot_every_records) {
    // Auto-compaction failure does not fail the append — the event is
    // already in the WAL; the store just keeps a longer log and retries at
    // the next threshold.
    obs::TraceSpan span(trace, "compact");
    (void)CompactLocked();
  }
  trace.Finish();
  return ack;
}

Status StateStore::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  return SyncLocked();
}

Status StateStore::CompactLocked() {
  // Stage → verify → rename → fsync via the shared AtomicWriteFile
  // protocol. Only once the snapshot is durable may the WAL be truncated:
  // a crash before the rename keeps the old snapshot + full WAL, a crash
  // after it keeps the new snapshot + a stale WAL whose records replay as
  // no-ops (seq <= snapshot_seq).
  const std::string payload = EncodeSnapshotLocked();
  Status st = io::WriteEnvelope(env_, snapshot_path(), kSnapshotMagic,
                                payload, /*sync_after=*/true);
  if (!st.ok()) {
    compaction_failures_.Increment();
    return st;
  }
  snapshot_seq_ = last_seq_;
  st = wal_.Reset();
  if (!st.ok()) {
    // Snapshot is durable; the stale WAL is harmless (replay skips it).
    compaction_failures_.Increment();
    return st;
  }
  wal_records_ = 0;
  unsynced_records_ = 0;
  compactions_.Increment();
  wal_records_gauge_.Set(wal_records_);
  return Status::OK();
}

Status StateStore::Compact() {
  std::lock_guard<std::mutex> lock(mu_);
  obs::TraceBuilder trace;
  if (options_.tracer != nullptr) {
    trace = options_.tracer->StartTrace("state.compact");
  }
  Status st;
  {
    obs::TraceSpan span(trace, "snapshot");
    st = CompactLocked();
  }
  trace.Finish();
  return st;
}

std::vector<int64_t> StateStore::History(uint64_t user_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = users_.find(user_id);
  if (it == users_.end()) return {};
  return it->second.items;
}

std::vector<int64_t> StateStore::TailItems(uint64_t user_id,
                                           uint64_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = users_.find(user_id);
  if (it == users_.end()) return {};
  const std::vector<int64_t>& items = it->second.items;
  const size_t take = std::min(static_cast<size_t>(n), items.size());
  return std::vector<int64_t>(items.end() - static_cast<int64_t>(take),
                              items.end());
}

UserDigest StateStore::Digest(uint64_t user_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  UserDigest d;
  d.user_id = user_id;
  auto it = users_.find(user_id);
  if (it == users_.end()) return d;
  d.items_total = it->second.items_total;
  d.crc = it->second.crc;
  return d;
}

std::vector<UserDigest> StateStore::EnumerateDigests(
    const std::function<bool(uint64_t user_id)>& filter) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<UserDigest> out;
  // std::map iteration: ascending user id, so the enumeration (like the
  // snapshot) is a pure function of the state.
  for (const auto& [user_id, user] : users_) {
    if (filter && !filter(user_id)) continue;
    UserDigest d;
    d.user_id = user_id;
    d.items_total = user.items_total;
    d.crc = user.crc;
    out.push_back(d);
  }
  return out;
}

int64_t StateStore::UserVersion(uint64_t user_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = users_.find(user_id);
  if (it == users_.end()) return 0;
  return it->second.version;
}

int64_t StateStore::num_users() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(users_.size());
}

uint64_t StateStore::last_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_seq_;
}

int64_t StateStore::wal_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_records_;
}

}  // namespace state
}  // namespace slime
