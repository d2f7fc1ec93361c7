#ifndef SLIME4REC_STATE_STATE_STORE_H_
#define SLIME4REC_STATE_STATE_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "io/env.h"
#include "observability/metrics.h"
#include "observability/trace.h"
#include "state/wal.h"

namespace slime {
namespace state {

/// When an Append is acknowledged as durable.
enum class SyncMode {
  /// Sync barrier after every append: an OK Append survives a kill.
  kAlways,
  /// Group commit: appends buffer and the barrier runs every
  /// kGroupCommitEvery records (or at an explicit Sync()/Compact()).
  /// Amortises fsync cost; an unsynced tail can be lost to a kill, and the
  /// ack says so (`AppendAck::durable == false`).
  kGroup,
  /// Never sync; durability is whatever the OS page cache delivers. For
  /// benchmarks and tests only.
  kNone,
};

Result<SyncMode> ParseSyncMode(const std::string& name);
const char* SyncModeName(SyncMode mode);

/// Group-commit width for SyncMode::kGroup.
inline constexpr int64_t kGroupCommitEvery = 8;
/// Per-user history cap: oldest events beyond it are dropped on apply.
/// Keeps memory and snapshot size bounded under unbounded streams; the
/// slide-filter model only ever reads a bounded window anyway.
inline constexpr int64_t kMaxHistoryPerUser = 4096;

struct StateStoreOptions {
  /// Directory holding the store's two files, created if missing:
  /// `<dir>/state.wal` and `<dir>/state.snapshot`.
  std::string dir;
  SyncMode sync = SyncMode::kGroup;
  /// Compact (snapshot + WAL truncate) automatically once the WAL holds
  /// this many records; 0 disables auto-compaction (explicit Compact()
  /// only).
  int64_t snapshot_every_records = 1024;
  io::Env* env = nullptr;                  // nullptr = Env::Default()
  obs::MetricsRegistry* metrics = nullptr;  // nullptr = no metrics
  obs::Tracer* tracer = nullptr;            // nullptr = no spans
};

/// Receipt for one Append.
struct AppendAck {
  uint64_t seq = 0;      // WAL sequence number covering this append
  bool durable = false;  // true iff a sync barrier covering it has run
  int64_t version = 0;   // the user's state version after applying it
  /// Replicas that durably accepted the write. A single StateStore always
  /// reports 1; the cluster tier overwrites it with the fleet-level count
  /// so callers can see an under-replicated (but still acked) append.
  int64_t replica_acks = 1;
};

/// Cross-replica comparable digest of one user's append stream.
///
/// `items_total` counts every item ever applied to the user (monotone —
/// history trimming does not decrease it) and `crc` is a rolling CRC-32
/// extended with each item's little-endian bytes in append order. Two
/// stores that applied the same events for a user agree on both fields
/// even though their WAL layouts, sync schedules, compaction points, and
/// local sequence numbers differ — which is exactly why replica-local
/// `last_seq` is *not* part of the digest. Equal digests mean equal
/// histories (up to CRC collision); a smaller `items_total` with a
/// matching stream prefix means the store is behind by a suffix that
/// anti-entropy repair can transfer (docs/STATE.md "Anti-entropy").
/// Extends a rolling digest CRC with `n` items' little-endian bytes — the
/// exact step the store applies per appended item. Exposed so repair can
/// verify, *before* appending, that a candidate suffix really extends a
/// behind replica's stream to the ahead replica's digest.
uint32_t ExtendItemDigest(uint32_t crc, const int64_t* items, size_t n);

struct UserDigest {
  uint64_t user_id = 0;
  uint64_t items_total = 0;
  uint32_t crc = 0;

  bool operator==(const UserDigest& o) const {
    return user_id == o.user_id && items_total == o.items_total &&
           crc == o.crc;
  }
  bool operator!=(const UserDigest& o) const { return !(*this == o); }
};

/// What recovery found, with exact loss accounting. Recovered state is
/// always a prefix of what was appended: `tail_status` is non-OK exactly
/// when a torn or corrupt WAL tail was truncated, and `wal_bytes_truncated`
/// says how many bytes were dropped. An event covered by a durable ack can
/// never land in the truncated tail (the barrier ran after its bytes).
struct RecoveryReport {
  bool snapshot_loaded = false;
  uint64_t snapshot_seq = 0;       // WAL seq the snapshot covers
  int64_t wal_records_replayed = 0;
  int64_t wal_bytes_truncated = 0;
  bool wal_torn = false;
  Status tail_status = Status::OK();
  int64_t users = 0;  // distinct users after recovery
};

/// Event-sourced per-user interaction state: an in-memory map of user id →
/// chronological item history, made crash-safe by a CRC-framed write-ahead
/// log and periodically folded into an atomic snapshot (stage → verify →
/// rename → fsync, the SLM2 checkpoint protocol via io::AtomicWriteFile;
/// the WAL is truncated only after the snapshot is durable).
///
/// Durability contract:
///  - An Append acked with `durable == true` survives a process kill at any
///    later byte: recovery replays snapshot + WAL tail and must produce it.
///  - A kill mid-append leaves a torn frame; recovery truncates at the last
///    valid frame, reports a typed Corruption with exact byte accounting in
///    the RecoveryReport, and never silently drops anything else.
///  - A corrupt snapshot fails Open with a typed Corruption (gated, not
///    best-effort): serving must not start from silently-drifted state
///    (the BERT4Rec replicability lesson).
///
/// Determinism: recovery is a pure function of the bytes on disk, and
/// snapshot bytes are a pure function of the state (users serialised in
/// sorted order), so double-runs are byte-identical — the chaos harness
/// asserts this.
///
/// Thread-safe; all operations take one internal mutex (appends are
/// disk-bound, contention is not the bottleneck at this tier).
class StateStore {
 public:
  /// Opens (creating the directory if needed) and recovers. Fails with a
  /// typed Status on a corrupt snapshot or an unreadable/unwritable dir; a
  /// torn WAL tail does NOT fail — it is truncated and reported via
  /// `recovery()`.
  static Result<std::unique_ptr<StateStore>> Open(
      const StateStoreOptions& options);

  /// Appends one event batch for `user_id` (at least one item). The ack's
  /// `durable` flag reflects whether the sync barrier covering it has run
  /// (per SyncMode). A failed sync barrier fails the Append: the caller
  /// must not treat the event as accepted.
  Result<AppendAck> Append(uint64_t user_id,
                           const std::vector<int64_t>& items);

  /// Explicit group-commit barrier: after an OK return, every prior append
  /// is durable.
  Status Sync();

  /// Folds current state into a durable snapshot, then truncates the WAL.
  /// A crash anywhere in between is safe: the WAL is only reset after the
  /// snapshot is fsynced, and replay skips records the snapshot already
  /// covers.
  Status Compact();

  /// Re-runs recovery from disk, discarding in-memory state. Used by the
  /// cluster tier when a shard process "restarts" (RestoreShard): the
  /// revived shard holds exactly what it had made durable.
  Status Reload();

  /// Chronological item history for `user_id` (empty if unknown).
  std::vector<int64_t> History(uint64_t user_id) const;
  /// The last `n` retained items of `user_id`'s history (all of them when
  /// fewer are retained). Repair transfers exactly such a suffix.
  std::vector<int64_t> TailItems(uint64_t user_id, uint64_t n) const;
  /// The user's digest (zero digest for an unknown user). Maintained
  /// incrementally on apply, persisted in the snapshot, reproduced exactly
  /// by recovery.
  UserDigest Digest(uint64_t user_id) const;
  /// Digests of every user `filter` accepts (all users when null), in
  /// ascending user-id order. The cluster tier passes a segment-membership
  /// predicate so two replicas compare one ring segment by exchanging
  /// O(users-in-segment) digests instead of shipping histories.
  std::vector<UserDigest> EnumerateDigests(
      const std::function<bool(uint64_t user_id)>& filter = nullptr) const;
  /// Monotone per-user version, bumped on every applied append; 0 for an
  /// unknown user. Cache entries keyed on it are invalidated by appends.
  int64_t UserVersion(uint64_t user_id) const;

  int64_t num_users() const;
  uint64_t last_seq() const;
  int64_t wal_records() const;
  const RecoveryReport& recovery() const { return recovery_; }
  const StateStoreOptions& options() const { return options_; }

  std::string wal_path() const { return options_.dir + "/state.wal"; }
  std::string snapshot_path() const {
    return options_.dir + "/state.snapshot";
  }

 private:
  explicit StateStore(const StateStoreOptions& options);

  struct UserState {
    std::vector<int64_t> items;
    int64_t version = 0;
    uint64_t items_total = 0;  // items ever applied (monotone across trims)
    uint32_t crc = 0;          // rolling CRC-32 over the full item stream
  };

  Status RecoverLocked();
  Status CompactLocked();
  Status SyncLocked();
  void ApplyLocked(uint64_t user_id, const int64_t* items, size_t n);
  std::string EncodeSnapshotLocked() const;
  Status DecodeSnapshotLocked(std::string_view payload);
  static std::string EncodeEvent(uint64_t user_id,
                                 const std::vector<int64_t>& items);
  Status ApplyEventLocked(std::string_view payload, uint64_t seq);

  StateStoreOptions options_;
  io::Env* env_;
  WriteAheadLog wal_;
  RecoveryReport recovery_;

  mutable std::mutex mu_;
  // std::map: deterministic iteration order makes snapshot bytes a pure
  // function of the state.
  std::map<uint64_t, UserState> users_;
  uint64_t last_seq_ = 0;        // highest WAL seq written
  uint64_t snapshot_seq_ = 0;    // WAL seq the on-disk snapshot covers
  int64_t wal_records_ = 0;      // records in the WAL since last compaction
  int64_t unsynced_records_ = 0;  // appended but not yet behind a barrier

  obs::Counter appends_;
  obs::Counter events_;
  obs::Counter syncs_;
  obs::Counter sync_failures_;
  obs::Counter compactions_;
  obs::Counter compaction_failures_;
  obs::Counter recovered_records_;
  obs::Counter truncated_bytes_;
  obs::Counter torn_tails_;
  obs::Gauge users_gauge_;
  obs::Gauge wal_records_gauge_;
  obs::Gauge last_seq_gauge_;
};

}  // namespace state
}  // namespace slime

#endif  // SLIME4REC_STATE_STATE_STORE_H_
