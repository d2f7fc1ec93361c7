#ifndef SLIME4REC_CLUSTER_REPAIR_H_
#define SLIME4REC_CLUSTER_REPAIR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "state/state_store.h"

namespace slime {
namespace cluster {

/// Anti-entropy building blocks for the replicated state tier
/// (docs/STATE.md "Anti-entropy"): a bounded deterministic hinted-handoff
/// queue, and the digest-diff / suffix-transfer repair core. The cluster's
/// restore sweep, serve-time read-repair and the offline CLI `repair`
/// command all elect and heal through RepairReplicas / RepairReplicaSet.
///
/// The one rule everything here obeys: **repair never fabricates**. A
/// behind replica is only ever extended by a suffix whose digest provably
/// reconnects it to the ahead replica's stream, through the normal durable
/// Append path; anything else is a typed, counted conflict left untouched
/// for the operator.

struct HandoffOptions {
  /// Per-dead-shard cap on queued hints; <= 0 disables queueing (every
  /// would-be hint is an accounted drop). A full queue refuses the
  /// incoming hint and keeps its oldest backlog, so replay always yields a
  /// prefix of the missed stream, which the repair sweep can finish by
  /// suffix transfer. The write itself is still durable on the replicas
  /// that acked it: a refused hint only loses the fast replay shortcut.
  int64_t max_hints_per_shard = 1024;
};

/// One write a dead replica missed: enough to re-issue it verbatim on
/// restore. `origin_seq` is a cluster-wide monotone enqueue index, so
/// replay order (and therefore the replayed store's bytes) is a pure
/// function of the append order that produced the hints.
struct HandoffHint {
  uint64_t user_key = 0;
  std::vector<int64_t> items;
  uint64_t origin_seq = 0;
};

/// Bounded per-shard hint queues. Thread-safe; FIFO per shard in
/// origin_seq order.
class HintQueue {
 public:
  explicit HintQueue(const HandoffOptions& options) : options_(options) {}

  /// Queues `hint` for `shard`. Returns false (the caller counts the
  /// drop) when the shard's queue is at capacity or queueing is disabled.
  bool Enqueue(int64_t shard, HandoffHint hint);
  /// Removes and returns `shard`'s backlog in enqueue order.
  std::vector<HandoffHint> Drain(int64_t shard);

  int64_t total_pending() const;

 private:
  const HandoffOptions options_;
  mutable std::mutex mu_;
  std::map<int64_t, std::deque<HandoffHint>> queues_;
  int64_t total_pending_ = 0;
};

/// Aggregate outcome of a repair pass (one user, one segment, or a whole
/// sweep — the fields add).
struct RepairStats {
  int64_t users_scanned = 0;      // digest pairs compared
  int64_t users_diverged = 0;     // pairs whose digests disagreed
  int64_t users_repaired = 0;     // healed to digest equality
  int64_t items_transferred = 0;  // suffix items appended, total
  /// Diverged but unrepairable by suffix transfer: equal-length streams
  /// with different digests, an ahead replica whose retained history was
  /// trimmed deeper than the gap, or a suffix whose digest does not
  /// reconnect the streams. Counted and left untouched.
  int64_t conflicts = 0;

  void Add(const RepairStats& o);
};

/// Digest-compares one user across two stores and, when exactly one side
/// is behind, appends the missing suffix to it through the normal durable
/// Append path (pre-verified: ExtendItemDigest(behind.crc, suffix) must
/// equal ahead.crc, so a repaired history is an exact suffix extension or
/// nothing happens). Divergence outcomes land in `stats`; the returned
/// Status is non-OK only for real append/IO failures.
Status RepairUser(state::StateStore* a, state::StateStore* b,
                  uint64_t user_id, RepairStats* stats);

/// The election every repair path uses: the replica holding `user_id`'s
/// longest stream (largest items_total) is ahead, and a tie keeps the
/// earliest replica in `replicas` (callers pass ring order). Every other
/// replica, in vector order, is then pulled up to it with RepairUser, so
/// each divergent pair is compared, and counted, exactly once. Stops at
/// the first append/IO failure.
Status RepairReplicas(const std::vector<state::StateStore*>& replicas,
                      uint64_t user_id, RepairStats* stats);

/// RepairReplicas for every user that `in_scope` accepts on any replica,
/// in ascending user-id order: the pass order, and so the repaired
/// stores' bytes, is a pure function of the replicas' states.
Status RepairReplicaSet(const std::vector<state::StateStore*>& replicas,
                        const std::function<bool(uint64_t user_id)>& in_scope,
                        RepairStats* stats);

}  // namespace cluster
}  // namespace slime

#endif  // SLIME4REC_CLUSTER_REPAIR_H_
