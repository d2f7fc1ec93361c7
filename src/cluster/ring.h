#ifndef SLIME4REC_CLUSTER_RING_H_
#define SLIME4REC_CLUSTER_RING_H_

#include <cstdint>
#include <vector>

namespace slime {
namespace cluster {

/// Virtual nodes per shard. More vnodes smooth the key distribution and
/// shrink the keyspace slice that moves when a shard is added; 16 keeps
/// the per-segment replica tables small while staying within a few
/// percent of uniform at the fleet sizes this library simulates.
inline constexpr int64_t kVnodesPerShard = 16;

/// Layout of a consistent-hash ring over a fixed shard fleet.
struct RingOptions {
  /// Number of shards on the ring. Must be >= 1.
  int64_t num_shards = 4;
  /// Replication factor R: every key is owned by R distinct shards (a
  /// primary plus R-1 replicas). Clamped to num_shards.
  int64_t replication = 2;
  /// Seed for the ring's hash placement. Two rings built with identical
  /// options are identical; changing the seed reshuffles every placement,
  /// which is how tests prove routing derives only from (options, key).
  uint64_t seed = 0x517eCA5Eull;
};

/// Deterministic consistent-hash ring with replication.
///
/// Each shard owns kVnodesPerShard pseudo-random points on a 64-bit ring;
/// the arc between consecutive points is a **segment**. A user key hashes
/// onto the ring and is owned by the segment it lands in; the segment's
/// replica set is the first R *distinct* shards found walking clockwise
/// from its endpoint, primary first. This is the classic Chord/Dynamo
/// scheme (the Envoy/Maglev substitution row in DESIGN.md): shard
/// membership changes move only the segments adjacent to the changed
/// shard, and replication follows ring order so a primary's failover
/// target is the same for every key in a segment.
///
/// Everything is precomputed at construction: Route() is a binary search
/// plus a table lookup, makes no allocation, and is safe to call from any
/// number of threads concurrently. Placement derives only from
/// (seed, shard id, vnode index) and routing only from (ring, user key) —
/// no wall-clock, no global state — so a cluster's routing decisions are
/// bit-reproducible across runs and across machines.
class ShardRing {
 public:
  explicit ShardRing(const RingOptions& options);

  int64_t num_shards() const { return num_shards_; }
  /// Effective replication factor (min(options.replication, num_shards)).
  int64_t replication() const { return replication_; }
  /// Number of ring segments (num_shards * kVnodesPerShard).
  int64_t num_segments() const {
    return static_cast<int64_t>(points_.size());
  }

  /// The segment owning `user_key` (index in [0, num_segments())).
  int64_t SegmentOf(uint64_t user_key) const;

  /// Ordered distinct replica shards for a segment: primary first, then
  /// the failover order a router should try. Size == replication().
  const std::vector<int64_t>& Replicas(int64_t segment) const;

  /// Replicas(SegmentOf(user_key)): the routing decision for one key.
  const std::vector<int64_t>& Route(uint64_t user_key) const;

  /// Every segment (by index) whose replica set contains `shard` — the
  /// keyspace that degrades when this shard goes down.
  std::vector<int64_t> SegmentsOfShard(int64_t shard) const;

  /// True if `a` and `b` both replicate at least one common segment (and
  /// so must never be taken down simultaneously by a rolling operation).
  bool SharesSegment(int64_t a, int64_t b) const;

  /// The mixing hash used for both vnode placement and key lookup
  /// (splitmix64 finalizer). Exposed so tests can predict placements.
  static uint64_t Mix(uint64_t x);

 private:
  int64_t num_shards_;
  int64_t replication_;
  /// Ring point hashes, sorted ascending. points_[i] is the clockwise
  /// endpoint of segment i (segment 0 also covers the wrap-around arc).
  std::vector<uint64_t> points_;
  /// replicas_[i]: the distinct shards replicating segment i.
  std::vector<std::vector<int64_t>> replicas_;
};

}  // namespace cluster
}  // namespace slime

#endif  // SLIME4REC_CLUSTER_RING_H_
