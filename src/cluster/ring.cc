#include "cluster/ring.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace slime {
namespace cluster {

uint64_t ShardRing::Mix(uint64_t x) {
  // splitmix64 finalizer: full-avalanche, invertible, dependency-free.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

ShardRing::ShardRing(const RingOptions& options)
    : num_shards_(options.num_shards > 0 ? options.num_shards : 1),
      replication_(options.replication > 0 ? options.replication : 1) {
  if (replication_ > num_shards_) replication_ = num_shards_;

  // Place every vnode. Ties in the 64-bit hash are possible in principle;
  // sorting (hash, shard, vnode) keeps even that case deterministic.
  struct Point {
    uint64_t hash;
    int64_t shard;
    int64_t vnode;
  };
  std::vector<Point> placed;
  placed.reserve(static_cast<size_t>(num_shards_ * kVnodesPerShard));
  for (int64_t shard = 0; shard < num_shards_; ++shard) {
    for (int64_t vnode = 0; vnode < kVnodesPerShard; ++vnode) {
      const uint64_t h =
          Mix(options.seed ^ Mix(static_cast<uint64_t>(shard) * 0x10001ull +
                                 static_cast<uint64_t>(vnode)));
      placed.push_back(Point{h, shard, vnode});
    }
  }
  std::sort(placed.begin(), placed.end(), [](const Point& a, const Point& b) {
    if (a.hash != b.hash) return a.hash < b.hash;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.vnode < b.vnode;
  });

  points_.reserve(placed.size());
  for (const Point& p : placed) points_.push_back(p.hash);

  // Replica set of segment i: walk clockwise from its endpoint collecting
  // distinct shards, primary first.
  replicas_.resize(placed.size());
  for (size_t i = 0; i < placed.size(); ++i) {
    std::vector<int64_t>& set = replicas_[i];
    set.reserve(static_cast<size_t>(replication_));
    for (size_t step = 0;
         step < placed.size() &&
         static_cast<int64_t>(set.size()) < replication_;
         ++step) {
      const int64_t shard = placed[(i + step) % placed.size()].shard;
      if (std::find(set.begin(), set.end(), shard) == set.end()) {
        set.push_back(shard);
      }
    }
  }
}

int64_t ShardRing::SegmentOf(uint64_t user_key) const {
  const uint64_t h = Mix(user_key);
  // The owning segment is the first ring point at or after the key's
  // position (clockwise successor), wrapping to point 0 past the end.
  const auto it = std::lower_bound(points_.begin(), points_.end(), h);
  if (it == points_.end()) return 0;
  return static_cast<int64_t>(it - points_.begin());
}

const std::vector<int64_t>& ShardRing::Replicas(int64_t segment) const {
  assert(segment >= 0 && segment < num_segments());
  return replicas_[static_cast<size_t>(segment)];
}

const std::vector<int64_t>& ShardRing::Route(uint64_t user_key) const {
  return Replicas(SegmentOf(user_key));
}

std::vector<int64_t> ShardRing::SegmentsOfShard(int64_t shard) const {
  std::vector<int64_t> out;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    const std::vector<int64_t>& set = replicas_[i];
    if (std::find(set.begin(), set.end(), shard) != set.end()) {
      out.push_back(static_cast<int64_t>(i));
    }
  }
  return out;
}

bool ShardRing::SharesSegment(int64_t a, int64_t b) const {
  if (a == b) return true;
  for (const std::vector<int64_t>& set : replicas_) {
    const bool has_a = std::find(set.begin(), set.end(), a) != set.end();
    if (has_a && std::find(set.begin(), set.end(), b) != set.end()) {
      return true;
    }
  }
  return false;
}

}  // namespace cluster
}  // namespace slime
