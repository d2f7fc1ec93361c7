#include "cluster/repair.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace slime {
namespace cluster {

bool HintQueue::Enqueue(int64_t shard, HandoffHint hint) {
  std::lock_guard<std::mutex> lock(mu_);
  std::deque<HandoffHint>& q = queues_[shard];
  if (static_cast<int64_t>(q.size()) >= options_.max_hints_per_shard) {
    return false;
  }
  q.push_back(std::move(hint));
  ++total_pending_;
  return true;
}

std::vector<HandoffHint> HintQueue::Drain(int64_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queues_.find(shard);
  if (it == queues_.end()) return {};
  std::vector<HandoffHint> out(it->second.begin(), it->second.end());
  total_pending_ -= static_cast<int64_t>(out.size());
  queues_.erase(it);
  return out;
}

int64_t HintQueue::total_pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_pending_;
}

void RepairStats::Add(const RepairStats& o) {
  users_scanned += o.users_scanned;
  users_diverged += o.users_diverged;
  users_repaired += o.users_repaired;
  items_transferred += o.items_transferred;
  conflicts += o.conflicts;
}

Status RepairUser(state::StateStore* a, state::StateStore* b,
                  uint64_t user_id, RepairStats* stats) {
  SLIME_CHECK(a != nullptr && b != nullptr && stats != nullptr);
  ++stats->users_scanned;
  const state::UserDigest da = a->Digest(user_id);
  const state::UserDigest db = b->Digest(user_id);
  if (da.items_total == db.items_total && da.crc == db.crc) {
    return Status::OK();  // converged (or both unknown)
  }
  ++stats->users_diverged;
  if (da.items_total == db.items_total) {
    // Same stream length, different bytes: these histories genuinely
    // forked, and no suffix transfer can reconcile them without rewriting
    // one side's acked past — which repair must never do.
    ++stats->conflicts;
    return Status::OK();
  }
  state::StateStore* ahead = da.items_total > db.items_total ? a : b;
  state::StateStore* behind = ahead == a ? b : a;
  const state::UserDigest dahead = ahead == a ? da : db;
  const state::UserDigest dbehind = ahead == a ? db : da;

  const uint64_t need = dahead.items_total - dbehind.items_total;
  const std::vector<int64_t> suffix = ahead->TailItems(user_id, need);
  if (static_cast<uint64_t>(suffix.size()) < need) {
    // The ahead replica already trimmed past the divergence point; the
    // missing events are gone from its retained window and cannot be
    // transferred without fabrication.
    ++stats->conflicts;
    return Status::OK();
  }
  // Pre-verify the splice: the suffix must extend the behind stream to
  // exactly the ahead digest, or the streams diverged earlier than the
  // length gap suggests.
  if (state::ExtendItemDigest(dbehind.crc, suffix.data(), suffix.size()) !=
      dahead.crc) {
    ++stats->conflicts;
    return Status::OK();
  }
  Result<state::AppendAck> ack = behind->Append(user_id, suffix);
  if (!ack.ok()) return ack.status();
  ++stats->users_repaired;
  stats->items_transferred += static_cast<int64_t>(suffix.size());
  return Status::OK();
}

Status RepairReplicas(const std::vector<state::StateStore*>& replicas,
                      uint64_t user_id, RepairStats* stats) {
  size_t ahead = 0;
  uint64_t best = 0;
  for (size_t i = 0; i < replicas.size(); ++i) {
    const uint64_t total = replicas[i]->Digest(user_id).items_total;
    if (total > best) {
      best = total;
      ahead = i;
    }
  }
  for (size_t i = 0; i < replicas.size(); ++i) {
    if (i == ahead) continue;
    SLIME_RETURN_IF_ERROR(
        RepairUser(replicas[ahead], replicas[i], user_id, stats));
  }
  return Status::OK();
}

Status RepairReplicaSet(const std::vector<state::StateStore*>& replicas,
                        const std::function<bool(uint64_t user_id)>& in_scope,
                        RepairStats* stats) {
  std::vector<uint64_t> users;
  for (const state::StateStore* store : replicas) {
    for (const state::UserDigest& d : store->EnumerateDigests(in_scope)) {
      users.push_back(d.user_id);
    }
  }
  std::sort(users.begin(), users.end());
  users.erase(std::unique(users.begin(), users.end()), users.end());
  for (uint64_t user : users) {
    SLIME_RETURN_IF_ERROR(RepairReplicas(replicas, user, stats));
  }
  return Status::OK();
}

}  // namespace cluster
}  // namespace slime
