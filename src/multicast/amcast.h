// Atomic multicast bus: the paper's "multicast library" (Figure 1).
//
// Composes one Paxos ring per worker group plus, when more than one worker
// group exists, a shared ring for g_all — exactly the prototype layout of
// Section VI-A: "each thread t_i belongs to two groups: one group g_i to
// which no other thread in the server belongs, and one group g_all to which
// every thread in each server belongs"; "a message can be addressed to a
// single group only", so a multi-group destination set is routed through
// g_all and filtered by subscribers.
//
// Guarantees (paper Section II): agreement — if one correct learner of a
// group delivers m, all do (Paxos decides + catch-up); order — the delivery
// relation is acyclic because each ring is totally ordered and merged
// streams interleave deterministically (merge.h).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "multicast/group.h"
#include "multicast/merge.h"
#include "paxos/ring.h"

namespace psmr::multicast {

/// Configuration for a bus instance.
struct BusConfig {
  /// Number of worker groups k (the multiprogramming level).
  std::size_t num_groups = 1;
  /// Ring tuning applied to every ring.  skip_interval is forced on for
  /// worker rings and the shared ring whenever merging is in effect
  /// (num_groups > 1), because deterministic merge needs idle rings to
  /// keep deciding SKIPs.
  paxos::RingConfig ring;
};

/// One atomic-multicast domain shared by clients and replicas.
class Bus {
 public:
  Bus(transport::Network& net, BusConfig cfg);

  Bus(const Bus&) = delete;
  Bus& operator=(const Bus&) = delete;

  void start();
  void stop();

  [[nodiscard]] std::size_t num_groups() const { return cfg_.num_groups; }
  [[nodiscard]] bool has_shared_ring() const { return shared_ring_ != nullptr; }

  /// Multicasts an opaque message to the groups in γ.
  /// Routing: singleton γ → that group's ring; otherwise the shared ring.
  bool multicast(transport::NodeId from, GroupSet groups,
                 util::Payload message);

  /// Ring index γ routes to (the index space of submit_encoded): singleton
  /// γ → that group's ring, otherwise the shared ring when one exists.
  /// Exposed so the client-side submit spooler can bucket per destination
  /// ring before encoding.
  [[nodiscard]] std::size_t ring_index_for(GroupSet groups) const {
    if (groups.singleton()) return groups.min();
    return shared_ring_ ? rings_.size() : 0;
  }
  /// Number of ring indices (worker rings + shared ring when present).
  [[nodiscard]] std::size_t num_rings() const {
    return rings_.size() + (shared_ring_ ? 1 : 0);
  }

  /// Submits a pre-encoded SUBMIT_MANY frame carrying `count` commands to
  /// ring `ring_index` (the client-side submit spooler's burst).
  bool submit_encoded(std::size_t ring_index, transport::NodeId from,
                      util::Payload frame, std::size_t count);

  /// Subscribes worker group g: the returned deliverer merges g's ring with
  /// the shared ring (if any) deterministically.  Every subscriber of the
  /// same group on any replica observes the identical stream.
  std::unique_ptr<MergeDeliverer> subscribe(GroupId group);

  /// Subscription resuming from recorded stream positions (checkpoint
  /// recovery): starts[i] is the instance to deliver next from stream i, in
  /// the same stream order subscribe() produces (group ring first, then the
  /// shared ring when one exists).
  std::unique_ptr<MergeDeliverer> subscribe_at(
      GroupId group, std::span<const paxos::Instance> starts);

  /// Largest acceptor decided-log across every ring (bounded-memory metric
  /// for checkpoint truncation; thread-safe).
  [[nodiscard]] std::size_t max_acceptor_log() const;
  /// Total decided instances truncated across every ring's acceptors.
  [[nodiscard]] std::uint64_t truncated_instances() const;

  /// Total commands decided across all rings (skips excluded).
  [[nodiscard]] std::uint64_t decided_commands() const;
  /// Total SKIP batches decided across all rings (merge overhead metric).
  [[nodiscard]] std::uint64_t decided_skips() const;

  /// Batching/consensus counters for group g's ring.
  [[nodiscard]] paxos::CoordinatorStats ring_stats(GroupId g) const;
  /// Batching/consensus counters for the shared g_all ring (zeros when no
  /// shared ring exists).
  [[nodiscard]] paxos::CoordinatorStats shared_ring_stats() const;
  /// Aggregate over every ring (workers + shared).
  [[nodiscard]] paxos::CoordinatorStats total_stats() const;

  /// Test hook: the ring carrying singleton traffic for group g.
  [[nodiscard]] paxos::Ring& group_ring(GroupId g) { return *rings_.at(g); }
  /// Test hook: the shared ring (requires has_shared_ring()).
  [[nodiscard]] paxos::Ring& shared_ring() { return *shared_ring_; }

 private:
  [[nodiscard]] paxos::Ring& ring_at(std::size_t ring_index) {
    return ring_index < rings_.size() ? *rings_[ring_index] : *shared_ring_;
  }

  transport::Network& net_;
  BusConfig cfg_;
  std::vector<std::unique_ptr<paxos::Ring>> rings_;
  std::unique_ptr<paxos::Ring> shared_ring_;
};

}  // namespace psmr::multicast
