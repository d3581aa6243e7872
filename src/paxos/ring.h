// Ring: one totally ordered stream of command batches (one multicast group).
//
// Wires together a coordinator, `num_acceptors` acceptors and any number of
// learner subscriptions on a shared Network.  Also provides the failover
// hook used by tests: fail_coordinator() crashes the current coordinator
// (network disconnect) and promotes a fresh one with a higher ballot, which
// re-runs Phase 1, re-proposes constrained values and resumes.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "paxos/acceptor.h"
#include "paxos/coordinator.h"
#include "paxos/learner.h"

namespace psmr::paxos {

class Ring {
 public:
  Ring(transport::Network& net, RingId id, RingConfig cfg);
  ~Ring();

  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  /// Starts acceptor and coordinator threads.
  void start();
  /// Stops all endpoints (also runs on destruction).
  void stop();

  [[nodiscard]] RingId id() const { return id_; }
  [[nodiscard]] const RingConfig& config() const { return cfg_; }

  /// Node id of the current coordinator (changes on failover).
  [[nodiscard]] transport::NodeId coordinator() const {
    return current_coordinator_.load();
  }

  /// Creates a learner subscription: the returned log receives every batch
  /// decided by this ring, in instance order, starting at `start` (nonzero
  /// when a recovering replica resumes from a checkpoint; the suffix below
  /// the live stream is fetched via the acceptor catch-up protocol).
  std::unique_ptr<LearnerLog> subscribe(Instance start = 0);

  /// Largest decided-log size across this ring's acceptors (thread-safe;
  /// bounded-memory monitoring for checkpoint truncation).
  [[nodiscard]] std::size_t max_acceptor_log() const;
  /// Total decided instances truncated across this ring's acceptors.
  [[nodiscard]] std::uint64_t truncated_instances() const;

  /// Submits one opaque command from node `from` to the current coordinator.
  bool submit(transport::NodeId from, util::Payload command);

  /// Submits a pre-encoded SUBMIT_MANY frame (u32 count + count
  /// length-prefixed commands) carrying `count` commands; `count == 0` is a
  /// no-op.  The coordinator appends the commands to its open batch in
  /// order, so a burst lands in as few consensus instances as the batch caps
  /// allow.  The client-side submit spooler encodes commands straight into
  /// one pooled frame as they arrive, so the flush is a single send with no
  /// re-marshalling here.
  bool submit_encoded(transport::NodeId from, util::Payload frame,
                      std::size_t count);

  /// Crash-simulates the current coordinator and promotes a standby with a
  /// strictly higher ballot.  Returns the new coordinator's node id.
  transport::NodeId fail_coordinator();

  /// Aggregate stats from the current coordinator.
  [[nodiscard]] CoordinatorStats stats() const;

  /// Test hook: starves the current coordinator's tick loop for `d`,
  /// deterministically reproducing the CPU-contention regime behind the
  /// merge skip-cadence stall (see Coordinator::stall_ticks_for).
  void stall_coordinator_ticks(std::chrono::microseconds d);

  [[nodiscard]] const std::vector<transport::NodeId>& acceptor_ids() const {
    return acceptor_ids_;
  }

 private:
  transport::Network& net_;
  const RingId id_;
  const RingConfig cfg_;

  std::vector<std::unique_ptr<Acceptor>> acceptors_;
  std::vector<transport::NodeId> acceptor_ids_;
  std::shared_ptr<LearnerRegistry> learners_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Coordinator>> coordinators_;
  std::atomic<transport::NodeId> current_coordinator_{transport::kNoNode};
  std::uint64_t next_round_ = 1;
  bool started_ = false;
};

}  // namespace psmr::paxos
