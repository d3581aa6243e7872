// Paxos coordinator (proposer + batcher) for one ring.
//
// Responsibilities, mirroring the paper's multicast library (Section VI-A):
//   * collects submitted commands into batches of at most 8 KB (or a batch
//     timeout) — "commands multicast to a group are batched by the group's
//     coordinator and order is established on batches of commands"; with
//     RingConfig::adaptive_batching the timeout shrinks when batches seal
//     full and grows when they seal sparse, within [min, max] bounds;
//   * runs multi-Paxos: one Phase 1 (prepare/promise) per ballot covering
//     all instances, then pipelined Phase 2 (accept/accepted) per batch;
//   * emits SKIP no-op batches when idle so that deterministic merge across
//     rings never stalls (Multi-Ring Paxos skip mechanism); skips follow an
//     absolute per-interval schedule, so decide latency never throttles the
//     cadence and missed intervals are repaid as one pipelined burst;
//   * retransmits on timeout and re-prepares on NACK, so the ring stays live
//     under message loss and competing coordinators stay safe.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "paxos/types.h"
#include "transport/endpoint.h"

namespace psmr::paxos {

/// Learner membership shared between the Ring (which registers subscribers)
/// and coordinators (which multicast DECIDEs to the current snapshot).
class LearnerRegistry {
 public:
  void add(transport::NodeId id) {
    std::lock_guard lock(mu_);
    ids_.push_back(id);
  }
  [[nodiscard]] std::vector<transport::NodeId> snapshot() const {
    std::lock_guard lock(mu_);
    return ids_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<transport::NodeId> ids_;
};

/// Counters exported for benches and tests.
///
/// The batching fields let callers assert on batcher *behavior* (fill
/// levels, why batches sealed, where the adaptive timeout settled) instead
/// of eyeballing throughput: mean occupancy is sealed_commands /
/// sealed_batches, mean batch payload is sealed_bytes / sealed_batches.
struct CoordinatorStats {
  std::uint64_t decided_batches = 0;
  std::uint64_t decided_commands = 0;
  std::uint64_t decided_skips = 0;

  // Batch sealing (non-skip batches only).
  std::uint64_t sealed_batches = 0;
  std::uint64_t sealed_commands = 0;
  std::uint64_t sealed_bytes = 0;
  std::uint64_t sealed_on_bytes = 0;    // hit max_batch_bytes
  std::uint64_t sealed_on_count = 0;    // hit max_batch_commands
  std::uint64_t sealed_on_timeout = 0;  // batch timeout expired

  // Adaptive timeout trajectory.
  std::uint64_t timeout_grows = 0;
  std::uint64_t timeout_shrinks = 0;
  /// Current effective batch timeout (the adaptive sample; equals the
  /// configured batch_timeout when adaptive batching is off).
  std::uint64_t batch_timeout_us = 0;

  // Submit-side coalescing as seen by this coordinator: messages received
  // vs commands they carried (> 1 command per message means upstream
  // submitters piggybacked onto one wire submit).
  std::uint64_t submit_msgs = 0;
  std::uint64_t submit_commands = 0;

  [[nodiscard]] double mean_commands_per_batch() const {
    return sealed_batches == 0
               ? 0.0
               : static_cast<double>(sealed_commands) /
                     static_cast<double>(sealed_batches);
  }
  [[nodiscard]] double mean_bytes_per_batch() const {
    return sealed_batches == 0 ? 0.0
                               : static_cast<double>(sealed_bytes) /
                                     static_cast<double>(sealed_batches);
  }

  /// Aggregates counters across rings; batch_timeout_us keeps the maximum
  /// (a "how far did any ring stretch" sample, since summing timeouts is
  /// meaningless).
  CoordinatorStats& operator+=(const CoordinatorStats& o) {
    decided_batches += o.decided_batches;
    decided_commands += o.decided_commands;
    decided_skips += o.decided_skips;
    sealed_batches += o.sealed_batches;
    sealed_commands += o.sealed_commands;
    sealed_bytes += o.sealed_bytes;
    sealed_on_bytes += o.sealed_on_bytes;
    sealed_on_count += o.sealed_on_count;
    sealed_on_timeout += o.sealed_on_timeout;
    timeout_grows += o.timeout_grows;
    timeout_shrinks += o.timeout_shrinks;
    batch_timeout_us = std::max(batch_timeout_us, o.batch_timeout_us);
    submit_msgs += o.submit_msgs;
    submit_commands += o.submit_commands;
    return *this;
  }
};

class Coordinator : public transport::Endpoint {
 public:
  Coordinator(transport::Network& net, RingId ring, RingConfig cfg,
              std::vector<transport::NodeId> acceptors,
              std::shared_ptr<LearnerRegistry> learners,
              std::uint32_t proposer_index, std::uint64_t start_round);

  [[nodiscard]] CoordinatorStats stats() const {
    std::lock_guard lock(stats_mu_);
    return stats_;
  }

  /// Test hook: suppresses all on_tick work (batch sealing, retransmits,
  /// skip emission) for `d` from now, simulating a tick thread starved by
  /// CPU contention.  Thread-safe; message handling is unaffected, so the
  /// ring keeps deciding submitted commands while "starved" — exactly the
  /// regime that exposed the skip-cadence stall.
  void stall_ticks_for(std::chrono::microseconds d) {
    auto until = std::chrono::steady_clock::now() + d;
    stall_until_ns_.store(until.time_since_epoch().count(),
                          std::memory_order_relaxed);
  }

 protected:
  void handle(transport::Message msg) override;
  [[nodiscard]] std::optional<std::chrono::microseconds> tick_interval()
      const override {
    return tick_;
  }
  void on_tick() override;

 private:
  enum class Phase { kPreparing, kSteady };
  enum class SealReason { kBytes, kCount, kTimeout };

  void begin_prepare();
  void on_submit(util::Payload cmd);
  /// Parses a SUBMIT_MANY frame; each command enqueued is a zero-copy
  /// subview of the frame's pool block.
  void on_submit_frame(const util::Payload& payload);
  void on_promise(transport::NodeId from, util::Reader& r);
  void on_accepted(transport::NodeId from, util::Reader& r);
  void on_nack(util::Reader& r);

  /// Appends one command to the open batch, sealing when a cap is hit.
  void enqueue(util::Payload cmd);
  void seal_batch(SealReason reason);
  void adapt_timeout(SealReason reason, std::size_t batch_bytes,
                     std::size_t batch_commands);
  void pump_proposals();
  void propose(Instance inst, util::Payload value);
  void send_accepts(Instance inst);
  void decide(Instance inst);

  [[nodiscard]] std::size_t quorum() const {
    return acceptors_.size() / 2 + 1;
  }

  const RingId ring_;
  const RingConfig cfg_;
  const std::vector<transport::NodeId> acceptors_;
  const std::shared_ptr<LearnerRegistry> learners_;
  const std::uint32_t proposer_index_;
  const std::chrono::microseconds tick_;

  Phase phase_ = Phase::kPreparing;
  std::uint64_t round_;
  Ballot ballot_;
  Instance next_instance_ = 0;

  // Phase 1 bookkeeping.
  std::set<transport::NodeId> promises_;
  struct PromisedValue {
    Ballot ballot = 0;
    util::Payload value;
  };
  std::map<Instance, PromisedValue> promised_values_;
  /// Highest truncation floor reported in PROMISEs.  Instances below it were
  /// checkpoint-truncated at the acceptors, so they are already delivered
  /// everywhere; a failover coordinator must never re-propose below it (it
  /// would reuse instance numbers every learner has already passed).
  Instance prepare_floor_ = 0;
  std::chrono::steady_clock::time_point prepare_sent_{};

  // Batching.  Pending commands are zero-copy subviews of the submit
  // frames they arrived in; sealing copies them once into the batch block.
  std::vector<util::Payload> pending_;
  std::size_t pending_bytes_ = 0;
  std::chrono::steady_clock::time_point batch_started_{};
  std::deque<util::Payload> sealed_;
  /// Effective batch timeout; fixed at cfg_.batch_timeout unless adaptive
  /// batching moves it within [min_batch_timeout, max_batch_timeout].
  std::chrono::microseconds batch_timeout_;

  // Phase 2 pipeline.
  struct InFlight {
    util::Payload value;
    std::set<transport::NodeId> acks;
    std::chrono::steady_clock::time_point last_send;
  };
  std::map<Instance, InFlight> in_flight_;

  /// Absolute skip schedule: the next wall-clock deadline at which an idle
  /// ring owes the merge layer a SKIP decision.  Advanced by exactly one
  /// skip_interval per emitted skip (never refreshed by the skip's own
  /// round-trip), so the cadence is one skip per interval of *wall time*
  /// regardless of decide latency, and a starved tick thread repays its
  /// backlog as a pipelined catch-up burst.  Real traffic (enqueue, non-skip
  /// decide) resets the deadline — a loaded ring advances the merge with
  /// real decisions and owes nothing.
  std::chrono::steady_clock::time_point skip_due_{};

  /// stall_ticks_for() deadline, as steady_clock ns since epoch (0 = none).
  std::atomic<std::chrono::steady_clock::rep> stall_until_ns_{0};

  // Written on the coordinator thread only; the mutex makes stats() safe to
  // call from test/bench threads.
  mutable std::mutex stats_mu_;
  CoordinatorStats stats_;
};

}  // namespace psmr::paxos
