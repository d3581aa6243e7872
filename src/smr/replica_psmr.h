// P-SMR replica — the paper's Algorithm 1, server side (lines 7–26).
//
// k worker threads; thread t_i subscribes to groups {g_i, g_all} through a
// deterministic MergeDeliverer, so delivery itself is parallel (one stream
// per thread, no central dispatcher — the defining property of P-SMR,
// Table I).
//
// Execution modes per delivered command C with destination set γ:
//   * parallel mode (γ singleton): t_i executes C and replies immediately;
//   * synchronous mode (|γ| > 1): the destination threads synchronize with
//     signals; t_e with e = min(γ) waits for a signal from every other
//     destination thread, executes C, replies, then signals them to resume.
// Threads that deliver C via g_all but are not in γ ignore it (the general
// form of the algorithm allows γ to be any subset; our transport routes all
// multi-group messages through g_all).
//
// Signals are per-(sender, receiver) counting semaphores, exactly the
// "signal from t_j" of the paper, so a fast thread's signal for the *next*
// synchronous command cannot be miscounted for the current one.
//
// Batched execution: between synchronous-mode barriers, a worker
// accumulates consecutive parallel-mode deliveries into a run of mutually
// independent commands (bounded by run_length; a dry or closed stream
// flushes immediately via MergeDeliverer::try_next, so batching never
// waits) and
// executes it as one Service::execute_batch call.  Run boundaries are
// timing-dependent but, per the batch contract in service.h, replicas that
// slice the same deterministic stream differently still converge.
//
// Checkpointing (when CheckpointOptions::enabled): a reserved marker
// command (kCheckpointMarker), multicast to every group, lands at one
// well-defined position of every worker's merged stream.  On delivering it
// each worker parks at a full-replica barrier (the same signal matrix the
// synchronous mode uses); worker 0 then snapshots the quiesced service plus
// every worker's resume state into a digest-stamped SnapshotFrame
// (smr/snapshot.h), stores the encoded frame for peers to fetch
// (kSmrSnapshotReq/Rep), and acks the covered prefix to every ring's
// acceptors so they can truncate (kPaxosCheckpointAck).  Because the frame
// is a deterministic function of the streams, replicas cutting the same
// marker produce byte-identical frames.  A restarted replica is constructed
// from a peer's frame: the service state installs, each worker resubscribes
// at its recorded stream positions, and the acceptor catch-up protocol
// replays the suffix through the normal dedup/admit path.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "multicast/amcast.h"
#include "smr/response_coalescer.h"
#include "smr/service.h"
#include "smr/snapshot.h"
#include "util/sync.h"

namespace psmr::smr {

class PsmrReplica {
 public:
  /// `mpl` worker threads; must equal the C-G function's mpl().
  /// `run_length` bounds the execution batches accumulated per worker
  /// (1 restores one-command-at-a-time execution).  The workers share one
  /// reply coalescer (see response_coalescer.h), so replies from different
  /// workers to the same proxy merge.
  /// `checkpoint` enables the snapshot/truncation/recovery machinery;
  /// `restore` (optional) boots the replica from a decoded snapshot frame
  /// instead of from scratch — throws std::runtime_error if the frame does
  /// not install cleanly (service decode failure or digest mismatch).
  PsmrReplica(transport::Network& net, multicast::Bus& bus,
              std::unique_ptr<Service> service, std::size_t mpl,
              std::string name = "psmr-replica", std::size_t run_length = 16,
              CheckpointOptions checkpoint = {},
              const SnapshotFrame* restore = nullptr);
  ~PsmrReplica();

  PsmrReplica(const PsmrReplica&) = delete;
  PsmrReplica& operator=(const PsmrReplica&) = delete;

  void start();
  void stop();

  /// Commands executed so far (all workers).
  [[nodiscard]] std::uint64_t executed() const { return executed_.load(); }

  /// The replica's service instance (state inspection in tests).
  [[nodiscard]] const Service& service() const { return *service_; }

  /// Reply-path wire counters (messages, responses, flush reasons).
  [[nodiscard]] ResponseStats response_stats() const {
    return coalescer_->stats();
  }
  /// Test hook: the shared reply coalescer (flush-pause rendezvous).
  [[nodiscard]] ResponseCoalescer& response_coalescer() { return *coalescer_; }

  /// Test hooks: worker w's merged subscription — stream count, and the
  /// number of ring decisions consumed so far from stream s (the shared
  /// g_all ring is the last stream).  Progress assertions on these verify
  /// that every worker's rotation keeps advancing — i.e. that idle rings'
  /// skips actually reach the merge — without racing the worker thread.
  [[nodiscard]] std::size_t num_streams(std::size_t w) const {
    return subs_.at(w)->num_streams();
  }
  [[nodiscard]] paxos::Instance stream_position(std::size_t w,
                                                std::size_t s) const {
    return subs_.at(w)->stream_position(s);
  }

  /// Multicasts a checkpoint marker.  All replicas of the deployment cut a
  /// checkpoint when it is delivered (it travels the ordered streams like
  /// any command).  Returns false when checkpointing is disabled or the
  /// submit could not be dispatched.  Safe from any thread.
  bool trigger_checkpoint();

  /// Checkpoints completed by this replica (taken or installed-on-restore).
  [[nodiscard]] std::uint64_t checkpoints_taken() const {
    return ckpts_taken_.load(std::memory_order_relaxed);
  }
  /// The latest encoded snapshot frame, if any (what peers fetch).
  [[nodiscard]] std::optional<util::Buffer> latest_checkpoint() const {
    std::lock_guard lock(ckpt_mu_);
    if (!have_ckpt_) return std::nullopt;
    return latest_ckpt_;
  }
  /// Node serving kSmrSnapshotReq (kNoNode when checkpointing is off).
  [[nodiscard]] transport::NodeId snapshot_node() const;

 private:
  class WorkerSink;
  class SnapshotServer;

  void worker_loop(std::size_t worker);
  void sync_execute(Command cmd, std::size_t worker);
  void execute_run(std::vector<Command>& run, std::size_t worker);
  /// Full-replica barrier at a delivered checkpoint marker; worker 0 cuts
  /// the snapshot while every other worker is parked.
  void checkpoint_execute(std::size_t worker);
  /// Runs on worker 0 (or the sole worker) with the service quiesced.
  void take_checkpoint();
  /// Builds the resume-state frame from the parked workers' streams.
  [[nodiscard]] SnapshotFrame build_frame(std::uint64_t executed) const;
  /// Installs a decoded frame into a freshly constructed replica.
  void install_frame(const SnapshotFrame& frame);
  /// Acks the frame's covered prefix to every ring's acceptors.
  void send_checkpoint_acks(const SnapshotFrame& frame);
  /// Dedup classification of a parallel-mode delivery: true if the command
  /// is fresh and should execute; replays the cached response (or drops a
  /// stale duplicate) otherwise.
  bool admit(const Command& cmd, std::size_t worker);
  util::Signal& signal(std::size_t from, std::size_t to) {
    return signals_[from * mpl_ + to];
  }

  transport::Network& net_;
  multicast::Bus& bus_;
  const std::size_t mpl_;
  const std::size_t run_length_;
  const std::string name_;
  const CheckpointOptions ckpt_opts_;
  std::unique_ptr<Service> service_;
  std::vector<std::unique_ptr<multicast::MergeDeliverer>> subs_;
  std::vector<util::Signal> signals_;  // mpl x mpl matrix
  std::vector<std::thread> workers_;
  transport::NodeId reply_node_ = transport::kNoNode;
  std::unique_ptr<ResponseCoalescer> coalescer_;

  // Per-worker duplicate suppression: last executed seq and its response per
  // (client, stream).  Deterministic across replicas because each worker's
  // delivery stream is deterministic and batch members only commute when
  // independent.  Keyed by stream because the merge interleaves a client's
  // commands on the worker's own ring with those on the shared ring in no
  // particular seq order; per-ring FIFO from one client makes the per-stream
  // high-water mark exact.
  struct LastExec {
    Seq seq = 0;
    util::Buffer response;
  };
  using DedupTable = std::unordered_map<ClientId, LastExec>;
  /// `worker`'s table for the merge stream `cmd` was delivered on: 0 for
  /// the worker's own ring, 1 for the shared ring (the WorkerSnapshot
  /// stream order; Bus::multicast routes only non-singleton γ there).
  DedupTable& dedup_table(std::size_t worker, const Command& cmd) {
    const bool shared = !cmd.groups.singleton() && bus_.has_shared_ring();
    return dedup_[worker][shared ? 1 : 0];
  }
  std::vector<std::array<DedupTable, 2>> dedup_;  // [worker][stream]

  std::atomic<std::uint64_t> executed_{0};
  bool started_ = false;

  // Checkpoint state.  latest_ckpt_/have_ckpt_/last_ckpt_executed_ are
  // written by worker 0 at the barrier and read by the snapshot server and
  // monitoring threads, hence the mutex.
  mutable std::mutex ckpt_mu_;
  util::Buffer latest_ckpt_;
  bool have_ckpt_ = false;
  std::uint64_t last_ckpt_executed_ = 0;
  std::atomic<std::uint64_t> ckpts_taken_{0};
  /// A marker is in flight (trigger issued, barrier not reached yet); keeps
  /// the periodic trigger from flooding markers faster than they deliver.
  std::atomic<bool> ckpt_pending_{false};
  /// Worker 0's command count toward the next periodic trigger.
  std::uint64_t since_ckpt_trigger_ = 0;
  std::unique_ptr<SnapshotServer> snapshot_server_;
};

}  // namespace psmr::smr
