// Deployment: one-call construction of a complete replicated system.
//
// Builds the full component graph of the paper's evaluation for any of the
// five architectures (Section VI):
//   * SMR         — atomic multicast (1 group), f+1 replicas, 1 executor;
//   * sP-SMR      — atomic multicast (1 group), f+1 replicas, scheduler + k
//                   workers;
//   * P-SMR       — atomic multicast (k groups + g_all), f+1 replicas, k
//                   delivering workers (Algorithm 1);
//   * no-rep      — a single scheduler+workers server, no replication;
//   * lock server — BDB-style: lock-synchronized service, one handler
//                   thread per client group, no scheduler, no replication.
// Tests, benches and examples use this instead of hand-wiring.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "multicast/amcast.h"
#include "smr/client.h"
#include "smr/lockserver.h"
#include "smr/norep.h"
#include "smr/replica_psmr.h"
#include "smr/replica_spsmr.h"

namespace psmr::smr {

enum class Mode { kSmr, kSpsmr, kPsmr, kNoRep, kLockServer };

[[nodiscard]] constexpr const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kSmr: return "SMR";
    case Mode::kSpsmr: return "sP-SMR";
    case Mode::kPsmr: return "P-SMR";
    case Mode::kNoRep: return "no-rep";
    case Mode::kLockServer: return "BDB";
  }
  return "?";
}

struct DeploymentConfig {
  Mode mode = Mode::kPsmr;
  /// Worker threads per replica (the multiprogramming level).  For SMR this
  /// is forced to 1.
  std::size_t mpl = 8;
  /// Replica count for the replicated modes (paper: 2, i.e. f = 1).
  std::size_t replicas = 2;
  /// Ring tuning (batching, skips, retransmission).
  paxos::RingConfig ring;
  /// Replica-side execution batching: maximum run of consecutive
  /// independent commands handed to the service as one execute_batch call
  /// (see service.h's batch contract).  1 restores one-command-at-a-time
  /// execution; ignored by the lock server, which has no delivery stream
  /// to accumulate from.
  std::size_t exec_run_length = 16;
  /// Builds one fresh service instance (per replica).
  std::function<std::unique_ptr<Service>()> service_factory;
  /// Builds the shared thread-safe service (lock-server mode only); when
  /// unset, the lock server wraps service_factory() in a LockedService.
  std::function<std::shared_ptr<Service>()> shared_service_factory;
  /// Builds the C-G function for a given multiprogramming level.  Used with
  /// k = mpl for P-SMR clients and for the sP-SMR/no-rep scheduler, and with
  /// k = 1 for SMR/sP-SMR clients.
  std::function<std::shared_ptr<const CGFunction>(std::size_t)> cg_factory;
  /// Overload admission control at the proxy/coordinator boundary (see
  /// admission.h).  When enabled, every client proxy of a replicated mode
  /// shares one controller whose occupancy signal is the bus's aggregate
  /// CoordinatorStats; shed commands fail fast as kSmrRejected completions.
  /// Unreplicated modes (no-rep, lock server) have no multicast rings to
  /// protect and ignore it.
  AdmissionConfig admission;
  /// Checkpointing / log truncation / recovery (SMR and P-SMR modes; see
  /// replica_psmr.h and smr/snapshot.h).  `replica_id` is assigned per
  /// replica by the deployment, so leave it at its default.  When enabled
  /// and `ring.checkpoint_ackers` was left at 0, the rings' truncation
  /// quorum is set to the full replica count: acceptors drop a decided
  /// prefix only once every replica has covered it with a checkpoint.
  CheckpointOptions checkpoint;
};

class Deployment {
 public:
  explicit Deployment(DeploymentConfig cfg);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  void start();
  void stop();

  /// Creates a client proxy bound to this deployment.  Safe to call from
  /// several threads; each returned client belongs to one driver thread.
  std::unique_ptr<ClientProxy> make_client();

  [[nodiscard]] Mode mode() const { return cfg_.mode; }
  [[nodiscard]] transport::Network& network() { return net_; }
  /// Null in unreplicated modes.
  [[nodiscard]] multicast::Bus* bus() { return bus_.get(); }

  /// Aggregate batching/consensus counters across every ring of the bus
  /// (zeros for unreplicated modes).  Tests and benches assert on these —
  /// e.g. mean_commands_per_batch() — rather than eyeballing throughput.
  [[nodiscard]] paxos::CoordinatorStats multicast_stats() const;

  /// Execution-batching counters of service instance i (batches executed,
  /// commands per batch, batched-read share) — the replica-side analogue
  /// of multicast_stats().
  [[nodiscard]] ExecStats exec_stats(std::size_t i) const;
  /// Aggregate exec_stats over every service instance.
  [[nodiscard]] ExecStats exec_stats() const;

  /// Reply-path wire counters of replica i (messages, responses carried,
  /// flush reasons) — how execution batches reached the clients.  Zeros for
  /// the lock server, which replies inline per command.
  [[nodiscard]] ResponseStats response_stats(std::size_t i) const;
  /// Aggregate response_stats over every replica.
  [[nodiscard]] ResponseStats response_stats() const;

  /// Submit-pipelining counters of the shared spooler (zeros when the
  /// mode is unreplicated).
  [[nodiscard]] SpoolStats spool_stats() const;
  /// The shared spooler every client proxy submits through (nullptr when
  /// the mode is unreplicated).
  [[nodiscard]] SubmitSpooler* spooler() { return spooler_.get(); }

  /// Admission counters (zeros when admission is disabled or the mode is
  /// unreplicated).
  [[nodiscard]] AdmissionStats admission_stats() const;
  /// The shared controller (nullptr when admission is disabled).
  [[nodiscard]] AdmissionController* admission() { return admission_.get(); }

  /// Test hook: replica i in SMR/P-SMR mode (nullptr in other modes, or
  /// while replica i is crashed).  Exposes the per-worker merge-stream
  /// positions for progress assertions.  The pointer stays valid until the
  /// replica is crashed or the deployment destroyed — don't cache it across
  /// a crash_replica/restart_replica cycle.
  [[nodiscard]] PsmrReplica* psmr_replica(std::size_t i) const {
    std::lock_guard lock(replicas_mu_);
    return i < psmr_.size() ? psmr_[i].get() : nullptr;
  }

  /// Number of service instances (replicas, or 1 for unreplicated modes).
  [[nodiscard]] std::size_t num_services() const;
  /// Commands executed by service instance i (0 while crashed).
  [[nodiscard]] std::uint64_t executed(std::size_t i) const;
  /// State digest of service instance i (0 while crashed).
  [[nodiscard]] std::uint64_t state_digest(std::size_t i) const;

  // -- Checkpointing & recovery (SMR and P-SMR modes) ---------------------

  /// Multicasts a checkpoint marker through any live replica; every replica
  /// cuts a checkpoint when it delivers.  False when the mode has no
  /// checkpoint-capable replicas, checkpointing is disabled, or no replica
  /// is alive.
  bool trigger_checkpoint();

  /// Checkpoints completed by replica i (0 while crashed / other modes).
  [[nodiscard]] std::uint64_t checkpoints_taken(std::size_t i) const;

  /// Crash-simulates replica i: stops its workers and destroys it (its
  /// service state is lost; its slot reads as nullptr / zero digests).  The
  /// ring acceptors keep its last checkpoint ack, so log truncation cannot
  /// outrun the crashed replica — restart_replica always finds the suffix
  /// it needs.  No-op when i is out of range or already crashed.
  void crash_replica(std::size_t i);

  /// Restarts a crashed replica: fetches the latest snapshot frame from a
  /// live peer (kSmrSnapshotReq), installs it, resubscribes the workers at
  /// the frame's recorded stream positions, and lets the ring catch-up
  /// protocol replay the suffix.  Falls back to a from-scratch replay of
  /// the full log when no peer has a checkpoint (only possible when no
  /// checkpoint was ever cut, hence nothing was truncated).  Returns false
  /// when i is out of range, not crashed, or the mode has no psmr replicas.
  bool restart_replica(std::size_t i);

 private:
  [[nodiscard]] std::unique_ptr<PsmrReplica> build_psmr_replica(
      std::size_t r, const SnapshotFrame* restore);
  /// Fetches the newest encoded snapshot frame held by any live replica
  /// other than `skip` (nullopt when none).
  [[nodiscard]] std::optional<SnapshotFrame> fetch_peer_snapshot(
      std::size_t skip);

  DeploymentConfig cfg_;
  transport::Network net_;
  std::unique_ptr<multicast::Bus> bus_;
  std::shared_ptr<const CGFunction> client_cg_;
  std::shared_ptr<AdmissionController> admission_;
  std::unique_ptr<SubmitSpooler> spooler_;

  /// Guards the psmr_ slot pointers, which crash_replica/restart_replica
  /// swap while monitor threads read the per-replica accessors.
  mutable std::mutex replicas_mu_;
  std::vector<std::unique_ptr<PsmrReplica>> psmr_;
  std::vector<std::unique_ptr<SpsmrReplica>> spsmr_;
  std::unique_ptr<NoRepServer> norep_;
  std::unique_ptr<LockServer> lock_;
  std::shared_ptr<Service> lock_service_;

  // Atomic: driver threads create their clients concurrently, and two
  // clients sharing an id would dedup each other's commands away.
  std::atomic<ClientId> next_client_{1};
  std::atomic<std::size_t> next_handler_{0};
  bool started_ = false;
};

}  // namespace psmr::smr
