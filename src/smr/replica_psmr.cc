#include "smr/replica_psmr.h"

#include <algorithm>
#include <deque>
#include <tuple>

#include "transport/endpoint.h"
#include "util/log.h"

namespace psmr::smr {

/// Serves the latest encoded checkpoint frame to recovering peers.
class PsmrReplica::SnapshotServer final : public transport::Endpoint {
 public:
  SnapshotServer(transport::Network& net, PsmrReplica& replica)
      : Endpoint(net, replica.name_ + "-snapshots"), replica_(replica) {}

 protected:
  void handle(transport::Message msg) override {
    if (msg.type != transport::MsgType::kSmrSnapshotReq) {
      PSMR_WARN(name() << ": unexpected msg type " << msg.type);
      return;
    }
    util::Writer w;
    auto ckpt = replica_.latest_checkpoint();
    w.boolean(ckpt.has_value());
    if (ckpt) w.bytes(*ckpt);
    send(msg.from, transport::MsgType::kSmrSnapshotRep, w.take());
  }

 private:
  PsmrReplica& replica_;
};

PsmrReplica::PsmrReplica(transport::Network& net, multicast::Bus& bus,
                         std::unique_ptr<Service> service, std::size_t mpl,
                         std::string name, std::size_t run_length,
                         CheckpointOptions checkpoint,
                         const SnapshotFrame* restore)
    : net_(net),
      bus_(bus),
      mpl_(mpl),
      run_length_(run_length == 0 ? 1 : run_length),
      name_(std::move(name)),
      ckpt_opts_(checkpoint),
      service_(std::move(service)),
      signals_(mpl * mpl),
      dedup_(mpl) {
  if (bus.num_groups() != mpl_) {
    throw std::invalid_argument(
        "PsmrReplica: bus group count must equal the multiprogramming level");
  }
  if (restore && restore->workers.size() != mpl_) {
    throw std::runtime_error(
        "PsmrReplica: snapshot frame worker count mismatch");
  }
  for (std::size_t i = 0; i < mpl_; ++i) {
    if (restore) {
      subs_.push_back(bus.subscribe_at(static_cast<multicast::GroupId>(i),
                                       restore->workers[i].positions));
      if (!subs_.back()) {
        throw std::runtime_error(
            "PsmrReplica: snapshot frame stream count mismatch");
      }
    } else {
      subs_.push_back(bus.subscribe(static_cast<multicast::GroupId>(i)));
    }
  }
  auto [id, box] = net.register_node();
  reply_node_ = id;  // send-only identity for responses
  coalescer_ = std::make_unique<ResponseCoalescer>(net_, reply_node_);
  if (ckpt_opts_.enabled) {
    snapshot_server_ = std::make_unique<SnapshotServer>(net_, *this);
  }
  if (restore) install_frame(*restore);
}

PsmrReplica::~PsmrReplica() { stop(); }

void PsmrReplica::install_frame(const SnapshotFrame& frame) {
  util::Reader r(frame.service_state);
  if (!service_->restore_from(r)) {
    throw std::runtime_error(name_ + ": snapshot service state rejected");
  }
  if (service_->state_digest() != frame.service_digest) {
    throw std::runtime_error(name_ + ": snapshot digest mismatch");
  }
  for (std::size_t i = 0; i < mpl_; ++i) {
    const WorkerSnapshot& ws = frame.workers[i];
    std::deque<multicast::Delivery> pending;
    for (const auto& p : ws.pending) {
      pending.push_back(multicast::Delivery{p.stream, p.message});
    }
    subs_[i]->restore_merge_state(ws.merge_cursor, std::move(pending));
    for (const auto& d : ws.dedup) {
      dedup_[i][d.stream][d.client] = LastExec{d.seq, d.response};
    }
  }
  executed_.store(frame.executed, std::memory_order_relaxed);
  {
    std::lock_guard lock(ckpt_mu_);
    latest_ckpt_ = encode_snapshot(frame);
    have_ckpt_ = true;
    last_ckpt_executed_ = frame.executed;
  }
  ckpts_taken_.fetch_add(1, std::memory_order_relaxed);
  // Re-ack: our stable replica id pinned the truncation floor while we were
  // down; acking the installed frame lets truncation advance again.
  send_checkpoint_acks(frame);
}

void PsmrReplica::start() {
  if (started_) return;
  started_ = true;
  if (snapshot_server_) snapshot_server_->start();
  for (std::size_t i = 0; i < mpl_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

void PsmrReplica::stop() {
  for (auto& sub : subs_) sub->close();
  // Shutdown can catch workers at different stream positions: one may be
  // blocked in a synchronous-mode signal wait for a peer whose stream was
  // closed before delivering the same command.  Flush every signal cell so
  // blocked workers wake, observe their closed stream, and exit.
  for (std::size_t round = 0; round < mpl_ + 1; ++round) {
    for (auto& s : signals_) s.notify();
  }
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (snapshot_server_) snapshot_server_->stop();
}

transport::NodeId PsmrReplica::snapshot_node() const {
  return snapshot_server_ ? snapshot_server_->id() : transport::kNoNode;
}

bool PsmrReplica::trigger_checkpoint() {
  if (!ckpt_opts_.enabled) return false;
  // Multicast to every group so the marker lands at one position of every
  // worker's merged stream (mpl 1 has no shared ring; group 0 is "all").
  const multicast::GroupSet groups =
      mpl_ > 1 ? multicast::GroupSet::all(mpl_)
               : multicast::GroupSet::single(0);
  Command marker;
  marker.cmd = kCheckpointMarker;
  marker.client = 0;  // no real client: deployments assign ids from 1
  marker.groups = groups;
  return bus_.multicast(reply_node_, groups, marker.encode());
}

bool PsmrReplica::admit(const Command& cmd, std::size_t worker) {
  DedupTable& table = dedup_table(worker, cmd);
  auto it = table.find(cmd.client);
  if (it == table.end() || cmd.seq > it->second.seq) return true;
  if (cmd.seq == it->second.seq) {
    Response resp;
    resp.client = cmd.client;
    resp.seq = cmd.seq;
    resp.payload = it->second.response;
    coalescer_->send(cmd.reply_to, resp);
    // Replays happen outside an execution run, so no batch boundary is
    // coming to carry them: flush now, or a quiet stream strands the reply.
    coalescer_->flush_batch();
  }
  return false;  // stale duplicates are dropped silently
}

/// Updates the dedup cache and spools each response into the replica's
/// reply coalescer the moment the service hands it over; execute_run
/// flushes at the batch boundary.  Responses of one batch may arrive out of
/// batch order (pipelined read lane), so the cache keeps the max seq per
/// client.
class PsmrReplica::WorkerSink final : public ResponseSink {
 public:
  WorkerSink(PsmrReplica& replica, std::span<const Command> cmds,
             std::size_t worker)
      : replica_(replica), cmds_(cmds), worker_(worker) {}

  void accept(std::size_t index, util::Buffer payload) override {
    const Command& cmd = cmds_[index];
    auto& last = replica_.dedup_table(worker_, cmd)[cmd.client];
    if (cmd.seq > last.seq) {
      last.seq = cmd.seq;
      last.response = payload;
    }
    Response resp;
    resp.client = cmd.client;
    resp.seq = cmd.seq;
    resp.payload = std::move(payload);
    replica_.coalescer_->send(cmd.reply_to, resp);
  }

 private:
  PsmrReplica& replica_;
  std::span<const Command> cmds_;
  std::size_t worker_;
};

void PsmrReplica::execute_run(std::vector<Command>& run, std::size_t worker) {
  WorkerSink sink(*this, run, worker);
  CommandBatch batch{std::span<const Command>(run), &sink};
  service_->execute_batch(batch);
  // The executed run is the natural flush unit: its replies leave as one
  // frame per destination proxy before the worker blocks on its stream.
  coalescer_->flush_batch();
  // Release: a reader that sees the count (executed() loads seq_cst) also
  // sees the service state these commands wrote, e.g. a state_digest()
  // taken once a workload has quiesced.
  executed_.fetch_add(run.size(), std::memory_order_release);
  // Periodic checkpoint trigger, counted on worker 0 only (one counter per
  // replica; every replica triggers, and duplicate markers collapse at the
  // barrier when nothing executed in between).
  if (worker == 0 && ckpt_opts_.enabled &&
      ckpt_opts_.interval_commands > 0) {
    since_ckpt_trigger_ += run.size();
    if (since_ckpt_trigger_ >= ckpt_opts_.interval_commands &&
        !ckpt_pending_.exchange(true, std::memory_order_relaxed)) {
      since_ckpt_trigger_ = 0;
      trigger_checkpoint();
    }
  }
}

void PsmrReplica::checkpoint_execute(std::size_t worker) {
  ckpt_pending_.store(false, std::memory_order_relaxed);
  if (mpl_ == 1) {
    take_checkpoint();
    return;
  }
  // Full-replica barrier on the signal matrix, executor fixed at worker 0.
  // Every worker parks exactly after consuming the marker from its own
  // stream, so the resume state worker 0 records is the deterministic cut.
  // The counting semantics keep this safe against the synchronous-mode
  // barriers sharing cells: all workers process their (identical) stream's
  // barrier events in order, so the n-th wait pairs with the n-th notify.
  if (worker == 0) {
    for (std::size_t j = 1; j < mpl_; ++j) signal(j, 0).wait();
    take_checkpoint();
    for (std::size_t j = 1; j < mpl_; ++j) signal(0, j).notify();
  } else {
    signal(worker, 0).notify();
    signal(0, worker).wait();
  }
}

void PsmrReplica::take_checkpoint() {
  // A shutdown flushes the signal cells to wake parked workers; the streams
  // are closed then and the "barrier" is not a consistent cut — skip.
  if (subs_[0]->closed()) return;
  const std::uint64_t executed = executed_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(ckpt_mu_);
    // Duplicate markers (several replicas trigger periodically) collapse:
    // nothing executed since the last cut means an identical frame.
    if (have_ckpt_ && executed == last_ckpt_executed_) return;
  }
  SnapshotFrame frame = build_frame(executed);
  util::Writer sw;
  if (!service_->snapshot_to(sw)) {
    PSMR_WARN(name_ << ": service does not support snapshots; "
                       "checkpoint skipped");
    return;
  }
  frame.service_state = sw.take();
  frame.service_digest = service_->state_digest();
  util::Buffer encoded = encode_snapshot(frame);
  {
    std::lock_guard lock(ckpt_mu_);
    latest_ckpt_ = std::move(encoded);
    have_ckpt_ = true;
    last_ckpt_executed_ = executed;
  }
  ckpts_taken_.fetch_add(1, std::memory_order_relaxed);
  send_checkpoint_acks(frame);
  PSMR_DEBUG(name_ << ": checkpoint at " << executed << " commands");
}

SnapshotFrame PsmrReplica::build_frame(std::uint64_t executed) const {
  SnapshotFrame frame;
  frame.executed = executed;
  frame.workers.resize(mpl_);
  for (std::size_t i = 0; i < mpl_; ++i) {
    WorkerSnapshot& ws = frame.workers[i];
    const auto& sub = *subs_[i];
    for (std::size_t s = 0; s < sub.num_streams(); ++s) {
      ws.positions.push_back(sub.stream_position(s));
    }
    ws.merge_cursor = sub.merge_cursor();
    for (const auto& d : sub.pending()) {
      ws.pending.push_back(SnapshotPending{
          static_cast<std::uint32_t>(d.stream), d.message.to_buffer()});
    }
    // Canonical (sorted) dedup table, so equal tables encode equally.
    for (std::uint32_t stream = 0; stream < dedup_[i].size(); ++stream) {
      for (const auto& [client, last] : dedup_[i][stream]) {
        ws.dedup.push_back(
            SnapshotDedupEntry{client, stream, last.seq, last.response});
      }
    }
    std::sort(ws.dedup.begin(), ws.dedup.end(),
              [](const SnapshotDedupEntry& a, const SnapshotDedupEntry& b) {
                return std::tie(a.client, a.stream) <
                       std::tie(b.client, b.stream);
              });
  }
  return frame;
}

void PsmrReplica::send_checkpoint_acks(const SnapshotFrame& frame) {
  if (!ckpt_opts_.enabled) return;
  // Worker group g's ring has exactly one subscriber per replica (worker
  // g), so its covered prefix is that worker's position.  The shared ring
  // is merged by every worker; at the cut they agree, but ack the minimum
  // for safety.
  auto ack_ring = [&](paxos::Ring& ring, paxos::Instance inst) {
    util::Writer w;
    w.u64(ckpt_opts_.replica_id);
    w.u64(inst);
    for (auto a : ring.acceptor_ids()) {
      net_.send(reply_node_, a, transport::MsgType::kPaxosCheckpointAck,
                w.view());
    }
  };
  for (std::size_t g = 0; g < mpl_; ++g) {
    if (frame.workers[g].positions.empty()) continue;
    ack_ring(bus_.group_ring(static_cast<multicast::GroupId>(g)),
             frame.workers[g].positions[0]);
  }
  if (bus_.has_shared_ring()) {
    paxos::Instance shared = 0;
    bool first = true;
    for (const auto& ws : frame.workers) {
      if (ws.positions.size() < 2) continue;
      shared = first ? ws.positions[1] : std::min(shared, ws.positions[1]);
      first = false;
    }
    if (!first) ack_ring(bus_.shared_ring(), shared);
  }
}

void PsmrReplica::sync_execute(Command cmd, std::size_t worker) {
  // Synchronous mode (Algorithm 1, lines 14-26).
  const multicast::GroupSet groups = cmd.groups;
  const std::size_t executor = groups.min();
  if (worker == executor) {
    groups.for_each([&](multicast::GroupId j) {
      if (j != executor && j < mpl_) signal(j, executor).wait();
    });
    // Dedup/replay and execute exactly like a parallel-mode run of one.
    if (admit(cmd, worker)) {
      std::vector<Command> one;
      one.push_back(std::move(cmd));
      execute_run(one, worker);
    }
    groups.for_each([&](multicast::GroupId j) {
      if (j != executor && j < mpl_) signal(executor, j).notify();
    });
  } else {
    signal(worker, executor).notify();
    signal(executor, worker).wait();
  }
}

void PsmrReplica::worker_loop(std::size_t worker) {
  auto& sub = *subs_[worker];
  std::vector<Command> run;
  run.reserve(run_length_);
  // A decoded delivery that must not join the current run (synchronous
  // mode, dependency, or same-client ordering) is parked here and seeds the
  // next iteration, preserving stream order across the flush.
  std::optional<Command> held;
  for (;;) {
    Command first;
    if (held) {
      first = std::move(*held);
      held.reset();
    } else {
      auto delivery = sub.next();
      if (!delivery) break;
      auto cmd = Command::decode(delivery->message);
      if (!cmd) {
        PSMR_ERROR(name_ << " worker " << worker << ": malformed command");
        continue;
      }
      first = std::move(*cmd);
    }
    if (first.cmd == kCheckpointMarker) {
      // Before the singleton test: with mpl 1 the marker travels group 0's
      // ring as a singleton command but still cuts a checkpoint.
      checkpoint_execute(worker);
      continue;
    }
    if (!first.groups.singleton()) {
      if (!first.groups.contains(static_cast<multicast::GroupId>(worker))) {
        continue;  // delivered via g_all but not a destination
      }
      sync_execute(std::move(first), worker);
      continue;
    }
    // Parallel mode (Algorithm 1, lines 10-13), batched: accumulate
    // consecutive independent parallel-mode deliveries until the stream
    // runs dry, a barrier command arrives, or the run is full.
    if (!admit(first, worker)) continue;
    run.clear();
    run.push_back(std::move(first));
    while (run.size() < run_length_) {
      multicast::Delivery delivery;
      // kDry and kClosed both end the accumulation — flush what we have.  A
      // closed stream additionally means the outer blocking next() would
      // never deliver again; the loop exits there on its nullopt.
      if (sub.try_next(delivery) != multicast::MergeDeliverer::Poll::kDelivered) {
        break;
      }
      auto cmd = Command::decode(delivery.message);
      if (!cmd) {
        PSMR_ERROR(name_ << " worker " << worker << ": malformed command");
        continue;
      }
      if (cmd->cmd == kCheckpointMarker || !cmd->groups.singleton()) {
        held = std::move(*cmd);
        break;  // barrier (synchronous mode or checkpoint) ends the run
      }
      // Same-client ordering: a seq at or below one already in the
      // (unexecuted) run is either a retransmission or out of order; flush
      // so the dedup cache — updated only at execution — can classify it
      // exactly as the sequential path would have.
      bool ordered = true;
      bool joins = true;
      for (const Command& member : run) {
        if (cmd->client == member.client && cmd->seq <= member.seq) {
          ordered = false;
          break;
        }
        if (!service_->may_share_batch(member, *cmd)) joins = false;
      }
      if (!ordered || !joins) {
        held = std::move(*cmd);
        break;
      }
      if (!admit(*cmd, worker)) continue;
      run.push_back(std::move(*cmd));
    }
    execute_run(run, worker);
  }
}

}  // namespace psmr::smr
