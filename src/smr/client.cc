#include "smr/client.h"

#include "smr/response_batch.h"
#include "util/log.h"

namespace psmr::smr {

ClientProxy::ClientProxy(transport::Network& net, multicast::Bus& bus,
                         std::shared_ptr<const CGFunction> cg, ClientId id,
                         SubmitSpooler& spooler,
                         std::shared_ptr<AdmissionController> admission)
    : net_(net),
      bus_(&bus),
      spooler_(&spooler),
      cg_(std::move(cg)),
      admission_(std::move(admission)),
      id_(id) {
  auto [node, box] = net.register_node();
  node_ = node;
  mailbox_ = std::move(box);
}

ClientProxy::ClientProxy(transport::Network& net, transport::NodeId server,
                         ClientId id)
    : net_(net), server_(server), id_(id) {
  auto [node, box] = net.register_node();
  node_ = node;
  mailbox_ = std::move(box);
}

bool ClientProxy::dispatch(const Command& c) {
  if (bus_ != nullptr) {
    return bus_->multicast(node_, c.groups, c.encode());
  }
  return net_.send(node_, server_, transport::MsgType::kSmrDirect, c.encode());
}

std::optional<Seq> ClientProxy::submit(CommandId cmd, util::Buffer params) {
  Command c;
  c.cmd = cmd;
  c.client = id_;
  c.seq = next_seq_++;
  c.reply_to = node_;
  c.params = std::move(params);
  c.groups = cg_ ? cg_->groups(c) : multicast::GroupSet::single(0);
  const Seq seq = c.seq;
  if (admission_) {
    Admit verdict = admission_->admit(id_, util::now_us());
    if (verdict != Admit::kAdmit) {
      // Fail fast: the command never reaches a coordinator.  The rejection
      // rides the normal response path — a kSmrRejected frame looped
      // through our own mailbox — so poll() completes it like any reply
      // and callers observe exactly one completion per accepted command.
      Response r;
      r.client = id_;
      r.seq = seq;
      r.payload = util::Buffer{static_cast<std::uint8_t>(verdict)};
      pending_.emplace(seq, Pending{std::move(c), util::now_us()});
      if (!net_.send(node_, node_, transport::MsgType::kSmrRejected,
                     r.encode())) {
        pending_.erase(seq);  // shutdown race: nothing may pend
        return std::nullopt;
      }
      return seq;
    }
  }
  // Replicated mode: marshal straight into the shared pooled SUBMIT_MANY
  // frame — no per-command encode, no per-command bus round-trip.  Direct
  // mode sends one-to-one.  The mailbox check keeps the no-wedge contract
  // under shutdown: a spooled command's transport rejection only surfaces
  // at flush time, so refuse up front once our own mailbox (closed by
  // Network::shutdown) is dead.
  const bool accepted = spooler_ != nullptr
                            ? (!mailbox_->closed() && spooler_->spool(node_, c))
                            : dispatch(c);
  if (!accepted) return std::nullopt;  // rejected dispatch must not pend
  pending_.emplace(seq, Pending{std::move(c), util::now_us()});
  return seq;
}

void ClientProxy::absorb(Response resp, bool rejected) {
  auto it = pending_.find(resp.seq);
  if (it == pending_.end()) return;  // duplicate from another replica
  Completion done;
  done.seq = resp.seq;
  done.payload = std::move(resp.payload);
  done.latency_us = util::now_us() - it->second.submitted_us;
  done.rejected = rejected;
  pending_.erase(it);
  ready_.push_back(std::move(done));
}

std::optional<ClientProxy::Completion> ClientProxy::poll(
    std::chrono::microseconds timeout) {
  // Flush-before-wait: push every spooled command of the deployment out
  // before this client can block on its mailbox, so no one waits on a
  // command still parked in a spool.
  if (spooler_ != nullptr) spooler_->flush_all(node_);
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    if (!ready_.empty()) {
      Completion done = std::move(ready_.front());
      ready_.pop_front();
      return done;
    }
    auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return std::nullopt;
    auto msg = mailbox_->pop_for(
        std::chrono::duration_cast<std::chrono::microseconds>(deadline - now));
    if (!msg) {
      if (mailbox_->closed()) return std::nullopt;
      continue;
    }
    if (msg->type == transport::MsgType::kSmrResponseMany) {
      auto batch = decode_response_batch(msg->payload);
      if (!batch) {
        PSMR_WARN("client " << id_ << ": malformed multi-response");
        continue;
      }
      for (auto& resp : *batch) absorb(std::move(resp));
    } else {
      auto resp = Response::decode(msg->payload);
      if (!resp) {
        PSMR_WARN("client " << id_ << ": malformed response");
        continue;
      }
      absorb(std::move(*resp),
             msg->type == transport::MsgType::kSmrRejected);
    }
  }
}

std::optional<util::Buffer> ClientProxy::call(
    CommandId cmd, util::Buffer params, std::chrono::microseconds timeout,
    std::chrono::microseconds retry_every) {
  auto submitted = submit(cmd, std::move(params));
  if (!submitted) return std::nullopt;  // transport rejected the dispatch
  Seq seq = *submitted;
  auto deadline = std::chrono::steady_clock::now() + timeout;
  auto next_retry = std::chrono::steady_clock::now() + retry_every;
  while (std::chrono::steady_clock::now() < deadline) {
    auto now = std::chrono::steady_clock::now();
    auto wait = std::min(deadline, next_retry) - now;
    auto done =
        poll(std::chrono::duration_cast<std::chrono::microseconds>(wait));
    if (done && done->seq == seq) {
      if (done->rejected) return std::nullopt;  // admission shed: fail fast
      return std::move(done->payload);
    }
    if (done) continue;  // an older call's completion; keep waiting for ours
    if (mailbox_->closed()) return std::nullopt;
    if (std::chrono::steady_clock::now() >= next_retry) {
      // Retransmit (e.g., the submission raced a coordinator failover).
      auto it = pending_.find(seq);
      if (it != pending_.end()) dispatch(it->second.command);
      next_retry = std::chrono::steady_clock::now() + retry_every;
    }
  }
  pending_.erase(seq);
  return std::nullopt;
}

}  // namespace psmr::smr
