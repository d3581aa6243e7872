// Client proxy — paper Figure 1 and Algorithm 1, lines 1–6.
//
// Intercepts service invocations, marshals them into requests, multicasts
// them to the groups chosen by the C-G function, and returns the first
// response received (all replicas produce the same output, so one suffices).
// The application never learns that the service is replicated.
//
// The proxy also supports unreplicated deployments (no-rep and the
// BDB-style lock server): there it sends the request one-to-one to its
// assigned server node instead of multicasting.
//
// Two calling styles:
//   * call()            — synchronous RPC, used by examples and tests;
//   * submit() + poll() — windowed asynchronous pipeline, used by the
//     closed-loop workload driver (the paper's clients keep a window of up
//     to 50 outstanding commands, Section VI-B).
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>

#include "multicast/amcast.h"
#include "smr/admission.h"
#include "smr/cg.h"
#include "smr/command.h"
#include "smr/submit_spooler.h"
#include "util/clock.h"

namespace psmr::smr {

class ClientProxy {
 public:
  /// Replicated-mode proxy: requests go through the atomic multicast bus.
  /// submit() marshals the command straight into the deployment-shared
  /// `spooler`'s pooled frame; poll() flushes every spool on entry, before
  /// it can block on the mailbox (see submit_spooler.h).  Retransmissions
  /// bypass the spooler (one Bus::multicast each) — a retry is rare and
  /// latency-bound, not throughput-bound.
  /// `admission`, when set, is consulted before every dispatch — a shed
  /// command never reaches the bus; it fails fast as a kSmrRejected
  /// completion instead (see admission.h).
  ClientProxy(transport::Network& net, multicast::Bus& bus,
              std::shared_ptr<const CGFunction> cg, ClientId id,
              SubmitSpooler& spooler,
              std::shared_ptr<AdmissionController> admission = nullptr);

  /// Direct-mode proxy: requests go one-to-one to `server`.
  ClientProxy(transport::Network& net, transport::NodeId server, ClientId id);

  ClientProxy(const ClientProxy&) = delete;
  ClientProxy& operator=(const ClientProxy&) = delete;

  [[nodiscard]] ClientId id() const { return id_; }
  [[nodiscard]] transport::NodeId node() const { return node_; }

  /// Synchronous invocation.  Retries the submission every `retry_every`
  /// until `timeout`; returns std::nullopt on timeout or shutdown.
  std::optional<util::Buffer> call(
      CommandId cmd, util::Buffer params,
      std::chrono::microseconds timeout = std::chrono::seconds(10),
      std::chrono::microseconds retry_every = std::chrono::seconds(2));

  /// Asynchronous submission; the returned seq identifies the completion.
  ///
  /// std::nullopt means the command was NOT accepted into the pipeline: the
  /// transport rejected the dispatch (shutdown, disconnected peer).  Nothing
  /// pends in that case — a failed submit can never wedge outstanding().
  /// An admission-shed command, by contrast, IS accepted: it completes
  /// through poll() with Completion::rejected set (fail fast, one loopback
  /// hop), so the caller observes every accepted command exactly once.
  [[nodiscard]] std::optional<Seq> submit(CommandId cmd, util::Buffer params);

  struct Completion {
    Seq seq = 0;
    util::Buffer payload;
    std::int64_t latency_us = 0;
    /// True when admission control shed this command (kSmrRejected); the
    /// payload then carries one byte, the smr::Admit verdict.
    bool rejected = false;
  };

  /// Decodes a rejected Completion's verdict byte (kThrottled on a
  /// malformed payload, which cannot happen for locally produced frames).
  [[nodiscard]] static Admit rejection_verdict(const Completion& done) {
    if (done.payload.size() != 1) return Admit::kThrottled;
    auto v = static_cast<Admit>(done.payload[0]);
    return v == Admit::kShedOverload ? v : Admit::kThrottled;
  }

  /// Waits up to `timeout` for any outstanding command to complete.
  /// Duplicate responses (from the other replicas) are absorbed silently.
  /// A coalesced kSmrResponseMany frame (see response_batch.h) may complete
  /// several commands at once; poll() returns them one per call, draining
  /// the ready queue before touching the mailbox again.
  std::optional<Completion> poll(std::chrono::microseconds timeout);

  /// Commands submitted but not yet returned to the caller (commands whose
  /// response arrived in a coalesced frame but has not been poll()ed yet
  /// still count).
  [[nodiscard]] std::size_t outstanding() const {
    return pending_.size() + ready_.size();
  }

 private:
  bool dispatch(const Command& c);
  /// Matches one decoded response against pending_; completions queue in
  /// ready_, duplicates (other replicas) are absorbed silently.
  void absorb(Response resp, bool rejected = false);

  transport::Network& net_;
  multicast::Bus* bus_ = nullptr;  // null in direct mode
  SubmitSpooler* spooler_ = nullptr;  // null in direct mode
  transport::NodeId server_ = transport::kNoNode;
  std::shared_ptr<const CGFunction> cg_;
  std::shared_ptr<AdmissionController> admission_;
  ClientId id_;
  transport::NodeId node_ = transport::kNoNode;
  std::shared_ptr<transport::Mailbox> mailbox_;
  Seq next_seq_ = 1;

  struct Pending {
    Command command;
    std::int64_t submitted_us;
  };
  std::unordered_map<Seq, Pending> pending_;
  /// Completions decoded but not yet handed to the caller (a multi-response
  /// frame completes several seqs; poll() returns one per call).
  std::deque<Completion> ready_;
};

}  // namespace psmr::smr
