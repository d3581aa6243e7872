// Client-side submit pipelining: the submit-path mirror of the reply-side
// ResponseCoalescer, and the only place submissions are batched before the
// ring coordinator cuts consensus batches.
//
// The spooler keeps one open pooled SUBMIT_MANY frame per destination ring;
// ClientProxy::submit marshals the command *straight into that frame*
// (util::PayloadWriter, no intermediate Buffer) under one short critical
// section and returns.  A spool flushes as a single pre-encoded burst — one
// Bus::submit_encoded call, one wire message — when:
//
//   * it reaches max_commands or max_bytes (bounded burst size), or
//   * any client enters poll() (flush-before-wait: a client about to block
//     for replies first pushes every spooled command of the deployment out,
//     so nothing it — or anyone else — is waiting on can be stranded), or
//   * flush_all() is called explicitly (benches, shutdown).
//
// There is no timer thread, exactly like the ResponseCoalescer: a client
// that awaits a reply always polls, and the poll entry is the flush
// trigger.  Ordering is preserved where it matters — commands of one client
// to one ring stay FIFO within and across frames, and same-key commands of
// a client map to the same ring by construction (the C-G function is
// deterministic on keys).
//
// The wire format is the unchanged kPaxosSubmitMany frame: u32 count +
// count × length-prefixed commands; the count is patched into the frame's
// first 4 bytes at flush time.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "multicast/amcast.h"
#include "smr/command.h"

namespace psmr::smr {

struct SubmitSpoolerOptions {
  /// Flush a ring's spool once it holds this many commands.
  std::size_t max_commands = 64;
  /// ... or once its frame reaches this many bytes.  Kept a few batches
  /// deep: the coordinator re-cuts the burst into max_batch_bytes batches.
  std::size_t max_bytes = 32 * 1024;
};

/// Counters, partitioned by flush trigger.  flushed_commands ==
/// spooled_commands once every spool has drained; mean burst size is
/// flushed_commands / flushes.
struct SpoolStats {
  std::uint64_t spooled_commands = 0;
  std::uint64_t flushes = 0;
  std::uint64_t flushed_commands = 0;
  std::uint64_t flushed_bytes = 0;
  std::uint64_t flush_on_count = 0;
  std::uint64_t flush_on_bytes = 0;
  std::uint64_t flush_on_poll = 0;
  /// Commands in flushes the transport rejected (shutdown/disconnect);
  /// recovered end-to-end by client retransmission.
  std::uint64_t failed_flush_commands = 0;

  [[nodiscard]] double mean_commands_per_flush() const {
    return flushes == 0 ? 0.0
                        : static_cast<double>(flushed_commands) /
                              static_cast<double>(flushes);
  }

  SpoolStats& operator+=(const SpoolStats& o) {
    spooled_commands += o.spooled_commands;
    flushes += o.flushes;
    flushed_commands += o.flushed_commands;
    flushed_bytes += o.flushed_bytes;
    flush_on_count += o.flush_on_count;
    flush_on_bytes += o.flush_on_bytes;
    flush_on_poll += o.flush_on_poll;
    failed_flush_commands += o.failed_flush_commands;
    return *this;
  }
};

/// Shared by every ClientProxy of a deployment (thread-safe).  One spool —
/// an open pooled SUBMIT_MANY frame — per destination ring, so concurrent
/// clients of the same ring pipeline into one burst.
class SubmitSpooler {
 public:
  SubmitSpooler(multicast::Bus& bus, SubmitSpoolerOptions opt);

  SubmitSpooler(const SubmitSpooler&) = delete;
  SubmitSpooler& operator=(const SubmitSpooler&) = delete;

  /// Marshals `c` into the spool of the ring its group set routes to.  The
  /// spool flushes inline when a cap is hit.  Returns false only when a
  /// cap-triggered flush was rejected by the transport (shutdown); the
  /// command itself is then gone with the failed frame, matching the
  /// fire-and-forget submit contract.
  bool spool(transport::NodeId from, const Command& c);

  /// Flushes every non-empty spool (poll-entry / explicit trigger; counted
  /// as flush_on_poll).
  void flush_all(transport::NodeId from);

  [[nodiscard]] SpoolStats stats() const {
    std::lock_guard lock(mu_);
    return stats_;
  }

 private:
  struct Spool {
    util::PayloadWriter w;
    std::size_t count = 0;
    Spool() : w(0) {}
  };

  enum class FlushReason { kCount, kBytes, kPoll };

  /// Starts a fresh frame: acquires a pooled block and reserves the u32
  /// count slot.
  void reset_locked(Spool& s);
  /// Sends spool `ring` as one pre-encoded SUBMIT_MANY frame.  Called with
  /// mu_ held.  False when the transport rejected the frame.
  bool flush_locked(std::size_t ring, transport::NodeId from,
                    FlushReason reason);

  multicast::Bus& bus_;
  const SubmitSpoolerOptions opt_;
  mutable std::mutex mu_;
  std::vector<Spool> spools_;  // index-aligned with the bus's ring indices
  SpoolStats stats_;
};

}  // namespace psmr::smr
