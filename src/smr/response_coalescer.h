// Response-side coalescing: the last per-command hot path between service
// execution and the client.
//
// The submit path batches end to end (client-side SUBMIT_MANY spooling,
// coordinator batches, batched execution runs), but each reply used to
// leave the replica as its own kSmrResponse wire message, so per-command
// send cost dominated the batched execution pipeline.  A ResponseCoalescer
// spools the marshaled replies a replica's workers produce, bucketed by
// destination client-proxy node, and flushes each bucket as one
// kSmrResponseMany frame (see response_batch.h).
//
// Flush policy.  The natural flush unit is the CommandBatch a worker just
// executed: execute_run() calls flush_batch() after the service hands back
// the batch's responses, so execution batching carries through to the wire
// and no reply ever waits on traffic that may never come.  Within a batch,
// a bucket also flushes early when it hits the response-count cap, the byte
// cap, or when its oldest spooled response exceeds the tiny max_delay
// (checked lazily on append — there is no timer thread; the bounding flush
// is always the enclosing batch boundary).
//
// Flat combining: the thread that triggers a flush drains every bucket
// until the spool is empty, while concurrent workers just append and
// return — their replies ride in the active flusher's next frame.  Every
// spooled response is on the wire before the triggering flush_batch()
// returns or an active flusher's drain loop ends, so nothing can be
// stranded.
#pragma once

#include <chrono>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "smr/command.h"
#include "transport/network.h"

namespace psmr::smr {

struct ResponseCoalescerOptions {
  /// Per-destination response-count flush cap.
  std::size_t max_responses = 64;
  /// Per-destination byte flush cap (encoded response bytes).
  std::size_t max_bytes = 48 * 1024;
  /// Oldest-spooled-response age that forces a flush, checked on append.
  /// Bounds reply latency inside long execution batches; the batch-boundary
  /// flush is what bounds it everywhere else.
  std::chrono::microseconds max_delay{200};
};

/// Wire-level response counters, the reply-path analogue of the multicast
/// layer's CoordinatorStats.  Snapshot type; interval deltas via operator-.
struct ResponseStats {
  /// kSmrResponse + kSmrResponseMany wire messages sent.
  std::uint64_t wire_messages = 0;
  /// Responses those messages carried.
  std::uint64_t responses = 0;
  // Per-wire-message flush reasons; these four partition wire_messages.
  // A cap/age reason is attributed only to the bucket that tripped it; any
  // other buckets the drain loop sweeps in the same pass (including
  // responses spooled concurrently) count under flush_batch.
  std::uint64_t flush_size = 0;     // response-count cap hit
  std::uint64_t flush_bytes = 0;    // byte cap hit
  std::uint64_t flush_timeout = 0;  // oldest spooled response aged out
  std::uint64_t flush_batch = 0;    // batch-boundary flush or drain sweep

  [[nodiscard]] double mean_responses_per_message() const {
    return wire_messages == 0 ? 0.0
                              : static_cast<double>(responses) /
                                    static_cast<double>(wire_messages);
  }

  ResponseStats& operator+=(const ResponseStats& o) {
    wire_messages += o.wire_messages;
    responses += o.responses;
    flush_size += o.flush_size;
    flush_bytes += o.flush_bytes;
    flush_timeout += o.flush_timeout;
    flush_batch += o.flush_batch;
    return *this;
  }
  ResponseStats operator-(const ResponseStats& o) const {
    ResponseStats d = *this;
    d.wire_messages -= o.wire_messages;
    d.responses -= o.responses;
    d.flush_size -= o.flush_size;
    d.flush_bytes -= o.flush_bytes;
    d.flush_timeout -= o.flush_timeout;
    d.flush_batch -= o.flush_batch;
    return d;
  }
};

class ResponseCoalescer {
 public:
  /// `from` is the replica's send-only reply node.
  ResponseCoalescer(transport::Network& net, transport::NodeId from,
                    ResponseCoalescerOptions opts = {})
      : net_(net), from_(from), opts_(opts) {}

  ResponseCoalescer(const ResponseCoalescer&) = delete;
  ResponseCoalescer& operator=(const ResponseCoalescer&) = delete;

  /// Spools one reply for `resp.client`'s proxy node `to`; flushes that
  /// bucket when a cap or the age bound trips.
  void send(transport::NodeId to, const Response& resp);

  /// Batch-boundary flush: drains every bucket.  Call after each
  /// Service::execute_batch and after any out-of-band reply (dedup replay),
  /// so no spooled response outlives the work that produced it.
  void flush_batch();

  [[nodiscard]] ResponseStats stats() const {
    std::lock_guard lock(mu_);
    return stats_;
  }

  /// Test hook: invoked by the active flusher after each wire send, with
  /// the coalescer lock released — lets a test rendezvous a concurrent
  /// send with an in-progress drain deterministically.  Pass {} to clear.
  void set_flush_pause(std::function<void()> hook) {
    std::lock_guard lock(mu_);
    flush_pause_ = std::move(hook);
  }

 private:
  enum class FlushReason { kSize, kBytes, kTimeout, kBatch };

  struct Bucket {
    std::vector<util::Buffer> encoded;
    std::size_t bytes = 0;
    std::int64_t oldest_us = 0;  // spool time of the first pending response
  };

  /// Drains every bucket; becomes a no-op piggyback when another thread is
  /// already flushing.  Caller holds `lock`.  `reason` is attributed to the
  /// `trigger` destination's bucket only (kNoNode: no specific trigger);
  /// every other drained bucket counts as a kBatch sweep.
  void flush_locked(std::unique_lock<std::mutex>& lock, FlushReason reason,
                    transport::NodeId trigger = transport::kNoNode);

  transport::Network& net_;
  const transport::NodeId from_;
  const ResponseCoalescerOptions opts_;

  mutable std::mutex mu_;
  std::unordered_map<transport::NodeId, Bucket> buckets_;
  std::size_t spooled_ = 0;  // responses across all buckets
  bool flushing_ = false;
  ResponseStats stats_;
  std::function<void()> flush_pause_;
};

}  // namespace psmr::smr
