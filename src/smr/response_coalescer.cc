#include "smr/response_coalescer.h"

#include "smr/response_batch.h"
#include "util/clock.h"

namespace psmr::smr {

void ResponseCoalescer::send(transport::NodeId to, const Response& resp) {
  util::Buffer encoded = resp.encode();
  std::unique_lock lock(mu_);
  Bucket& b = buckets_[to];
  if (b.encoded.empty()) b.oldest_us = util::now_us();
  b.bytes += encoded.size();
  b.encoded.push_back(std::move(encoded));
  ++spooled_;
  FlushReason reason;
  if (b.encoded.size() >= opts_.max_responses) {
    reason = FlushReason::kSize;
  } else if (b.bytes >= opts_.max_bytes) {
    reason = FlushReason::kBytes;
  } else if (util::now_us() - b.oldest_us >= opts_.max_delay.count()) {
    reason = FlushReason::kTimeout;
  } else {
    return;  // spooled; the enclosing batch boundary flushes it
  }
  flush_locked(lock, reason, to);
}

void ResponseCoalescer::flush_batch() {
  std::unique_lock lock(mu_);
  if (spooled_ == 0) return;
  flush_locked(lock, FlushReason::kBatch);
}

void ResponseCoalescer::flush_locked(std::unique_lock<std::mutex>& lock,
                                     FlushReason reason,
                                     transport::NodeId trigger) {
  if (flushing_) {
    // An active flusher's drain loop runs until the spool is empty, so it
    // carries these responses in its next frame.
    return;
  }
  flushing_ = true;
  // Copied under the lock: the hook runs with the lock released so a
  // concurrent send can spool while the flusher is paused.
  const auto pause = flush_pause_;
  while (spooled_ > 0) {
    // Drain one bucket per pass; responses spooled meanwhile (even to the
    // bucket just drained) are picked up by a later pass.
    auto it = buckets_.begin();
    while (it != buckets_.end() && it->second.encoded.empty()) ++it;
    if (it == buckets_.end()) break;  // defensive: spool accounting drifted
    const transport::NodeId to = it->first;
    Bucket bucket;
    std::swap(bucket, it->second);
    const std::size_t n = bucket.encoded.size();
    spooled_ -= n;
    ++stats_.wire_messages;
    stats_.responses += n;
    // The trigger reason belongs to the bucket that tripped it; buckets the
    // drain loop merely sweeps (or responses spooled concurrently) count as
    // kBatch, so the per-reason record stays attributable.
    switch (to == trigger ? reason : FlushReason::kBatch) {
      case FlushReason::kSize: ++stats_.flush_size; break;
      case FlushReason::kBytes: ++stats_.flush_bytes; break;
      case FlushReason::kTimeout: ++stats_.flush_timeout; break;
      case FlushReason::kBatch: ++stats_.flush_batch; break;
    }
    if (to == trigger) trigger = transport::kNoNode;  // attribute only once
    lock.unlock();
    if (n == 1) {
      // A lone reply keeps the plain single-response framing.
      net_.send(from_, to, transport::MsgType::kSmrResponse,
                std::move(bucket.encoded.front()));
    } else {
      net_.send(from_, to, transport::MsgType::kSmrResponseMany,
                encode_response_batch(bucket.encoded));
    }
    if (pause) pause();
    lock.lock();
  }
  flushing_ = false;
}

}  // namespace psmr::smr
