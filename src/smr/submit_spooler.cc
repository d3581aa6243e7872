#include "smr/submit_spooler.h"

namespace psmr::smr {

SubmitSpooler::SubmitSpooler(multicast::Bus& bus, SubmitSpoolerOptions opt)
    : bus_(bus), opt_(opt) {
  spools_.resize(bus_.num_rings());
  std::lock_guard lock(mu_);
  for (auto& s : spools_) reset_locked(s);
}

void SubmitSpooler::reset_locked(Spool& s) {
  // Size the frame for a full burst up front so appends never grow; the
  // block comes back from the pool's free list once the flushed frame has
  // drained through the coordinator.
  s.w = util::PayloadWriter(opt_.max_bytes);
  s.w.u32(0);  // count slot, patched at flush
  s.count = 0;
}

bool SubmitSpooler::spool(transport::NodeId from, const Command& c) {
  const std::size_t ring = bus_.ring_index_for(c.groups);
  std::lock_guard lock(mu_);
  Spool& s = spools_[ring];
  // kPaxosSubmitMany entry: u32 length prefix + the command envelope,
  // marshaled straight into the pooled frame.
  s.w.u32(static_cast<std::uint32_t>(c.encoded_size()));
  c.encode_into(s.w);
  ++s.count;
  ++stats_.spooled_commands;
  if (s.count >= opt_.max_commands) {
    return flush_locked(ring, from, FlushReason::kCount);
  }
  if (s.w.size() >= opt_.max_bytes) {
    return flush_locked(ring, from, FlushReason::kBytes);
  }
  return true;
}

void SubmitSpooler::flush_all(transport::NodeId from) {
  std::lock_guard lock(mu_);
  for (std::size_t ring = 0; ring < spools_.size(); ++ring) {
    if (spools_[ring].count > 0) flush_locked(ring, from, FlushReason::kPoll);
  }
}

bool SubmitSpooler::flush_locked(std::size_t ring, transport::NodeId from,
                                 FlushReason reason) {
  Spool& s = spools_[ring];
  const std::size_t count = s.count;
  const std::size_t bytes = s.w.size();
  s.w.patch_u32(0, static_cast<std::uint32_t>(count));
  util::Payload frame = s.w.take();
  reset_locked(s);

  ++stats_.flushes;
  stats_.flushed_commands += count;
  stats_.flushed_bytes += bytes;
  switch (reason) {
    case FlushReason::kCount: ++stats_.flush_on_count; break;
    case FlushReason::kBytes: ++stats_.flush_on_bytes; break;
    case FlushReason::kPoll: ++stats_.flush_on_poll; break;
  }
  if (!bus_.submit_encoded(ring, from, std::move(frame), count)) {
    stats_.failed_flush_commands += count;
    return false;
  }
  return true;
}

}  // namespace psmr::smr
