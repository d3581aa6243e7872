#include "smr/snapshot.h"

#include <tuple>

#include "util/hash.h"

namespace psmr::smr {

namespace {

constexpr std::uint32_t kMagic = 0x50534E50;  // "PSNP"
// Version 2: dedup entries carry their merge stream.
constexpr std::uint32_t kVersion = 2;
// Hard caps: far above any real deployment (k <= 63 groups), low enough
// that a corrupt count cannot drive allocation into the gigabytes before
// the per-entry bounds checks fire.
constexpr std::uint32_t kMaxWorkers = 64;
constexpr std::uint32_t kMaxStreams = 64;
constexpr std::uint32_t kMaxEntries = 1u << 20;

}  // namespace

util::Buffer encode_snapshot(const SnapshotFrame& frame) {
  util::Writer w;
  w.u32(kMagic);
  w.u32(kVersion);
  w.u64(frame.executed);
  w.u64(frame.service_digest);
  w.u32(static_cast<std::uint32_t>(frame.workers.size()));
  for (const auto& worker : frame.workers) {
    w.u32(static_cast<std::uint32_t>(worker.positions.size()));
    for (auto pos : worker.positions) w.u64(pos);
    w.u64(worker.merge_cursor);
    w.u32(static_cast<std::uint32_t>(worker.pending.size()));
    for (const auto& p : worker.pending) {
      w.u32(p.stream);
      w.bytes(p.message);
    }
    w.u32(static_cast<std::uint32_t>(worker.dedup.size()));
    for (const auto& d : worker.dedup) {
      w.u64(d.client);
      w.u32(d.stream);
      w.u64(d.seq);
      w.bytes(d.response);
    }
  }
  w.bytes(frame.service_state);
  w.u64(util::fnv1a(w.view()));
  return w.take();
}

std::optional<SnapshotFrame> decode_snapshot(
    std::span<const std::uint8_t> data) {
  if (data.size() < 8) return std::nullopt;
  auto body = data.first(data.size() - 8);
  {
    util::Reader tail(data.subspan(data.size() - 8));
    if (tail.u64() != util::fnv1a(body)) return std::nullopt;
  }
  try {
    util::Reader r(body);
    if (r.u32() != kMagic) return std::nullopt;
    if (r.u32() != kVersion) return std::nullopt;
    SnapshotFrame frame;
    frame.executed = r.u64();
    frame.service_digest = r.u64();
    std::uint32_t num_workers = r.u32();
    if (num_workers > kMaxWorkers) return std::nullopt;
    frame.workers.resize(num_workers);
    for (auto& worker : frame.workers) {
      std::uint32_t num_streams = r.u32();
      if (num_streams > kMaxStreams ||
          std::size_t{num_streams} * 8 > r.remaining()) {
        return std::nullopt;
      }
      worker.positions.reserve(num_streams);
      for (std::uint32_t i = 0; i < num_streams; ++i) {
        worker.positions.push_back(r.u64());
      }
      worker.merge_cursor = r.u64();
      std::uint32_t num_pending = r.u32();
      // Every pending entry occupies at least 8 bytes (stream + length).
      if (num_pending > kMaxEntries ||
          std::size_t{num_pending} * 8 > r.remaining()) {
        return std::nullopt;
      }
      worker.pending.reserve(num_pending);
      for (std::uint32_t i = 0; i < num_pending; ++i) {
        SnapshotPending p;
        p.stream = r.u32();
        if (p.stream >= num_streams) return std::nullopt;
        p.message = r.bytes();
        worker.pending.push_back(std::move(p));
      }
      std::uint32_t num_dedup = r.u32();
      // Every dedup entry occupies at least 24 bytes (client + stream + seq
      // + response length).
      if (num_dedup > kMaxEntries ||
          std::size_t{num_dedup} * 24 > r.remaining()) {
        return std::nullopt;
      }
      worker.dedup.reserve(num_dedup);
      for (std::uint32_t i = 0; i < num_dedup; ++i) {
        SnapshotDedupEntry d;
        d.client = r.u64();
        d.stream = r.u32();
        if (d.stream >= num_streams) return std::nullopt;
        d.seq = r.u64();
        d.response = r.bytes();
        // Canonical form: strictly increasing (client, stream), or equal
        // tables would not encode to equal frames.
        if (!worker.dedup.empty() &&
            std::tie(d.client, d.stream) <=
                std::tie(worker.dedup.back().client,
                         worker.dedup.back().stream)) {
          return std::nullopt;
        }
        worker.dedup.push_back(std::move(d));
      }
    }
    frame.service_state = r.bytes();
    if (!r.done()) return std::nullopt;
    return frame;
  } catch (const util::DecodeError&) {
    return std::nullopt;
  }
}

}  // namespace psmr::smr
