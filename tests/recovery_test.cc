// Checkpointing & recovery units (PR 8): the snapshot frame codec (hardened
// like response_batch.h — every truncation and every byte flip must
// reject), the per-service snapshot implementations (KV, concurrent KV,
// NetFS), acceptor-side log truncation keyed to checkpoint acks, and
// learner subscriptions resuming at a recorded instance.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "kvstore/kv_service.h"
#include "netfs/fs.h"
#include "paxos/ring.h"
#include "smr/snapshot.h"
#include "test_support.h"
#include "transport/network.h"
#include "util/rng.h"

namespace psmr::smr {
namespace {

using namespace std::chrono_literals;

// --- Snapshot frame codec ------------------------------------------------

SnapshotFrame make_frame() {
  SnapshotFrame f;
  f.executed = 12345;
  f.service_digest = 0xdeadbeefcafef00dULL;
  f.workers.resize(2);
  f.workers[0].positions = {17, 42};
  f.workers[0].merge_cursor = 1;
  f.workers[0].pending = {{0, {1, 2, 3}}, {1, {9}}};
  // (client, stream, seq, response): client 5 has an entry on both its
  // worker ring (stream 0) and the shared ring (stream 1).
  f.workers[0].dedup = {{5, 0, 7, {0xaa}}, {5, 1, 3, {0xab}}, {9, 1, 2, {}}};
  f.workers[1].positions = {3, 42};
  f.workers[1].merge_cursor = 0;
  f.workers[1].dedup = {{6, 0, 1, {0xbb, 0xcc}}};
  f.service_state = {10, 20, 30, 40, 50};
  return f;
}

TEST(SnapshotCodec, RoundTrips) {
  SnapshotFrame in = make_frame();
  auto enc = encode_snapshot(in);
  auto out = decode_snapshot(enc);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->executed, in.executed);
  EXPECT_EQ(out->service_digest, in.service_digest);
  EXPECT_EQ(out->service_state, in.service_state);
  ASSERT_EQ(out->workers.size(), 2u);
  for (std::size_t w = 0; w < 2; ++w) {
    EXPECT_EQ(out->workers[w].positions, in.workers[w].positions);
    EXPECT_EQ(out->workers[w].merge_cursor, in.workers[w].merge_cursor);
    ASSERT_EQ(out->workers[w].pending.size(), in.workers[w].pending.size());
    for (std::size_t i = 0; i < in.workers[w].pending.size(); ++i) {
      EXPECT_EQ(out->workers[w].pending[i].stream,
                in.workers[w].pending[i].stream);
      EXPECT_EQ(out->workers[w].pending[i].message,
                in.workers[w].pending[i].message);
    }
    ASSERT_EQ(out->workers[w].dedup.size(), in.workers[w].dedup.size());
    for (std::size_t i = 0; i < in.workers[w].dedup.size(); ++i) {
      EXPECT_EQ(out->workers[w].dedup[i].client,
                in.workers[w].dedup[i].client);
      EXPECT_EQ(out->workers[w].dedup[i].stream,
                in.workers[w].dedup[i].stream);
      EXPECT_EQ(out->workers[w].dedup[i].seq, in.workers[w].dedup[i].seq);
      EXPECT_EQ(out->workers[w].dedup[i].response,
                in.workers[w].dedup[i].response);
    }
  }
}

TEST(SnapshotCodec, EmptyFrameRoundTrips) {
  SnapshotFrame f;
  auto out = decode_snapshot(encode_snapshot(f));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->executed, 0u);
  EXPECT_TRUE(out->workers.empty());
  EXPECT_TRUE(out->service_state.empty());
}

TEST(SnapshotCodec, EncodingIsDeterministic) {
  // Byte-identical frames are what the cross-replica determinism check in
  // the integration suite compares; the codec must not introduce noise.
  EXPECT_EQ(encode_snapshot(make_frame()), encode_snapshot(make_frame()));
}

TEST(SnapshotCodec, EveryPrefixRejects) {
  auto enc = encode_snapshot(make_frame());
  for (std::size_t cut = 0; cut < enc.size(); ++cut) {
    util::Buffer prefix(enc.begin(),
                        enc.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode_snapshot(prefix).has_value()) << "cut " << cut;
  }
}

TEST(SnapshotCodec, TrailingBytesReject) {
  auto enc = encode_snapshot(make_frame());
  enc.push_back(0);
  EXPECT_FALSE(decode_snapshot(enc).has_value());
}

TEST(SnapshotCodec, EverySingleByteFlipRejects) {
  // The tail digest covers every preceding byte, so no single-byte
  // corruption — header, counts, payload, or the digest itself — may ever
  // produce a decodable frame.
  auto enc = encode_snapshot(make_frame());
  for (std::size_t i = 0; i < enc.size(); ++i) {
    auto bad = enc;
    bad[i] ^= 0xff;
    EXPECT_FALSE(decode_snapshot(bad).has_value()) << "byte " << i;
  }
}

TEST(SnapshotCodec, HostileCountsWithValidDigestReject) {
  // A forged frame can recompute the tail digest, so the caps must hold on
  // their own: a worker count past kMaxWorkers with almost no bytes behind
  // it has to reject before any allocation runs away.
  util::Writer w;
  w.u32(0x50534E50);  // magic
  w.u32(2);           // version
  w.u64(0);           // executed
  w.u64(0);           // service digest
  w.u32(1u << 30);    // hostile worker count
  w.u64(util::fnv1a(w.view()));
  EXPECT_FALSE(decode_snapshot(w.view()).has_value());

  // Dedup entries must arrive strictly increasing in (client, stream)
  // (canonical form): unsorted clients, unsorted streams of one client and
  // a repeated (client, stream) key all reject.
  SnapshotFrame dup = make_frame();
  dup.workers[0].dedup = {{9, 0, 1, {}}, {5, 0, 1, {}}};
  EXPECT_FALSE(decode_snapshot(encode_snapshot(dup)).has_value());
  dup.workers[0].dedup = {{5, 1, 1, {}}, {5, 0, 1, {}}};
  EXPECT_FALSE(decode_snapshot(encode_snapshot(dup)).has_value());
  dup.workers[0].dedup = {{5, 0, 1, {}}, {5, 0, 2, {}}};
  EXPECT_FALSE(decode_snapshot(encode_snapshot(dup)).has_value());

  // A dedup entry naming a stream the worker does not have is corrupt.
  SnapshotFrame stray_dedup = make_frame();
  stray_dedup.workers[1].dedup = {{6, 2, 1, {}}};
  EXPECT_FALSE(decode_snapshot(encode_snapshot(stray_dedup)).has_value());

  // A frame of the previous layout (version 1) is refused outright.
  auto old = encode_snapshot(make_frame());
  old[4] = 1;
  util::Buffer body(old.begin(), old.end() - 8);
  util::Writer rehashed;
  rehashed.raw(body);
  rehashed.u64(util::fnv1a(body));
  EXPECT_FALSE(decode_snapshot(rehashed.view()).has_value());

  // A pending entry naming a stream the worker does not have is corrupt.
  SnapshotFrame stray = make_frame();
  stray.workers[1].pending = {{7, {1}}};
  EXPECT_FALSE(decode_snapshot(encode_snapshot(stray)).has_value());
}

TEST(SnapshotCodec, FuzzedFramesNeverOverreadOrCrash) {
  util::SplitMix64 rng(test_support::logged_seed(0xc4e7));
  auto base = encode_snapshot(make_frame());
  constexpr int kRounds = 4000;
  int decoded = 0;
  for (int round = 0; round < kRounds; ++round) {
    auto frame = base;
    int flips = 1 + static_cast<int>(rng.next() % 8);
    for (int i = 0; i < flips; ++i) {
      frame[rng.next() % frame.size()] ^=
          static_cast<std::uint8_t>(1 + rng.next() % 255);
    }
    if (rng.next() % 4 == 0) frame.resize(rng.next() % (frame.size() + 1));
    if (decode_snapshot(frame).has_value()) ++decoded;
  }
  // Mutations may cancel out (re-flipping a byte back); anything else must
  // reject.  What this loop really checks is "no crash, no overread" under
  // ASan/UBSan-style scrutiny.
  EXPECT_LE(decoded, kRounds / 100);
}

// --- Service snapshot implementations ------------------------------------

Command kv_cmd(CommandId id, ClientId client, Seq seq, util::Buffer params) {
  Command c;
  c.cmd = id;
  c.client = client;
  c.seq = seq;
  c.params = std::move(params);
  return c;
}

template <typename ServiceT>
void mutate_kv(ServiceT& svc) {
  Seq seq = 1;
  for (std::uint64_t k = 0; k < 64; ++k) {
    svc.execute(kv_cmd(kvstore::kKvUpdate, 1, seq++,
                       kvstore::encode_key_value(k, k * 3 + 1)));
  }
  for (std::uint64_t k = 500; k < 520; ++k) {
    svc.execute(kv_cmd(kvstore::kKvInsert, 2, seq++,
                       kvstore::encode_key_value(k * 1000, k)));
  }
  svc.execute(kv_cmd(kvstore::kKvDelete, 1, seq++, kvstore::encode_key(10)));
}

template <typename ServiceT>
void kv_round_trip() {
  ServiceT src(200);
  mutate_kv(src);
  util::Writer w;
  ASSERT_TRUE(src.snapshot_to(w));
  ServiceT dst(0);
  util::Reader r(w.view());
  ASSERT_TRUE(dst.restore_from(r));
  EXPECT_EQ(dst.state_digest(), src.state_digest());

  // Truncated service payloads must reject (the frame digest catches wire
  // corruption; this catches a buggy writer).
  auto bytes = w.take();
  for (std::size_t cut : {std::size_t{0}, std::size_t{7}, bytes.size() - 1}) {
    ServiceT junk(5);
    util::Reader rr(std::span(bytes.data(), cut));
    EXPECT_FALSE(junk.restore_from(rr)) << "cut " << cut;
  }
}

TEST(ServiceSnapshot, KvServiceRoundTrips) {
  kv_round_trip<kvstore::KvService>();
}

TEST(ServiceSnapshot, ConcurrentKvServiceRoundTrips) {
  kv_round_trip<kvstore::ConcurrentKvService>();
}

TEST(ServiceSnapshot, KvRestoreReplacesExistingState) {
  kvstore::KvService src(50);
  util::Writer w;
  ASSERT_TRUE(src.snapshot_to(w));
  kvstore::KvService dst(9999);  // pre-existing state must vanish
  mutate_kv(dst);
  util::Reader r(w.view());
  ASSERT_TRUE(dst.restore_from(r));
  EXPECT_EQ(dst.state_digest(), src.state_digest());
}

TEST(ServiceSnapshot, MemFsRoundTrips) {
  netfs::MemFs src;
  ASSERT_EQ(src.mkdir("/a", 0755), 0);
  ASSERT_EQ(src.mkdir("/a/b", 0700), 0);
  ASSERT_EQ(src.create("/a/x.txt", 0644), 0);
  util::Buffer data(1500, 0x5a);
  ASSERT_EQ(src.write("/a/x.txt", 100, data), 0);
  ASSERT_EQ(src.utimens("/a/b", 111, 222), 0);
  std::uint64_t fh1 = 0, fh2 = 0;
  ASSERT_EQ(src.open("/a/x.txt", fh1), 0);
  ASSERT_EQ(src.opendir("/a", fh2), 0);

  util::Writer w;
  src.snapshot_to(w);
  netfs::MemFs dst;
  util::Reader r(w.view());
  ASSERT_TRUE(dst.restore_from(r));
  EXPECT_EQ(dst.digest(), src.digest());
  EXPECT_EQ(dst.inode_count(), src.inode_count());
  EXPECT_EQ(dst.open_count(), 2u);
  // The descriptor table and id allocators survive: releasing the restored
  // handles works, and fresh handles continue past the old ones.
  EXPECT_EQ(dst.release(fh1), 0);
  EXPECT_EQ(dst.releasedir(fh2), 0);
  std::uint64_t fh3 = 0;
  ASSERT_EQ(dst.open("/a/x.txt", fh3), 0);
  EXPECT_GT(fh3, fh2);

  auto bytes = w.take();
  for (std::size_t cut = 0; cut < bytes.size(); cut += 13) {
    netfs::MemFs junk;
    util::Reader rr(std::span(bytes.data(), cut));
    EXPECT_FALSE(junk.restore_from(rr)) << "cut " << cut;
  }
}

// --- Acceptor log truncation ---------------------------------------------

util::Buffer cmd(std::uint64_t id) {
  util::Writer w;
  w.u64(id);
  return w.take();
}

paxos::RingConfig truncating_ring(std::size_t ackers) {
  paxos::RingConfig cfg = test_support::fast_ring();
  cfg.checkpoint_ackers = ackers;
  // One command per instance: the tests below reason about instance
  // numbers, so keep the command->instance mapping trivial.
  cfg.max_batch_commands = 1;
  return cfg;
}

void send_ack(transport::Network& net, transport::NodeId from,
              const paxos::Ring& ring, std::uint64_t replica,
              paxos::Instance inst) {
  for (auto acceptor : ring.acceptor_ids()) {
    util::Writer w;
    w.u64(replica);
    w.u64(inst);
    net.send(from, acceptor, transport::MsgType::kPaxosCheckpointAck,
             w.take());
  }
}

/// Drains `log` until at least `want` commands were seen; returns the
/// instance of the last drained delivery.
paxos::Instance drain_commands(paxos::LearnerLog& log, std::uint64_t want) {
  std::uint64_t got = 0;
  paxos::Instance last = 0;
  while (got < want) {
    auto d = log.next_for(5s);
    if (!d) break;
    last = d->instance;
    if (!d->batch.skip) got += d->batch.commands.size();
  }
  EXPECT_GE(got, want);
  return last;
}

TEST(LogTruncation, QuorumOfAcksTruncates) {
  transport::Network net;
  paxos::Ring ring(net, 0, truncating_ring(/*ackers=*/2));
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();
  for (std::uint64_t i = 0; i < 300; ++i) ASSERT_TRUE(ring.submit(me, cmd(i)));
  paxos::Instance last = drain_commands(*learner, 300);
  ASSERT_GE(last, 299u);

  // One acker is not a quorum: nothing may be dropped.
  send_ack(net, me, ring, /*replica=*/0, last);
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(ring.truncated_instances(), 0u);

  // The second ack completes the quorum; the floor is min(acks) = last/2,
  // so every acceptor drops at least the `last/2` instances below it.
  // Each of the ring's acceptors truncates independently; wait until the
  // aggregate count has gone quiet before reasoning about its value.
  send_ack(net, me, ring, /*replica=*/1, last / 2);
  auto stable_truncated = [&ring] {
    auto deadline = std::chrono::steady_clock::now() + 5s;
    std::uint64_t seen = ring.truncated_instances();
    auto changed = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(2ms);
      std::uint64_t now = ring.truncated_instances();
      if (now != seen || now == 0) {
        seen = now;
        changed = std::chrono::steady_clock::now();
      } else if (std::chrono::steady_clock::now() - changed > 100ms) {
        break;
      }
    }
    return seen;
  };
  EXPECT_GE(stable_truncated(), last / 2);

  // A stale (lower) re-ack must never move the floor backwards, and a
  // fresher quorum advances it further.
  const std::uint64_t truncated = ring.truncated_instances();
  send_ack(net, me, ring, /*replica=*/1, last / 4);
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(ring.truncated_instances(), truncated);
  send_ack(net, me, ring, /*replica=*/1, last);
  auto deadline = std::chrono::steady_clock::now() + 5s;
  while (ring.truncated_instances() <= truncated &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(2ms);
  }
  EXPECT_GT(ring.truncated_instances(), truncated);
}

TEST(LogTruncation, DisabledByDefault) {
  transport::Network net;
  paxos::Ring ring(net, 0, test_support::fast_ring());  // ackers = 0
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();
  for (std::uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(ring.submit(me, cmd(i)));
  paxos::Instance last = drain_commands(*learner, 100);
  send_ack(net, me, ring, 0, last);
  send_ack(net, me, ring, 1, last);
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(ring.truncated_instances(), 0u);
}

TEST(LogTruncation, CatchUpStillServesAboveTheFloor) {
  transport::Network net;
  paxos::Ring ring(net, 0, truncating_ring(/*ackers=*/1));
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();
  for (std::uint64_t i = 0; i < 200; ++i) ASSERT_TRUE(ring.submit(me, cmd(i)));
  paxos::Instance last = drain_commands(*learner, 200);

  // Truncate everything below the midpoint...
  const paxos::Instance floor = last / 2;
  send_ack(net, me, ring, 0, floor);
  auto deadline = std::chrono::steady_clock::now() + 5s;
  while (ring.truncated_instances() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_GT(ring.truncated_instances(), 0u);

  // ...then a late subscriber resuming at the floor still gets a complete,
  // gap-free suffix via acceptor catch-up.
  auto late = ring.subscribe(floor);
  paxos::Instance expect = floor;
  while (expect <= last) {
    auto d = late->next_for(5s);
    ASSERT_TRUE(d.has_value()) << "stalled at instance " << expect;
    ASSERT_EQ(d->instance, expect);
    ++expect;
  }
}

TEST(LearnerResume, SubscribeAtStartSkipsThePrefix) {
  transport::Network net;
  paxos::Ring ring(net, 0, test_support::fast_ring());
  auto first = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();
  for (std::uint64_t i = 0; i < 150; ++i) ASSERT_TRUE(ring.submit(me, cmd(i)));

  // Record the full decided sequence through the first learner.
  std::vector<std::pair<paxos::Instance, bool>> seq;
  std::uint64_t got = 0;
  while (got < 150) {
    auto d = first->next_for(5s);
    ASSERT_TRUE(d.has_value());
    seq.emplace_back(d->instance, d->batch.skip);
    if (!d->batch.skip) got += d->batch.commands.size();
  }
  const paxos::Instance mid = seq[seq.size() / 2].first;

  // A resumed subscription starts exactly at `mid` — nothing earlier —
  // and replays the suffix in instance order.
  auto resumed = ring.subscribe(mid);
  paxos::Instance expect = mid;
  while (expect <= seq.back().first) {
    auto d = resumed->next_for(5s);
    ASSERT_TRUE(d.has_value()) << "stalled at instance " << expect;
    ASSERT_EQ(d->instance, expect);
    ++expect;
  }
}

}  // namespace
}  // namespace psmr::smr
