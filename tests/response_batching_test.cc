// Response-path batching (PR 5): the multi-response wire codec, the
// flat-combining ResponseCoalescer, the ClientProxy demultiplexer, and
// end-to-end convergence with coalescing forced on and off.
//
// The codec suite doubles as the hardening coverage for the one frame type
// a client proxy decodes straight off the network: truncated lengths,
// zero-response frames and oversized counts must reject, and a fuzz loop
// mutates valid frames to check that no input can over-read or crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "kvstore/kv_client.h"
#include "smr/client.h"
#include "smr/response_batch.h"
#include "smr/response_coalescer.h"
#include "smr/runtime.h"
#include "test_support.h"
#include "util/rng.h"

namespace psmr::smr {
namespace {

using namespace std::chrono_literals;

Response make_response(ClientId client, Seq seq, std::uint8_t fill,
                       std::size_t payload_len = 8) {
  Response r;
  r.client = client;
  r.seq = seq;
  r.payload.assign(payload_len, fill);
  return r;
}

std::vector<util::Buffer> encode_all(const std::vector<Response>& responses) {
  std::vector<util::Buffer> encoded;
  encoded.reserve(responses.size());
  for (const auto& r : responses) encoded.push_back(r.encode());
  return encoded;
}

// --- Wire codec ----------------------------------------------------------

TEST(ResponseBatchCodec, RoundTripsSingleAndMany) {
  for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
    std::vector<Response> in;
    for (std::size_t i = 0; i < n; ++i) {
      in.push_back(make_response(i + 1, 100 + i, static_cast<std::uint8_t>(i),
                                 /*payload_len=*/i % 5));
    }
    auto frame = encode_response_batch(encode_all(in));
    auto out = decode_response_batch(frame);
    ASSERT_TRUE(out.has_value()) << n << " responses";
    ASSERT_EQ(out->size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ((*out)[i].client, in[i].client);
      EXPECT_EQ((*out)[i].seq, in[i].seq);
      EXPECT_EQ((*out)[i].payload, in[i].payload);
    }
  }
}

TEST(ResponseBatchCodec, RejectsZeroResponseFrame) {
  util::Writer w;
  w.u32(0);
  EXPECT_FALSE(decode_response_batch(w.view()).has_value());
  // ...also when trailing bytes dangle after the zero count.
  w.u32(123);
  EXPECT_FALSE(decode_response_batch(w.view()).has_value());
}

TEST(ResponseBatchCodec, RejectsOversizedCounts) {
  // Above the hard cap.
  util::Writer w;
  w.u32(kMaxResponsesPerMessage + 1);
  EXPECT_FALSE(decode_response_batch(w.view()).has_value());
  // Within the cap but impossible for the bytes present: a hostile count
  // must be rejected before any allocation is attempted.
  util::Writer w2;
  w2.u32(kMaxResponsesPerMessage);
  w2.u32(4);  // one lonely length prefix
  EXPECT_FALSE(decode_response_batch(w2.view()).has_value());
}

TEST(ResponseBatchCodec, RejectsTruncatedLengthAndBody) {
  auto frame = encode_response_batch(
      encode_all({make_response(1, 1, 0xaa), make_response(2, 2, 0xbb)}));
  // Every strict prefix must reject: truncation can cut a length prefix, a
  // response body, or the boundary between the two.
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    util::Buffer prefix(frame.begin(),
                        frame.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode_response_batch(prefix).has_value()) << "cut " << cut;
  }
}

TEST(ResponseBatchCodec, RejectsTrailingBytes) {
  auto frame = encode_response_batch(encode_all({make_response(1, 1, 0xaa)}));
  frame.push_back(0);
  EXPECT_FALSE(decode_response_batch(frame).has_value());
}

TEST(ResponseBatchCodec, RejectsMalformedInnerResponse) {
  // A frame whose inner blob is not a valid Response encoding (too short
  // for the fixed header) must reject as a whole.
  util::Writer w;
  w.u32(1);
  util::Buffer junk{0x01, 0x02, 0x03};
  w.bytes(junk);
  EXPECT_FALSE(decode_response_batch(w.view()).has_value());
}

TEST(ResponseBatchCodec, FuzzedFramesNeverOverreadOrCrash) {
  util::SplitMix64 rng(test_support::logged_seed(0x5e5f));
  constexpr int kRounds = 4000;
  for (int round = 0; round < kRounds; ++round) {
    // Start from a valid frame so mutations explore the interesting
    // boundaries (counts, length prefixes) rather than only the count check.
    std::vector<Response> in;
    const std::size_t n = 1 + rng.next_below(6);
    for (std::size_t i = 0; i < n; ++i) {
      in.push_back(make_response(rng.next(), rng.next(),
                                 static_cast<std::uint8_t>(rng.next()),
                                 rng.next_below(32)));
    }
    auto frame = encode_response_batch(encode_all(in));
    switch (rng.next_below(3)) {
      case 0: {  // flip a few bytes
        for (int flips = 1 + static_cast<int>(rng.next_below(4)); flips > 0;
             --flips) {
          frame[rng.next_below(frame.size())] ^=
              static_cast<std::uint8_t>(1 + rng.next_below(255));
        }
        break;
      }
      case 1: {  // truncate
        frame.resize(rng.next_below(frame.size()));
        break;
      }
      default: {  // replace with pure noise
        frame.resize(rng.next_below(96));
        for (auto& b : frame) b = static_cast<std::uint8_t>(rng.next());
        break;
      }
    }
    // Must not throw, crash, or read out of bounds (ASan/valgrind-visible);
    // any successful decode must stay within the declared cap.
    auto out = decode_response_batch(frame);
    if (out) {
      EXPECT_GE(out->size(), 1u);
      EXPECT_LE(out->size(), kMaxResponsesPerMessage);
    }
  }
}

// --- ResponseCoalescer ---------------------------------------------------

/// One sender node, one receiver mailbox, and a coalescer between them.
struct CoalescerRig {
  explicit CoalescerRig(ResponseCoalescerOptions opts = {}) {
    auto [sid, sbox] = net.register_node();
    sender = sid;
    auto [rid, rbox] = net.register_node();
    receiver = rid;
    box = std::move(rbox);
    coalescer = std::make_unique<ResponseCoalescer>(net, sender, opts);
  }
  ~CoalescerRig() { net.shutdown(); }

  /// Pops one delivered wire message (fails the test on timeout).
  transport::Message pop() {
    auto msg = box->pop_for(2'000'000us);
    EXPECT_TRUE(msg.has_value()) << "no wire message arrived";
    return msg ? std::move(*msg) : transport::Message{};
  }

  transport::Network net;
  transport::NodeId sender = transport::kNoNode;
  transport::NodeId receiver = transport::kNoNode;
  std::shared_ptr<transport::Mailbox> box;
  std::unique_ptr<ResponseCoalescer> coalescer;
};

TEST(ResponseCoalescer, SpoolsUntilBatchBoundaryThenSendsOneFrame) {
  CoalescerRig rig;
  for (Seq s = 1; s <= 3; ++s) {
    rig.coalescer->send(rig.receiver, make_response(1, s, 0x11));
  }
  // Nothing on the wire before the batch boundary.
  EXPECT_FALSE(rig.box->pop_for(10ms).has_value());
  rig.coalescer->flush_batch();
  auto msg = rig.pop();
  EXPECT_EQ(msg.type, transport::MsgType::kSmrResponseMany);
  auto batch = decode_response_batch(msg.payload);
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->size(), 3u);
  EXPECT_EQ((*batch)[0].seq, 1u);  // spool order preserved per destination
  EXPECT_EQ((*batch)[2].seq, 3u);
  auto stats = rig.coalescer->stats();
  EXPECT_EQ(stats.wire_messages, 1u);
  EXPECT_EQ(stats.responses, 3u);
  EXPECT_EQ(stats.flush_batch, 1u);
  EXPECT_EQ(stats.flush_size + stats.flush_bytes + stats.flush_timeout, 0u);
  // An empty spool makes the next boundary a no-op.
  rig.coalescer->flush_batch();
  EXPECT_EQ(rig.coalescer->stats().wire_messages, 1u);
}

TEST(ResponseCoalescer, LoneResponseKeepsPlainFraming) {
  CoalescerRig rig;
  rig.coalescer->send(rig.receiver, make_response(1, 7, 0x22));
  rig.coalescer->flush_batch();
  auto msg = rig.pop();
  EXPECT_EQ(msg.type, transport::MsgType::kSmrResponse);
  auto resp = Response::decode(msg.payload);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->seq, 7u);
}

TEST(ResponseCoalescer, SizeCapFlushesWithoutBoundary) {
  ResponseCoalescerOptions opts;
  opts.max_responses = 2;
  CoalescerRig rig(opts);
  rig.coalescer->send(rig.receiver, make_response(1, 1, 0x33));
  rig.coalescer->send(rig.receiver, make_response(1, 2, 0x33));
  auto msg = rig.pop();  // no flush_batch needed
  auto batch = decode_response_batch(msg.payload);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->size(), 2u);
  auto stats = rig.coalescer->stats();
  EXPECT_EQ(stats.flush_size, 1u);
  EXPECT_EQ(stats.flush_batch, 0u);
}

TEST(ResponseCoalescer, CapReasonIsAttributedOnlyToTheTrippedBucket) {
  // Destination A trips the size cap while destination B merely has a
  // spooled response; the drain loop sends both, but only A's wire message
  // may count under flush_size — B's is a sweep (flush_batch).
  ResponseCoalescerOptions opts;
  opts.max_responses = 2;
  CoalescerRig rig(opts);
  auto [other, other_box] = rig.net.register_node();
  auto obox = other_box;
  rig.coalescer->send(other, make_response(2, 1, 0x11));
  rig.coalescer->send(rig.receiver, make_response(1, 1, 0x11));
  rig.coalescer->send(rig.receiver, make_response(1, 2, 0x11));  // trips cap
  rig.pop();
  ASSERT_TRUE(obox->pop_for(2'000'000us).has_value());
  auto stats = rig.coalescer->stats();
  EXPECT_EQ(stats.wire_messages, 2u);
  EXPECT_EQ(stats.flush_size, 1u);
  EXPECT_EQ(stats.flush_batch, 1u);
}

TEST(ResponseCoalescer, ByteCapFlushesWithoutBoundary) {
  ResponseCoalescerOptions opts;
  opts.max_bytes = 64;
  CoalescerRig rig(opts);
  rig.coalescer->send(rig.receiver,
                      make_response(1, 1, 0x44, /*payload_len=*/80));
  auto msg = rig.pop();
  EXPECT_EQ(msg.type, transport::MsgType::kSmrResponse);  // lone response
  EXPECT_EQ(rig.coalescer->stats().flush_bytes, 1u);
}

TEST(ResponseCoalescer, AgedSpoolFlushesOnNextSend) {
  ResponseCoalescerOptions opts;
  opts.max_delay = std::chrono::microseconds(0);  // every send is "aged"
  CoalescerRig rig(opts);
  rig.coalescer->send(rig.receiver, make_response(1, 1, 0x55));
  auto msg = rig.pop();
  EXPECT_EQ(msg.type, transport::MsgType::kSmrResponse);
  EXPECT_EQ(rig.coalescer->stats().flush_timeout, 1u);
}

TEST(ResponseCoalescer, BucketsPerDestination) {
  CoalescerRig rig;
  auto [other, other_box] = rig.net.register_node();
  auto obox = other_box;
  rig.coalescer->send(rig.receiver, make_response(1, 1, 0x66));
  rig.coalescer->send(other, make_response(2, 1, 0x77));
  rig.coalescer->send(rig.receiver, make_response(1, 2, 0x66));
  rig.coalescer->flush_batch();
  auto msg = rig.pop();
  auto batch = decode_response_batch(msg.payload);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->size(), 2u);
  EXPECT_EQ((*batch)[0].client, 1u);
  auto omsg = obox->pop_for(2'000'000us);
  ASSERT_TRUE(omsg.has_value());
  EXPECT_EQ(omsg->type, transport::MsgType::kSmrResponse);
  auto stats = rig.coalescer->stats();
  EXPECT_EQ(stats.wire_messages, 2u);
  EXPECT_EQ(stats.responses, 3u);
}

TEST(ResponseCoalescer, FlushPauseRendezvousCarriesConcurrentSpool) {
  // Deterministic reproduction of the flat-combining piggyback: the pause
  // hook runs after the first wire send with the lock released — exactly
  // where a concurrent worker's send() would land — and spools another
  // response.  The active flusher's drain loop must carry it before
  // flush_batch() returns, without a second flush_batch call.
  CoalescerRig rig;
  std::atomic<int> injected{0};
  rig.coalescer->set_flush_pause([&] {
    if (injected.fetch_add(1) == 0) {
      rig.coalescer->send(rig.receiver, make_response(2, 9, 0x99));
    }
  });
  rig.coalescer->send(rig.receiver, make_response(1, 1, 0x99));
  rig.coalescer->flush_batch();
  rig.coalescer->set_flush_pause({});
  // Both responses arrived: the seeded one, then the injected straggler.
  auto first = rig.pop();
  auto second = rig.pop();
  auto r1 = Response::decode(first.payload);
  auto r2 = Response::decode(second.payload);
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(r1->seq, 1u);
  EXPECT_EQ(r2->seq, 9u);
  auto stats = rig.coalescer->stats();
  EXPECT_EQ(stats.wire_messages, 2u);
  EXPECT_EQ(stats.responses, 2u);
  EXPECT_GE(injected.load(), 1);
}

// --- ClientProxy demultiplexer -------------------------------------------

/// Direct-mode proxy against a hand-driven fake server mailbox.
struct ProxyRig {
  ProxyRig() {
    auto [sid, sbox] = net.register_node();
    server = sid;
    box = std::move(sbox);
    proxy = std::make_unique<ClientProxy>(net, server, /*id=*/7);
  }
  ~ProxyRig() { net.shutdown(); }

  /// Receives one submitted command at the fake server.
  Command recv() {
    auto msg = box->pop_for(2'000'000us);
    EXPECT_TRUE(msg.has_value());
    auto cmd = msg ? Command::decode(msg->payload) : std::nullopt;
    EXPECT_TRUE(cmd.has_value());
    return cmd ? std::move(*cmd) : Command{};
  }

  transport::Network net;
  transport::NodeId server = transport::kNoNode;
  std::shared_ptr<transport::Mailbox> box;
  std::unique_ptr<ClientProxy> proxy;
};

Response reply_to(const Command& cmd, std::uint8_t fill) {
  return make_response(cmd.client, cmd.seq, fill);
}

TEST(ProxyDemux, MultiResponseFrameCompletesSeveralCommands) {
  ProxyRig rig;
  ASSERT_TRUE(rig.proxy->submit(1, {}).has_value());
  ASSERT_TRUE(rig.proxy->submit(1, {}).has_value());
  ASSERT_TRUE(rig.proxy->submit(1, {}).has_value());
  std::vector<Command> cmds;
  for (int i = 0; i < 3; ++i) cmds.push_back(rig.recv());
  EXPECT_EQ(rig.proxy->outstanding(), 3u);
  // Replies arrive out of submission order inside one frame.
  std::vector<Response> replies = {reply_to(cmds[2], 3), reply_to(cmds[0], 1),
                                   reply_to(cmds[1], 2)};
  rig.net.send(rig.server, cmds[0].reply_to,
               transport::MsgType::kSmrResponseMany,
               encode_response_batch(encode_all(replies)));
  // One frame, three poll() completions, in the frame's order.
  std::vector<Seq> seqs;
  for (int i = 0; i < 3; ++i) {
    auto done = rig.proxy->poll(2'000'000us);
    ASSERT_TRUE(done.has_value());
    seqs.push_back(done->seq);
    EXPECT_GE(done->latency_us, 0);
    // Completions already decoded still count as outstanding until polled.
    EXPECT_EQ(rig.proxy->outstanding(), static_cast<std::size_t>(2 - i));
  }
  EXPECT_EQ(seqs, (std::vector<Seq>{cmds[2].seq, cmds[0].seq, cmds[1].seq}));
}

TEST(ProxyDemux, DuplicateReplicaFramesAreAbsorbed) {
  ProxyRig rig;
  ASSERT_TRUE(rig.proxy->submit(1, {}).has_value());
  ASSERT_TRUE(rig.proxy->submit(1, {}).has_value());
  std::vector<Command> cmds = {rig.recv(), rig.recv()};
  auto frame = encode_response_batch(
      encode_all({reply_to(cmds[0], 1), reply_to(cmds[1], 2)}));
  // Two replicas, same coalesced frame.
  rig.net.send(rig.server, cmds[0].reply_to,
               transport::MsgType::kSmrResponseMany, frame);
  rig.net.send(rig.server, cmds[0].reply_to,
               transport::MsgType::kSmrResponseMany, frame);
  ASSERT_TRUE(rig.proxy->poll(2'000'000us).has_value());
  ASSERT_TRUE(rig.proxy->poll(2'000'000us).has_value());
  // The duplicate frame produces no third completion.
  EXPECT_FALSE(rig.proxy->poll(50ms).has_value());
  EXPECT_EQ(rig.proxy->outstanding(), 0u);
}

TEST(ProxyDemux, MalformedFrameIsIgnoredNotFatal) {
  ProxyRig rig;
  ASSERT_TRUE(rig.proxy->submit(1, {}).has_value());
  Command cmd = rig.recv();
  util::Buffer junk{0xde, 0xad, 0xbe};
  rig.net.send(rig.server, cmd.reply_to, transport::MsgType::kSmrResponseMany,
               junk);
  // The real reply after the junk still completes the call.
  rig.net.send(rig.server, cmd.reply_to, transport::MsgType::kSmrResponse,
               reply_to(cmd, 5).encode());
  auto done = rig.proxy->poll(2'000'000us);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->seq, cmd.seq);
}

TEST(ProxyDemux, MixedKnownAndUnknownSeqsCompleteOnlyKnown) {
  ProxyRig rig;
  ASSERT_TRUE(rig.proxy->submit(1, {}).has_value());
  Command cmd = rig.recv();
  Response phantom = make_response(cmd.client, cmd.seq + 1000, 9);
  auto frame = encode_response_batch(
      encode_all({phantom, reply_to(cmd, 1), phantom}));
  rig.net.send(rig.server, cmd.reply_to, transport::MsgType::kSmrResponseMany,
               frame);
  auto done = rig.proxy->poll(2'000'000us);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->seq, cmd.seq);
  EXPECT_FALSE(rig.proxy->poll(50ms).has_value());
}

// --- End-to-end: coalesced replies on both replica modes -----------------

class ResponseConvergence : public ::testing::TestWithParam<Mode> {};

TEST_P(ResponseConvergence, CoalescedRepliesConverge) {
  constexpr int kClients = 3;
  constexpr int kOps = 120;
  auto cfg = test_support::kv_config(GetParam(), /*mpl=*/2,
                                     /*initial_keys=*/kClients * 100);
  test_support::Cluster cluster(std::move(cfg));
  // Reply batching is invisible to the service: run_disjoint_kv_workload
  // checks that every replica ends with the same state digest.
  test_support::run_disjoint_kv_workload(cluster.deployment(), kClients,
                                         kOps);
  const ResponseStats stats = cluster->response_stats();

  // Every executed command's reply went through the counters: both replicas
  // reply to every command they execute.
  const auto total = static_cast<std::uint64_t>(kClients * kOps);
  EXPECT_GE(stats.responses, 2 * total);

  // Batch-boundary flushes happened, the reason counters partition the
  // wire messages, and — with 3 clients pipelining 32-deep onto 2 workers
  // — at least some frame carried more than one reply.
  EXPECT_GT(stats.flush_batch, 0u);
  EXPECT_EQ(stats.flush_batch + stats.flush_size + stats.flush_bytes +
                stats.flush_timeout,
            stats.wire_messages);
  EXPECT_LT(stats.wire_messages, stats.responses);
  EXPECT_GT(stats.mean_responses_per_message(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Modes, ResponseConvergence,
                         ::testing::Values(Mode::kPsmr, Mode::kSpsmr),
                         [](const auto& info) {
                           return info.param == Mode::kPsmr ? "psmr" : "spsmr";
                         });

}  // namespace
}  // namespace psmr::smr
