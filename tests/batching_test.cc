// Batching-focused unit suite: seal triggers (byte cap, command cap,
// timeout), the adaptive-timeout controller's grow/shrink behavior and
// bounds, and the coordinator's handling of pre-encoded SUBMIT_MANY frames.
//
// Everything here asserts on CoordinatorStats rather than throughput, so
// the tests stay meaningful on a loaded host.
#include <gtest/gtest.h>

#include <chrono>

#include "paxos/ring.h"
#include "test_support.h"
#include "transport/network.h"
#include "util/buffer_pool.h"

namespace psmr::paxos {
namespace {

using transport::Network;

util::Buffer cmd(std::uint64_t id) {
  util::Writer w;
  w.u64(id);
  return w.take();
}

std::uint64_t cmd_id(std::span<const std::uint8_t> b) {
  util::Reader r(b);
  return r.u64();
}

// Drains exactly `want` commands from the learner, checking contiguous ids.
void drain_ordered(LearnerLog& log, std::uint64_t want) {
  std::uint64_t expect = 0;
  while (expect < want) {
    auto d = log.next_for(std::chrono::seconds(5));
    ASSERT_TRUE(d.has_value()) << "delivery stalled at " << expect;
    if (d->batch.skip) continue;
    for (const auto& c : d->batch.commands) {
      EXPECT_EQ(cmd_id(c), expect);
      ++expect;
    }
  }
}

RingConfig quiet_ring() {
  // Long timeout so only the explicit caps under test can seal.
  RingConfig cfg;
  cfg.batch_timeout = std::chrono::milliseconds(50);
  return cfg;
}

TEST(BatchSeal, ByteCapSealsExactly) {
  Network net;
  RingConfig cfg = quiet_ring();
  // Long enough that a descheduled submitter cannot sneak in a timeout
  // seal mid-flood; every batch seals on the byte cap (64 = 8 * 8 exactly,
  // so there is no trailing partial to wait out either).
  cfg.batch_timeout = std::chrono::milliseconds(500);
  cfg.max_batch_bytes = 64;  // 8 commands of 8 bytes
  Ring ring(net, 0, cfg);
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();

  for (std::uint64_t i = 0; i < 64; ++i) ring.submit(me, cmd(i));
  drain_ordered(*learner, 64);

  auto s = ring.stats();
  EXPECT_EQ(s.sealed_on_bytes, 8u);
  EXPECT_EQ(s.sealed_on_count, 0u);
  EXPECT_EQ(s.sealed_on_timeout, 0u);
  EXPECT_EQ(s.sealed_batches, 8u);
  EXPECT_EQ(s.sealed_commands, 64u);
  EXPECT_EQ(s.sealed_bytes, 64u * 8u);
  EXPECT_DOUBLE_EQ(s.mean_commands_per_batch(), 8.0);
  EXPECT_DOUBLE_EQ(s.mean_bytes_per_batch(), 64.0);
}

TEST(BatchSeal, CommandCapSealsExactly) {
  Network net;
  RingConfig cfg = quiet_ring();
  cfg.batch_timeout = std::chrono::milliseconds(500);
  cfg.max_batch_commands = 5;
  Ring ring(net, 0, cfg);
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();

  for (std::uint64_t i = 0; i < 40; ++i) ring.submit(me, cmd(i));
  drain_ordered(*learner, 40);

  auto s = ring.stats();
  EXPECT_EQ(s.sealed_on_count, 8u);
  EXPECT_EQ(s.sealed_on_bytes, 0u);
  EXPECT_EQ(s.sealed_on_timeout, 0u);
  EXPECT_DOUBLE_EQ(s.mean_commands_per_batch(), 5.0);
}

TEST(BatchSeal, TimeoutSealsPartialBatch) {
  Network net;
  RingConfig cfg;
  cfg.batch_timeout = std::chrono::microseconds(300);
  Ring ring(net, 0, cfg);
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();

  for (std::uint64_t i = 0; i < 3; ++i) ring.submit(me, cmd(i));
  drain_ordered(*learner, 3);

  auto s = ring.stats();
  // >= rather than ==: a descheduled submitter can split the trio into two
  // timeout-sealed batches on a loaded host.
  EXPECT_GE(s.sealed_on_timeout, 1u);
  EXPECT_EQ(s.sealed_on_bytes, 0u);
  EXPECT_EQ(s.sealed_on_count, 0u);
  EXPECT_EQ(s.sealed_commands, 3u);
}

TEST(BatchSeal, FixedTimeoutReportedInStats) {
  Network net;
  RingConfig cfg;
  cfg.batch_timeout = std::chrono::microseconds(700);
  Ring ring(net, 0, cfg);
  EXPECT_EQ(ring.stats().batch_timeout_us, 700u);
}

TEST(AdaptiveBatching, TimeoutGrowsOnSparseTraffic) {
  Network net;
  RingConfig cfg;
  cfg.adaptive_batching = true;
  cfg.batch_timeout = std::chrono::microseconds(200);
  cfg.min_batch_timeout = std::chrono::microseconds(100);
  cfg.max_batch_timeout = std::chrono::microseconds(1600);
  Ring ring(net, 0, cfg);
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();

  // A trickle: each command sits alone until the timeout seals it, so every
  // seal is a sparse timeout seal and the timeout doubles 200 -> 1600.
  std::uint64_t delivered = 0;
  for (std::uint64_t i = 0; i < 8; ++i) {
    ring.submit(me, cmd(i));
    // Wait for delivery so the next command definitely opens a new batch.
    while (delivered <= i) {
      auto d = learner->next_for(std::chrono::seconds(5));
      ASSERT_TRUE(d.has_value());
      if (!d->batch.skip) delivered += d->batch.commands.size();
    }
  }

  auto s = ring.stats();
  EXPECT_GE(s.timeout_grows, 3u);
  EXPECT_EQ(s.batch_timeout_us, 1600u);  // clamped at max
  EXPECT_EQ(s.timeout_shrinks, 0u);
}

TEST(AdaptiveBatching, TimeoutShrinksUnderLoad) {
  Network net;
  RingConfig cfg;
  cfg.adaptive_batching = true;
  cfg.batch_timeout = std::chrono::microseconds(1600);
  cfg.min_batch_timeout = std::chrono::microseconds(100);
  cfg.max_batch_timeout = std::chrono::microseconds(3200);
  cfg.max_batch_commands = 8;
  Ring ring(net, 0, cfg);
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();

  // A flood: batches seal on the command cap, so every seal shrinks the
  // timeout 1600 -> 100 (clamped at min after 4 halvings).  Bounds are >=
  // / <= because a descheduled submitter can sneak in a timeout seal.
  for (std::uint64_t i = 0; i < 64; ++i) ring.submit(me, cmd(i));
  drain_ordered(*learner, 64);

  auto s = ring.stats();
  EXPECT_GE(s.timeout_shrinks, 3u);
  EXPECT_GE(s.batch_timeout_us, 100u);
  EXPECT_LE(s.batch_timeout_us, 400u);
  EXPECT_GE(s.sealed_on_count, 6u);
}

TEST(AdaptiveBatching, TimeoutStaysWithinBounds) {
  Network net;
  RingConfig cfg;
  cfg.adaptive_batching = true;
  cfg.batch_timeout = std::chrono::microseconds(400);
  cfg.min_batch_timeout = std::chrono::microseconds(200);
  cfg.max_batch_timeout = std::chrono::microseconds(800);
  cfg.max_batch_commands = 4;
  Ring ring(net, 0, cfg);
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();

  // Alternate floods (shrink pressure) and trickles (grow pressure),
  // sampling the bound invariant throughout.
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  auto drain_to = [&](std::uint64_t n) {
    while (delivered < n) {
      auto d = learner->next_for(std::chrono::seconds(5));
      ASSERT_TRUE(d.has_value());
      if (!d->batch.skip) delivered += d->batch.commands.size();
    }
  };
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 16; ++i) ring.submit(me, cmd(sent++));
    drain_to(sent);
    auto s = ring.stats();
    EXPECT_GE(s.batch_timeout_us, 200u);
    EXPECT_LE(s.batch_timeout_us, 800u);
    ring.submit(me, cmd(sent++));
    drain_to(sent);
    s = ring.stats();
    EXPECT_GE(s.batch_timeout_us, 200u);
    EXPECT_LE(s.batch_timeout_us, 800u);
  }
}

TEST(AdaptiveBatching, StartingTimeoutClampedIntoBounds) {
  Network net;
  RingConfig cfg;
  cfg.adaptive_batching = true;
  cfg.batch_timeout = std::chrono::microseconds(50);  // below min
  cfg.min_batch_timeout = std::chrono::microseconds(300);
  cfg.max_batch_timeout = std::chrono::microseconds(900);
  Ring ring(net, 0, cfg);
  EXPECT_EQ(ring.stats().batch_timeout_us, 300u);
}

/// A SUBMIT_MANY frame as the submit spooler lays it out: u32 count, then
/// each command length-prefixed.
util::Payload encoded_burst(std::uint64_t first, std::uint64_t count) {
  util::PayloadWriter w(4 + count * 12);
  w.u32(static_cast<std::uint32_t>(count));
  for (std::uint64_t i = first; i < first + count; ++i) w.bytes(cmd(i));
  return w.take();
}

TEST(SubmitMany, BurstArrivesInOneMessage) {
  Network net;
  Ring ring(net, 0, quiet_ring());
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();

  ASSERT_TRUE(ring.submit_encoded(me, encoded_burst(0, 10), 10));
  drain_ordered(*learner, 10);

  auto s = ring.stats();
  EXPECT_EQ(s.submit_msgs, 1u);
  EXPECT_EQ(s.submit_commands, 10u);
}

TEST(SubmitMany, SingleCommandFallsBackToPlainSubmit) {
  // A one-command frame is booked like a plain submit (one message, one
  // command), and an empty burst sends nothing at all.
  Network net;
  Ring ring(net, 0, quiet_ring());
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();

  ASSERT_TRUE(ring.submit_encoded(me, encoded_burst(0, 1), 1));
  EXPECT_TRUE(ring.submit_encoded(me, encoded_burst(1, 0), 0));
  drain_ordered(*learner, 1);

  auto s = ring.stats();
  EXPECT_EQ(s.submit_msgs, 1u);
  EXPECT_EQ(s.submit_commands, 1u);
}

TEST(SubmitMany, BurstRespectsBatchCapsMidMessage) {
  Network net;
  RingConfig cfg = quiet_ring();
  cfg.max_batch_commands = 4;
  Ring ring(net, 0, cfg);
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();

  ASSERT_TRUE(ring.submit_encoded(me, encoded_burst(0, 10), 10));
  drain_ordered(*learner, 10);

  auto s = ring.stats();
  // 10 commands through a cap of 4: two full batches sealed on the cap,
  // the trailing 2 sealed by the (long) timeout.
  EXPECT_EQ(s.sealed_on_count, 2u);
  EXPECT_EQ(s.sealed_commands, 10u);
}

}  // namespace
}  // namespace psmr::paxos
