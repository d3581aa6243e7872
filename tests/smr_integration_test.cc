// End-to-end tests: clients → (multicast) → replicas for every deployment
// mode, exercising the paper's correctness claims — replica convergence,
// dependent-command serialization, first-response semantics, failover.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <thread>

#include "kvstore/kv_client.h"
#include "smr/runtime.h"
#include "test_support.h"
#include "util/rng.h"

namespace psmr::smr {
namespace {

using kvstore::KvClient;
using kvstore::kKvOk;
using test_support::kv_config;
using test_support::wait_executed;

class AllModes : public ::testing::TestWithParam<Mode> {};

TEST_P(AllModes, BasicOperationsRoundTrip) {
  Deployment d(kv_config(GetParam(), 4));
  d.start();
  KvClient client(d.make_client());

  EXPECT_EQ(client.insert(1, 100), kKvOk);
  EXPECT_EQ(client.insert(2, 200), kKvOk);
  EXPECT_EQ(client.read(1).value(), 100u);
  EXPECT_EQ(client.update(1, 101), kKvOk);
  EXPECT_EQ(client.read(1).value(), 101u);
  EXPECT_EQ(client.erase(2), kKvOk);
  EXPECT_FALSE(client.read(2).has_value());
  EXPECT_EQ(client.insert(1, 1), kvstore::kKvExists);
  EXPECT_EQ(client.erase(42), kvstore::kKvNotFound);
  d.stop();
}

TEST_P(AllModes, ManyClientsMixedWorkloadConverges) {
  Deployment d(kv_config(GetParam(), 4, /*initial_keys=*/256));
  d.start();

  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 150;
  const std::uint64_t seed = test_support::logged_seed(100);
  std::atomic<int> failures{0};
  test_support::Barrier start(kClients);
  test_support::run_threads(kClients, [&](int c) {
    start.arrive_and_wait();  // all clients drive the mixed load together
    KvClient client(d.make_client());
    util::SplitMix64 rng(seed + static_cast<std::uint64_t>(c));
    for (int i = 0; i < kOpsPerClient; ++i) {
      std::uint64_t k = rng.next_below(256);
      switch (rng.next_below(10)) {
        case 0:
          client.insert(256 + rng.next_below(64), k);
          break;
        case 1:
          client.erase(256 + rng.next_below(64));
          break;
        case 2:
        case 3:
        case 4:
          if (client.update(k, rng.next()) != kKvOk) failures++;
          break;
        default:
          client.read(k);
          break;
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);  // preloaded keys always updatable

  // All replicas must converge to identical state.
  std::uint64_t total = kClients * kOpsPerClient;
  wait_executed(d, total);
  auto digest0 = d.state_digest(0);
  for (std::size_t i = 1; i < d.num_services(); ++i) {
    EXPECT_EQ(d.state_digest(i), digest0) << "replica " << i << " diverged";
  }
  d.stop();
}

INSTANTIATE_TEST_SUITE_P(Modes, AllModes,
                         ::testing::Values(Mode::kSmr, Mode::kSpsmr,
                                           Mode::kPsmr, Mode::kNoRep,
                                           Mode::kLockServer),
                         [](const auto& info) {
                           switch (info.param) {
                             case Mode::kSmr: return "SMR";
                             case Mode::kSpsmr: return "sPSMR";
                             case Mode::kPsmr: return "PSMR";
                             case Mode::kNoRep: return "NoRep";
                             case Mode::kLockServer: return "Lock";
                           }
                           return "unknown";
                         });

TEST(Psmr, ReplicasConvergeUnderStructuralChurn) {
  // Heavy insert/delete (synchronous mode) interleaved with reads/updates
  // (parallel mode) — the full Algorithm 1 machinery under load.
  Deployment d(kv_config(Mode::kPsmr, 8, /*initial_keys=*/512));
  d.start();
  constexpr int kClients = 6;
  const std::uint64_t seed = test_support::logged_seed(7);
  test_support::run_threads(kClients, [&](int c) {
    KvClient client(d.make_client());
    util::SplitMix64 rng(seed + static_cast<std::uint64_t>(c));
    for (int i = 0; i < 120; ++i) {
      std::uint64_t k = rng.next_below(700);
      switch (rng.next_below(4)) {
        case 0: client.insert(k, k); break;
        case 1: client.erase(k); break;
        case 2: client.update(k % 512, i); break;
        default: client.read(k); break;
      }
    }
  });
  wait_executed(d, kClients * 120);
  EXPECT_EQ(d.state_digest(0), d.state_digest(1));
  d.stop();
}

TEST(Psmr, SameKeyOrderingIsLinear) {
  // Same-key updates from one client must apply in submission order; the
  // final read must observe the last write even though everything ran on an
  // 8-worker replica.
  Deployment d(kv_config(Mode::kPsmr, 8, /*initial_keys=*/16));
  d.start();
  KvClient client(d.make_client());
  for (std::uint64_t i = 1; i <= 100; ++i) {
    ASSERT_EQ(client.update(5, i), kKvOk);
  }
  EXPECT_EQ(client.read(5).value(), 100u);
  d.stop();
}

TEST(Psmr, WindowedPipelineCompletesEverything) {
  // Drive a client with a 50-deep window (paper Section VI-B) and verify
  // every submission completes exactly once.
  Deployment d(kv_config(Mode::kPsmr, 4, /*initial_keys=*/1024));
  d.start();
  auto proxy = d.make_client();
  util::SplitMix64 rng(2);
  constexpr int kTotal = 2000;
  constexpr std::size_t kWindow = 50;
  int submitted = 0;
  int completed = 0;
  std::set<Seq> seen;
  while (completed < kTotal) {
    while (submitted < kTotal && proxy->outstanding() < kWindow) {
      ASSERT_TRUE(proxy->submit(kvstore::kKvRead,
                                kvstore::encode_key(rng.next_below(1024)))
                      .has_value());
      ++submitted;
    }
    auto done = proxy->poll(std::chrono::seconds(10));
    ASSERT_TRUE(done.has_value()) << "pipeline stalled at " << completed;
    EXPECT_TRUE(seen.insert(done->seq).second) << "duplicate completion";
    ++completed;
  }
  EXPECT_EQ(proxy->outstanding(), 0u);
  d.stop();
}

TEST(Psmr, WindowedPipelineWithSharedRingCommandsCompletesEverything) {
  // One client, a 50-deep window, ~10% inserts/deletes: those are global
  // commands, ordered on the shared g_all ring, while the reads travel the
  // worker rings.  The merge can deliver an older shared-ring command after
  // a newer worker-ring command of the same client, so a per-client dedup
  // high-water mark would drop the older one as a stale duplicate and never
  // answer it.  Every command must be answered exactly once.
  Deployment d(kv_config(Mode::kPsmr, 4, /*initial_keys=*/1024));
  d.start();
  auto proxy = d.make_client();
  util::SplitMix64 rng(test_support::logged_seed(7));
  constexpr int kTotal = 3000;
  constexpr std::size_t kWindow = 50;
  std::uint64_t inserted = 0;
  std::uint64_t deleted = 0;
  int submitted = 0;
  int completed = 0;
  std::set<Seq> seen;
  while (completed < kTotal) {
    while (submitted < kTotal && proxy->outstanding() < kWindow) {
      const std::uint64_t roll = rng.next_below(100);
      std::optional<Seq> seq;
      if (roll < 5) {
        seq = proxy->submit(kvstore::kKvInsert,
                            kvstore::encode_key_value(10'000 + inserted++, 1));
      } else if (roll < 10 && deleted < inserted) {
        seq = proxy->submit(kvstore::kKvDelete,
                            kvstore::encode_key(10'000 + deleted++));
      } else {
        seq = proxy->submit(kvstore::kKvRead,
                            kvstore::encode_key(rng.next_below(1024)));
      }
      ASSERT_TRUE(seq.has_value());
      ++submitted;
    }
    auto done = proxy->poll(std::chrono::seconds(3));
    ASSERT_TRUE(done.has_value())
        << proxy->outstanding() << " commands never answered after "
        << completed << " completions";
    EXPECT_TRUE(seen.insert(done->seq).second) << "duplicate completion";
    ++completed;
  }
  EXPECT_EQ(proxy->outstanding(), 0u);
  EXPECT_GT(inserted, 0u);
  wait_executed(d, kTotal);
  EXPECT_EQ(d.state_digest(0), d.state_digest(1));
  d.stop();
}

TEST(Psmr, SurvivesCoordinatorFailover) {
  auto cfg = kv_config(Mode::kPsmr, 4, /*initial_keys=*/64);
  Deployment d(std::move(cfg));
  d.start();
  KvClient client(d.make_client());
  for (std::uint64_t i = 0; i < 20; ++i) {
    ASSERT_EQ(client.update(i % 64, i), kKvOk);
  }
  // Kill the coordinator of one worker ring and of the shared ring.
  d.bus()->group_ring(1).fail_coordinator();
  d.bus()->shared_ring().fail_coordinator();
  for (std::uint64_t i = 0; i < 20; ++i) {
    ASSERT_EQ(client.update(i % 64, 1000 + i), kKvOk) << "post-failover " << i;
  }
  ASSERT_EQ(client.insert(4096, 1), kKvOk);  // synchronous mode still works
  EXPECT_EQ(client.read(4096).value(), 1u);
  d.stop();
}

TEST(Smr, SingleThreadedReplicaExecutesEverythingInOrder) {
  Deployment d(kv_config(Mode::kSmr, 1, /*initial_keys=*/8));
  d.start();
  KvClient client(d.make_client());
  for (std::uint64_t i = 1; i <= 50; ++i) {
    ASSERT_EQ(client.update(3, i), kKvOk);
  }
  EXPECT_EQ(client.read(3).value(), 50u);
  EXPECT_EQ(d.state_digest(0), d.state_digest(1));
  d.stop();
}

TEST(Spsmr, SchedulerSerializesStructuralCommands) {
  Deployment d(kv_config(Mode::kSpsmr, 4, /*initial_keys=*/128));
  d.start();
  KvClient client(d.make_client());
  // Alternate structural and keyed commands; any internal race would break
  // the final state or crash the unsynchronized tree.
  for (std::uint64_t i = 0; i < 60; ++i) {
    ASSERT_EQ(client.insert(1000 + i, i), kKvOk);
    ASSERT_EQ(client.update(i % 128, i), kKvOk);
    ASSERT_EQ(client.erase(1000 + i), kKvOk);
  }
  wait_executed(d, 180);
  EXPECT_EQ(d.state_digest(0), d.state_digest(1));
  d.stop();
}

TEST(Deployment, MakeClientAssignsDistinctIds) {
  Deployment d(kv_config(Mode::kPsmr, 2));
  d.start();
  auto c1 = d.make_client();
  auto c2 = d.make_client();
  EXPECT_NE(c1->id(), c2->id());
  EXPECT_NE(c1->node(), c2->node());
  d.stop();
}

TEST(Deployment, StopIsIdempotentAndJoinsEverything) {
  Deployment d(kv_config(Mode::kPsmr, 4));
  d.start();
  KvClient client(d.make_client());
  EXPECT_EQ(client.insert(1, 1), kKvOk);
  d.stop();
  d.stop();  // must not hang or crash
}

}  // namespace
}  // namespace psmr::smr
