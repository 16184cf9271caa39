#include <gtest/gtest.h>

#include "obs_enable.h"  // run every cluster under the online safety checker
#include "gc_harness.h"

namespace tordb::gc {
namespace {

using testing::GcCluster;
using testing::parse_payload;

TEST(GcBasic, SingleNodeStartsOperational) {
  GcCluster c(1);
  c.run_for(millis(10));
  EXPECT_TRUE(c.gc(0).operational());
  EXPECT_EQ(c.gc(0).config().members, (std::vector<NodeId>{0}));
  ASSERT_GE(c.record(0).regulars.size(), 1u);
}

TEST(GcBasic, SingleNodeSelfDeliversSafe) {
  GcCluster c(1);
  c.run_for(millis(10));
  c.multicast(0, 1);
  c.run_for(millis(10));
  ASSERT_EQ(c.record(0).deliveries.size(), 1u);
  EXPECT_EQ(c.record(0).deliveries[0].kind, DeliveryKind::kSafeInRegular);
  EXPECT_EQ(c.record(0).deliveries[0].sender, 0);
}

TEST(GcBasic, StartupMergesToFullMembership) {
  GcCluster c(5);
  c.run_for(millis(500));
  EXPECT_TRUE(c.converged({0, 1, 2, 3, 4}));
  // Everyone installed the same final regular configuration.
  const Configuration& cfg = c.gc(0).config();
  EXPECT_EQ(cfg.members.size(), 5u);
  EXPECT_FALSE(cfg.transitional);
}

TEST(GcBasic, FourteenNodesMerge) {
  GcCluster c(14);
  c.run_for(seconds(2));
  std::vector<NodeId> all;
  for (NodeId i = 0; i < 14; ++i) all.push_back(i);
  EXPECT_TRUE(c.converged(all));
}

TEST(GcBasic, SafeMessageDeliveredToAllMembers) {
  GcCluster c(4);
  c.run_for(millis(500));
  ASSERT_TRUE(c.converged({0, 1, 2, 3}));
  c.multicast(2, 1);
  c.run_for(millis(100));
  for (NodeId n = 0; n < 4; ++n) {
    const auto& ds = c.record(n).deliveries;
    ASSERT_EQ(ds.size(), 1u) << "node " << n;
    EXPECT_EQ(ds[0].sender, 2);
    EXPECT_EQ(ds[0].kind, DeliveryKind::kSafeInRegular);
    auto [s, k] = parse_payload(ds[0].payload);
    EXPECT_EQ(s, 2);
    EXPECT_EQ(k, 1);
  }
}

TEST(GcBasic, AgreedMessageDelivered) {
  GcCluster c(3);
  c.run_for(millis(500));
  ASSERT_TRUE(c.converged({0, 1, 2}));
  c.multicast(1, 7, Service::kAgreed);
  c.run_for(millis(100));
  for (NodeId n = 0; n < 3; ++n) {
    ASSERT_EQ(c.record(n).deliveries.size(), 1u);
    EXPECT_EQ(c.record(n).deliveries[0].kind, DeliveryKind::kAgreed);
  }
}

TEST(GcBasic, AgreedDeliversBeforeSafeStability) {
  // An agreed message needs no ack round: it must be deliverable strictly
  // earlier than a safe message sent at the same instant.
  GcCluster c(4);
  c.run_for(millis(500));
  ASSERT_TRUE(c.converged({0, 1, 2, 3}));
  c.multicast(0, 1, Service::kAgreed);
  c.run_for(millis(2));  // enough for ordering, not for the full ack round
  EXPECT_EQ(c.record(3).deliveries.size(), 1u);
}

TEST(GcBasic, TotalOrderUnderConcurrentLoad) {
  GcCluster c(5);
  c.run_for(millis(500));
  ASSERT_TRUE(c.converged({0, 1, 2, 3, 4}));
  for (std::int64_t k = 1; k <= 40; ++k) {
    for (NodeId n = 0; n < 5; ++n) c.multicast(n, k);
    c.run_for(millis(3));
  }
  c.run_for(millis(300));
  // 200 messages everywhere, identical order.
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(c.record(n).deliveries.size(), 200u) << "node " << n;
  }
  c.check_all_invariants();
  const auto& ref = c.record(0).deliveries;
  for (NodeId n = 1; n < 5; ++n) {
    const auto& ds = c.record(n).deliveries;
    ASSERT_EQ(ds.size(), ref.size());
    for (std::size_t i = 0; i < ds.size(); ++i) {
      EXPECT_EQ(ds[i].payload, ref[i].payload) << "divergence at " << i;
    }
  }
}

TEST(GcBasic, FifoPerSender) {
  GcCluster c(4);
  c.run_for(millis(500));
  for (std::int64_t k = 1; k <= 30; ++k) c.multicast(2, k);
  c.run_for(millis(300));
  c.check_fifo();
  // And with no membership change there are no duplicates either.
  const auto& ds = c.record(0).deliveries;
  ASSERT_EQ(ds.size(), 30u);
  for (std::int64_t k = 1; k <= 30; ++k) {
    EXPECT_EQ(parse_payload(ds[static_cast<std::size_t>(k - 1)].payload).second, k);
  }
}

TEST(GcBasic, SelfDeliveryIncluded) {
  GcCluster c(3);
  c.run_for(millis(500));
  c.multicast(0, 1);
  c.run_for(millis(100));
  ASSERT_EQ(c.record(0).deliveries.size(), 1u);
  EXPECT_EQ(c.record(0).deliveries[0].sender, 0);
}

TEST(GcBasic, SequencerIsLowestIdAndOrders) {
  GcCluster c(3);
  c.run_for(millis(500));
  c.multicast(2, 1);
  c.run_for(millis(100));
  EXPECT_GT(c.gc(0).stats().messages_ordered, 0u);  // node 0 sequences
  EXPECT_EQ(c.gc(2).stats().messages_ordered, 0u);
}

TEST(GcBasic, MulticastBeforeMergeIsEventuallyDelivered) {
  GcCluster c(3);
  // Send immediately, while nodes are still in singleton configs.
  c.multicast(0, 1);
  c.run_for(millis(500));
  // Node 0 delivered it (possibly in the singleton config); after the merge
  // every member must have seen it via the resend in the merged config or
  // the engine-level exchange; at GC level we only require node 0 delivery
  // and no order violations.
  bool node0_got_it = false;
  for (const auto& d : c.record(0).deliveries) {
    if (parse_payload(d.payload) == std::make_pair(NodeId{0}, std::int64_t{1})) {
      node0_got_it = true;
    }
  }
  EXPECT_TRUE(node0_got_it);
  c.check_all_invariants();
}

TEST(GcBasic, HeavyLoadNoLossNoDup) {
  GcCluster c(4);
  c.run_for(millis(500));
  ASSERT_TRUE(c.converged({0, 1, 2, 3}));
  const int kPerNode = 250;
  for (int k = 1; k <= kPerNode; ++k) {
    for (NodeId n = 0; n < 4; ++n) c.multicast(n, k);
    c.run_for(micros(800));
  }
  c.run_for(seconds(1));
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(c.record(n).deliveries.size(), static_cast<std::size_t>(4 * kPerNode));
  }
  c.check_all_invariants();
}

TEST(GcBasic, ConfigCountersIncrease) {
  GcCluster c(3);
  c.run_for(millis(500));
  const auto& regs = c.record(0).regulars;
  ASSERT_GE(regs.size(), 2u);
  for (std::size_t i = 1; i < regs.size(); ++i) {
    EXPECT_GT(regs[i].id.counter, regs[i - 1].id.counter);
  }
}

TEST(GcBasic, StatsDeliveriesMatchRecords) {
  GcCluster c(3);
  c.run_for(millis(500));
  c.multicast(0, 1);
  c.multicast(1, 1);
  c.run_for(millis(200));
  EXPECT_EQ(c.gc(2).stats().deliveries, c.record(2).deliveries.size());
}

// Two-level stability: in a 48-member group (six cliques of eight) each
// sender paces each of its stability streams to one message per ack
// interval, so a member receives at most (clique - 1) acks from its mates,
// (leaders - 1) clique minimums if it leads a clique, and one stable line
// per interval; all-to-all acks would be 47.
TEST(GcBasic, StabilityReceiptsPerIntervalAreBoundedInWideGroups) {
  constexpr int kNodes = 48;
  constexpr std::uint64_t kPerInterval = (8 - 1) + (6 - 1) + 1;
  GcCluster c(kNodes);
  c.run_for(seconds(2));
  std::vector<NodeId> all;
  for (NodeId i = 0; i < kNodes; ++i) all.push_back(i);
  ASSERT_TRUE(c.converged(all));

  std::vector<std::uint64_t> before;
  for (NodeId i = 0; i < kNodes; ++i) before.push_back(c.gc(i).stats().stability_received);
  const SimDuration interval = GcParams{}.ack_min_interval;
  const SimDuration window = millis(300);
  std::int64_t k = 0;
  for (SimDuration t = 0; t < window; t += micros(250)) {
    ++k;
    c.multicast(static_cast<NodeId>(k % kNodes), k);
    c.run_for(micros(250));
  }
  // Every message became safe everywhere, so the streams really flowed.
  c.run_for(millis(100));
  for (NodeId i = 0; i < kNodes; ++i) {
    ASSERT_EQ(c.record(i).deliveries.size(), static_cast<std::size_t>(k)) << "node " << i;
  }
  // +2 intervals: the window's edges may each catch one extra send.
  const std::uint64_t intervals = static_cast<std::uint64_t>((window + millis(100)) / interval) + 2;
  for (NodeId i = 0; i < kNodes; ++i) {
    const std::uint64_t got = c.gc(i).stats().stability_received - before[static_cast<std::size_t>(i)];
    const bool leader = i % 8 == 0;
    EXPECT_LE(got, (leader ? kPerInterval : 8u) * intervals) << "node " << i;
    EXPECT_GT(got, 0u) << "node " << i;
  }
  c.check_all_invariants();
}

}  // namespace
}  // namespace tordb::gc
