#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "obs_enable.h"  // run every cluster under the online safety checker
#include "db/database.h"
#include "workload/cluster.h"

namespace tordb::core {
namespace {

using db::Command;
using workload::ClusterOptions;
using workload::EngineCluster;

ClusterOptions small(int n, std::uint64_t seed = 1) {
  ClusterOptions o;
  o.replicas = n;
  o.seed = seed;
  return o;
}

TEST(CoreBasic, ClusterFormsPrimary) {
  EngineCluster c(small(5));
  c.run_for(seconds(1));
  EXPECT_TRUE(c.converged_primary(c.all_ids()));
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_EQ(c.engine(i).state(), EngineState::kRegPrim);
    EXPECT_GE(c.engine(i).prim_component().prim_index, 1);
  }
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(CoreBasic, SingleReplicaIsItsOwnPrimary) {
  EngineCluster c(small(1));
  c.run_for(millis(500));
  EXPECT_EQ(c.engine(0).state(), EngineState::kRegPrim);
  bool replied = false;
  c.engine(0).submit({}, Command::put("k", "v"), 1, Semantics::kStrict,
                     [&](const Reply& r) {
                       replied = true;
                       EXPECT_FALSE(r.aborted);
                     });
  c.run_for(millis(200));
  EXPECT_TRUE(replied);
  EXPECT_EQ(c.engine(0).database().get("k"), "v");
}

TEST(CoreBasic, ActionGoesGreenAtEveryReplica) {
  EngineCluster c(small(5));
  c.run_for(seconds(1));
  bool replied = false;
  c.engine(2).submit({}, Command::put("account", "100"), 7, Semantics::kStrict,
                     [&](const Reply& r) {
                       replied = true;
                       EXPECT_FALSE(r.aborted);
                       EXPECT_EQ(r.action.server_id, 2);
                     });
  c.run_for(millis(300));
  EXPECT_TRUE(replied);
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_EQ(c.engine(i).green_count(), 1) << "node " << i;
    EXPECT_EQ(c.engine(i).database().get("account"), "100") << "node " << i;
  }
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(CoreBasic, QueryPartReturnsReads) {
  EngineCluster c(small(3));
  c.run_for(seconds(1));
  c.engine(0).submit({}, Command::put("x", "42"), 1, Semantics::kStrict, nullptr);
  c.run_for(millis(300));
  std::vector<std::string> reads;
  c.engine(1).submit(Command::get("x"), Command::add("x", 1), 1, Semantics::kStrict,
                     [&](const Reply& r) { reads = r.reads; });
  c.run_for(millis(300));
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0], "42");  // query evaluated before the update part
  EXPECT_EQ(c.engine(2).database().get("x"), "43");
}

TEST(CoreBasic, ConcurrentSubmittersKeepTotalOrder) {
  EngineCluster c(small(5));
  c.run_for(seconds(1));
  int replies = 0;
  for (int round = 0; round < 20; ++round) {
    for (NodeId i = 0; i < 5; ++i) {
      c.engine(i).submit({}, Command::add("counter", 1), i, Semantics::kStrict,
                         [&](const Reply&) { ++replies; });
    }
    c.run_for(millis(5));
  }
  c.run_for(seconds(1));
  EXPECT_EQ(replies, 100);
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_EQ(c.engine(i).green_count(), 100);
    EXPECT_EQ(c.engine(i).database().get("counter"), "100");
  }
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(CoreBasic, MinoritySideMakesNoGreenProgress) {
  EngineCluster c(small(5));
  c.run_for(seconds(1));
  c.partition({{0, 1, 2}, {3, 4}});
  c.run_for(millis(500));
  // Majority side is primary; minority is not.
  EXPECT_TRUE(c.converged_primary({0, 1, 2}));
  EXPECT_EQ(c.engine(3).state(), EngineState::kNonPrim);
  EXPECT_EQ(c.engine(4).state(), EngineState::kNonPrim);

  bool minority_replied = false;
  c.engine(4).submit({}, Command::put("k", "minority"), 1, Semantics::kStrict,
                     [&](const Reply&) { minority_replied = true; });
  bool majority_replied = false;
  c.engine(0).submit({}, Command::put("k", "majority"), 1, Semantics::kStrict,
                     [&](const Reply&) { majority_replied = true; });
  c.run_for(millis(500));
  EXPECT_TRUE(majority_replied);
  EXPECT_FALSE(minority_replied);  // strict actions wait for the primary
  EXPECT_GT(c.engine(4).red_count(), 0u);
  EXPECT_EQ(c.engine(4).green_count(), 0);
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(CoreBasic, MergeOrdersMinorityActions) {
  EngineCluster c(small(5));
  c.run_for(seconds(1));
  c.partition({{0, 1, 2}, {3, 4}});
  c.run_for(millis(500));
  bool replied = false;
  c.engine(4).submit({}, Command::put("from-minority", "yes"), 1, Semantics::kStrict,
                     [&](const Reply&) { replied = true; });
  c.engine(0).submit({}, Command::put("from-majority", "yes"), 1, Semantics::kStrict, nullptr);
  c.run_for(millis(500));
  c.heal();
  c.run_for(seconds(1));
  EXPECT_TRUE(replied);  // the red action was ordered after the merge
  EXPECT_TRUE(c.converged_primary(c.all_ids()));
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_EQ(c.engine(i).database().get("from-minority"), "yes");
    EXPECT_EQ(c.engine(i).database().get("from-majority"), "yes");
  }
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(CoreBasic, EvenSplitNobodyIsPrimary) {
  EngineCluster c(small(4));
  c.run_for(seconds(1));
  c.partition({{0, 1}, {2, 3}});
  c.run_for(seconds(1));
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_EQ(c.engine(i).state(), EngineState::kNonPrim) << "node " << i;
  }
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(CoreBasic, DynamicLinearVotingFollowsLastPrimary) {
  // 5 replicas; majority {0,1,2} becomes primary. A further split of that
  // primary into {0,1} | {2} leaves {0,1} holding 2 of the last primary's 3
  // members: dynamic linear voting (not static majority of 5) makes {0,1}
  // the next primary even though it is a minority of the original set.
  EngineCluster c(small(5));
  c.run_for(seconds(1));
  c.partition({{0, 1, 2}, {3, 4}});
  c.run_for(seconds(1));
  ASSERT_TRUE(c.converged_primary({0, 1, 2}));
  c.partition({{0, 1}, {2}, {3, 4}});
  c.run_for(seconds(1));
  EXPECT_TRUE(c.converged_primary({0, 1}));
  EXPECT_EQ(c.engine(2).state(), EngineState::kNonPrim);
  EXPECT_EQ(c.engine(3).state(), EngineState::kNonPrim);
  // The stale side {3,4} can never usurp: progress continues at {0,1}.
  bool replied = false;
  c.engine(0).submit({}, Command::put("k", "v"), 1, Semantics::kStrict,
                     [&](const Reply&) { replied = true; });
  c.run_for(millis(500));
  EXPECT_TRUE(replied);
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(CoreBasic, WeightedQuorum) {
  ClusterOptions o = small(3);
  o.node.engine.weights = {{0, 3}, {1, 1}, {2, 1}};  // node 0 dominates
  EngineCluster c(o);
  c.run_for(seconds(1));
  c.partition({{0}, {1, 2}});
  c.run_for(seconds(1));
  EXPECT_TRUE(c.converged_primary({0}));  // weight 3 of 5 is a majority
  EXPECT_EQ(c.engine(1).state(), EngineState::kNonPrim);
  EXPECT_EQ(c.engine(2).state(), EngineState::kNonPrim);
}

TEST(CoreBasic, RepeatedPartitionsStayConsistent) {
  EngineCluster c(small(5, 42));
  c.run_for(seconds(1));
  std::int64_t k = 0;
  for (int round = 0; round < 4; ++round) {
    for (NodeId i = 0; i < 5; ++i) {
      c.engine(i).submit({}, Command::add("n", 1), ++k, Semantics::kStrict, nullptr);
    }
    c.run_for(millis(100));
    c.partition({{0, 1, 2}, {3, 4}});
    c.run_for(millis(400));
    for (NodeId i = 0; i < 5; ++i) {
      c.engine(i).submit({}, Command::add("n", 1), ++k, Semantics::kStrict, nullptr);
    }
    c.run_for(millis(400));
    c.heal();
    c.run_for(millis(800));
  }
  c.run_for(seconds(2));
  EXPECT_TRUE(c.converged_primary(c.all_ids()));
  EXPECT_EQ(c.engine(0).database().get("n"), "40");
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(CoreBasic, WhiteTrimmingReclaimsBodies) {
  ClusterOptions o = small(3);
  o.node.engine.white_trim = true;
  EngineCluster c(o);
  c.run_for(seconds(1));
  for (int round = 0; round < 30; ++round) {
    for (NodeId i = 0; i < 3; ++i) {
      c.engine(i).submit({}, Command::add("n", 1), 1, Semantics::kStrict, nullptr);
    }
    c.run_for(millis(10));
  }
  c.run_for(seconds(1));
  // Every server generated actions, so green lines advance and the white
  // line follows; most bodies must have been discarded.
  EXPECT_GT(c.engine(0).stats().actions_white_trimmed, 50u);
  EXPECT_GT(c.engine(0).white_line(), 0);
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(CoreBasic, StatsCountPrimariesAndExchanges) {
  EngineCluster c(small(3));
  c.run_for(seconds(1));
  EXPECT_GE(c.engine(0).stats().primaries_installed, 1u);
  EXPECT_GE(c.engine(0).stats().exchanges, 1u);
  c.partition({{0, 1}, {2}});
  c.run_for(seconds(1));
  EXPECT_GE(c.engine(0).stats().primaries_installed, 2u);
}

TEST(CoreBasic, NoEndToEndAckPerActionInSteadyState) {
  // The paper's headline: in Prim, ordering needs no engine-level
  // end-to-end acknowledgements — engine messages are exactly one multicast
  // per action (plus the GC's own ack/stability machinery). We verify no
  // exchange/CPC traffic happens while the membership is stable.
  EngineCluster c(small(5));
  c.run_for(seconds(1));
  const auto exchanges_before = c.engine(0).stats().exchanges;
  const auto cpc_before = c.engine(0).stats().cpc_sent;
  for (int round = 0; round < 50; ++round) {
    c.engine(0).submit({}, Command::add("n", 1), 1, Semantics::kStrict, nullptr);
    c.run_for(millis(4));
  }
  c.run_for(millis(500));
  EXPECT_EQ(c.engine(0).stats().exchanges, exchanges_before);
  EXPECT_EQ(c.engine(0).stats().cpc_sent, cpc_before);
  EXPECT_EQ(c.engine(0).green_count(), 50);
}

TEST(CoreBasic, WideGroupClosedLoopKeepsTheShortCycle) {
  // 48 replicas with one closed-loop client each: a commit is the 1 ms
  // group-commit window, the 8 ms force and the ordering and stability
  // hops, 15 ms in all. On this seed the start-up transient used to lock
  // the gc's leader streams (DESIGN.md §16) just ahead of their inputs,
  // which cost every commit one more 3 ms pacing interval (18 ms).
  // Realigning a stream behind an input that just missed it keeps 15 ms.
  constexpr int kReplicas = 48;
  EngineCluster c(small(kReplicas, 14));
  c.run_for(seconds(2));
  ASSERT_TRUE(c.converged_primary(c.all_ids()));
  Simulator& sim = c.sim();
  const SimTime from = sim.now() + millis(300);
  const SimTime until = from + millis(600);
  std::vector<SimDuration> latencies;
  std::function<void(NodeId)> issue = [&](NodeId id) {
    const SimTime t0 = sim.now();
    if (t0 >= until) return;
    c.engine(id).submit({}, Command::put("k" + std::to_string(id), "v"), id, Semantics::kStrict,
                        [&, id, t0](const Reply&) {
                          if (t0 >= from) latencies.push_back(sim.now() - t0);
                          issue(id);
                        });
  };
  for (NodeId id = 0; id < kReplicas; ++id) issue(id);
  c.run_for(millis(1200));
  ASSERT_GT(latencies.size(), 1000u);
  std::sort(latencies.begin(), latencies.end());
  EXPECT_LT(latencies[latencies.size() / 2], micros(15500));
  EXPECT_LT(latencies[latencies.size() * 99 / 100], micros(16500));
}


TEST(CoreBasic, StaticMajorityLosesPrimaryWhereDlvKeepsIt) {
  // The design choice behind ablation A5: after the primary shrank to
  // {0,1,2}, a further shrink to {0,1} keeps a dynamic-linear-voting
  // primary (2 of the last 3) but a static majority of all 5 does not.
  for (bool dlv : {true, false}) {
    ClusterOptions o = small(5, 41);
    o.node.engine.quorum_mode =
        dlv ? QuorumMode::kDynamicLinearVoting : QuorumMode::kStaticMajority;
    EngineCluster c(o);
    c.run_for(seconds(1));
    c.partition({{0, 1, 2}, {3, 4}});
    c.run_for(seconds(1));
    ASSERT_TRUE(c.converged_primary({0, 1, 2})) << "dlv=" << dlv;  // 3 of 5 either way
    c.partition({{0, 1}, {2}, {3, 4}});
    c.run_for(seconds(1));
    if (dlv) {
      EXPECT_TRUE(c.converged_primary({0, 1}));
    } else {
      EXPECT_EQ(c.engine(0).state(), EngineState::kNonPrim);
      EXPECT_EQ(c.engine(1).state(), EngineState::kNonPrim);
    }
    EXPECT_EQ(c.check_all(), std::nullopt);
  }
}

}  // namespace
}  // namespace tordb::core
