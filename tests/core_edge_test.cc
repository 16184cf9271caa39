// Edge cases of the engine's client interface and membership hooks that
// the scenario-level suites do not isolate.
#include <gtest/gtest.h>

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

TEST(CoreEdge, SubmitAfterLeaveIsRejected) {
  EngineCluster c(small(3));
  c.run_for(seconds(1));
  c.engine(2).request_leave();
  c.run_for(seconds(1));
  ASSERT_TRUE(c.node(2).has_left());
  // The node's engine is gone; submits must go to surviving members.
  bool ok = false;
  c.engine(0).submit({}, Command::put("k", "v"), 1, Semantics::kStrict,
                     [&](const Reply& r) { ok = !r.aborted; });
  c.run_for(millis(300));
  EXPECT_TRUE(ok);
}

// A direct-channel message whose type byte names no join-protocol message
// is refused, not silently dropped.
TEST(CoreEdge, UnknownDirectMessageTypeThrows) {
  EngineCluster c(small(3));
  c.run_for(millis(500));
  const auto unknown = static_cast<std::uint8_t>(static_cast<int>(DirectMsgType::kSnapshot) + 1);
  c.net().send(0, 1, Bytes{unknown}, Channel::kDirect);
  EXPECT_THROW(c.run_for(millis(50)), SerdeError);
}

TEST(CoreEdge, DuplicateJoinAnnouncementsAreIdempotent) {
  // Two members announce the same joiner (the joiner retried against a
  // second representative before the first announcement went green): only
  // the first ordered PERSISTENT_JOIN defines the entry point; the second
  // is ignored (§5.2).
  EngineCluster c(small(3));
  c.run_for(seconds(1));
  auto& joiner = c.add_dormant(3);
  // Short retry timeout makes the joiner ask a second representative
  // while the first announcement is still in flight.
  joiner.join_via({0, 1});
  c.engine(1).handle_join_request(3);  // simulate the duplicate directly
  c.run_for(seconds(2));
  ASSERT_TRUE(joiner.running());
  EXPECT_TRUE(c.converged_primary({0, 1, 2, 3}));
  // Server sets contain the joiner exactly once.
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(std::count(c.engine(i).server_set().begin(), c.engine(i).server_set().end(), 3),
              1);
  }
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(CoreEdge, TwoJoinersSimultaneously) {
  EngineCluster c(small(3));
  c.run_for(seconds(1));
  auto& j3 = c.add_dormant(3);
  auto& j4 = c.add_dormant(4);
  j3.join_via({0});
  j4.join_via({1});
  c.run_for(seconds(3));
  ASSERT_TRUE(j3.running());
  ASSERT_TRUE(j4.running());
  EXPECT_TRUE(c.converged_primary({0, 1, 2, 3, 4}));
  EXPECT_EQ(c.engine(0).server_set(), (std::vector<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(CoreEdge, LeaveWhileExchangeBuffered) {
  // A leave requested during a membership change is buffered and executed
  // once the engine is back in Prim/NonPrim (A.8 Handle_buff_requests).
  EngineCluster c(small(4));
  c.run_for(seconds(1));
  c.partition({{0, 1, 2}, {3}});
  c.run_for(millis(3));  // exchange starting
  c.engine(2).request_leave();
  c.run_for(seconds(2));
  EXPECT_TRUE(c.node(2).has_left());
  EXPECT_TRUE(c.converged_primary({0, 1}));
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(CoreEdge, EmptyUpdateActionsOrderFine) {
  // A pure-query action (empty update part) still flows through the green
  // order and returns its reads.
  EngineCluster c(small(3));
  c.run_for(seconds(1));
  c.engine(0).submit({}, Command::put("k", "v"), 1, Semantics::kStrict, nullptr);
  c.run_for(millis(300));
  std::vector<std::string> reads;
  c.engine(1).submit(Command::get("k"), {}, 1, Semantics::kStrict,
                     [&](const Reply& r) { reads = r.reads; });
  c.run_for(millis(300));
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0], "v");
  EXPECT_EQ(c.engine(2).green_count(), 2);  // both ordered
}

TEST(CoreEdge, WeakQueryWithFailedCheckReportsAbort) {
  EngineCluster c(small(3));
  c.run_for(seconds(1));
  bool aborted = false;
  db::Command q;
  q.ops.push_back(db::Op{db::OpType::kCheck, "missing", "expected", 0});
  q.ops.push_back(db::Op{db::OpType::kGet, "missing", "", 0});
  c.engine(0).submit_query(q, QueryMode::kWeak, [&](const Reply& r) { aborted = r.aborted; });
  c.run_for(millis(10));
  EXPECT_TRUE(aborted);
}

TEST(CoreEdge, ManyPendingStrictQueriesFlushTogether) {
  EngineCluster c(small(5));
  c.run_for(seconds(1));
  c.partition({{0, 1, 2}, {3, 4}});
  c.run_for(millis(500));
  int answered = 0;
  for (int i = 0; i < 10; ++i) {
    c.engine(4).submit_query(Command::get("k"), QueryMode::kStrict,
                             [&](const Reply&) { ++answered; });
  }
  c.run_for(millis(500));
  EXPECT_EQ(answered, 0);
  c.heal();
  c.run_for(seconds(2));
  EXPECT_EQ(answered, 10);
}

TEST(CoreEdge, GreenActionAtOutOfRange) {
  // Trimming off: the probe below wants position 1 still untrimmed, and
  // the knowledge words would advance the white line past it.
  ClusterOptions o = small(3);
  o.node.engine.white_trim = false;
  EngineCluster c(o);
  c.run_for(seconds(1));
  c.engine(0).submit({}, Command::put("k", "v"), 1, Semantics::kStrict, nullptr);
  c.run_for(millis(300));
  EXPECT_EQ(c.engine(0).green_action_at(0).server_id, kNoNode);
  EXPECT_EQ(c.engine(0).green_action_at(99).server_id, kNoNode);
  EXPECT_EQ(c.engine(0).green_action_at(1).server_id, 0);
}

TEST(CoreEdge, RemoveReplicaOfUnknownIdIsHarmless) {
  EngineCluster c(small(3));
  c.run_for(seconds(1));
  c.engine(0).remove_replica(99);  // not a member
  c.run_for(millis(500));
  EXPECT_TRUE(c.converged_primary(c.all_ids()));
  EXPECT_EQ(c.engine(1).server_set(), (std::vector<NodeId>{0, 1, 2}));
}

TEST(CoreEdge, CommutativeRepliesEvenWithoutQuorumForever) {
  // A component that can never gain quorum still acknowledges commutative
  // updates — the §6 availability guarantee doesn't depend on the primary.
  EngineCluster c(small(5));
  c.run_for(seconds(1));
  c.partition({{3, 4}, {0, 1, 2}});
  c.run_for(millis(500));
  int acked = 0;
  for (int i = 0; i < 5; ++i) {
    c.engine(3).submit({}, Command::add("stock", 1), 1, Semantics::kCommutative,
                       [&](const Reply&) { ++acked; });
    c.run_for(millis(50));
  }
  EXPECT_EQ(acked, 5);
  EXPECT_EQ(c.engine(3).green_count(), 0);  // still no global order
}

TEST(CoreEdge, WhiteTrimDisabledKeepsBodies) {
  ClusterOptions o = small(3);
  o.node.engine.white_trim = false;
  EngineCluster c(o);
  c.run_for(seconds(1));
  for (int i = 0; i < 20; ++i) {
    for (NodeId n = 0; n < 3; ++n) {
      c.engine(n).submit({}, Command::add("n", 1), 1, Semantics::kStrict, nullptr);
    }
    c.run_for(millis(15));
  }
  c.run_for(millis(500));
  EXPECT_EQ(c.engine(0).stats().actions_white_trimmed, 0u);
  // Every green position still has a retrievable id.
  for (std::int64_t p = 1; p <= c.engine(0).green_count(); ++p) {
    EXPECT_NE(c.engine(0).green_action_at(p).server_id, kNoNode);
  }
}

}  // namespace
}  // namespace tordb::core
