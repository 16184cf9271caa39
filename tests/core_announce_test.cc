// Green lines on the gc stability streams (DESIGN.md §14): every replica's
// green count rides the ACK / STABLE traffic as its gc knowledge word, so
// silent replicas' knowledge still propagates and white trimming and
// body-store GC make progress on asymmetric workloads — including across
// partitions, crashes, recoveries and multi-clique groups — without any
// message of its own under load. Every cluster runs under the online
// safety checker (invariants 6 and 10 watch each trim and word live).
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

/// Drive `count` sequential strict puts through node `via`.
void drive(EngineCluster& c, NodeId via, int count) {
  for (int i = 0; i < count; ++i) {
    c.engine(via).submit({}, Command::put("k" + std::to_string(i % 8), std::to_string(i)), 1,
                         Semantics::kStrict, nullptr);
    c.run_for(millis(20));
  }
}

std::uint64_t word_only_sends(EngineCluster& c) {
  std::uint64_t s = 0;
  for (NodeId n : c.all_ids()) s += c.engine(n).group_comm().stats().word_only_sends;
  return s;
}

TEST(CoreKnowledge, SilentReplicasStillTrim) {
  // Only node 0 originates actions. Nodes 1 and 2 never multicast anything
  // on their own, so their green lines reach the others only as words on
  // their ACKs.
  EngineCluster c(small(3));
  c.run_for(seconds(1));
  drive(c, 0, 30);
  c.run_for(seconds(1));  // quiet: the lazy flushes carry the last words

  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_GE(c.engine(n).green_count(), 30) << "node " << n;
    EXPECT_EQ(c.engine(n).white_line(), c.engine(n).green_count()) << "node " << n;
    // Trimmed bodies are gone: only pending reds (none at quiescence) stay.
    EXPECT_EQ(c.engine(n).action_log().stored_bodies(), 0u) << "node " << n;
    EXPECT_EQ(c.engine(n).stats().announces_sent, 0u) << "node " << n;
  }
}

TEST(CoreKnowledge, WhiteTrimOffKeepsBodies) {
  // white_trim = false, the baseline bench_memory measures at scale: the
  // same asymmetric workload still learns the white line, but every body
  // stays stored.
  ClusterOptions o = small(3);
  o.node.engine.white_trim = false;
  EngineCluster c(o);
  c.run_for(seconds(1));
  drive(c, 0, 30);
  c.run_for(seconds(1));

  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_GE(c.engine(n).green_count(), 30) << "node " << n;
    EXPECT_EQ(c.engine(n).white_line(), c.engine(n).green_count()) << "node " << n;
    EXPECT_EQ(c.engine(n).action_log().white_count(), 0) << "node " << n;
    EXPECT_GE(c.engine(n).action_log().stored_bodies(), 30u) << "node " << n;
  }
}

TEST(CoreKnowledge, PartitionPinsTrimUntilHeal) {
  // A partitioned member is still in the server set, so the majority side
  // must NOT trim past what it can know: words are lower-bound claims, and
  // none cross the cut. After the heal the exchange refreshes everyone's
  // lines, words flow again, and trimming catches up everywhere.
  EngineCluster c(small(3));
  c.run_for(seconds(1));
  drive(c, 0, 10);
  c.run_for(seconds(1));
  const std::int64_t pre = c.engine(0).green_count();
  ASSERT_EQ(c.engine(0).white_line(), pre);

  c.partition({{0, 1}, {2}});
  c.run_for(millis(500));
  drive(c, 0, 20);
  c.run_for(seconds(1));
  EXPECT_GE(c.engine(0).green_count(), pre + 20);
  // Node 2 missed everything after the cut; the white line may not pass it.
  EXPECT_LE(c.engine(0).white_line(), pre);
  EXPECT_LE(c.engine(0).action_log().white_count(), pre);

  c.heal();
  c.run_for(seconds(2));
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(c.engine(n).green_count(), c.engine(0).green_count()) << "node " << n;
    EXPECT_EQ(c.engine(n).white_line(), c.engine(n).green_count()) << "node " << n;
  }
}

TEST(CoreKnowledge, CrashedReplicaRejoinsWithStaleGreenLine) {
  // Node 2 crashes after marking greens, the survivors keep committing,
  // then node 2 recovers — possibly below its pre-crash green line (greens
  // are logged asynchronously). The exchange state-transfers it past the
  // trimmed history, words flow again, and trimming proceeds at every
  // node. The live checker watches invariant 6 throughout: survivors may
  // trim on node 2's pre-crash claims (high-water), never beyond them.
  EngineCluster c(small(3));
  c.run_for(seconds(1));
  drive(c, 0, 10);
  c.run_for(seconds(1));

  c.crash(2);
  c.run_for(millis(500));
  drive(c, 0, 20);
  c.run_for(seconds(1));
  const std::int64_t survivors_green = c.engine(0).green_count();
  EXPECT_GE(survivors_green, 30);

  c.recover(2);
  c.run_for(seconds(3));
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_GE(c.engine(n).green_count(), survivors_green) << "node " << n;
    EXPECT_EQ(c.engine(n).white_line(), c.engine(n).green_count()) << "node " << n;
  }
  EXPECT_TRUE(c.converged_primary(c.all_ids()));
}

TEST(CoreKnowledge, QuiescentClusterSendsNothing) {
  // Words never arm a stream, and a lazy flush fires once per uncarried
  // word. A cluster with no traffic after it settles must go fully quiet:
  // not one network message (run-until-idle still terminates).
  EngineCluster c(small(3));
  c.run_for(seconds(1));
  drive(c, 0, 5);
  c.run_for(seconds(2));
  const std::uint64_t settled = c.net().stats().messages_sent;
  c.run_for(seconds(30));  // long quiet stretch: no new greens anywhere
  EXPECT_EQ(c.net().stats().messages_sent, settled);
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(c.engine(n).white_line(), c.engine(n).green_count()) << "node " << n;
  }
}

TEST(CoreKnowledge, MultiCliqueNonLeadersTrimThroughStable) {
  // 24 members form three cliques of 8 (DESIGN.md §16). A non-leader hears
  // words directly only from its own clique; the rest of the group reaches
  // it as the group-wide minimum word on its leader's STABLE stream.
  EngineCluster c(small(24, 3));
  c.run_for(seconds(2));
  drive(c, 0, 30);
  c.run_for(seconds(1));

  const std::int64_t green = c.engine(0).green_count();
  EXPECT_GE(green, 30);
  for (NodeId n : c.all_ids()) {
    EXPECT_EQ(c.engine(n).green_count(), green) << "node " << n;
    EXPECT_EQ(c.engine(n).white_line(), green) << "node " << n;
    EXPECT_EQ(c.engine(n).action_log().stored_bodies(), 0u) << "node " << n;
    // The floor bounds all 24 members, so it is the group-wide minimum.
    EXPECT_EQ(c.engine(n).group_comm().knowledge_floor(), green) << "node " << n;
  }
  // Node 17 leads no clique (leaders are 0, 8, 16) and node 0 is outside
  // its clique: it learns node 0's word only through the stable stream.
  EXPECT_EQ(c.engine(17).group_comm().knowledge_of(0), green);
}

TEST(CoreKnowledge, SteadyLoadSendsNoWordOnlyMessages) {
  // Rule 1 of DESIGN.md §14: under load every word rides an ACK or STABLE
  // send the prefixes cause anyway; the lazy flush only re-arms. Closed
  // loops at every member of a one-clique and a three-clique group.
  for (const int n : {5, 24}) {
    EngineCluster c(small(n, 7));
    c.run_for(seconds(2));
    auto loop = std::make_shared<std::function<void(NodeId)>>();
    bool on = true;
    *loop = [&c, &on, loop](NodeId id) {
      if (!on) return;
      c.engine(id).submit({}, Command::add("k" + std::to_string(id % 4), 1), id,
                          Semantics::kStrict, [loop, id](const Reply&) { (*loop)(id); });
    };
    for (NodeId id : c.all_ids()) (*loop)(id);
    c.run_for(millis(500));  // warm up past the install's flushes
    const std::uint64_t before = word_only_sends(c);
    const std::int64_t green_before = c.engine(0).green_count();
    c.run_for(seconds(2));
    EXPECT_EQ(word_only_sends(c), before) << n << " replicas";
    EXPECT_GT(c.engine(0).green_count(), green_before + 100) << n << " replicas";
    // Trimming keeps up under load: bodies stay a bounded window.
    for (NodeId id : c.all_ids()) {
      EXPECT_LT(c.engine(id).green_count() - c.engine(id).white_line(), 40 * n)
          << n << " replicas, node " << id;
    }
    on = false;
    c.run_for(seconds(1));
    *loop = nullptr;  // the closure holds `loop` itself: break the cycle
  }
}

}  // namespace
}  // namespace tordb::core
