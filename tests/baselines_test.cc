// The two comparison protocols of the paper's §7: replicated two-phase
// commit and the COReL-style engine.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/corel.h"
#include "baselines/twopc.h"
#include "db/database.h"

namespace tordb::baselines {
namespace {

using db::Command;

template <typename Replica, typename Params>
struct BaselineCluster {
  BaselineCluster(int n, Params params, std::uint64_t seed = 1) : sim(seed), net(sim) {
    std::vector<NodeId> all;
    for (NodeId i = 0; i < n; ++i) all.push_back(i);
    for (NodeId i = 0; i < n; ++i) net.add_node(i);
    for (NodeId i = 0; i < n; ++i) {
      replicas.push_back(std::make_unique<Replica>(net, i, all, params));
    }
  }
  Simulator sim;
  Network net;
  std::vector<std::unique_ptr<Replica>> replicas;
};

using TwoPcCluster = BaselineCluster<TwoPcReplica, TwoPcParams>;
using CorelCluster = BaselineCluster<CorelReplica, CorelParams>;

TEST(TwoPc, CommitsAndApplies) {
  TwoPcCluster c(4, {});
  bool ok = false;
  c.replicas[0]->submit(Command::put("k", "v"), [&](bool committed) { ok = committed; });
  c.sim.run_for(millis(200));
  EXPECT_TRUE(ok);
  for (auto& r : c.replicas) EXPECT_EQ(r->database().get("k"), "v");
}

TEST(TwoPc, TwoForcedWritesOnCriticalPath) {
  TwoPcCluster c(3, {});
  SimTime done_at = -1;
  c.replicas[0]->submit(Command::put("k", "v"), [&](bool) { done_at = c.sim.now(); });
  c.sim.run_for(millis(200));
  const SimDuration force = kForceLatency;
  // Prepare force and commit force are sequential: latency >= 2 forces.
  EXPECT_GE(done_at, 2 * force);
  EXPECT_LT(done_at, 3 * force);
}

TEST(TwoPc, ConcurrentTransactionsAllCommit) {
  TwoPcCluster c(5, {});
  int committed = 0;
  for (int i = 0; i < 10; ++i) {
    for (auto& r : c.replicas) {
      r->submit(Command::add("n", 1), [&](bool ok) { committed += ok ? 1 : 0; });
    }
  }
  c.sim.run_for(seconds(2));
  EXPECT_EQ(committed, 50);
  EXPECT_EQ(c.replicas[0]->stats().committed, 50u);
}

TEST(TwoPc, AbortsWhenPartitioned) {
  // The paper's availability argument: 2PC requires full connectivity.
  TwoPcCluster c(4, {});
  c.net.set_components({{0, 1, 2}, {3}});
  bool decided = false, ok = true;
  c.replicas[0]->submit(Command::put("k", "v"), [&](bool committed) {
    decided = true;
    ok = committed;
  });
  c.sim.run_for(seconds(1));
  EXPECT_TRUE(decided);
  EXPECT_FALSE(ok);  // timed out and aborted
  EXPECT_EQ(c.replicas[0]->database().get("k"), "");
}

TEST(Corel, CommitsAndApplies) {
  CorelCluster c(4, {});
  c.sim.run_for(millis(500));  // views settle
  bool ok = false;
  c.replicas[1]->submit(Command::put("k", "v"), [&](bool committed) { ok = committed; });
  c.sim.run_for(millis(200));
  EXPECT_TRUE(ok);
  for (auto& r : c.replicas) EXPECT_EQ(r->database().get("k"), "v");
}

TEST(Corel, OneForcedWriteOnCriticalPath) {
  CorelCluster c(3, {});
  c.sim.run_for(millis(500));
  const SimTime start = c.sim.now();
  SimTime done_at = -1;
  c.replicas[0]->submit(Command::put("k", "v"), [&](bool) { done_at = c.sim.now(); });
  c.sim.run_for(millis(200));
  const SimDuration force = kForceLatency;
  const SimDuration latency = done_at - start;
  EXPECT_GE(latency, force);      // one force (parallel at all replicas)
  EXPECT_LT(latency, 2 * force);  // but not two sequential ones
}

TEST(Corel, EveryReplicaAcksEveryAction) {
  CorelCluster c(4, {});
  c.sim.run_for(millis(500));
  for (int i = 0; i < 5; ++i) {
    c.replicas[0]->submit(Command::add("n", 1), nullptr);
  }
  c.sim.run_for(seconds(1));
  for (auto& r : c.replicas) {
    EXPECT_EQ(r->stats().acks_sent, 5u) << "replica " << r->id();
    EXPECT_EQ(r->database().get("n"), "5");
  }
}

TEST(Corel, TotalOrderAcrossSubmitters) {
  CorelCluster c(5, {});
  c.sim.run_for(millis(500));
  int committed = 0;
  for (int i = 0; i < 10; ++i) {
    for (auto& r : c.replicas) {
      r->submit(Command::append("log", std::to_string(r->id())),
                [&](bool ok) { committed += ok ? 1 : 0; });
    }
    c.sim.run_for(millis(5));
  }
  c.sim.run_for(seconds(1));
  EXPECT_EQ(committed, 50);
  const std::string ref = c.replicas[0]->database().get("log");
  EXPECT_EQ(ref.size(), 50u);
  for (auto& r : c.replicas) EXPECT_EQ(r->database().get("log"), ref);
}

TEST(Corel, CommitRequiresAcksFromWholeView) {
  // An action submitted as a partition hits cannot commit until the view
  // change removes the unreachable replica from the required ack set; it
  // then commits in the reduced view.
  CorelCluster c(3, {});
  c.sim.run_for(millis(500));
  const ConfigId old_view = c.replicas[0]->group_comm().config().id;
  c.net.set_components({{0, 1}, {2}});
  bool decided = false;
  SimTime decided_at = 0;
  c.replicas[0]->submit(Command::put("k", "v"), [&](bool) {
    decided = true;
    decided_at = c.sim.now();
  });
  c.sim.run_for(seconds(1));
  ASSERT_TRUE(decided);
  // The commit happened in the post-partition view, not the old one.
  EXPECT_NE(c.replicas[0]->group_comm().config().id, old_view);
  EXPECT_EQ(c.replicas[0]->group_comm().config().members, (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(c.replicas[1]->database().get("k"), "v");
  EXPECT_EQ(c.replicas[2]->database().get("k"), "");  // detached, never got it
  (void)decided_at;
}

}  // namespace
}  // namespace tordb::baselines
