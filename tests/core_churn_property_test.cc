// Randomized property tests with *dynamic membership churn*: on top of
// traffic, partitions, merges, crashes and recoveries, the schedule also
// instantiates brand-new replicas (§5.2 join with snapshot transfer) and
// permanently removes members (§5.1 PERSISTENT_LEAVE). The paper's dynamic
// safety theorems (Global Total Order and Global FIFO Order across
// membership generations) are asserted throughout, and liveness at
// quiescence.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>

#include "obs_enable.h"  // run every cluster under the online safety checker
#include "db/database.h"
#include "util/rng.h"
#include "workload/cluster.h"

namespace tordb::core {
namespace {

using db::Command;
using workload::ClusterOptions;
using workload::EngineCluster;

struct Scenario {
  std::uint64_t seed;
  int base_nodes;
  int steps;
  int max_joins;
  /// Half of the crashes hit the first member of a gc clique among the
  /// running members (a stability leader; the first is also the sequencer).
  bool leader_crashes = false;
};

class ChurnSchedule : public ::testing::TestWithParam<Scenario> {};

TEST_P(ChurnSchedule, DynamicSafetyAndLiveness) {
  const Scenario sc = GetParam();
  Rng rng(sc.seed * 104729);
  ClusterOptions o;
  o.replicas = sc.base_nodes;
  o.seed = sc.seed;
  EngineCluster c(o);
  c.run_for(seconds(1));

  int total_nodes = sc.base_nodes;
  int joins_left = sc.max_joins;
  std::set<NodeId> down;
  std::set<NodeId> leave_requested;

  auto running_members = [&] {
    std::vector<NodeId> v;
    for (NodeId i = 0; i < total_nodes; ++i) {
      if (c.node(i).running() && !c.node(i).has_left()) v.push_back(i);
    }
    return v;
  };

  auto random_partition = [&] {
    const int k = static_cast<int>(rng.next_range(1, 3));
    std::vector<std::vector<NodeId>> comps(static_cast<std::size_t>(k));
    for (NodeId i = 0; i < total_nodes; ++i) {
      comps[rng.next_below(static_cast<std::uint64_t>(k))].push_back(i);
    }
    std::vector<std::vector<NodeId>> nonempty;
    for (auto& comp : comps) {
      if (!comp.empty()) nonempty.push_back(std::move(comp));
    }
    c.partition(nonempty);
  };

  for (int step = 0; step < sc.steps; ++step) {
    const auto members = running_members();
    const int what = static_cast<int>(rng.next_below(12));
    if (what < 5 && !members.empty()) {
      const int burst = static_cast<int>(rng.next_range(1, 4));
      for (int b = 0; b < burst; ++b) {
        const NodeId n = members[rng.next_below(members.size())];
        c.engine(n).submit({}, Command::add("total", 1), n, Semantics::kStrict, nullptr);
      }
    } else if (what < 7) {
      random_partition();
    } else if (what == 7) {
      c.heal();
    } else if (what == 8 && members.size() > 2) {
      std::size_t at = rng.next_below(members.size());
      if (sc.leader_crashes && rng.chance(0.5)) {
        at = std::min(at / 8, std::max<std::size_t>(1, members.size() / 8) - 1) * 8;
      }
      const NodeId victim = members[at];
      c.crash(victim);
      down.insert(victim);
    } else if (what == 9 && !down.empty()) {
      const NodeId n = *down.begin();
      c.recover(n);
      down.erase(n);
    } else if (what == 10 && joins_left > 0 && !members.empty()) {
      --joins_left;
      const NodeId id = static_cast<NodeId>(total_nodes++);
      auto& joiner = c.add_dormant(id);
      std::vector<NodeId> peers;
      for (int p = 0; p < 3 && p < static_cast<int>(members.size()); ++p) {
        peers.push_back(members[rng.next_below(members.size())]);
      }
      joiner.join_via(peers);
    } else if (what == 11 && members.size() > 3 &&
               leave_requested.size() + 1 < members.size()) {
      const NodeId leaver = members[rng.next_below(members.size())];
      if (!leave_requested.count(leaver)) {
        leave_requested.insert(leaver);
        c.engine(leaver).request_leave();
      }
    }
    c.run_for(millis(static_cast<std::int64_t>(rng.next_range(10, 250))));
    ASSERT_EQ(c.check_green_prefix_consistency(), std::nullopt) << "seed " << sc.seed;
    ASSERT_EQ(c.check_single_primary(), std::nullopt) << "seed " << sc.seed;
    // §6 dirty query: answered in place when no red is pending, from the
    // overlay otherwise; both must equal the reference overlay.
    for (const NodeId n : running_members()) {
      std::optional<std::string> read;
      c.engine(n).submit_query(Command::get("total"), QueryMode::kDirty,
                               [&](const Reply& r) { read = r.reads.at(0); });
      ASSERT_EQ(read, c.engine(n).dirty_database().get("total"))
          << "node " << n << " step " << step << " seed " << sc.seed;
    }
  }

  // Quiesce.
  for (NodeId n : down) c.recover(n);
  c.heal();
  c.run_for(seconds(15));

  // Everything that is still a member converged into one primary.
  std::vector<NodeId> active;
  for (NodeId i = 0; i < total_nodes; ++i) {
    if (c.node(i).running() && !c.node(i).has_left()) active.push_back(i);
  }
  ASSERT_GE(active.size(), 2u) << "seed " << sc.seed;
  EXPECT_TRUE(c.converged_primary(active)) << "seed " << sc.seed;
  EXPECT_EQ(c.check_all(), std::nullopt) << "seed " << sc.seed;
  // All requested leaves eventually completed (liveness of the green order).
  for (NodeId l : leave_requested) {
    EXPECT_TRUE(c.node(l).has_left()) << "leave of " << l << " never completed, seed "
                                      << sc.seed;
  }
  for (std::size_t i = 1; i < active.size(); ++i) {
    EXPECT_EQ(c.engine(active[i]).db_digest(), c.engine(active[0]).db_digest());
  }
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> v;
  for (std::uint64_t s = 101; s <= 124; ++s) v.push_back({s, 5, 35, 2});
  for (std::uint64_t s = 201; s <= 214; ++s) v.push_back({s, 7, 30, 3});
  for (std::uint64_t s = 301; s <= 306; ++s) v.push_back({s, 9, 40, 3});
  // Multi-clique gc groups: partitions cut across cliques, leaders crash.
  for (std::uint64_t s = 401; s <= 404; ++s) v.push_back({s, 17, 40, 3, true});
  for (std::uint64_t s = 501; s <= 504; ++s) v.push_back({s, 24, 40, 3, true});
  // Leavers that take in their own green leave through an exchange's
  // catch-up snapshot rather than on_leave_green (5.1 line 13).
  for (std::uint64_t s : {1127, 1134, 1300, 1617, 1637, 1791, 1839, 1849, 2097, 2202, 2239, 2250,
                          2423, 2533, 2847, 2864, 2874, 2889}) {
    v.push_back({s, static_cast<int>(9 + s % 18), 40, 3, s % 2 == 0});
  }
  return v;
}

TEST(ChurnLeave, LeaveThatTurnedGreenWhileDownEndsInTheExit) {
  // Node 3 is removed while it is down (§5.1's administrative leave). The
  // others trim the bodies past the leave, so on recovery the exchange
  // hands node 3 a catch-up snapshot whose server set lacks it. It must
  // exit as on_leave_green would: state kLeft, engine gone, group left.
  ClusterOptions o;
  o.replicas = 4;
  o.seed = 5;
  o.node.storage.mode = SyncMode::kDelayed;  // the adopted snapshot reaches the disk
  EngineCluster c(o);
  c.run_for(seconds(1));
  c.crash(3);
  c.run_for(millis(500));
  ASSERT_TRUE(c.converged_primary({0, 1, 2}));
  c.engine(0).remove_replica(3);
  for (int i = 0; i < 20; ++i) {
    c.engine(i % 3).submit({}, Command::add("total", 1), i % 3, Semantics::kStrict, nullptr);
  }
  c.run_for(seconds(1));
  ASSERT_EQ(c.engine(0).server_set(), (std::vector<NodeId>{0, 1, 2}));

  c.recover(3);
  c.run_for(seconds(2));
  EXPECT_TRUE(c.node(3).has_left());
  EXPECT_FALSE(c.node(3).running());
  bool exited = false;
  for (const obs::TraceEvent& e : c.trace_bus()->ring_snapshot()) {
    exited |= e.node == 3 && e.kind == obs::EventKind::kStateTransition &&
              e.b == static_cast<std::int64_t>(EngineState::kLeft);
  }
  EXPECT_TRUE(exited);
  EXPECT_TRUE(c.converged_primary({0, 1, 2}));

  // A restart of the departed node recovers the adopted snapshot, which
  // leaves it out, so recovery ends in the exit too.
  c.crash(3);
  c.recover(3);
  c.run_for(seconds(1));
  EXPECT_FALSE(c.node(3).running());
  EXPECT_TRUE(c.converged_primary({0, 1, 2}));
  EXPECT_EQ(c.check_all(), std::nullopt);
}

INSTANTIATE_TEST_SUITE_P(Churn, ChurnSchedule, ::testing::ValuesIn(scenarios()),
                         [](const ::testing::TestParamInfo<Scenario>& info) {
                           return "seed" + std::to_string(info.param.seed) + "_n" +
                                  std::to_string(info.param.base_nodes);
                         });

}  // namespace
}  // namespace tordb::core
