// Targeted tests of the exchange phase (paper A.4–A.6) and its edge cases:
// retransmission interleavings, the catch-up state transfer, white-line
// trimming interplay, and request buffering across state-machine states.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "obs_enable.h"  // run every cluster under the online safety checker
#include "db/database.h"
#include "util/rng.h"
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

TEST(CoreExchange, DivergedComponentsMergeBothWays) {
  // Both sides accumulate reds; the exchange must interleave green and red
  // retransmissions correctly in both directions.
  EngineCluster c(small(5));
  c.run_for(seconds(1));
  c.partition({{0, 1, 2}, {3, 4}});
  c.run_for(millis(400));
  // Majority commits greens; minority queues reds from two creators.
  for (int i = 0; i < 8; ++i) {
    c.engine(i % 3).submit({}, Command::add("g", 1), 1, Semantics::kStrict, nullptr);
    c.engine(3 + (i % 2)).submit({}, Command::add("r", 1), 2, Semantics::kStrict, nullptr);
    c.run_for(millis(30));
  }
  c.run_for(millis(300));
  ASSERT_EQ(c.engine(0).database().get("g"), "8");
  ASSERT_GT(c.engine(3).red_count(), 0u);
  c.heal();
  c.run_for(seconds(2));
  ASSERT_TRUE(c.converged_primary(c.all_ids()));
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_EQ(c.engine(i).database().get("g"), "8") << i;
    EXPECT_EQ(c.engine(i).database().get("r"), "8") << i;
  }
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(CoreExchange, ThreeWayMergeCollectsAllReds) {
  EngineCluster c(small(6, 3));
  c.run_for(seconds(1));
  c.partition({{0, 1}, {2, 3}, {4, 5}});
  c.run_for(millis(400));
  // No quorum anywhere (2 of 6 each); every component queues reds.
  for (NodeId i = 0; i < 6; ++i) {
    c.engine(i).submit({}, Command::add("n", 1), i, Semantics::kStrict, nullptr);
  }
  c.run_for(millis(300));
  for (NodeId i = 0; i < 6; ++i) {
    EXPECT_EQ(c.engine(i).state(), EngineState::kNonPrim) << i;
  }
  c.heal();
  c.run_for(seconds(2));
  ASSERT_TRUE(c.converged_primary(c.all_ids()));
  EXPECT_EQ(c.engine(0).database().get("n"), "6");
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(CoreExchange, StaggeredMergesPropagateByEventualPath) {
  // Paper §3.1: information propagates by eventual path — reds learned in a
  // non-primary merge reach the primary through a later merge even though
  // their creator never talks to the primary directly.
  EngineCluster c(small(5, 7));
  c.run_for(seconds(1));
  c.partition({{0, 1, 2}, {3}, {4}});
  c.run_for(millis(400));
  bool creator_replied = false;
  c.engine(4).submit({}, Command::put("lonely", "action"), 1, Semantics::kStrict,
                     [&](const Reply&) { creator_replied = true; });
  c.run_for(millis(300));
  // {3} and {4} merge: node 3 learns node 4's red action (still no quorum).
  c.partition({{0, 1, 2}, {3, 4}});
  c.run_for(millis(500));
  EXPECT_GT(c.engine(3).red_count(), 0u);
  // Now node 4 is isolated again; node 3 joins the primary and carries the
  // action with it.
  c.partition({{0, 1, 2, 3}, {4}});
  c.run_for(seconds(1));
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_EQ(c.engine(i).database().get("lonely"), "action") << i;
  }
  // The creator itself is still cut off and unanswered...
  EXPECT_FALSE(creator_replied);
  c.heal();
  c.run_for(seconds(1));
  EXPECT_TRUE(creator_replied);  // ...until it merges and sees its green.
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(CoreExchange, RequestsBufferedDuringExchangeAreServed) {
  EngineCluster c(small(4, 9));
  c.run_for(seconds(1));
  // Trigger a view change, then submit while the exchange is in progress.
  c.partition({{0, 1, 2}, {3}});
  c.run_for(millis(3));  // detection fired; exchange starting
  int replies = 0;
  for (int i = 0; i < 5; ++i) {
    c.engine(0).submit({}, Command::add("buffered", 1), 1, Semantics::kStrict,
                       [&](const Reply&) { ++replies; });
  }
  c.run_for(seconds(1));
  EXPECT_EQ(replies, 5);
  EXPECT_EQ(c.engine(1).database().get("buffered"), "5");
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(CoreExchange, WhiteTrimmedHistoryStillExchangesViaCatchup) {
  // A replica that trimmed white bodies can still bring a straggler up via
  // the snapshot-based catch-up if its white line moved past the
  // straggler's green count. Force this: joiner inherits a snapshot (its
  // whole prefix is body-less) and must update a straggler alone.
  EngineCluster c(small(3, 11));
  c.run_for(seconds(1));
  for (int i = 0; i < 12; ++i) {
    c.engine(0).submit({}, Command::add("n", 1), 1, Semantics::kStrict, nullptr);
    c.run_for(millis(25));
  }
  // Straggler 2 detaches and misses further progress.
  c.partition({{0, 1}, {2}});
  c.run_for(millis(400));
  for (int i = 0; i < 6; ++i) {
    c.engine(0).submit({}, Command::add("n", 1), 1, Semantics::kStrict, nullptr);
    c.run_for(millis(25));
  }
  // Joiner 3 joins the majority via snapshot.
  auto& joiner = c.add_dormant(3);
  c.partition({{0, 1, 3}, {2}});
  joiner.join_via({0});
  c.run_for(seconds(2));
  ASSERT_TRUE(joiner.running());
  const auto snapshots_before = joiner.engine().stats().snapshots_sent;
  // Pair the joiner with the straggler only: the joiner is most updated but
  // holds no bodies => catch-up transfer.
  c.partition({{2, 3}, {0, 1}});
  c.run_for(seconds(2));
  EXPECT_EQ(c.engine(2).green_count(), joiner.engine().green_count());
  EXPECT_EQ(c.engine(2).db_digest(), joiner.engine().db_digest());
  EXPECT_GT(joiner.engine().stats().snapshots_sent, snapshots_before);
  // The exchange's next meta write forced the catch-up record: a restart of
  // the straggler recovers from it, not from its pre-catch-up log.
  const std::int64_t adopted = c.engine(2).green_count();
  c.crash(2);
  c.recover(2);
  EXPECT_GE(c.engine(2).green_count(), adopted);
  c.heal();
  c.run_for(seconds(2));
  EXPECT_TRUE(c.converged_primary({0, 1, 2, 3}));
  EXPECT_EQ(c.engine(2).database().get("n"), "18");
  EXPECT_EQ(c.engine(2).db_digest(), c.engine(0).db_digest());
  EXPECT_EQ(c.engine(2).db_digest(), joiner.engine().db_digest());
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(CoreExchange, ExchangeInterruptedByAnotherPartition) {
  // A.4/A.6: a transitional configuration during the exchange sends members
  // back to NonPrim; the next regular configuration restarts the exchange.
  EngineCluster c(small(5, 13));
  c.run_for(seconds(1));
  c.engine(0).submit({}, Command::put("k", "v"), 1, Semantics::kStrict, nullptr);
  c.run_for(millis(200));
  // Cascade: split, then split differently before the first exchange can
  // complete, then heal.
  c.partition({{0, 1, 2}, {3, 4}});
  c.run_for(millis(4));
  c.partition({{0, 1}, {2, 3}, {4}});
  c.run_for(millis(4));
  c.partition({{0, 3}, {1, 2, 4}});
  c.run_for(millis(4));
  c.heal();
  c.run_for(seconds(2));
  EXPECT_TRUE(c.converged_primary(c.all_ids()));
  EXPECT_EQ(c.engine(4).database().get("k"), "v");
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(CoreExchange, NoQuorumComponentKeepsExchangingKnowledge) {
  // Even components that can never form a primary still synchronize their
  // red knowledge (paper: exchange happens in all components).
  EngineCluster c(small(5, 17));
  c.run_for(seconds(1));
  c.partition({{0, 1}, {2, 3}, {4}});
  c.run_for(millis(400));
  c.engine(0).submit({}, Command::put("a", "1"), 1, Semantics::kStrict, nullptr);
  c.engine(1).submit({}, Command::put("b", "2"), 1, Semantics::kStrict, nullptr);
  c.run_for(millis(300));
  // Both members of the 2-node non-primary component know both reds.
  EXPECT_EQ(c.engine(0).red_count(), 2u);
  EXPECT_EQ(c.engine(1).red_count(), 2u);
  // And their dirty views agree.
  EXPECT_EQ(c.engine(0).dirty_database().digest(), c.engine(1).dirty_database().digest());
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(CoreExchange, SubsetViewSkipsRetransmission) {
  // "if the new membership is a subset of the old one, there is no need for
  // action exchange, as the states are already synchronized."
  EngineCluster c(small(4, 19));
  c.run_for(seconds(1));
  for (int i = 0; i < 5; ++i) {
    c.engine(0).submit({}, Command::add("n", 1), 1, Semantics::kStrict, nullptr);
    c.run_for(millis(30));
  }
  c.run_for(millis(300));
  const auto retrans_before = c.engine(0).stats().green_retrans_sent +
                              c.engine(0).stats().red_retrans_sent;
  c.partition({{0, 1, 2}, {3}});
  c.run_for(seconds(1));
  ASSERT_TRUE(c.converged_primary({0, 1, 2}));
  const auto retrans_after = c.engine(0).stats().green_retrans_sent +
                             c.engine(0).stats().red_retrans_sent;
  EXPECT_EQ(retrans_after, retrans_before);  // identical states: nothing to send
}

TEST(CoreExchange, LargeDivergenceExchanges) {
  // Volume test: hundreds of reds and greens across a merge.
  EngineCluster c(small(4, 23));
  c.run_for(seconds(1));
  c.partition({{0, 1, 2}, {3}});
  c.run_for(millis(400));
  for (int i = 0; i < 120; ++i) {
    c.engine(i % 3).submit({}, Command::add("g", 1), 1, Semantics::kStrict, nullptr);
    c.engine(3).submit({}, Command::add("r", 1), 2, Semantics::kStrict, nullptr);
    c.run_for(millis(12));
  }
  c.run_for(millis(500));
  c.heal();
  c.run_for(seconds(4));
  ASSERT_TRUE(c.converged_primary(c.all_ids()));
  EXPECT_EQ(c.engine(3).database().get("g"), "120");
  EXPECT_EQ(c.engine(0).database().get("r"), "120");
  EXPECT_EQ(c.check_all(), std::nullopt);
}

// Every replica of a group delivers the same State wires, so after an
// exchange they all hold the one object per member that the first
// recipient decoded, instead of a copy of all of them each.
TEST(CoreExchange, OneStateObjectPerGroup) {
  EngineCluster c(small(5, 5));
  c.run_for(seconds(1));
  c.partition({{0, 1, 2}, {3, 4}});
  c.run_for(millis(400));
  c.heal();
  c.run_for(seconds(1));
  ASSERT_TRUE(c.converged_primary(c.all_ids()));
  const auto& first = c.engine(0).exchange_states();
  ASSERT_EQ(first.size(), 5u);
  for (NodeId i = 1; i < 5; ++i) {
    const auto& states = c.engine(i).exchange_states();
    ASSERT_EQ(states.size(), first.size()) << "node " << i;
    for (const auto& [m, s] : first) {
      ASSERT_TRUE(states.count(m)) << "node " << i << " member " << m;
      EXPECT_EQ(states.at(m).get(), s.get()) << "node " << i << " member " << m;
    }
  }
}

// The retransmission plan as first written: a scan of a member's cut list
// for every (creator, member) pair. Kept here only as the model that
// red_retrans_plan's merge walk must match.
std::vector<RedRetrans> reference_plan(const std::vector<const StateMessage*>& members) {
  std::set<NodeId> creators;
  for (const StateMessage* s : members) {
    for (const auto& [c, v] : s->red_cut) creators.insert(c);
  }
  auto cut_of = [](const std::vector<std::pair<NodeId, std::int64_t>>& cuts, NodeId c) {
    for (const auto& [n, v] : cuts) {
      if (n == c) return v;
    }
    return std::int64_t{0};
  };
  std::vector<RedRetrans> plan;
  for (NodeId c : creators) {
    std::int64_t cmax = 0, cmin = INT64_MAX;
    const StateMessage* holder = nullptr;
    for (const StateMessage* s : members) {
      const std::int64_t v = cut_of(s->red_cut, c);
      cmin = std::min(cmin, v);
      if (v > cmax || (v == cmax && holder == nullptr)) {
        cmax = v;
        holder = s;
      }
    }
    if (holder == nullptr) continue;
    const std::int64_t lo = std::max(cmin, cut_of(holder->green_red_cut, c));
    if (cmax <= lo) continue;
    plan.push_back({c, holder->server_id, lo, cmax});
  }
  return plan;
}

// Model test: the merge walk against the quadratic reference over random
// State sets of 1 to 64 members, with creators some members do not list,
// tied and all-zero cuts, and holders whose green cut is above the lowest
// red cut. Each of those cases must actually occur.
TEST(CoreExchange, RedRetransPlanMatchesQuadraticReference) {
  Rng rng(26);
  int missing = 0, late_tied_holder = 0, all_zero = 0, green_above_min = 0;
  std::set<std::size_t> sizes;
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t n = trial < 64 ? static_cast<std::size_t>(trial + 1)
                                     : static_cast<std::size_t>(rng.next_range(1, 64));
    sizes.insert(n);
    std::vector<NodeId> universe(rng.next_range(1, 12));
    for (NodeId& c : universe) c = static_cast<NodeId>(rng.next_below(80));
    std::sort(universe.begin(), universe.end());
    universe.erase(std::unique(universe.begin(), universe.end()), universe.end());
    const std::uint64_t miss_pct = rng.next_below(4) * 15;  // 0, 15, 30 or 45%
    const std::int64_t max_cut = static_cast<std::int64_t>(rng.next_below(7));  // 0: all zero

    std::vector<StateMessage> states(n);
    for (std::size_t i = 0; i < n; ++i) {
      StateMessage& s = states[i];
      s.server_id = static_cast<NodeId>(2 * i + rng.next_below(2));
      for (NodeId c : universe) {
        if (rng.next_below(100) < miss_pct) continue;
        const std::int64_t cut = rng.next_range(0, max_cut);
        s.red_cut.emplace_back(c, cut);
        if (rng.next_below(3) != 0) s.green_red_cut.emplace_back(c, rng.next_range(0, cut));
      }
    }
    std::vector<const StateMessage*> members;
    for (const StateMessage& s : states) members.push_back(&s);

    const std::vector<RedRetrans> plan = red_retrans_plan(members);
    ASSERT_EQ(plan, reference_plan(members)) << "trial " << trial << ", " << n << " members";

    // Which cases this trial covered.
    for (NodeId c : universe) {
      std::vector<std::int64_t> cuts;
      for (const StateMessage& s : states) {
        auto it = std::find_if(s.red_cut.begin(), s.red_cut.end(),
                               [c](const auto& e) { return e.first == c; });
        cuts.push_back(it == s.red_cut.end() ? 0 : it->second);
        if (it == s.red_cut.end()) ++missing;
      }
      const auto top = std::max_element(cuts.begin(), cuts.end());
      const std::int64_t lowest = *std::min_element(cuts.begin(), cuts.end());
      const std::size_t holder = static_cast<std::size_t>(top - cuts.begin());
      if (*top == 0) ++all_zero;
      if (holder > 0 && std::count(cuts.begin(), cuts.end(), *top) > 1) ++late_tied_holder;
      for (const auto& [g, v] : states[holder].green_red_cut) {
        if (g == c && v > lowest && v < *top) ++green_above_min;
      }
    }
  }
  EXPECT_EQ(sizes.size(), 64u);
  EXPECT_GT(missing, 0);
  EXPECT_GT(late_tied_holder, 0);
  EXPECT_GT(all_zero, 0);
  EXPECT_GT(green_above_min, 0);
}

}  // namespace
}  // namespace tordb::core
