// Randomized property tests: drive the GC layer through seeded random
// schedules of traffic, partitions, merges, crashes and recoveries, then
// assert the EVS invariants (total order, local order, FIFO, safe-delivery
// trichotomy, virtual synchrony) and eventual convergence.
#include <gtest/gtest.h>

#include "obs_enable.h"  // run every cluster under the online safety checker
#include "gc_harness.h"
#include "util/rng.h"

namespace tordb::gc {
namespace {

using testing::GcCluster;

struct Scenario {
  std::uint64_t seed;
  int nodes;
  bool crashes;
  /// Half of the crashes hit a node that leads a clique of the full group
  /// (ids 0, 8, 16, ... below the last clique's start; node 0 is also the
  /// sequencer).
  bool leader_crashes = false;
};

class GcRandomSchedule : public ::testing::TestWithParam<Scenario> {};

std::vector<std::vector<NodeId>> random_partition(Rng& rng, const std::vector<NodeId>& nodes) {
  const int k = static_cast<int>(rng.next_range(1, 3));
  std::vector<std::vector<NodeId>> comps(static_cast<std::size_t>(k));
  for (NodeId n : nodes) comps[rng.next_below(static_cast<std::uint64_t>(k))].push_back(n);
  std::vector<std::vector<NodeId>> nonempty;
  for (auto& comp : comps) {
    if (!comp.empty()) nonempty.push_back(std::move(comp));
  }
  return nonempty;
}

TEST_P(GcRandomSchedule, InvariantsHoldAndConverge) {
  const Scenario sc = GetParam();
  Rng rng(sc.seed);
  GcCluster c(sc.nodes, sc.seed);
  std::vector<NodeId> all;
  for (NodeId i = 0; i < sc.nodes; ++i) all.push_back(i);

  std::set<NodeId> down;
  std::int64_t k = 0;
  for (int step = 0; step < 60; ++step) {
    const int what = static_cast<int>(rng.next_below(10));
    if (what < 5) {
      // burst of traffic from random up nodes
      const int burst = static_cast<int>(rng.next_range(1, 8));
      for (int b = 0; b < burst; ++b) {
        const NodeId n = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(sc.nodes)));
        if (!down.count(n)) {
          c.multicast(n, ++k, rng.chance(0.8) ? Service::kSafe : Service::kAgreed);
        }
      }
    } else if (what < 7) {
      c.net().set_components(random_partition(rng, all));
    } else if (what == 7) {
      c.net().heal();
    } else if (sc.crashes && what == 8 && down.size() + 1 < static_cast<std::size_t>(sc.nodes)) {
      NodeId n = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(sc.nodes)));
      if (sc.leader_crashes && rng.chance(0.5)) n = std::min(n / 8, sc.nodes / 8 - 1) * 8;
      if (!down.count(n)) {
        c.crash(n);
        down.insert(n);
      }
    } else if (sc.crashes && !down.empty()) {
      const NodeId n = *down.begin();
      c.recover(n);
      down.erase(n);
    }
    c.run_for(millis(static_cast<std::int64_t>(rng.next_range(1, 120))));
  }

  // Quiesce: recover everyone, heal, and let the system settle.
  for (NodeId n : down) c.recover(n);
  c.net().heal();
  c.run_for(seconds(5));

  EXPECT_TRUE(c.converged(all)) << "seed " << sc.seed;
  c.check_all_invariants();
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> v;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) v.push_back({seed, 4, false});
  for (std::uint64_t seed = 21; seed <= 44; ++seed) v.push_back({seed, 6, true});
  for (std::uint64_t seed = 45; seed <= 60; ++seed) v.push_back({seed, 9, true});
  for (std::uint64_t seed = 61; seed <= 68; ++seed) v.push_back({seed, 14, true});
  // Multi-clique groups (cliques of 8 and 9 at 17, three of 8 at 24):
  // partitions cut across cliques, leaders crash.
  for (std::uint64_t seed = 69; seed <= 76; ++seed) v.push_back({seed, 17, true, true});
  for (std::uint64_t seed = 77; seed <= 84; ++seed) v.push_back({seed, 24, true, true});
  return v;
}

INSTANTIATE_TEST_SUITE_P(Schedules, GcRandomSchedule, ::testing::ValuesIn(scenarios()),
                         [](const ::testing::TestParamInfo<Scenario>& info) {
                           return "seed" + std::to_string(info.param.seed) + "_n" +
                                  std::to_string(info.param.nodes) +
                                  (info.param.crashes ? "_crash" : "");
                         });

}  // namespace
}  // namespace tordb::gc
