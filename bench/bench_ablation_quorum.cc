// Ablation A5 (DESIGN.md): the quorum system. The paper selects dynamic
// linear voting [15] — "the component that contains a (weighted) majority
// of the last primary component becomes the new primary component" — over
// a static majority of the full replica set. Under a cascading partition
// schedule (the surviving component shrinks one replica at a time, then the
// network heals), dynamic linear voting follows the surviving lineage all
// the way down to two replicas, while a static majority loses the primary
// as soon as fewer than a majority of ALL replicas stay connected.
#include <cstdio>

#include "bench_util.h"

namespace {

using namespace tordb;

struct Availability {
  double primary_availability = 0;  ///< fraction of 10 ms samples with some primary
  std::uint64_t actions_committed = 0;
};

/// One closed-loop client per replica under a cascading partition schedule:
/// the connected component repeatedly shrinks by one replica, then the
/// network heals, in a fixed rhythm.
Availability measure_availability(bool dynamic_linear_voting, int replicas,
                                  SimDuration measure) {
  bench::DeployOptions o;
  o.node.engine.quorum_mode = dynamic_linear_voting ? core::QuorumMode::kDynamicLinearVoting
                                                    : core::QuorumMode::kStaticMajority;
  bench::Deployment dep(bench::Algorithm::kEngine, replicas, 1, o);
  workload::EngineCluster& c = dep.cluster();
  Simulator& sim = c.sim();

  // Commits count only when some primary exists to order them.
  bench::ClosedLoopDriver driver(sim, sim.now(), sim.now() + measure);
  for (int cidx = 0; cidx < replicas; ++cidx) driver.add_client(dep.client(cidx));

  const SimDuration phase = measure / (2 * replicas);
  std::uint64_t sampled = 0, primary_samples = 0;
  const SimTime end = sim.now() + measure;
  int shrink = 0;
  SimTime next_change = sim.now() + phase;
  while (sim.now() < end) {
    c.run_for(millis(10));
    ++sampled;
    for (NodeId i = 0; i < replicas; ++i) {
      if (c.node(i).running() && c.engine(i).state() == core::EngineState::kRegPrim) {
        ++primary_samples;
        break;
      }
    }
    if (sim.now() >= next_change) {
      next_change = sim.now() + phase;
      ++shrink;
      if (shrink >= replicas - 1) {
        shrink = 0;
        c.heal();
      } else {
        // Keep replicas [shrink, n) together; isolate the rest singly.
        std::vector<std::vector<NodeId>> comps;
        std::vector<NodeId> survivors;
        for (NodeId i = static_cast<NodeId>(shrink); i < replicas; ++i) survivors.push_back(i);
        comps.push_back(survivors);
        for (NodeId i = 0; i < static_cast<NodeId>(shrink); ++i) comps.push_back({i});
        c.partition(comps);
      }
    }
  }

  Availability a;
  a.primary_availability =
      sampled ? static_cast<double>(primary_samples) / static_cast<double>(sampled) : 0;
  a.actions_committed = driver.completed_in_window();
  return a;
}

}  // namespace

int main() {

  bench::header("Ablation A5: dynamic linear voting vs static majority",
                "DLV keeps a primary through cascading shrinks; static majority goes dark");

  const SimDuration measure = bench::fast_mode() ? seconds(10) : seconds(30);
  std::vector<int> sizes = bench::fast_mode() ? std::vector<int>{7} : std::vector<int>{5, 7, 11};

  std::printf("%9s | %28s | %28s\n", "replicas", "dynamic linear voting",
              "static majority");
  std::printf("%9s | %14s %13s | %14s %13s\n", "", "availability", "committed",
              "availability", "committed");
  bench::row_sep(74);
  for (int n : sizes) {
    const auto dlv = measure_availability(true, n, measure);
    const auto stat = measure_availability(false, n, measure);
    std::printf("%9d | %13.1f%% %13llu | %13.1f%% %13llu\n", n,
                100 * dlv.primary_availability,
                static_cast<unsigned long long>(dlv.actions_committed),
                100 * stat.primary_availability,
                static_cast<unsigned long long>(stat.actions_committed));
  }
  std::printf("\n(availability: %% of time some primary component exists)\n");
  return 0;
}
