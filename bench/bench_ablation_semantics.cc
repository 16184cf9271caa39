// Ablation A2 (DESIGN.md, paper §6): service latency of the relaxed
// consistency semantics inside a non-primary (minority) component.
//
// Strict actions must wait for the partition to heal; weak queries answer
// from the consistent-but-stale green state immediately; dirty queries
// answer from the red-applied overlay immediately; commutative updates are
// acknowledged locally and converge after the merge.
#include <cstdio>

#include "bench_util.h"

namespace {

using namespace tordb;

struct SemanticsResult {
  double weak_query_ms = 0;          ///< answered in the minority partition
  double dirty_query_ms = 0;         ///< answered in the minority partition
  double commutative_update_ms = 0;  ///< acknowledged in the minority
  double strict_latency_ms = 0;      ///< strict action: waits for the merge
  bool strict_blocked_during_partition = false;
};

/// Service latency of the relaxed semantics inside a two-replica minority,
/// versus a strict action that must wait for the merge.
SemanticsResult measure_semantics(int replicas, SimDuration partition_length) {
  bench::Deployment dep(bench::Algorithm::kEngine, replicas);
  workload::EngineCluster& c = dep.cluster();
  Simulator& sim = c.sim();
  c.engine(0).submit({}, db::Command::put("k", "pre-partition"), 1, core::Semantics::kStrict,
                     nullptr);
  sim.run_for(millis(200));

  // Minority component: the last two replicas.
  std::vector<NodeId> majority, minority;
  for (NodeId i = 0; i < replicas - 2; ++i) majority.push_back(i);
  minority = {static_cast<NodeId>(replicas - 2), static_cast<NodeId>(replicas - 1)};
  c.partition({majority, minority});
  sim.run_for(millis(300));

  SemanticsResult r;
  const NodeId m = minority[0];

  SimTime t0 = sim.now();
  c.engine(m).submit_query(db::Command::get("k"), core::QueryMode::kWeak,
                           [&](const core::Reply&) { r.weak_query_ms = to_millis(sim.now() - t0); });
  sim.run_for(millis(50));

  t0 = sim.now();
  c.engine(m).submit_query(db::Command::get("k"), core::QueryMode::kDirty,
                           [&](const core::Reply&) { r.dirty_query_ms = to_millis(sim.now() - t0); });
  sim.run_for(millis(50));

  t0 = sim.now();
  c.engine(m).submit({}, db::Command::add("stock", -1), 1, core::Semantics::kCommutative,
                     [&](const core::Reply&) { r.commutative_update_ms = to_millis(sim.now() - t0); });
  sim.run_for(millis(100));

  t0 = sim.now();
  bool strict_done = false;
  double strict_ms = 0;
  c.engine(m).submit({}, db::Command::put("k", "strict"), 1, core::Semantics::kStrict,
                     [&](const core::Reply&) {
                       strict_done = true;
                       strict_ms = to_millis(sim.now() - t0);
                     });
  sim.run_for(partition_length);
  r.strict_blocked_during_partition = !strict_done;
  c.heal();
  sim.run_for(seconds(5));
  r.strict_latency_ms = strict_done ? strict_ms : -1;
  return r;
}

}  // namespace

int main() {

  bench::header("Ablation A2: relaxed semantics in a minority partition (paper §6)",
                "weak/dirty/commutative answer in ~0ms while strict waits out the partition");

  std::vector<SimDuration> partition_lengths = {millis(500), seconds(2), seconds(5)};
  if (bench::fast_mode()) partition_lengths = {millis(500), seconds(2)};

  std::printf("%15s | %10s | %10s | %13s | %24s\n", "partition (s)", "weak (ms)",
              "dirty (ms)", "commut. (ms)", "strict (ms, incl. merge)");
  bench::row_sep();
  for (SimDuration len : partition_lengths) {
    const auto r = measure_semantics(7, len);
    std::printf("%15.1f | %10.3f | %10.3f | %13.3f | %24.1f%s\n", to_seconds(len),
                r.weak_query_ms, r.dirty_query_ms, r.commutative_update_ms,
                r.strict_latency_ms,
                r.strict_blocked_during_partition ? "  (blocked until merge)" : "");
  }
  return 0;
}
