// Ablation A1 (DESIGN.md): cost of membership changes for the engine.
//
// The paper's central claim is that end-to-end exchange rounds are paid per
// *membership change*, not per action. This ablation injects periodic
// partition/heal cycles and shows (a) throughput degrades gracefully with
// the change rate, and (b) the number of end-to-end exchange rounds tracks
// the number of membership changes — not the number of actions, which is
// what a per-action-acknowledgement protocol like COReL pays.
#include <cstdio>
#include <functional>

#include "bench_util.h"

namespace {

using namespace tordb;

struct ViewChangeRun {
  double actions_per_second = 0;
  std::uint64_t membership_changes = 0;
  std::uint64_t end_to_end_rounds = 0;      ///< exchanges run by replica 0
  std::uint64_t persist_batches = 0;        ///< multi-action persist+multicast batches
  std::uint64_t persist_batch_actions = 0;  ///< actions carried by those batches
  std::string window_table;                 ///< metrics series (metrics_window > 0)
};

/// Engine throughput while the highest-id replica is periodically detached
/// and re-attached: each cycle is two membership changes, each costing one
/// end-to-end exchange round. `change_period` 0 = stable membership.
ViewChangeRun run_view_changes(int replicas, int clients, SimDuration change_period,
                               SimDuration measure, SimDuration metrics_window = 0) {
  bench::DeployOptions o;
  o.metrics_window = metrics_window;
  bench::Deployment dep(bench::Algorithm::kEngine, replicas, 1, o);
  workload::EngineCluster& c = dep.cluster();
  Simulator& sim = c.sim();

  std::uint64_t changes = 0;
  std::function<void()> cycle = [&] {
    if (change_period <= 0) return;
    std::vector<NodeId> rest;
    for (NodeId i = 0; i < replicas - 1; ++i) rest.push_back(i);
    c.partition({rest, {static_cast<NodeId>(replicas - 1)}});
    ++changes;
    sim.after(change_period / 2, [&] {
      c.heal();
      ++changes;
      sim.after(change_period / 2, cycle);
    });
  };
  const auto exchanges_before = c.engine(0).stats().exchanges;
  sim.after(change_period > 0 ? change_period : measure * 2, cycle);

  bench::ClosedLoopDriver driver(sim, sim.now() + millis(500),
                                 sim.now() + millis(500) + measure);
  // Clients attach to replicas that stay in the majority.
  for (int cidx = 0; cidx < clients; ++cidx) {
    driver.add_client(dep.client(cidx, cidx % (replicas - 1)));
  }
  sim.run_for(millis(500) + measure + millis(100));

  ViewChangeRun r;
  r.actions_per_second = static_cast<double>(driver.completed_in_window()) / to_seconds(measure);
  r.membership_changes = changes;
  r.end_to_end_rounds = c.engine(0).stats().exchanges - exchanges_before;
  for (NodeId i = 0; i < replicas; ++i) {
    r.persist_batches += c.engine(i).stats().persist_batches;
    r.persist_batch_actions += c.engine(i).stats().persist_batch_actions;
  }
  std::vector<std::string> cols = bench::kWindowColumns;
  cols.push_back("cluster.exchanges");
  r.window_table = dep.window_table(cols);
  return r;
}

}  // namespace

int main() {

  bench::header("Ablation A1: engine under periodic membership changes",
                "end-to-end rounds scale with membership changes, not with actions");

  const int replicas = 7;
  const int clients = 12;  // two per surviving replica, so actions buffered
                           // across a view change can flush as one batch
  const SimDuration measure = bench::fast_mode() ? seconds(3) : seconds(10);
  std::vector<SimDuration> periods = {0, seconds(4), seconds(2), seconds(1), millis(500)};
  if (bench::fast_mode()) periods = {0, seconds(1), millis(500)};

  std::printf("%16s | %12s | %12s | %16s | %12s | %16s\n", "change period", "actions/s",
              "mem.changes", "exchange rounds", "rounds/action", "persist batches");
  bench::row_sep();
  for (SimDuration p : periods) {
    const auto r = run_view_changes(replicas, clients, p, measure);
    const double per_action =
        r.actions_per_second > 0
            ? static_cast<double>(r.end_to_end_rounds) /
                  (r.actions_per_second * to_seconds(measure))
            : 0;
    std::printf("%14.1fs | %12.0f | %12llu | %16llu | %12.5f | %6llu (%4llu act)\n",
                to_seconds(p), r.actions_per_second,
                static_cast<unsigned long long>(r.membership_changes),
                static_cast<unsigned long long>(r.end_to_end_rounds), per_action,
                static_cast<unsigned long long>(r.persist_batches),
                static_cast<unsigned long long>(r.persist_batch_actions));
  }
  std::printf("\n(period 0 = stable membership; COReL's equivalent is 1 ack round per action;\n"
              " persist batches = client actions buffered across a view change flushing as\n"
              " one forced write + one multicast)\n");

  // Metrics time series (src/obs) for one churning run: each partition/heal
  // cycle shows up as a cluster.exchanges step and a throughput dip in the
  // engine.actions_green column, recovering within a window or two.
  const SimDuration churn = seconds(1);
  const SimDuration window = millis(500);
  const std::string table = run_view_changes(replicas, clients, churn, measure, window).window_table;
  std::printf("\nengine metrics windows (%.1fs change period, %.1fs windows):\n%s",
              to_seconds(churn), to_seconds(window), table.c_str());
  return 0;
}
