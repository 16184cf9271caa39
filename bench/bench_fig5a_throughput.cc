// Figure 5(a): throughput comparison — the replication engine (forced
// writes) vs. COReL vs. two-phase commit; 14 replicas, 1..14 closed-loop
// clients, ~200-byte actions.
//
// Expected shape (paper §7): "two-phase commit and COReL pay the price for
// extra communication and disk writes ... Our algorithm was able to sustain
// increasingly more throughput and has not reached its processing limit
// under this test." Absolute numbers differ (simulated substrate), the
// ordering engine > COReL > 2PC and the near-linear engine scaling must
// hold.
#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace tordb;
  using bench::Algorithm;

  bench::header("Figure 5(a): throughput, 14 replicas, engine vs COReL vs 2PC",
                "engine highest and still rising at 14 clients; COReL second; 2PC lowest");

  const int replicas = 14;
  std::vector<int> clients = bench::fast_mode() ? std::vector<int>{1, 4, 14}
                                                : std::vector<int>{1, 2, 4, 6, 8, 10, 12, 14};
  const SimDuration warmup = bench::fast_mode() ? millis(500) : seconds(1);
  const SimDuration measure = bench::fast_mode() ? seconds(2) : seconds(6);

  std::printf("%8s | %22s | %22s | %22s\n", "clients", "engine (actions/s)",
              "COReL (actions/s)", "2PC (actions/s)");
  bench::row_sep();
  for (int c : clients) {
    const auto e = bench::measure_throughput(Algorithm::kEngine, replicas, c, warmup, measure);
    const auto k = bench::measure_throughput(Algorithm::kCorel, replicas, c, warmup, measure);
    const auto t = bench::measure_throughput(Algorithm::kTwoPc, replicas, c, warmup, measure);
    std::printf("%8d | %10.0f (%6.2fms) | %10.0f (%6.2fms) | %10.0f (%6.2fms)\n", c,
                e.actions_per_second, e.mean_latency_ms, k.actions_per_second,
                k.mean_latency_ms, t.actions_per_second, t.mean_latency_ms);
  }
  std::printf("\n(in parentheses: mean closed-loop action latency)\n");

  // Metrics time series (src/obs): the same engine run at the highest client
  // count, with the registry rolling a window every 500ms of virtual time.
  // Steady state shows up as flat greens-per-window; the storage.forces
  // column is the disk-write budget the paper's batching argument is about.
  const int peak_clients = clients.back();
  const SimDuration window = millis(500);
  bench::DeployOptions o;
  o.metrics_window = window;
  bench::Deployment dep(Algorithm::kEngine, replicas, 1, o);
  bench::run_closed_loop(dep, peak_clients, warmup, measure);
  const std::string table = dep.window_table(bench::kWindowColumns);
  std::printf("\nengine metrics windows (%d clients, %.1fs windows):\n%s", peak_clients,
              to_seconds(window), table.c_str());
  return 0;
}
