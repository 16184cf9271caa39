// §7 latency experiment: one client, 2000 sequential actions, average
// response time per algorithm as the number of replicas varies.
//
// Expected shape (paper §7): "The average latency of the two-phase commit
// algorithm was around 19.3ms while for the COReL and our replication
// engine it was around 11.4ms regardless of the number of servers. These
// numbers are ... driven by the disk-write latency."
#include <cstdio>
#include <functional>

#include "bench_util.h"

namespace {

using namespace tordb;
using bench::Algorithm;

/// One client submits `actions` actions back to back; the latency of each.
workload::LatencyStats measure_latency(Algorithm algorithm, int replicas, int actions) {
  bench::Deployment dep(algorithm, replicas);
  Simulator& sim = dep.sim();
  workload::LatencyStats stats;
  auto submit = dep.client(0);
  int remaining = actions;
  std::function<void()> issue = [&] {
    if (remaining-- <= 0) return;
    const SimTime t0 = sim.now();
    submit([&, t0](bool) {
      stats.record(sim.now() - t0);
      issue();
    });
  };
  issue();
  sim.run(100'000'000);  // drain
  return stats;
}

}  // namespace

int main() {

  bench::header("Latency: 1 client, 2000 sequential actions",
                "2PC ~19.3ms; COReL and engine ~11.4ms, flat in the number of replicas");

  const int actions = bench::fast_mode() ? 300 : 2000;
  std::vector<int> replica_counts =
      bench::fast_mode() ? std::vector<int>{3, 14} : std::vector<int>{2, 4, 6, 8, 10, 12, 14};

  std::printf("%9s | %26s | %26s | %26s\n", "replicas", "engine mean/p99/p999 (ms)",
              "COReL mean/p99/p999 (ms)", "2PC mean/p99/p999 (ms)");
  bench::row_sep();
  for (int n : replica_counts) {
    const auto e = measure_latency(Algorithm::kEngine, n, actions);
    const auto k = measure_latency(Algorithm::kCorel, n, actions);
    const auto t = measure_latency(Algorithm::kTwoPc, n, actions);
    std::printf("%9d | %s | %s | %s\n", n,
                bench::lat_triple(e.mean_ms(), e.p99_ms(), e.p999_ms()).c_str(),
                bench::lat_triple(k.mean_ms(), k.p99_ms(), k.p999_ms()).c_str(),
                bench::lat_triple(t.mean_ms(), t.p99_ms(), t.p999_ms()).c_str());
  }
  std::printf("\n(%d actions per cell)\n", actions);
  return 0;
}
