// Ablation A3 (DESIGN.md): engine sensitivity to replica count and action
// size. The engine's per-action work at a replica is one receive plus (at
// the creator) one forced write, so throughput should degrade only mildly
// with more replicas; bigger actions cost wire time and per-byte CPU.
#include <cstdio>

#include "bench_util.h"

namespace {

using namespace tordb;

/// Closed-loop engine throughput at `replicas` replicas, each action padded
/// by `action_padding` bytes.
bench::Throughput measure_scaling(int replicas, std::uint32_t action_padding, int clients,
                                  SimDuration warmup, SimDuration measure) {
  bench::DeployOptions o;
  o.node.engine.action_padding = action_padding;
  bench::Deployment dep(bench::Algorithm::kEngine, replicas, 1, o);
  return bench::run_closed_loop(dep, clients, warmup, measure);
}

}  // namespace

int main() {

  bench::header("Ablation A3: engine scaling in replica count and action size",
                "mild degradation with replicas; throughput falls as actions grow");

  const SimDuration warmup = millis(500);
  const SimDuration measure = bench::fast_mode() ? seconds(2) : seconds(5);

  std::vector<int> replica_counts = bench::fast_mode() ? std::vector<int>{3, 14}
                                                       : std::vector<int>{3, 5, 8, 14, 20, 28};
  std::printf("-- replica count sweep (200-byte actions, clients = replicas) --\n");
  std::printf("%9s | %12s | %14s\n", "replicas", "actions/s", "mean lat (ms)");
  bench::row_sep(44);
  for (int n : replica_counts) {
    const auto p = measure_scaling(n, 110, n, warmup, measure);
    std::printf("%9d | %12.0f | %14.2f\n", n, p.actions_per_second, p.mean_latency_ms);
  }

  std::vector<std::uint32_t> paddings = bench::fast_mode()
                                            ? std::vector<std::uint32_t>{110, 4000}
                                            : std::vector<std::uint32_t>{0, 110, 500, 1000,
                                                                         2000, 4000};
  std::printf("\n-- action size sweep (14 replicas, 14 clients) --\n");
  std::printf("%12s | %12s | %14s\n", "action bytes", "actions/s", "mean lat (ms)");
  bench::row_sep(46);
  for (std::uint32_t pad : paddings) {
    const auto p = measure_scaling(14, pad, 14, warmup, measure);
    std::printf("%12u | %12.0f | %14.2f\n", pad + 90,  // + header and command overhead
                p.actions_per_second, p.mean_latency_ms);
  }
  return 0;
}
