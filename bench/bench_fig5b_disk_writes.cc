// Figure 5(b): impact of forced disk writes — the replication engine with
// forced vs delayed (asynchronous) writes; 14 replicas, 1..14 clients.
//
// Expected shape (paper §7): the delayed-writes engine tops out at its
// processing limit (2500 actions/s on the paper's hardware) far above the
// forced-writes curve, which is disk-bound.
#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace tordb;
  using bench::Algorithm;

  bench::header("Figure 5(b): engine throughput, forced vs delayed disk writes",
                "delayed-writes curve far above forced; flattens at the processing limit "
                "(paper: ~2500 actions/s)");

  const int replicas = 14;
  std::vector<int> clients = bench::fast_mode() ? std::vector<int>{1, 4, 14}
                                                : std::vector<int>{1, 2, 4, 6, 8, 10, 12, 14};
  const SimDuration warmup = bench::fast_mode() ? millis(500) : seconds(1);
  const SimDuration measure = bench::fast_mode() ? seconds(2) : seconds(6);

  std::printf("%8s | %26s | %26s | %6s\n", "clients", "forced writes (actions/s)",
              "delayed writes (actions/s)", "ratio");
  bench::row_sep();
  for (int c : clients) {
    const auto f = bench::measure_throughput(Algorithm::kEngine, replicas, c, warmup, measure);
    const auto d =
        bench::measure_throughput(Algorithm::kEngineDelayed, replicas, c, warmup, measure);
    std::printf("%8d | %14.0f (%6.2fms) | %14.0f (%6.2fms) | %5.1fx\n", c,
                f.actions_per_second, f.mean_latency_ms, d.actions_per_second,
                d.mean_latency_ms, d.actions_per_second / std::max(1.0, f.actions_per_second));
  }
  std::printf("\n(in parentheses: mean closed-loop action latency)\n");
  return 0;
}
