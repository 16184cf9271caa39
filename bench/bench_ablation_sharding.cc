// Ablation A6 (DESIGN.md §8): sharded deployment.
//
// The paper replicates the whole database in one group, so one total order
// caps aggregate update throughput no matter how many replicas serve it.
// This ablation splits the key space into independent engine groups behind
// shard::Router and sweeps shard count x cross-shard ratio at a FIXED total
// replica count: at 0% cross-shard the aggregate green throughput should
// scale with the shard count (each group runs its own sequencer and pays
// group-local multicast costs), while raising the cross-shard ratio buys
// back coordination — every cross action occupies a session at each
// involved shard until the slowest one reports green (the commit barrier),
// so throughput falls and the barrier wait shows up as extra latency.
//
// Pass --quick (or set TORDB_BENCH_FAST=1) for the reduced CI sweep, or
// --smoke for the reduced sweep plus a wall-clock budget (default 90 s,
// TORDB_SHARDING_BUDGET_MS to override): the CI guard that fails loudly if
// the router->directory->db hot path regresses by an order of magnitude.
// The budget is deliberately loose — it tolerates sanitizers and slow
// runners, not a return of per-op key re-hashing and tree walks.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_util.h"
#include "util/rng.h"
#include "workload/sharded_cluster.h"

namespace {

using namespace tordb;

struct ShardingPoint {
  double actions_per_second = 0;  ///< router-committed actions/s in the window
  double green_per_second = 0;    ///< aggregate engine green actions/s
  double mean_latency_ms = 0;
  double mean_barrier_ms = 0;     ///< cross-shard first-green -> last-green
  std::uint64_t cross_committed = 0;
};

/// `shards` engine groups of `replicas_per_shard` replicas behind the
/// router; closed-loop clients write one key at their home shard, or with
/// probability `cross_ratio` one key in each of two distinct shards.
ShardingPoint measure_sharding(int shards, int replicas_per_shard, int clients,
                               double cross_ratio, SimDuration warmup, SimDuration measure) {
  workload::ShardedClusterOptions o;
  o.shards = shards;
  o.replicas_per_shard = replicas_per_shard;
  o.seed = 1;
  workload::ShardedCluster cluster(o);
  cluster.run_for(seconds(2));  // every shard forms its primary component

  // Pre-bucket keys by owning shard so the workload can hit a target shard
  // under hash sharding (and measure an exact cross-shard ratio).
  std::vector<std::vector<std::string>> pool(static_cast<std::size_t>(shards));
  const std::size_t keys_per_shard = 64;
  for (int i = 0;; ++i) {
    std::string key = "key-" + std::to_string(i);
    auto& bucket = pool[static_cast<std::size_t>(cluster.directory().shard_of(key))];
    if (bucket.size() < keys_per_shard) bucket.push_back(std::move(key));
    bool full = true;
    for (const auto& b : pool) full = full && b.size() >= keys_per_shard;
    if (full) break;
  }

  Simulator& sim = cluster.sim();
  bench::ClosedLoopDriver driver(sim, sim.now() + warmup, sim.now() + warmup + measure);
  double barrier_sum = 0;
  std::uint64_t cross_committed = 0;
  for (int c = 0; c < clients; ++c) {
    const int home = c % shards;
    // Per-client stream derived from the home shard's seed: reproducible,
    // and uncorrelated across shards.
    auto rng = std::make_shared<Rng>(cluster.shard_seed(home) +
                                     static_cast<std::uint64_t>(c) * 0x9e3779b97f4a7c15ULL);
    auto counter = std::make_shared<std::int64_t>(0);
    driver.add_client([&, rng, counter, c, home](std::function<void(bool)> done) {
      const std::string value = bench::value_tag(++*counter);
      db::Command cmd;
      const bool cross = shards > 1 && rng->chance(cross_ratio);
      const auto& ph = pool[static_cast<std::size_t>(home)];
      if (cross) {
        // Draw order (other shard, home key, other key) is part of the seed.
        const int other =
            (home + 1 + static_cast<int>(rng->next_below(static_cast<std::uint64_t>(shards - 1)))) %
            shards;
        const auto& po = pool[static_cast<std::size_t>(other)];
        cmd.ops.push_back(db::Op{db::OpType::kPut, ph[rng->next_below(ph.size())], value, 0});
        cmd.ops.push_back(db::Op{db::OpType::kPut, po[rng->next_below(po.size())], value, 0});
      } else {
        cmd.ops.push_back(db::Op{db::OpType::kPut, ph[rng->next_below(ph.size())], value, 0});
      }
      cluster.router().submit(c, std::move(cmd),
                              [&, done = std::move(done)](const shard::RouteReply& r) {
                                if (r.committed && r.shards_involved > 1) {
                                  ++cross_committed;
                                  barrier_sum += to_seconds(r.barrier_wait) * 1e3;
                                }
                                done(r.committed);
                              });
    });
  }

  // Aggregate green throughput: sum of per-shard green watermarks over the
  // measure window (the acceptance metric for shard scaling).
  std::int64_t green_start = 0, green_end = 0;
  sim.after(warmup, [&] {
    for (int s = 0; s < shards; ++s) green_start += cluster.green_count(s);
  });
  sim.after(warmup + measure, [&] {
    for (int s = 0; s < shards; ++s) green_end += cluster.green_count(s);
  });
  cluster.run_for(warmup + measure + millis(200));

  ShardingPoint p;
  p.actions_per_second = static_cast<double>(driver.completed_in_window()) / to_seconds(measure);
  p.green_per_second = static_cast<double>(green_end - green_start) / to_seconds(measure);
  p.mean_latency_ms = driver.latencies().mean_ms();
  p.cross_committed = cross_committed;
  p.mean_barrier_ms = cross_committed ? barrier_sum / static_cast<double>(cross_committed) : 0;
  return p;
}

}  // namespace

int main(int argc, char** argv) {

  bool quick = bench::fast_mode();
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--smoke") == 0) quick = smoke = true;
  }

  bench::header("Ablation A6: sharding (12 replicas total, closed-loop router clients)",
                "beyond the paper: partial replication over the unmodified engine; "
                "aggregate green throughput should scale with shard count at 0%% "
                "cross-shard and pay a commit-barrier tax as the ratio rises");

  const int total_replicas = 12;
  const int clients = 240;
  const SimDuration warmup = millis(500);
  const SimDuration measure = quick ? seconds(2) : seconds(6);

  std::vector<int> shard_counts = {1, 2, 4};
  std::vector<double> ratios = {0.0, 0.05, 0.2};
  if (quick) {
    shard_counts = {1, 4};
    ratios = {0.0, 0.2};
  }

  std::printf("%7s | %6s | %12s | %12s | %10s | %11s | %9s\n", "shards", "cross%",
              "committed/s", "green/s", "latency", "barrier", "crossed");
  bench::row_sep(86);
  const auto t0 = std::chrono::steady_clock::now();
  double green_1shard = 0, green_4shard = 0;
  for (const int shards : shard_counts) {
    for (const double ratio : ratios) {
      const auto p = measure_sharding(shards, total_replicas / shards, clients, ratio,
                                      warmup, measure);
      if (ratio == 0.0 && shards == 1) green_1shard = p.green_per_second;
      if (ratio == 0.0 && shards == 4) green_4shard = p.green_per_second;
      std::printf("%7d | %5.0f%% | %12.0f | %12.0f | %8.2fms | %9.2fms | %9llu\n", shards,
                  ratio * 100, p.actions_per_second, p.green_per_second, p.mean_latency_ms,
                  p.mean_barrier_ms, static_cast<unsigned long long>(p.cross_committed));
    }
  }
  std::printf("\n(green/s: aggregate engine green actions incl. session guards; barrier: mean "
              "first-green -> last-green wait of committed cross-shard actions)\n");
  if (green_1shard > 0 && green_4shard > 0) {
    std::printf("scaling at 0%% cross-shard: 4 shards / 1 shard = %.2fx\n",
                green_4shard / green_1shard);
  }

  if (smoke) {
    const double total_wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count();
    double budget_ms = 90'000;
    if (const char* b = std::getenv("TORDB_SHARDING_BUDGET_MS")) {
      budget_ms = std::atof(b);
    }
    if (total_wall_ms > budget_ms) {
      std::fprintf(stderr,
                   "FAIL: smoke sweep took %.0f ms, over the %.0f ms budget — the "
                   "routing/apply hot path regressed\n",
                   total_wall_ms, budget_ms);
      return 1;
    }
    std::printf("smoke budget: %.0f ms <= %.0f ms OK\n", total_wall_ms, budget_ms);
  }
  return 0;
}
