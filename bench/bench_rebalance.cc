// Ablation A7 (DESIGN.md §9): online shard rebalancing.
//
// A range-sharded deployment serves a fixed closed-loop write load while K
// fenced key-range moves run back to back. The question rebalancing has to
// answer is "what does a move cost the clients?": client-visible p50/p99
// during the move windows versus steady state, the fence-bounce count (each
// bounce is one client command that hit the frozen range and re-routed to
// the new owner), and the bytes shipped per move.
//
// Pass --quick (or set TORDB_BENCH_FAST=1) for the reduced CI smoke sweep.
#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "util/rng.h"
#include "workload/sharded_cluster.h"

namespace {

using namespace tordb;

struct RebalancePoint {
  std::uint64_t moves_completed = 0;
  std::int64_t bytes_moved = 0;
  double mean_move_ms = 0;           ///< fence submit -> cutover, per move
  std::uint64_t fenced_bounces = 0;  ///< router retries caused by fences
  // Client-visible latency, segregated by whether a move was in flight when
  // the action completed.
  workload::LatencyStats steady, during_move;
};

/// `clients` closed-loop writers over the key space k00..k63 (split
/// uniformly across the shards, so each range holds a comparable row
/// population) while `moves` fenced key-range moves run back to back.
/// Exactly-once routing makes the completed counts exact: a bounced command
/// commits once at the new owner or not at all.
RebalancePoint measure_rebalance(int shards, int replicas_per_shard, int clients, int moves,
                                 SimDuration warmup, SimDuration measure) {
  const std::uint64_t seed = 1;
  const int kKeys = 64;
  auto key_of = [](int i) {
    std::string k = "k";
    k += static_cast<char>('0' + i / 10);
    k += static_cast<char>('0' + i % 10);
    return k;
  };
  workload::ShardedClusterOptions o;
  o.shards = shards;
  o.replicas_per_shard = replicas_per_shard;
  o.seed = seed;
  for (int s = 1; s < shards; ++s) o.range_splits.push_back(key_of(kKeys * s / shards));
  o.session.max_attempts_per_request = 100000;
  workload::ShardedCluster cluster(o);
  cluster.run_for(seconds(2));  // every shard forms its primary component

  Simulator& sim = cluster.sim();
  const SimTime window_start = sim.now() + warmup;
  const SimTime window_end = window_start + measure;
  RebalancePoint p;
  int moves_in_flight = 0;
  int moves_started = 0;
  double move_ms_sum = 0;

  // Closed-loop writers over the whole key space; each completion is binned
  // by whether a move was in flight when it landed.
  std::vector<Rng> rngs;
  for (int c = 0; c < clients; ++c) {
    rngs.emplace_back(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(c) * 48271 + 17);
  }
  std::function<void(int)> loop = [&](int c) {
    const SimTime t0 = sim.now();
    if (t0 >= window_end) return;
    const std::string key = key_of(static_cast<int>(rngs[static_cast<std::size_t>(c)].next_below(64)));
    cluster.router().submit(c, db::Command::add(key, 1), [&, c, t0](const shard::RouteReply& r) {
      const SimTime now = sim.now();
      if (r.committed && now >= window_start && now < window_end) {
        (moves_in_flight > 0 ? p.during_move : p.steady).record(now - t0);
      }
      loop(c);
    });
  };
  for (int c = 0; c < clients; ++c) loop(c);

  // Moves run back to back (with a short gap) from the window start: pick
  // ranges round-robin, always targeting the next shard over.
  const SimDuration gap = millis(200);
  std::function<void()> do_move = [&] {
    if (moves_started >= moves || sim.now() >= window_end) return;
    const shard::Directory& dir = cluster.directory();
    const int r = moves_started % dir.range_count();
    const auto [lo, hi] = dir.range_bounds(r);
    const int to = (dir.range_owner(r) + 1) % shards;
    ++moves_started;
    ++moves_in_flight;
    const bool accepted = cluster.move_range(lo, hi, to, [&](const shard::MoveReport& rep) {
      --moves_in_flight;
      if (rep.ok) move_ms_sum += to_seconds(rep.duration) * 1e3;
      sim.after(gap, do_move);
    });
    if (!accepted) {
      --moves_in_flight;
      sim.after(gap, do_move);
    }
  };
  sim.after(warmup, do_move);

  cluster.run_for(warmup + measure + millis(200));
  // Drain in-flight moves and bounced commands past the window edge.
  for (int rounds = 0; !(cluster.router().idle() && cluster.rebalancer().idle()) && rounds < 120;
       ++rounds) {
    cluster.run_for(seconds(1));
  }

  const shard::RebalancerStats& rs = cluster.rebalancer().stats();
  p.moves_completed = rs.moves_completed;
  p.bytes_moved = rs.bytes_moved;
  p.mean_move_ms = rs.moves_completed ? move_ms_sum / static_cast<double>(rs.moves_completed) : 0;
  p.fenced_bounces = cluster.router().stats().fenced_bounces;
  return p;
}

}  // namespace

int main(int argc, char** argv) {

  bool quick = bench::fast_mode();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  bench::header("Ablation A7: online rebalancing (range-sharded, closed-loop writers)",
                "client-visible latency while fenced key-range moves run: commands "
                "hitting a frozen range bounce once and commit at the new owner, so "
                "the move window pays a p99 tax but loses no writes");

  const int clients = 48;
  const SimDuration warmup = millis(500);
  const SimDuration measure = quick ? seconds(4) : seconds(12);

  struct Config {
    int shards;
    int replicas_per_shard;
    int moves;
  };
  std::vector<Config> configs = {{2, 3, 2}, {2, 3, 6}, {4, 3, 8}};
  if (quick) configs = {{2, 3, 2}};

  std::printf("%6s | %5s | %10s | %10s | %10s | %10s | %7s | %8s | %7s\n", "shards",
              "moves", "steady p50", "steady p99", "move p50", "move p99", "bounces",
              "bytes/mv", "move ms");
  bench::row_sep(95);
  for (const Config& c : configs) {
    const auto p =
        measure_rebalance(c.shards, c.replicas_per_shard, clients, c.moves, warmup, measure);
    std::printf("%6d | %2llu/%-2d | %s | %s | %7llu | %8lld | %7.0f\n",
                c.shards, static_cast<unsigned long long>(p.moves_completed), c.moves,
                bench::lat_pair_ms(p.steady.p50_ms(), p.steady.p99_ms()).c_str(),
                bench::lat_pair_ms(p.during_move.p50_ms(), p.during_move.p99_ms()).c_str(),
                static_cast<unsigned long long>(p.fenced_bounces),
                static_cast<long long>(p.moves_completed ? p.bytes_moved / static_cast<std::int64_t>(
                                                                p.moves_completed)
                                                          : 0),
                p.mean_move_ms);
  }
  std::printf("\n(move p50/p99: latency of client actions completing while a move was in "
              "flight; bounces: commands that hit a fence and re-routed; move ms: fence "
              "submit -> directory cutover, simulated)\n");
  return 0;
}
