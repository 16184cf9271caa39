// Prepared-check transaction coordinator microbench (DESIGN.md §13).
//
// Closed-loop flag-checked transfers over range-sharded groups, with random
// range moves running underneath and periodic barrier-stamped snapshot
// reads. Reported per configuration:
//  - throughput (committed transactions per simulated second) and the
//    client-observed commit latency p50/p99;
//  - the protocol-internal split: prepare -> verdict (every vote in)
//    p50/p99 and the round-2 barrier wait p50/p99 (from the txn.*
//    histograms);
//  - abort causes (failed check vs fence budget vs other), wholesale fenced
//    restarts and confirms rerouted by a mid-transaction range move;
//  - snapshot reads served and the worst drain wait the gate paid.
// Every run ends with an exactly-once ledger audit (the key counters sum to
// twice the commits the clients saw, no `__txn*` cell left), and a
// determinism pass (same seed twice -> identical commit counts and final
// per-shard digests) runs every time.
//
// Pass --quick (or set TORDB_BENCH_FAST=1) for the reduced CI smoke sweep.
// TORDB_TXN_BUDGET_MS (default 240000) bounds the total wall clock.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "txn/coordinator.h"
#include "util/rng.h"
#include "workload/sharded_cluster.h"
#include "workload/stats.h"

namespace {

using namespace tordb;
using namespace tordb::workload;

constexpr int kKeys = 32;

std::string key_of(int i) {
  std::string k = "k";
  k += static_cast<char>('0' + i / 10);
  k += static_cast<char>('0' + i % 10);
  return k;
}

std::vector<std::string> splits_for(int shards) {
  std::vector<std::string> v;
  for (int s = 1; s < shards; ++s) v.push_back(key_of(s * kKeys / shards));
  return v;
}

struct RunOut {
  std::uint64_t committed = 0;
  std::uint64_t aborted_check = 0;
  std::uint64_t aborted_fenced = 0;
  std::uint64_t aborted_other = 0;
  std::uint64_t restarts = 0;
  std::uint64_t rerouted = 0;
  std::uint64_t snapshots = 0;
  double snap_drain_worst_ms = 0;
  double p50_ms = 0, p99_ms = 0;           ///< client-observed commit latency
  double pd_p50_us = 0, pd_p99_us = 0;     ///< prepare -> verdict
  double bar_p50_us = 0, bar_p99_us = 0;   ///< round-2 barrier wait
  double txn_per_s = 0;
  std::uint64_t digest = 0;
};

RunOut run_txn(int shards, int clients, double invalid_fraction, bool moves,
               SimDuration measure, std::uint64_t seed) {
  ShardedClusterOptions o;
  o.shards = shards;
  o.replicas_per_shard = 3;
  o.seed = seed;
  o.range_splits = splits_for(shards);
  o.obs.metrics_window = millis(500);
  ShardedCluster cluster(o);
  cluster.run_for(seconds(1));  // primaries form

  Rng rng(seed * 7919 + 3);
  const SimTime we = cluster.sim().now() + measure;
  RunOut out;
  LatencyStats lat;
  std::int64_t replied_commits = 0;  ///< transfers whose client saw a commit

  std::function<void(int)> pump;
  pump = [&](int cli) {
    if (cluster.sim().now() >= we) return;
    const int a = static_cast<int>(rng.next_below(kKeys));
    const int b = (a + 1 + static_cast<int>(rng.next_below(kKeys - 1))) % kKeys;
    const bool bogus = rng.chance(invalid_fraction);
    db::Command cmd;
    cmd.ops.push_back(db::Op{db::OpType::kCheck, "flag", bogus ? "no" : "", 0});
    cmd.ops.push_back(db::Op{db::OpType::kAdd, key_of(a), "", 1});
    cmd.ops.push_back(db::Op{db::OpType::kAdd, key_of(b), "", 1});
    const SimTime t0 = cluster.sim().now();
    cluster.router().submit(100 + cli, std::move(cmd),
                            [&, cli, t0](const shard::RouteReply& r) {
                              if (r.committed) {
                                lat.record(cluster.sim().now() - t0);
                                ++replied_commits;
                              }
                              pump(cli);
                            });
  };
  for (int c = 0; c < clients; ++c) pump(c);

  std::function<void()> mover;  // outlives the whole run: self-reschedules
  if (moves) {
    mover = [&] {
      if (cluster.sim().now() >= we) return;
      const int r = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(cluster.directory().range_count())));
      const auto [lo, hi] = cluster.directory().range_bounds(r);
      const int owner = cluster.directory().range_owner(r);
      const int to = (owner + 1 +
                      static_cast<int>(rng.next_below(static_cast<std::uint64_t>(shards - 1)))) %
                     shards;
      cluster.move_range(lo, hi, to);
      cluster.sim().after(millis(400), mover);
    };
    cluster.sim().after(millis(300), mover);
  }

  std::function<void()> snapper;
  snapper = [&] {
    if (cluster.sim().now() >= we) return;
    db::Command q;
    q.ops.push_back(db::Op{db::OpType::kGet, key_of(static_cast<int>(rng.next_below(kKeys))),
                           "", 0});
    q.ops.push_back(db::Op{db::OpType::kGet, key_of(static_cast<int>(rng.next_below(kKeys))),
                           "", 0});
    cluster.txn().snapshot_read(std::move(q), [&](const txn::SnapshotReadReply& r) {
      const double wait_ms = to_millis(r.drain_wait);
      if (wait_ms > out.snap_drain_worst_ms) out.snap_drain_worst_ms = wait_ms;
    });
    cluster.sim().after(millis(500), snapper);
  };
  cluster.sim().after(millis(250), snapper);

  cluster.run_for(measure);
  for (int guard = 0;
       !(cluster.router().idle() && cluster.rebalancer().idle() && cluster.txn().idle());
       ++guard) {
    if (guard > 600) {
      std::fprintf(stderr, "FAIL: txn bench did not drain\n");
      std::exit(1);
    }
    cluster.run_for(millis(100));
  }
  if (auto violation = cluster.check_all()) {
    std::fprintf(stderr, "FAIL: %s\n", violation->c_str());
    std::exit(1);
  }
  // Exactly-once ledger, read at each shard's most advanced replica: every
  // committed transfer added 1 to two keys and nothing else did, and no
  // reserved transaction cell survives the drain.
  const auto best = [&](int sh) -> const db::Database& {
    int pick = -1;
    for (int i = 0; i < cluster.replicas_per_shard(); ++i) {
      if (!cluster.node(sh, i).running()) continue;
      if (pick < 0 || cluster.node(sh, i).engine().green_count() >
                          cluster.node(sh, pick).engine().green_count()) {
        pick = i;
      }
    }
    return cluster.node(sh, pick).engine().database();
  };
  std::int64_t ledger = 0;
  for (int k = 0; k < kKeys; ++k) {
    const std::string v = best(cluster.directory().shard_of(key_of(k))).get(key_of(k));
    ledger += v.empty() ? 0 : std::stoll(v);
  }
  std::size_t residue = 0;
  for (int sh = 0; sh < cluster.shards(); ++sh) residue += best(sh).scan_prefix("__txn").size();
  if (ledger != 2 * replied_commits || residue != 0) {
    std::fprintf(stderr, "FAIL: ledger %lld for %lld commits, %zu reserved cells left\n",
                 static_cast<long long>(ledger), static_cast<long long>(replied_commits),
                 residue);
    std::exit(1);
  }

  const txn::TxnStats& s = cluster.txn().stats();
  out.committed = s.committed;
  out.aborted_check = s.aborted_check;
  out.aborted_fenced = s.aborted_fenced;
  out.aborted_other = s.aborted_other;
  out.restarts = s.restarts;
  out.rerouted = s.confirm_rerouted;
  out.snapshots = s.snapshot_reads;
  out.p50_ms = lat.percentile_ms(0.50);
  out.p99_ms = lat.percentile_ms(0.99);
  out.txn_per_s = static_cast<double>(s.committed) / (to_millis(measure) / 1000.0);
  if (cluster.metrics()) {
    const obs::Histogram& pd = cluster.metrics()->histogram("txn.prepare_decide_us");
    const obs::Histogram& bar = cluster.metrics()->histogram("txn.barrier_wait_us");
    out.pd_p50_us = pd.quantile(0.50);
    out.pd_p99_us = pd.quantile(0.99);
    out.bar_p50_us = bar.quantile(0.50);
    out.bar_p99_us = bar.quantile(0.99);
  }
  std::uint64_t h = 0x74786e62ULL;  // "txnb"
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(s.committed);
  mix(s.aborted_check + s.aborted_fenced + s.aborted_other);
  for (int sh = 0; sh < cluster.shards(); ++sh) {
    mix(static_cast<std::uint64_t>(cluster.green_count(sh)));
    for (int i = 0; i < cluster.replicas_per_shard(); ++i) {
      if (cluster.node(sh, i).running()) mix(cluster.node(sh, i).engine().db_digest());
    }
  }
  out.digest = h;
  return out;
}

void print_run(const RunOut& r) {
  std::printf("  %7.0f txn/s | commit p50 %6.2fms p99 %6.2fms | aborts chk/fen/oth "
              "%llu/%llu/%llu\n",
              r.txn_per_s, r.p50_ms, r.p99_ms,
              static_cast<unsigned long long>(r.aborted_check),
              static_cast<unsigned long long>(r.aborted_fenced),
              static_cast<unsigned long long>(r.aborted_other));
  std::printf("  prepare->decide p50 %6.0fus p99 %6.0fus | round-2 barrier p50 %6.0fus "
              "p99 %6.0fus\n",
              r.pd_p50_us, r.pd_p99_us, r.bar_p50_us, r.bar_p99_us);
  std::printf("  restarts %llu | confirms rerouted by moves %llu | snapshot reads %llu "
              "(worst drain %.2fms)\n",
              static_cast<unsigned long long>(r.restarts),
              static_cast<unsigned long long>(r.rerouted),
              static_cast<unsigned long long>(r.snapshots), r.snap_drain_worst_ms);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = bench::fast_mode();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0 || std::strcmp(argv[i], "--smoke") == 0) {
      quick = true;
    }
  }

  bench::header(
      "Cross-shard prepared-check transactions (DESIGN.md §13)",
      "two-round prepare/confirm over per-shard green orders: checked "
      "transfers commit atomically across groups, moves reroute in-flight "
      "confirms, snapshot reads pin a green-watermark vector");

  const auto t0 = std::chrono::steady_clock::now();
  const SimDuration measure = quick ? seconds(4) : seconds(10);

  struct Config {
    int shards;
    int clients;
    double invalid;
    bool moves;
  };
  std::vector<Config> configs = {{2, 8, 0.02, false}, {4, 16, 0.02, false}, {4, 16, 0.02, true}};
  if (quick) configs = {{2, 8, 0.02, false}, {2, 8, 0.02, true}};

  for (const Config& c : configs) {
    std::printf("shards=%d clients=%d invalid=%.2f moves=%s\n", c.shards, c.clients, c.invalid,
                c.moves ? "on" : "off");
    const RunOut r = run_txn(c.shards, c.clients, c.invalid, c.moves, measure, /*seed=*/7);
    print_run(r);
    if (r.committed == 0) {
      std::fprintf(stderr, "FAIL: no transaction committed\n");
      return 1;
    }
    if (c.invalid > 0 && r.aborted_check == 0) {
      std::fprintf(stderr, "FAIL: injected invalid checks never aborted\n");
      return 1;
    }
    if (r.snapshots == 0) {
      std::fprintf(stderr, "FAIL: no snapshot read completed\n");
      return 1;
    }
    bench::row_sep();
  }

  // Determinism: the same seed must reproduce the run bit-identically.
  {
    const RunOut a = run_txn(2, 8, 0.02, true, seconds(3), 11);
    const RunOut b = run_txn(2, 8, 0.02, true, seconds(3), 11);
    if (a.digest != b.digest || a.committed != b.committed) {
      std::fprintf(stderr, "FAIL: same-seed runs diverged (digest %llx vs %llx)\n",
                   static_cast<unsigned long long>(a.digest),
                   static_cast<unsigned long long>(b.digest));
      return 1;
    }
    std::printf("determinism: two same-seed runs -> digest %016llx, %llu commits OK\n",
                static_cast<unsigned long long>(a.digest),
                static_cast<unsigned long long>(a.committed));
  }

  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  double budget_ms = 240'000;
  if (const char* b = std::getenv("TORDB_TXN_BUDGET_MS")) budget_ms = std::atof(b);
  if (wall_ms > budget_ms) {
    std::fprintf(stderr, "FAIL: txn bench took %.0f ms, over the %.0f ms budget\n", wall_ms,
                 budget_ms);
    return 1;
  }
  std::printf("wall clock: %.0f ms <= %.0f ms budget OK\n", wall_ms, budget_ms);
  return 0;
}
