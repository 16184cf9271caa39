// Long-run memory curve: body-store growth with and without white
// trimming (DESIGN.md §14, experiment A11).
//
// A router-driven deployment concentrates action creation on each shard's
// representative replica; the other replicas never originate actions, so
// their green lines reach peers only as the knowledge words on their gc
// stability traffic. With trimming on, the body stores plateau at the few
// milliseconds of in-flight history those words trail by; with it off they
// grow linearly with committed work.
//
// This bench runs the same closed-loop put workload through shard::Router
// twice — white_trim = false and the default true — sampling the summed
// body-store bytes over virtual time, and prints both curves plus a
// summary. The trim-off run is capped at a fraction of the trim-on
// horizon: its growth is linear by then, and letting it run the full
// horizon would only burn host memory to re-measure a known slope.
//
// Assertions (exit 1 on failure):
//   - plateau: the trim-on run's PEAK bytes stay below the trim-off run's
//     FINAL bytes even though the on-run commits several times more
//     actions;
//   - throughput: trim-on green throughput is within 5% of trim-off (the
//     words ride traffic the gc sends anyway);
//   - budget: if TORDB_MEM_BUDGET is set (bytes), the trim-on peak must
//     stay under it — the CI smoke guard against a trim-starvation
//     regression;
//   - disk copies: the group's simulated disks hold at most 1.5 private
//     copies of each committed body. Every replica's green record shares
//     the delivered wire (DESIGN.md §10), so the one copy left is the
//     creator's ongoing record; a green path that copies again reads N + 1.
//
// TORDB_BENCH_FAST=1 (or --smoke) reduces the horizons for CI.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "db/database.h"
#include "storage/stable_storage.h"
#include "workload/sharded_cluster.h"

namespace {

using namespace tordb;
using workload::ShardedCluster;
using workload::ShardedClusterOptions;

constexpr int kReplicasPerShard = 3;

struct Sample {
  double sim_s = 0;
  std::int64_t green = 0;       ///< committed greens since the window start
  std::int64_t body_bytes = 0;  ///< summed over every running replica
  std::int64_t white_lag = 0;   ///< max green count - min white line
};

struct RunResult {
  std::vector<Sample> curve;
  std::int64_t peak_bytes = 0;
  std::int64_t final_bytes = 0;
  std::int64_t greens = 0;
  double sim_seconds = 0;  ///< measured window length
  double green_per_second = 0;
  std::uint64_t disk_bytes_shared = 0;  ///< StorageStats deltas over the window,
  std::uint64_t disk_bytes_copied = 0;  ///< summed over every replica
};

std::int64_t total_green(ShardedCluster& c) {
  std::int64_t g = 0;
  for (int s = 0; s < c.shards(); ++s) g += c.green_count(s);
  return g;
}

std::int64_t total_body_bytes(ShardedCluster& c) {
  std::int64_t b = 0;
  for (int s = 0; s < c.shards(); ++s) {
    for (int i = 0; i < c.replicas_per_shard(); ++i) {
      if (c.node(s, i).running()) b += c.node(s, i).engine().action_log().body_bytes();
    }
  }
  return b;
}

StorageStats total_storage(ShardedCluster& c) {
  StorageStats t;
  for (int s = 0; s < c.shards(); ++s) {
    for (int i = 0; i < c.replicas_per_shard(); ++i) {
      const StorageStats& st = c.node(s, i).storage().stats();
      t.bytes_shared += st.bytes_shared;
      t.bytes_copied += st.bytes_copied;
    }
  }
  return t;
}

std::int64_t white_lag(ShardedCluster& c) {
  std::int64_t lag = 0;
  for (int s = 0; s < c.shards(); ++s) {
    std::int64_t min_white = -1, max_green = 0;
    for (int i = 0; i < c.replicas_per_shard(); ++i) {
      if (!c.node(s, i).running()) continue;
      const auto& e = c.node(s, i).engine();
      const std::int64_t wl = e.white_line();
      min_white = min_white < 0 ? wl : std::min(min_white, wl);
      max_green = std::max(max_green, e.green_count());
    }
    lag += max_green - std::max<std::int64_t>(min_white, 0);
  }
  return lag;
}

RunResult run_mode(bool trim, std::int64_t target_actions, std::uint64_t seed) {
  ShardedClusterOptions o;
  o.shards = 2;
  o.replicas_per_shard = kReplicasPerShard;
  o.seed = seed;
  o.node.engine.white_trim = trim;
  ShardedCluster cluster(o);
  cluster.run_for(seconds(2));  // every shard forms its primary component

  // Closed-loop writers through the router. Keys cycle a small per-client
  // pool so database size stays constant and only the body stores grow.
  const int kClients = 12;
  auto stop = std::make_shared<bool>(false);
  auto counters = std::make_shared<std::vector<std::int64_t>>(kClients, 0);
  auto issue = std::make_shared<std::function<void(int)>>();
  *issue = [&cluster, stop, counters, issue](int c) {
    if (*stop) return;
    const std::int64_t n = ++(*counters)[static_cast<std::size_t>(c)];
    db::Command cmd = db::Command::put(
        "key-" + std::to_string(c) + "-" + std::to_string(n % 64), std::to_string(n));
    cluster.router().submit(c, std::move(cmd),
                            [issue, c](const shard::RouteReply&) { (*issue)(c); });
  };
  for (int c = 0; c < kClients; ++c) (*issue)(c);

  RunResult r;
  const std::int64_t green_start = total_green(cluster);
  const StorageStats disk_start = total_storage(cluster);
  const double t_start = to_seconds(cluster.sim().now());
  const SimDuration sample_every = millis(500);
  // Liveness backstop only — the closed loop reaches target_actions long
  // before this in every healthy build.
  const double sim_cap_s = t_start + 4000.0;
  while (total_green(cluster) - green_start < target_actions &&
         to_seconds(cluster.sim().now()) < sim_cap_s) {
    cluster.run_for(sample_every);
    Sample s;
    s.sim_s = to_seconds(cluster.sim().now()) - t_start;
    s.green = total_green(cluster) - green_start;
    s.body_bytes = total_body_bytes(cluster);
    s.white_lag = white_lag(cluster);
    r.peak_bytes = std::max(r.peak_bytes, s.body_bytes);
    r.curve.push_back(s);
  }
  *stop = true;
  cluster.run_for(millis(200));  // drain in-flight submissions
  *issue = nullptr;  // the closure holds `issue` itself: break the cycle

  r.greens = total_green(cluster) - green_start;
  const StorageStats disk_end = total_storage(cluster);
  r.disk_bytes_shared = disk_end.bytes_shared - disk_start.bytes_shared;
  r.disk_bytes_copied = disk_end.bytes_copied - disk_start.bytes_copied;
  r.final_bytes = r.curve.empty() ? total_body_bytes(cluster) : r.curve.back().body_bytes;
  r.sim_seconds = to_seconds(cluster.sim().now()) - t_start;
  r.green_per_second = r.sim_seconds > 0 ? static_cast<double>(r.greens) / r.sim_seconds : 0;
  return r;
}

void print_curve(const char* label, const RunResult& r) {
  std::printf("%s: %lld greens in %.1f sim-s (%.0f green/s), peak %.1f KB, final %.1f KB\n",
              label, static_cast<long long>(r.greens), r.sim_seconds, r.green_per_second,
              static_cast<double>(r.peak_bytes) / 1024.0,
              static_cast<double>(r.final_bytes) / 1024.0);
  std::printf("%10s | %10s | %12s | %10s\n", "sim-s", "greens", "body KB", "white lag");
  tordb::bench::row_sep(52);
  // Downsample to ~16 rows so the shape reads at a glance.
  const std::size_t step = std::max<std::size_t>(1, r.curve.size() / 16);
  for (std::size_t i = 0; i < r.curve.size(); i += step) {
    const Sample& s = r.curve[i];
    std::printf("%10.1f | %10lld | %12.1f | %10lld\n", s.sim_s,
                static_cast<long long>(s.green),
                static_cast<double>(s.body_bytes) / 1024.0,
                static_cast<long long>(s.white_lag));
  }
  if (!r.curve.empty() && (r.curve.size() - 1) % step != 0) {
    const Sample& s = r.curve.back();
    std::printf("%10.1f | %10lld | %12.1f | %10lld\n", s.sim_s,
                static_cast<long long>(s.green),
                static_cast<double>(s.body_bytes) / 1024.0,
                static_cast<long long>(s.white_lag));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tordb;

  bool smoke = bench::fast_mode();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0 || std::strcmp(argv[i], "--quick") == 0) {
      smoke = true;
    }
  }

  bench::header("Body-store memory over a long router-driven run",
                "not a paper figure: DESIGN.md §14 / EXPERIMENTS.md A11 — white "
                "trimming on the gc's knowledge words turns unbounded body-store "
                "growth into a plateau without measurable throughput cost");

  // The trim-off horizon is a fraction of the trim-on one (see the
  // file comment): linear growth is established long before the cap, and
  // the peak-vs-final assertion below is *stronger* for the shorter run.
  const std::int64_t on_target = smoke ? 40'000 : 1'000'000;
  const std::int64_t off_target = smoke ? 20'000 : 200'000;

  std::printf("trim OFF (white_trim = false, capped at %lld actions):\n",
              static_cast<long long>(off_target));
  const RunResult off = run_mode(false, off_target, /*seed=*/7);
  print_curve("off", off);

  std::printf("trim ON (knowledge words on the gc stability streams, %lld actions):\n",
              static_cast<long long>(on_target));
  const RunResult on = run_mode(true, on_target, /*seed=*/7);
  print_curve("on ", on);

  bool ok = true;

  // Plateau: several times more committed work must still need less memory.
  if (on.peak_bytes >= off.final_bytes) {
    std::fprintf(stderr,
                 "FAIL: trim-on peak %lld B >= trim-off final %lld B — the body "
                 "stores are not plateauing\n",
                 static_cast<long long>(on.peak_bytes),
                 static_cast<long long>(off.final_bytes));
    ok = false;
  } else {
    std::printf("plateau: on-peak %.1f KB < off-final %.1f KB with %.1fx the actions OK\n",
                static_cast<double>(on.peak_bytes) / 1024.0,
                static_cast<double>(off.final_bytes) / 1024.0,
                static_cast<double>(on.greens) / static_cast<double>(std::max<std::int64_t>(
                                                     off.greens, 1)));
  }

  // Throughput: the words ride stability traffic the gc sends anyway.
  const double rel = off.green_per_second > 0
                         ? (on.green_per_second - off.green_per_second) / off.green_per_second
                         : 0;
  if (rel < -0.05) {
    std::fprintf(stderr, "FAIL: trim-on throughput %.0f green/s is %.1f%% below "
                 "trim-off %.0f green/s (budget: 5%%)\n",
                 on.green_per_second, -rel * 100.0, off.green_per_second);
    ok = false;
  } else {
    std::printf("throughput: on %.0f vs off %.0f green/s (%+.1f%%) within 5%% OK\n",
                on.green_per_second, off.green_per_second, rel * 100.0);
  }

  // Disk copies: per committed action the group records its body N + 1
  // times (N green records and the creator's ongoing record), so the mean
  // body is the group's recorded bytes over N + 1.
  const double per_action = static_cast<double>(std::max<std::int64_t>(on.greens, 1));
  const double copied = static_cast<double>(on.disk_bytes_copied) / per_action;
  const double shared = static_cast<double>(on.disk_bytes_shared) / per_action;
  const double body = (copied + shared) / (kReplicasPerShard + 1);
  const double copies = body > 0 ? copied / body : 0;
  std::printf("disk: %.1f B copied + %.1f B shared per action over the group (body ~%.1f B)\n",
              copied, shared, body);
  if (copies > 1.5) {
    std::fprintf(stderr, "FAIL: the disks copy %.2f bodies per action (budget: 1.5)\n", copies);
    ok = false;
  } else {
    std::printf("disk copies: %.2f bodies per action <= 1.5 OK\n", copies);
  }

  // CI budget guard: peak trim-on body bytes across the deployment.
  if (const char* b = std::getenv("TORDB_MEM_BUDGET")) {
    const std::int64_t budget = std::atoll(b);
    if (budget > 0 && on.peak_bytes > budget) {
      std::fprintf(stderr, "FAIL: trim-on peak %lld B over TORDB_MEM_BUDGET %lld B\n",
                   static_cast<long long>(on.peak_bytes), static_cast<long long>(budget));
      ok = false;
    } else {
      std::printf("budget: on-peak %lld B <= TORDB_MEM_BUDGET %lld B OK\n",
                  static_cast<long long>(on.peak_bytes), static_cast<long long>(budget));
    }
  }

  return ok ? 0 : 1;
}
