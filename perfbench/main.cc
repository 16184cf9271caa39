// tordb benchmark driver.
//
//   perfbench --workload <evs48|shards32x6|tpcc|churn> --seed <n>
//             --seconds <s> --trace <0|1>
//   perfbench --selfcheck
//
// A run repeats same-seed episodes (fresh deployment each time) until
// `--seconds` of host time are spent: setup-only episodes for a second (at
// least 30), one warm-up episode, then at least three measured ones. The
// simulated results must repeat exactly across the episodes; host metrics
// are reported as medians over the measured ones, setup times as medians
// over the setup-only ones. With --trace 0 it prints the end-to-end
// metrics; with --trace 1 it alternates untraced and traced episodes and
// prints the per-layer metrics, counters taken from the untraced episodes
// and stage splits from the traced ones. The last line of standard output
// is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A correctness violation prints correct=false and exits 1.
//
// --selfcheck runs every workload twice with the same seed, and shards32x6
// at 1 and 2 lane threads, and exits 1 unless the simulated results agree.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "perfbench.h"

namespace tordb::perfbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

const Metric kEndToEnd[] = {
    {"commit_per_s", "1/s"},      {"commit_p50_ms", "ms"}, {"commit_p99_ms", "ms"},
    {"host_ms_per_sim_s", "ms"},  {"peak_rss_mb", "MB"},   {"setup_s", "s"},
};

const Metric kPerLayer[] = {
    {"commit_samples", "count"},
    {"failed_frac", "ratio"},
    {"outage_ms", "ms"},
    {"sim.events_per_commit", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.peak_queue", "count"},
    {"sim.lane_windows", "count"},
    {"sim.handoffs_per_commit", "count"},
    {"sim.run_for_s", "s"},
    {"net.msgs_per_commit", "count"},
    {"net.bytes_per_commit", "B"},
    {"net.copied_bytes_per_commit", "B"},
    {"net.reach_cache_hit_ratio", "ratio"},
    {"gc.ordered_per_commit", "count"},
    {"gc.safe_per_commit", "count"},
    {"gc.views", "count"},
    {"gc.gathers", "count"},
    {"gc.retrans", "count"},
    {"gc.view_change_p50_ms", "ms"},
    {"gc.view_change_p99_ms", "ms"},
    {"core.announce_per_commit", "count"},
    {"core.persist_batch_avg", "count"},
    {"core.stage.order_p50_ms", "ms"},
    {"core.stage.order_p99_ms", "ms"},
    {"core.stage.stable_p50_ms", "ms"},
    {"core.stage.stable_p99_ms", "ms"},
    {"core.stage.reply_p50_ms", "ms"},
    {"core.stage.reply_p99_ms", "ms"},
    {"core.exchange_p50_ms", "ms"},
    {"core.exchange_p99_ms", "ms"},
    {"core.exchanges", "count"},
    {"core.primaries", "count"},
    {"core.cpc_sent", "count"},
    {"core.retrans_sent", "count"},
    {"core.session.retries", "count"},
    {"core.session.failovers", "count"},
    {"core.peak_body_kb", "KB"},
    {"core.submit_us", "us"},
    {"core.weak_query_us", "us"},
    {"core.dirty_query_us", "us"},
    {"storage.forces_per_commit", "count"},
    {"storage.syncs_per_force", "ratio"},
    {"storage.lost_records", "count"},
    {"db.keys", "count"},
    {"db.table_slots", "count"},
    {"db.rehashes", "count"},
    {"db.check_aborts", "count"},
    {"shard.cross_frac", "ratio"},
    {"shard.failovers", "count"},
    {"shard.bounces", "count"},
    {"shard.route_cache_hit_ratio", "ratio"},
    {"shard.barrier_p50_ms", "ms"},
    {"shard.barrier_p99_ms", "ms"},
    {"shard.submit_us", "us"},
    {"txn.prepares_per_txn", "count"},
    {"txn.restarts", "count"},
    {"txn.cancels", "count"},
    {"txn.prepare_decide_p50_ms", "ms"},
    {"txn.prepare_decide_p99_ms", "ms"},
    {"obs.events_per_commit", "count"},
    {"obs.trace_overhead", "ratio"},
    {"setup.cluster_s", "s"},
    {"setup.form_s", "s"},
    {"setup.load_s", "s"},
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0;
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Median of a host metric over `eps`.
double host_median(const std::vector<Episode>& eps, const std::string& name) {
  std::vector<double> v;
  for (const Episode& e : eps) v.push_back(e.host.at(name));
  return median(std::move(v));
}

/// First simulated metric on which `b` differs from `a` (restricted to
/// the names `a` has), or empty when they agree exactly.
std::string first_difference(const Episode& a, const Episode& b) {
  for (const auto& [name, value] : a.sim) {
    const auto it = b.sim.find(name);
    if (it == b.sim.end() || it->second != value) return name;
  }
  return {};
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double since_s(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Setup-only episodes per run, for setup_s and its phases: at least this
/// many, for at least this many host seconds.
constexpr std::size_t kMinSetups = 30;
constexpr double kSetupSeconds = 1.0;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "       perfbench --selfcheck\n");
  return 2;
}

int selfcheck() {
  bool ok = true;
  auto report = [&ok](const std::string& what, const Episode& a, const Episode& b) {
    std::string diff = first_difference(a, b);
    if (diff.empty()) diff = first_difference(b, a);
    const bool same = diff.empty() && a.violation.empty() && b.violation.empty();
    std::printf("%-44s %s%s\n", what.c_str(), same ? "identical" : "DIFFERS at ",
                same ? "" : (diff.empty() ? "a correctness check" : diff.c_str()));
    ok = ok && same;
  };
  for (const std::string& w : workload_names()) {
    EpisodeConfig c;
    c.workload = w;
    c.seed = 7;
    const Episode first = run_episode(c);
    report(w + ": two same-seed runs", first, run_episode(c));
    if (w == "shards32x6") {
      c.lane_threads = 2;
      report(w + ": 1 vs 2 lane threads", first, run_episode(c));
    }
  }
  std::printf("selfcheck: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

int run(const EpisodeConfig& base, double budget_s) {
  const auto t0 = std::chrono::steady_clock::now();
  // The first episode warms the allocator and caches: it takes part in the
  // determinism checks but not in the host medians. Traced runs then
  // alternate plain and traced episodes, so both see the same host
  // conditions and their ratio is the tracing overhead.
  Episode warmup;
  double rss_mb = 0;
  std::vector<Episode> setups, plain, traced;
  std::string violation;
  std::uint64_t attempted = 0, failed = 0;
  // Setup takes from under a millisecond (churn) to tens of milliseconds,
  // so one sample per measured episode makes an unsteady median: setup_s
  // and its phases come from repeated setups, run first so that they all
  // start from the same small heap.
  while (violation.empty() && (setups.size() < kMinSetups || since_s(t0) < kSetupSeconds)) {
    EpisodeConfig s = base;
    s.traced = false;
    s.setup_only = true;
    setups.push_back(run_episode(s));
    violation = setups.back().violation;
  }
  const std::size_t min_each = base.traced ? 2 : 3;
  for (bool first = true;
       violation.empty() && (first || plain.size() < min_each ||
                             (base.traced && traced.size() < min_each) ||
                             since_s(t0) < budget_s);
       first = false) {
    EpisodeConfig c = base;
    c.traced = base.traced && !first && plain.size() > traced.size();
    Episode ep = run_episode(c);
    attempted += ep.attempted;
    failed += ep.failed;
    std::printf("episode %zu%s: host_ms_per_sim_s %.3f\n",
                first ? 0 : plain.size() + traced.size() + 1, c.traced ? " (traced)" : "",
                ep.host.at("host_ms_per_sim_s"));
    // Every plain episode must reproduce the warm-up's simulated results,
    // and tracing must not move virtual time either: a traced episode
    // reproduces every simulated result of the plain ones.
    const Episode& reference = first ? ep : (c.traced && !traced.empty() ? traced.front() : warmup);
    const std::string diff = first_difference(reference, ep);
    if (!ep.violation.empty()) {
      violation = ep.violation;
    } else if (!diff.empty()) {
      violation = "same-seed episodes differ in " + diff;
    }
    if (first) {
      warmup = std::move(ep);
      // The first episode's peak: later ones add only the allocator's
      // fragmentation from however many episodes the budget allowed.
      rss_mb = peak_rss_mb();
    } else {
      (c.traced ? traced : plain).push_back(std::move(ep));
    }
  }

  std::vector<std::pair<const Metric*, double>> out;
  auto value = [&](const std::string& name) -> double {
    if (name == "peak_rss_mb") return rss_mb;
    if (name == "obs.trace_overhead") {
      return host_median(traced, "host_ms_per_sim_s") / host_median(plain, "host_ms_per_sim_s");
    }
    if (name.rfind("setup", 0) == 0) return host_median(setups, name);
    if (warmup.host.count(name)) return host_median(plain, name);
    if (warmup.sim.count(name)) return warmup.sim.at(name);
    return traced.front().sim.at(name);  // stage splits exist only when traced
  };
  if (violation.empty()) {
    if (base.traced) {
      for (const Metric& m : kPerLayer) out.emplace_back(&m, value(m.name));
    } else {
      for (const Metric& m : kEndToEnd) out.emplace_back(&m, value(m.name));
    }
  } else {
    failed = attempted;
    std::fprintf(stderr, "correctness violation: %s\n", violation.c_str());
  }

  std::printf(
      "workload %s, seed %llu, %s: %zu setups + 1 warm-up + %zu plain + %zu traced episodes in "
      "%.1f s\n",
      base.workload.c_str(), static_cast<unsigned long long>(base.seed),
      base.traced ? "traced" : "untraced", setups.size(), plain.size(), traced.size(),
      since_s(t0));
  for (const auto& [m, v] : out) std::printf("  %-30s %16.6f %s\n", m->name, v, m->unit);
  std::string json = "{\"correct\": ";
  json += violation.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", out[i].first->name, out[i].second, out[i].first->unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return violation.empty() ? 0 : 1;
}

}  // namespace
}  // namespace tordb::perfbench

int main(int argc, char** argv) {
  using namespace tordb::perfbench;
  EpisodeConfig config;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selfcheck") return selfcheck();
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (arg == "--workload") {
      config.workload = v;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(v);
    } else if (arg == "--trace") {
      trace = std::atoi(v);
    } else {
      return usage();
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), config.workload) == names.end() || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return usage();
  }
  config.traced = trace == 1;
  try {
    return run(config, seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
