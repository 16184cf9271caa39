// Shared helpers for the paper-reproduction benchmark binaries.
//
// Every binary prints the rows/series of one table or figure from the
// paper's §7 evaluation (or a DESIGN.md ablation), plus the paper's
// reference values where applicable. Set TORDB_BENCH_FAST=1 for a reduced
// sweep (used in CI smoke runs).
//
// Beyond the table furniture, this hoists the bits every bench used to
// re-implement: percentile cell formatting, the metrics window-series
// print, the wall-clock budget guard, a minimal JSON emitter for the
// machine-readable BENCH_*.json summaries the perf trajectory is tracked
// with run-over-run, and the §7 experiment setup itself — closed-loop
// clients (ClosedLoopDriver) over one deployment of any compared algorithm
// (Deployment).
#pragma once

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/corel.h"
#include "baselines/twopc.h"
#include "db/database.h"
#include "workload/cluster.h"
#include "workload/stats.h"

namespace tordb::bench {

inline bool fast_mode() {
  const char* v = std::getenv("TORDB_BENCH_FAST");
  return v != nullptr && std::strcmp(v, "0") != 0;
}

inline void header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("paper reference: %s\n\n", paper_ref.c_str());
}

inline void row_sep(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// "   11.43 /  12.10 /  14.77" — the mean/p99/p999 latency cell the
/// per-algorithm comparison tables use.
inline std::string lat_triple(double mean, double p99, double p999) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%8.2f /%7.2f /%7.2f", mean, p99, p999);
  return buf;
}

/// "   3.10ms |    9.84ms" — the p50/p99 pair cell; `width` matches the
/// caller's column layout.
inline std::string lat_pair_ms(double p50, double p99, int width = 8) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%*.2fms | %*.2fms", width, p50, width, p99);
  return buf;
}

/// Print a MetricsRegistry::window_table() with the standard caption.
inline void print_window_series(const std::string& caption, const std::string& table) {
  if (table.empty()) return;
  std::printf("\n%s:\n%s", caption.c_str(), table.c_str());
}

/// Wall-clock stopwatch for whole-bench budgets.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double ms() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// The CI smoke guard: fail loudly when the sweep exceeds its wall budget
/// (`env_var` overrides `default_ms`). Returns false — and prints the FAIL
/// line — on overrun; prints the OK line otherwise. The budgets are
/// deliberately loose: they tolerate sanitizers and slow runners, not an
/// order-of-magnitude hot-path regression.
inline bool check_budget(double wall_ms, const char* env_var, double default_ms,
                         const char* what) {
  double budget_ms = default_ms;
  if (const char* b = std::getenv(env_var)) budget_ms = std::atof(b);
  if (wall_ms > budget_ms) {
    std::fprintf(stderr, "FAIL: %s took %.0f ms, over the %.0f ms budget\n", what, wall_ms,
                 budget_ms);
    return false;
  }
  std::printf("%s wall clock: %.0f ms <= %.0f ms budget OK\n", what, wall_ms, budget_ms);
  return true;
}

/// Minimal JSON emitter for the BENCH_*.json machine-readable summaries:
/// an array of flat objects, one per sweep row, written in one shot.
/// Numbers print with enough precision to round-trip; strings are assumed
/// printable ASCII (bench labels).
class JsonRows {
 public:
  void begin_row() {
    rows_.emplace_back();
    first_field_ = true;
  }
  void field(const char* key, double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    raw(key, buf);
  }
  void field(const char* key, std::int64_t v) { raw(key, std::to_string(v)); }
  void field(const char* key, std::uint64_t v) { raw(key, std::to_string(v)); }
  void field(const char* key, int v) { raw(key, std::to_string(v)); }
  void field(const char* key, bool v) { raw(key, v ? "true" : "false"); }
  void field(const char* key, const std::string& v) { raw(key, "\"" + v + "\""); }

  std::string str() const {
    std::string out = "[\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out += "  {" + rows_[i] + "}";
      if (i + 1 < rows_.size()) out += ",";
      out += "\n";
    }
    out += "]\n";
    return out;
  }

  /// Write the array to `path`; prints where it went (or a warning).
  bool write(const std::string& path) const {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (f) f << str();
    if (!f) {
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
      return false;
    }
    std::printf("machine-readable summary: %s (%zu rows)\n", path.c_str(), rows_.size());
    return true;
  }

 private:
  void raw(const char* key, const std::string& value) {
    std::string& row = rows_.back();
    if (!first_field_) row += ", ";
    first_field_ = false;
    row += "\"";
    row += key;
    row += "\": ";
    row += value;
  }

  std::vector<std::string> rows_;
  bool first_field_ = true;
};

// --- the §7 experiment setup -----------------------------------------------
//
// "Clients are constantly injecting actions into the system, the next action
// from a client being introduced immediately after the previous action from
// that client is completed", each action ~200 bytes, clients spread one per
// replica. The engine's replies wait for the global order; its (cheap,
// deterministic) database application costs nothing in simulated time.

enum class Algorithm {
  kEngine,         ///< the paper's replication engine, forced disk writes
  kEngineDelayed,  ///< the engine with delayed (asynchronous) disk writes
  kCorel,          ///< COReL-style: per-action end-to-end acks
  kTwoPc,          ///< replicated two-phase commit
};

/// "v<n>" via to_chars: the closed-loop drivers stamp every write with a
/// fresh value; this skips the std::to_string temporary and the concat.
/// The bytes are identical to "v" + std::to_string(n).
inline std::string value_tag(std::int64_t n) {
  char buf[24];
  buf[0] = 'v';
  const char* end = std::to_chars(buf + 1, buf + sizeof(buf), n).ptr;
  return std::string(static_cast<const char*>(buf), end);
}

/// Closed-loop clients: each issues its next action the moment the previous
/// one completes, and stops issuing at the window end; latency is recorded
/// for completions inside [window_start, window_end).
class ClosedLoopDriver {
 public:
  /// The client calls done(true) on success, done(false) on abort/timeout;
  /// only successes count toward throughput, but the loop always continues.
  using SubmitFn = std::function<void(std::function<void(bool)> done)>;

  ClosedLoopDriver(Simulator& sim, SimTime window_start, SimTime window_end)
      : sim_(sim), window_start_(window_start), window_end_(window_end) {}

  void add_client(SubmitFn submit) {
    clients_.push_back(std::move(submit));
    issue(clients_.size() - 1);
  }

  std::uint64_t completed_in_window() const { return completed_; }
  const workload::LatencyStats& latencies() const { return stats_; }

 private:
  void issue(std::size_t idx) {
    const SimTime t0 = sim_.now();
    if (t0 >= window_end_) return;  // stop issuing after the window
    clients_[idx]([this, idx, t0](bool ok) {
      const SimTime now = sim_.now();
      if (ok && now >= window_start_ && now < window_end_) {
        ++completed_;
        stats_.record(now - t0);
      }
      issue(idx);
    });
  }

  Simulator& sim_;
  SimTime window_start_;
  SimTime window_end_;
  std::vector<SubmitFn> clients_;
  std::uint64_t completed_ = 0;
  workload::LatencyStats stats_;
};

/// Optional deployment knobs beyond the algorithm and the replica count.
struct DeployOptions {
  int sites = 1;              ///< replicas spread round-robin over this many sites
  NetworkParams net;          ///< inter-site latency and WAN bandwidth
  core::ReplicaOptions node;  ///< engine only: action padding, quorum mode, ...
  SimDuration metrics_window = 0;  ///< engine only: >0 rolls a metrics window this often
};

/// One formed group of `replicas` replicas running `algorithm` on a fresh
/// simulated network (the engine as an EngineCluster, the baselines as bare
/// replicas), two simulated seconds after start so views have settled.
class Deployment {
 public:
  Deployment(Algorithm algorithm, int replicas, std::uint64_t seed = 1, DeployOptions o = {})
      : replicas_(replicas) {
    if (algorithm == Algorithm::kEngine || algorithm == Algorithm::kEngineDelayed) {
      workload::ClusterOptions c;
      c.replicas = replicas;
      c.seed = seed;
      c.net = o.net;
      c.node = o.node;
      c.obs.metrics_window = o.metrics_window;
      if (algorithm == Algorithm::kEngineDelayed) c.node.storage.mode = SyncMode::kDelayed;
      cluster_ = std::make_unique<workload::EngineCluster>(c);
      for (NodeId i = 0; i < replicas; ++i) cluster_->net().set_site(i, i % o.sites);
      cluster_->run_for(seconds(2));  // form the primary component
      return;
    }
    sim_ = std::make_unique<Simulator>(seed);
    net_ = std::make_unique<Network>(*sim_, o.net);
    std::vector<NodeId> all;
    for (NodeId i = 0; i < replicas; ++i) all.push_back(i);
    for (NodeId i = 0; i < replicas; ++i) {
      net_->add_node(i);
      net_->set_site(i, i % o.sites);
    }
    for (NodeId i = 0; i < replicas; ++i) {
      if (algorithm == Algorithm::kCorel) {
        add_baseline(std::make_shared<baselines::CorelReplica>(*net_, i, all));
      } else {
        add_baseline(std::make_shared<baselines::TwoPcReplica>(*net_, i, all));
      }
    }
    sim_->run_for(seconds(2));  // views settle (no-op for 2PC)
  }

  Simulator& sim() { return cluster_ ? cluster_->sim() : *sim_; }
  /// The engine algorithms' cluster.
  workload::EngineCluster& cluster() { return *cluster_; }

  /// A closed-loop client writing its own key ("key-<id>") with strict
  /// semantics, attached to `replica` (default: client_id % replicas).
  ClosedLoopDriver::SubmitFn client(int client_id, int replica = -1) {
    const NodeId at = replica >= 0 ? replica : client_id % replicas_;
    auto next = [client_id, counter = std::int64_t{0}]() mutable {
      return db::Command::put("key-" + std::to_string(client_id),
                              "value-" + std::to_string(++counter));
    };
    if (!cluster_) {
      return [submit = baselines_[static_cast<std::size_t>(at)],
              next](std::function<void(bool)> done) mutable { submit(next(), std::move(done)); };
    }
    return [c = cluster_.get(), at, client_id, next](std::function<void(bool)> done) mutable {
      c->engine(at).submit({}, next(), client_id, core::Semantics::kStrict,
                           [done = std::move(done)](const core::Reply& r) { done(!r.aborted); });
    };
  }

  /// Close the partial tail window and render the engine's metrics series.
  std::string window_table(const std::vector<std::string>& columns) {
    if (!cluster_ || !cluster_->metrics()) return "";
    cluster_->sample_metrics();
    cluster_->metrics()->roll(cluster_->sim().now());
    return cluster_->metrics()->window_table(columns);
  }

 private:
  using BaselineSubmit = std::function<void(db::Command, std::function<void(bool)>)>;

  template <typename Replica>
  void add_baseline(std::shared_ptr<Replica> r) {
    baselines_.push_back([r](db::Command cmd, std::function<void(bool)> done) {
      r->submit(std::move(cmd), std::move(done));
    });
  }

  int replicas_;
  std::unique_ptr<workload::EngineCluster> cluster_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<Network> net_;
  std::vector<BaselineSubmit> baselines_;  ///< each owns its replica
};

/// The counter columns the engine time-series tables print.
inline const std::vector<std::string> kWindowColumns = {
    "engine.actions_green", "engine.primaries_installed", "storage.forces",
    "gc.safe_deliveries",   "net.messages",
};

struct Throughput {
  double actions_per_second = 0;
  double mean_latency_ms = 0;
};

/// Closed-loop throughput: `clients` default clients, measured over
/// `measure` after `warmup` of simulated time.
inline Throughput run_closed_loop(Deployment& dep, int clients, SimDuration warmup,
                                  SimDuration measure) {
  Simulator& sim = dep.sim();
  ClosedLoopDriver driver(sim, sim.now() + warmup, sim.now() + warmup + measure);
  for (int c = 0; c < clients; ++c) driver.add_client(dep.client(c));
  sim.run_for(warmup + measure + millis(100));
  return {static_cast<double>(driver.completed_in_window()) / to_seconds(measure),
          driver.latencies().mean_ms()};
}

/// run_closed_loop on a fresh deployment (seed 1).
inline Throughput measure_throughput(Algorithm algorithm, int replicas, int clients,
                                     SimDuration warmup, SimDuration measure,
                                     DeployOptions o = {}) {
  Deployment dep(algorithm, replicas, 1, std::move(o));
  return run_closed_loop(dep, clients, warmup, measure);
}

}  // namespace tordb::bench
