// The four benchmark workloads. Each builds its deployment only through
// the public harness (EngineCluster, ShardedCluster, TpccDriver,
// ClientSession, Router) and reads layer numbers only through public
// accessors: every layer's stats(), the simulator's event counters,
// ActionLog::body_bytes and a TraceBus subscriber. Host time is measured
// around the benchmark's own calls into the program.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "core/client_session.h"
#include "perfbench.h"
#include "workload/cluster.h"
#include "workload/sharded_cluster.h"
#include "workload/stats.h"
#include "workload/tpcc/driver.h"
#include "workload/tpcc/schema.h"

namespace tordb::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using workload::LatencyStats;

double since_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// An independent stream seed for stream `i` of one benchmark seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t state = seed * 0x100000001b3ULL + i;
  return splitmix64(state);
}

/// Host microseconds per call of one public entry point.
class CallTimer {
 public:
  template <typename F>
  void time(F&& f) {
    const auto t0 = Clock::now();
    f();
    us_.push_back(since_s(t0) * 1e6);
  }
  double median_us() const { return median(us_); }

 private:
  std::vector<double> us_;
};

/// Times host work in *reference milliseconds*. On a shared virtual machine
/// the vCPUs run at different speeds, and the speeds drift with the load of
/// other tenants over seconds to minutes, by up to 2x. So each timed span
/// runs with the calling thread pinned to the next CPU in rotation, and
/// right after it a fixed calibration kernel runs on that CPU. The span's
/// host time is divided by the kernel's time and scaled by the kernel's
/// reference time: a machine-wide slowdown slows both and cancels out,
/// while a change in the program's own cost does not touch the kernel.
/// Timed episodes are single-threaded, so pinning the caller pins the work.
class RefClock {
 public:
  /// Scales kernel units back to milliseconds: about the kernel's time on
  /// the 4-vCPU Xeon virtual machine the bounds in BENCHMARK.json were set on.
  static constexpr double kKernelRefMs = 0.55;

  RefClock() {
    sched_getaffinity(0, sizeof(allowed_), &allowed_);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  ~RefClock() { sched_setaffinity(0, sizeof(allowed_), &allowed_); }
  RefClock(const RefClock&) = delete;
  RefClock& operator=(const RefClock&) = delete;

  void start() {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
    t0_ = Clock::now();
  }

  /// Reference milliseconds since start().
  double stop_ms() {
    const double host_ms = since_s(t0_) * 1e3;
    const double kernel_ms = kernel();
    sched_setaffinity(0, sizeof(allowed_), &allowed_);
    return host_ms / kernel_ms * kKernelRefMs;
  }

 private:
  /// Host ms of a fixed mix resembling the simulator's: heap pushes and
  /// pops, random reads and writes over 128 KB, small allocations. The
  /// table stays in cache: over 8 MB, the kernel hung on memory latency and
  /// followed other tenants' load more than the program did, so calibrated
  /// times drifted by 10% between runs instead of 3%.
  static double kernel() {
    static std::vector<std::uint64_t> table(std::size_t{1} << 14, 1);
    static std::uint64_t x = 88172645463325252ULL;
    auto next = [] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    const auto t0 = Clock::now();
    std::uint64_t sink = 0;
    std::vector<std::uint64_t> heap;
    for (int i = 0; i < 2500; ++i) {
      heap.push_back(next());
      std::push_heap(heap.begin(), heap.end());
      std::uint64_t& slot = table[next() & (table.size() - 1)];
      sink += slot;
      slot = sink;
      auto s = std::make_unique<std::string>(static_cast<std::size_t>(64 + i % 100), 'x');
      sink += s->size();
    }
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end());
      sink += heap.back();
      heap.pop_back();
    }
    table[sink & (table.size() - 1)] = sink;  // keep the work observable
    return since_s(t0) * 1e3;
  }

  cpu_set_t allowed_{};
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  Clock::time_point t0_;
};

/// Cumulative layer counters summed over a deployment. Engine and gc stats
/// die with a crashed engine, so the churn workload folds a node's
/// counters into `retired` just before crashing it.
struct Counters {
  double events = 0, windows = 0, handoffs = 0;
  double msgs = 0, bytes = 0, copied = 0, reach_hits = 0, reach_misses = 0;
  double gc_ordered = 0, gc_safe = 0, gc_views = 0, gc_gathers = 0, gc_retrans = 0;
  double announces = 0, batches = 0, batch_actions = 0, exchanges = 0, primaries = 0, cpc = 0,
         retrans_sent = 0;
  double syncs = 0, forces = 0, lost = 0;

  void add_engine(core::ReplicaNode& n) {
    if (!n.running()) return;
    const core::EngineStats& e = n.engine().stats();
    announces += static_cast<double>(e.announces_sent);
    batches += static_cast<double>(e.persist_batches);
    batch_actions += static_cast<double>(e.persist_batch_actions);
    exchanges += static_cast<double>(e.exchanges);
    primaries += static_cast<double>(e.primaries_installed);
    cpc += static_cast<double>(e.cpc_sent);
    retrans_sent += static_cast<double>(e.green_retrans_sent + e.red_retrans_sent);
    const gc::GcStats& g = n.engine().group_comm().stats();
    gc_ordered += static_cast<double>(g.messages_ordered);
    gc_safe += static_cast<double>(g.safe_deliveries);
    gc_views += static_cast<double>(g.regular_configs);
    gc_gathers += static_cast<double>(g.gathers_started);
    gc_retrans += static_cast<double>(g.retransmissions);
  }
};

constexpr double Counters::*kCounterFields[] = {
    &Counters::events,     &Counters::windows,      &Counters::handoffs,
    &Counters::msgs,       &Counters::bytes,        &Counters::copied,
    &Counters::reach_hits, &Counters::reach_misses, &Counters::gc_ordered,
    &Counters::gc_safe,    &Counters::gc_views,     &Counters::gc_gathers,
    &Counters::gc_retrans, &Counters::announces,    &Counters::batches,
    &Counters::batch_actions, &Counters::exchanges, &Counters::primaries,
    &Counters::cpc,        &Counters::retrans_sent, &Counters::syncs,
    &Counters::forces,     &Counters::lost};

Counters operator-(Counters a, const Counters& b) {
  for (auto f : kCounterFields) a.*f -= b.*f;
  return a;
}

Counters sample(Simulator& sim, Network& net, const std::vector<core::ReplicaNode*>& nodes,
                const Counters& retired) {
  Counters c = retired;
  c.events = static_cast<double>(sim.executed_events());
  c.windows = static_cast<double>(sim.windows_run());
  c.handoffs = static_cast<double>(sim.handoffs_posted());
  const NetworkStats& ns = net.stats();
  c.msgs = static_cast<double>(ns.messages_sent);
  c.bytes = static_cast<double>(ns.bytes_sent);
  c.copied = static_cast<double>(ns.payload_bytes_copied);
  c.reach_hits = static_cast<double>(ns.reachable_cache_hits);
  c.reach_misses = static_cast<double>(ns.reachable_cache_misses);
  for (core::ReplicaNode* n : nodes) {
    c.add_engine(*n);
    const StorageStats& s = n->storage().stats();
    c.syncs += static_cast<double>(s.syncs_requested);
    c.forces += static_cast<double>(s.forces);
    c.lost += static_cast<double>(s.records_lost_in_crash);
  }
  return c;
}

/// Per-layer counters of the measurement window, normalised per commit.
void put_layer_counters(Episode& ep, const Counters& d, double commits) {
  auto per = [commits](double x) { return ratio(x, commits); };
  ep.sim["sim.events_per_commit"] = per(d.events);
  ep.sim["sim.lane_windows"] = d.windows;
  ep.sim["sim.handoffs_per_commit"] = per(d.handoffs);
  ep.sim["net.msgs_per_commit"] = per(d.msgs);
  ep.sim["net.bytes_per_commit"] = per(d.bytes);
  ep.sim["net.copied_bytes_per_commit"] = per(d.copied);
  ep.sim["net.reach_cache_hit_ratio"] = ratio(d.reach_hits, d.reach_hits + d.reach_misses);
  ep.sim["gc.ordered_per_commit"] = per(d.gc_ordered);
  ep.sim["gc.safe_per_commit"] = per(d.gc_safe);
  ep.sim["gc.views"] = d.gc_views;
  ep.sim["gc.gathers"] = d.gc_gathers;
  ep.sim["gc.retrans"] = d.gc_retrans;
  ep.sim["core.announce_per_commit"] = per(d.announces);
  ep.sim["core.persist_batch_avg"] = ratio(d.batch_actions, d.batches);
  ep.sim["core.exchanges"] = d.exchanges;
  ep.sim["core.primaries"] = d.primaries;
  ep.sim["core.cpc_sent"] = d.cpc;
  ep.sim["core.retrans_sent"] = d.retrans_sent;
  ep.sim["storage.forces_per_commit"] = per(d.forces);
  ep.sim["storage.syncs_per_force"] = ratio(d.syncs, d.forces);
  ep.sim["storage.lost_records"] = d.lost;
}

void put_db(Episode& ep, const std::vector<core::ReplicaNode*>& nodes) {
  double keys = 0, slots = 0, rehashes = 0;
  for (const core::ReplicaNode* n : nodes) {
    if (!n->running()) continue;
    const db::DbStats s = n->engine().database().stats();
    keys += static_cast<double>(s.interned_keys);
    slots += static_cast<double>(s.table_slots);
    rehashes += static_cast<double>(s.table_rehashes);
  }
  ep.sim["db.keys"] = keys;
  ep.sim["db.table_slots"] = slots;
  ep.sim["db.rehashes"] = rehashes;
}

double peak_body_kb(const std::vector<core::ReplicaNode*>& nodes) {
  std::int64_t peak = 0;
  for (const core::ReplicaNode* n : nodes) {
    if (n->running()) peak = std::max(peak, n->engine().action_log().body_bytes());
  }
  return static_cast<double>(peak) / 1024.0;
}

/// Splits each action's virtual latency into stages from the trace bus
/// (traced episodes only): submitted -> red -> green at the creating
/// replica, green -> client reply where the reply names the action. It
/// also times membership changes: from an injected topology change to
/// each node's next regular gc view (gc delivers the transitional view at
/// install time, just before the regular one, so that pair spans no
/// time), and the engine's exchange -> primary install per node. Plus
/// cross-shard barrier waits and prepare -> decide times. Declared before
/// the deployment so it outlives every emit of the bus it subscribes to.
class StageTracer {
 public:
  void attach(obs::TraceBus& bus, SimTime window_start, SimTime window_end) {
    ws_ = window_start;
    we_ = window_end;
    bus.subscribe([this](const obs::TraceEvent& e) { on_event(e); });
  }
  /// The harness changed the topology (crash, recovery, partition, heal).
  void on_topology_change(SimTime now) {
    changed_at_ = now;
    viewed_.clear();
  }
  void on_reply(const ActionId& id, SimTime now) {
    if (id.server_id == kNoNode) return;
    replied_[pack_action_id(id)] = now;
  }
  void put(Episode& ep) const {
    LatencyStats order, stable, reply;
    for (const auto& [key, s] : actions_) {
      if (s.submitted < ws_ || s.submitted >= we_) continue;
      if (s.red >= 0) order.record(s.red - s.submitted);
      if (s.red >= 0 && s.green >= 0) stable.record(s.green - s.red);
      const auto r = replied_.find(key);
      if (s.green >= 0 && r != replied_.end()) reply.record(r->second - s.green);
    }
    put_pair(ep, "core.stage.order", order);
    put_pair(ep, "core.stage.stable", stable);
    put_pair(ep, "core.stage.reply", reply);
    put_pair(ep, "gc.view_change", view_change_);
    put_pair(ep, "core.exchange", exchange_);
    put_pair(ep, "shard.barrier", barrier_);
    put_pair(ep, "txn.prepare_decide", prepare_decide_);
  }

 private:
  struct Stamps {
    SimTime submitted = -1, red = -1, green = -1;
  };

  static void put_pair(Episode& ep, const std::string& name, const LatencyStats& s) {
    ep.sim[name + "_p50_ms"] = s.p50_ms();
    ep.sim[name + "_p99_ms"] = s.p99_ms();
  }

  void on_event(const obs::TraceEvent& e) {
    switch (e.kind) {
      case obs::EventKind::kActionSubmitted:
      case obs::EventKind::kActionRed:
      case obs::EventKind::kActionGreen: {
        if (e.node != e.action.server_id) return;  // stages at the creator only
        Stamps& s = actions_[pack_action_id(e.action)];
        if (e.kind == obs::EventKind::kActionSubmitted) s.submitted = e.time;
        if (e.kind == obs::EventKind::kActionRed && s.red < 0) s.red = e.time;
        if (e.kind == obs::EventKind::kActionGreen && s.green < 0) s.green = e.time;
        return;
      }
      case obs::EventKind::kViewRegular:
        if (changed_at_ >= ws_ && changed_at_ < we_ && viewed_.insert(e.node).second) {
          view_change_.record(e.time - changed_at_);
        }
        return;
      case obs::EventKind::kExchangeStart:
        exchange_at_[e.node] = e.time;
        return;
      case obs::EventKind::kPrimaryInstall: {
        const auto it = exchange_at_.find(e.node);
        if (it == exchange_at_.end()) return;
        if (it->second >= ws_ && it->second < we_) exchange_.record(e.time - it->second);
        exchange_at_.erase(it);
        return;
      }
      case obs::EventKind::kShardCrossCommit:
        if (e.b == 1 && e.time >= ws_ && e.time < we_) barrier_.record(e.c);
        return;
      case obs::EventKind::kTxnDecide:
        if (e.time >= ws_ && e.time < we_) prepare_decide_.record(e.c);
        return;
      default:
        return;
    }
  }

  SimTime ws_ = 0, we_ = 0;
  std::unordered_map<std::uint64_t, Stamps> actions_;
  std::unordered_map<std::uint64_t, SimTime> replied_;
  SimTime changed_at_ = -1;
  std::unordered_set<NodeId> viewed_;  ///< nodes with a regular view since the change
  std::unordered_map<NodeId, SimTime> exchange_at_;
  LatencyStats view_change_, exchange_, barrier_, prepare_decide_;
};

workload::ObsOptions obs_options(bool traced) {
  workload::ObsOptions o;
  o.trace = traced;
  o.check = traced;
  o.checker_fail_fast = false;  // the benchmark reports violations itself
  return o;
}

/// State common to every workload's episode: host timers, the measured
/// window and the bookkeeping of one client-visible result.
struct Run {
  explicit Run(const EpisodeConfig& c) : config(c) {}

  const EpisodeConfig& config;
  Episode ep;
  StageTracer stages;
  Counters retired;
  SimTime ws = 0, we = 0;
  double run_host_s = 0;  ///< host seconds inside run_until over [ws, we)
  double run_ref_ms = 0;  ///< the same, in reference ms, calibrated slice by slice
  double peak_body = 0;
  std::uint64_t window_commits = 0;  ///< commits completing inside [ws, we)
  std::uint64_t bus_at_ws = 0, bus_at_we = 0;
  LatencyStats latency;              ///< virtual submit (or due) -> reply, in-window commits
  Counters at_ws, at_we;
  CallTimer submit_calls;
  RefClock clock;

  void set_window(SimTime start, SimDuration length) {
    ws = start;
    we = start + length;
  }

  /// Run the simulation from now to `end` in 250 ms slices, timing the
  /// host cost of the part inside [ws, we) slice by slice (so that each
  /// slice is calibrated against the CPU it ran on) and sampling body-store
  /// size.
  void run_to(Simulator& sim, SimTime end, const std::vector<core::ReplicaNode*>& nodes) {
    while (sim.now() < end) {
      const SimTime to = std::min(end, sim.now() + millis(250));
      const bool measured = sim.now() >= ws && to <= we;
      const auto t0 = Clock::now();
      if (measured) clock.start();
      sim.run_until(to);
      if (measured) {
        run_ref_ms += clock.stop_ms();
        run_host_s += since_s(t0);
      }
      peak_body = std::max(peak_body, peak_body_kb(nodes));
    }
  }

  /// Run up to the window, through it (sampling counters at both edges),
  /// and return with the simulator parked at `we`.
  void run_window(Simulator& sim, Network& net, const std::vector<core::ReplicaNode*>& nodes,
                  const std::shared_ptr<obs::TraceBus>& bus) {
    run_to(sim, ws, nodes);
    at_ws = sample(sim, net, nodes, retired);
    if (bus) bus_at_ws = bus->emitted();
    run_to(sim, we, nodes);
    at_we = sample(sim, net, nodes, retired);
    if (bus) bus_at_we = bus->emitted();
  }

  /// Drain until `done()` or the deadline; false when the deadline hit.
  bool drain(Simulator& sim, const std::vector<core::ReplicaNode*>& nodes,
             const std::function<bool()>& done, SimDuration deadline) {
    const SimTime until = sim.now() + deadline;
    while (!done()) {
      if (sim.now() >= until) return false;
      run_to(sim, sim.now() + millis(100), nodes);
    }
    return true;
  }

  void record_commit(SimTime start, SimTime now) {
    if (now < ws || now >= we) return;
    ++window_commits;
    latency.record(now - start);
  }

  void fail(const std::string& what) {
    if (ep.violation.empty()) ep.violation = what;
  }

  /// Sum the setup phases into setup_s; true when the episode ends here.
  bool end_setup() {
    ep.host["setup_s"] =
        ep.host["setup.cluster_s"] + ep.host["setup.form_s"] + ep.host["setup.load_s"];
    return config.setup_only;
  }

  /// Fill the metrics every workload reports.
  void finish(Simulator& sim) {
    const double window_s = to_seconds(we - ws);
    const Counters d = at_we - at_ws;
    const double commits = static_cast<double>(window_commits);
    ep.sim["commit_per_s"] = commits / window_s;
    ep.sim["commit_p50_ms"] = latency.p50_ms();
    ep.sim["commit_p99_ms"] = latency.p99_ms();
    ep.sim["commit_samples"] = static_cast<double>(latency.count());
    ep.sim["failed_frac"] = ratio(static_cast<double>(ep.failed), static_cast<double>(ep.attempted));
    ep.sim["sim.events"] = static_cast<double>(sim.executed_events());
    ep.sim["sim.peak_queue"] = static_cast<double>(sim.peak_queue_depth());
    ep.sim["core.peak_body_kb"] = peak_body;
    put_layer_counters(ep, d, commits);
    ep.host["host_ms_per_sim_s"] = run_ref_ms / window_s;
    ep.host["sim.run_for_s"] = run_host_s;
    ep.host["sim.ns_per_event"] = ratio(run_host_s * 1e9, d.events);
    ep.host["core.submit_us"] = 0;
    ep.host["shard.submit_us"] = 0;
    ep.host["core.weak_query_us"] = 0;
    ep.host["core.dirty_query_us"] = 0;
    if (config.traced) {
      stages.put(ep);
      ep.sim["obs.events_per_commit"] = ratio(static_cast<double>(bus_at_we - bus_at_ws), commits);
    }
  }
};

template <typename Cluster>
std::vector<core::ReplicaNode*> all_nodes(Cluster& c, int shards, int per_shard) {
  std::vector<core::ReplicaNode*> v;
  for (int s = 0; s < shards; ++s) {
    for (int i = 0; i < per_shard; ++i) v.push_back(&c.node(s, i));
  }
  return v;
}

std::vector<core::ReplicaNode*> all_nodes(workload::EngineCluster& c) {
  std::vector<core::ReplicaNode*> v;
  for (NodeId id : c.all_ids()) v.push_back(&c.node(id));
  return v;
}

/// Form the primary, timed as setup.form_s; false if it did not form.
template <typename Pred>
bool form(Run& run, Simulator& sim, SimDuration d, Pred formed) {
  run.clock.start();
  sim.run_for(d);
  run.ep.host["setup.form_s"] = run.clock.stop_ms() / 1e3;
  return formed();
}

// --- evs48 -------------------------------------------------------------------
// One 48-replica group, one closed-loop strict-put client per replica,
// submitting straight to ReplicationEngine::submit with forced writes.

Episode run_evs48(const EpisodeConfig& config) {
  constexpr int kReplicas = 48;
  Run run(config);
  run.clock.start();
  workload::ClusterOptions o;
  o.replicas = kReplicas;
  o.seed = config.seed;
  o.obs = obs_options(config.traced);
  workload::EngineCluster c(o);
  run.ep.host["setup.cluster_s"] = run.clock.stop_ms() / 1e3;
  const auto nodes = all_nodes(c);
  if (!form(run, c.sim(), seconds(2), [&] { return c.converged_primary(c.all_ids()); })) {
    run.fail("evs48: primary did not form");
  }
  if (run.end_setup()) return run.ep;
  Simulator& sim = c.sim();
  run.set_window(sim.now() + millis(500), seconds(3));
  if (c.trace_bus()) run.stages.attach(*c.trace_bus(), run.ws, run.we);

  std::uint64_t outstanding = 0, committed_attempts = 0;
  std::vector<std::int64_t> counters(kReplicas, 0);
  std::function<void(int)> issue = [&](int i) {
    const SimTime t0v = sim.now();
    if (t0v >= run.we) return;
    const bool counted = t0v >= run.ws;
    if (counted) ++run.ep.attempted;
    ++outstanding;
    auto cmd = db::Command::put("key-" + std::to_string(i),
                                "value-" + std::to_string(++counters[static_cast<std::size_t>(i)]));
    run.submit_calls.time([&] {
      c.engine(i).submit({}, std::move(cmd), i, core::Semantics::kStrict,
                         [&, i, t0v, counted](const core::Reply& r) {
                           --outstanding;
                           if (!r.aborted) {
                             if (counted) ++committed_attempts;
                             run.record_commit(t0v, sim.now());
                             if (config.traced) run.stages.on_reply(r.action, sim.now());
                           }
                           issue(i);
                         });
    });
  };
  for (int i = 0; i < kReplicas; ++i) issue(i);
  run.run_window(sim, c.net(), nodes, c.trace_bus());
  if (!run.drain(sim, nodes, [&] { return outstanding == 0; }, seconds(10))) {
    run.fail("evs48: requests still outstanding at the drain deadline");
  }
  run.ep.failed = run.ep.attempted - committed_attempts;
  if (!run.drain(sim, nodes, [&] { return c.converged_primary(c.all_ids()); }, seconds(5))) {
    run.fail("evs48: replicas did not converge after the drain");
  }
  if (auto v = c.check_all()) run.fail("evs48: " + *v);
  run.finish(sim);
  run.ep.host["core.submit_us"] = run.submit_calls.median_us();
  run.ep.sim["db.check_aborts"] = 0;
  put_db(run.ep, nodes);
  return run.ep;
}

// --- shards32x6 --------------------------------------------------------------
// 32 hash shards of 6 replicas behind the router, 192 closed-loop clients,
// 10% two-shard puts, lane-mode simulation.

void put_router(Episode& ep, const shard::RouterStats& a, const shard::RouterStats& b,
                const shard::Directory::RouteCacheStats& ca,
                const shard::Directory::RouteCacheStats& cb) {
  const double single = static_cast<double>(b.routed_single - a.routed_single);
  const double cross = static_cast<double>(b.routed_cross - a.routed_cross);
  ep.sim["shard.cross_frac"] = ratio(cross, single + cross);
  ep.sim["shard.failovers"] = static_cast<double>(b.failovers - a.failovers);
  ep.sim["shard.bounces"] = static_cast<double>(b.fenced_bounces - a.fenced_bounces);
  const double hits = static_cast<double>(cb.hits - ca.hits);
  const double misses = static_cast<double>(cb.misses - ca.misses);
  ep.sim["shard.route_cache_hit_ratio"] = ratio(hits, hits + misses);
}

void put_txn(Episode& ep, const txn::TxnStats& s) {
  ep.sim["txn.prepares_per_txn"] = ratio(static_cast<double>(s.prepares), static_cast<double>(s.begun));
  ep.sim["txn.restarts"] = static_cast<double>(s.restarts);
  ep.sim["txn.cancels"] = static_cast<double>(s.cancels);
}

bool all_converged(const workload::ShardedCluster& c) {
  for (int s = 0; s < c.shards(); ++s) {
    if (!c.converged(s)) return false;
  }
  return true;
}

Episode run_shards32x6(const EpisodeConfig& config) {
  constexpr int kShards = 32, kPerShard = 6, kClients = 192, kKeysPerShard = 64;
  Run run(config);
  run.clock.start();
  workload::ShardedClusterOptions o;
  o.shards = kShards;
  o.replicas_per_shard = kPerShard;
  o.seed = config.seed;
  o.sim_lanes = true;
  o.sim_threads = config.lane_threads;
  o.sim_handoff = o.net.detect_delay;
  o.sim_env = false;
  o.obs = obs_options(config.traced);
  workload::ShardedCluster c(o);
  run.ep.host["setup.cluster_s"] = run.clock.stop_ms() / 1e3;
  const auto nodes = all_nodes(c, kShards, kPerShard);
  if (!form(run, c.sim(), seconds(2), [&] { return all_converged(c); })) {
    run.fail("shards32x6: primaries did not form");
  }
  if (run.end_setup()) return run.ep;
  Simulator& sim = c.sim();
  run.set_window(sim.now() + millis(500), seconds(3));
  if (c.trace_bus()) run.stages.attach(*c.trace_bus(), run.ws, run.we);

  // Key pools per owning shard, found through the directory's hash.
  std::vector<std::vector<std::string>> pool(kShards);
  for (int n = 0, full = 0; full < kShards; ++n) {
    std::string key = "k";
    key += std::to_string(n);
    auto& bucket = pool[static_cast<std::size_t>(c.directory().shard_of(key))];
    if (bucket.size() < kKeysPerShard) {
      bucket.push_back(std::move(key));
      if (bucket.size() == kKeysPerShard) ++full;
    }
  }

  struct Client {
    Rng rng{0};
    std::int64_t counter = 0;
  };
  std::vector<Client> clients(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients[static_cast<std::size_t>(i)].rng = Rng(derive_seed(config.seed, i));
  }
  std::uint64_t outstanding = 0, committed_attempts = 0;
  std::function<void(int)> issue = [&](int i) {
    const SimTime t0v = sim.now();
    if (t0v >= run.we) return;
    const bool counted = t0v >= run.ws;
    if (counted) ++run.ep.attempted;
    ++outstanding;
    Client& cl = clients[static_cast<std::size_t>(i)];
    const int home = i % kShards;
    auto pick = [&](int s) -> const std::string& {
      const auto& b = pool[static_cast<std::size_t>(s)];
      return b[cl.rng.next_below(b.size())];
    };
    const std::string value = "value-" + std::to_string(++cl.counter);
    db::Command cmd = db::Command::put(pick(home), value);
    if (cl.rng.chance(0.10)) {
      int other = static_cast<int>(cl.rng.next_below(kShards - 1));
      if (other >= home) ++other;
      cmd.ops.push_back(db::Command::put(pick(other), value).ops.front());
    }
    run.submit_calls.time([&] {
      c.router().submit(i, std::move(cmd), [&, i, t0v, counted](const shard::RouteReply& r) {
        --outstanding;
        if (r.committed) {
          if (counted) ++committed_attempts;
          run.record_commit(t0v, sim.now());
        }
        // A think time keeps the clients from locking into step with the
        // group-commit cycle, where every request would take exactly two
        // forces.
        sim.after(micros(static_cast<std::int64_t>(
                      clients[static_cast<std::size_t>(i)].rng.next_below(2000))),
                  [&issue, i] { issue(i); });
      });
    });
  };
  for (int i = 0; i < kClients; ++i) issue(i);

  run.run_to(sim, run.ws, nodes);
  const shard::RouterStats router_ws = c.router().stats();
  const auto cache_ws = c.directory().route_cache_stats();
  run.run_window(sim, c.net(), nodes, c.trace_bus());
  const shard::RouterStats router_we = c.router().stats();
  const auto cache_we = c.directory().route_cache_stats();
  if (!run.drain(sim, nodes, [&] { return outstanding == 0 && c.router().idle(); }, seconds(10))) {
    run.fail("shards32x6: requests still outstanding at the drain deadline");
  }
  run.ep.failed = run.ep.attempted - committed_attempts;
  if (!run.drain(sim, nodes, [&] { return all_converged(c); }, seconds(5))) {
    run.fail("shards32x6: shards did not converge after the drain");
  }
  if (auto v = c.check_all()) run.fail("shards32x6: " + *v);
  run.finish(sim);
  run.ep.host["shard.submit_us"] = run.submit_calls.median_us();
  run.ep.sim["db.check_aborts"] = 0;
  put_db(run.ep, nodes);
  put_router(run.ep, router_ws, router_we, cache_ws, cache_we);
  return run.ep;
}

// --- tpcc --------------------------------------------------------------------
// TPC-C mix over 4 range shards of 3 replicas: checked new-orders,
// commutative payments, timestamp deliveries, weak order-status and dirty
// stock-level queries.

std::int64_t stored_num(workload::ShardedCluster& c, const std::string& key) {
  const int s = c.directory().shard_of(key);
  for (int i = 0; i < c.replicas_per_shard(); ++i) {
    const core::ReplicaNode& n = c.node(s, i);
    if (n.running() && !n.has_left()) {
      const std::string v = n.engine().database().get(key);
      return v.empty() ? 0 : std::stoll(v);
    }
  }
  return -1;
}

/// Host µs per inline-answered submit_query probe on one replica.
double query_probe_us(core::ReplicationEngine& engine, const std::string& key,
                      core::QueryMode mode, Run& run) {
  CallTimer t;
  for (int i = 0; i < 21; ++i) {
    bool answered = false;
    t.time([&] {
      engine.submit_query(db::Command::get(key), mode,
                          [&answered](const core::Reply&) { answered = true; });
    });
    if (!answered) run.fail("tpcc: a weak/dirty query did not answer inline");
  }
  return t.median_us();
}

/// Every sample of a LatencyStats, in sorted order: the percentile at
/// rank i/(n-1) is exactly the i-th order statistic.
void append_samples(const LatencyStats& s, LatencyStats& out) {
  const std::size_t n = s.count();
  for (std::size_t i = 0; i < n; ++i) {
    const double p = n > 1 ? static_cast<double>(i) / static_cast<double>(n - 1) : 0.0;
    out.record(static_cast<SimDuration>(std::llround(s.percentile_ms(p) * 1e6)));
  }
}

Episode run_tpcc(const EpisodeConfig& config) {
  namespace tp = workload::tpcc;
  Run run(config);
  tp::TpccOptions t;
  t.warehouses = 8;
  t.zipf_theta = 0.99;
  t.remote_fraction = 0.10;
  t.clients = 16;
  t.seed = config.seed;
  run.clock.start();
  workload::ShardedClusterOptions o;
  o.shards = 4;
  o.replicas_per_shard = 3;
  o.seed = config.seed;
  o.range_splits = tp::warehouse_splits(t.warehouses, o.shards);
  o.sim_env = false;
  o.obs = obs_options(config.traced);
  workload::ShardedCluster c(o);
  run.ep.host["setup.cluster_s"] = run.clock.stop_ms() / 1e3;
  const auto nodes = all_nodes(c, o.shards, o.replicas_per_shard);
  if (!form(run, c.sim(), seconds(1), [&] { return all_converged(c); })) {
    run.fail("tpcc: primaries did not form");
  }
  run.clock.start();
  tp::TpccDriver driver(c, t);
  driver.load();
  run.ep.host["setup.load_s"] = run.clock.stop_ms() / 1e3;
  if (run.end_setup()) return run.ep;
  Simulator& sim = c.sim();
  // The terminals start with the window, so the driver's full-run counts
  // are exactly the transactions issued in it, with their outcomes through
  // the drain; its window counts (completions inside the window) give
  // throughput and latency.
  run.set_window(sim.now(), seconds(10));
  if (c.trace_bus()) run.stages.attach(*c.trace_bus(), run.ws, run.we);
  driver.start(run.ws, run.we);

  const shard::RouterStats router_ws = c.router().stats();
  const auto cache_ws = c.directory().route_cache_stats();
  const txn::TxnStats txn_ws = c.txn().stats();
  run.run_window(sim, c.net(), nodes, c.trace_bus());
  const shard::RouterStats router_we = c.router().stats();
  const auto cache_we = c.directory().route_cache_stats();
  txn::TxnStats txn_d = c.txn().stats();
  txn_d.begun -= txn_ws.begun;
  txn_d.prepares -= txn_ws.prepares;
  txn_d.restarts -= txn_ws.restarts;
  txn_d.cancels -= txn_ws.cancels;
  if (!run.drain(sim, nodes, [&] { return driver.idle(); }, seconds(30))) {
    run.fail("tpcc: terminals did not drain");
  }
  if (!run.drain(sim, nodes, [&] { return all_converged(c); }, seconds(5))) {
    run.fail("tpcc: shards did not converge after the drain");
  }

  // Attempts and failures by issue time, per transaction type; latency from
  // the window counts, where weak and dirty queries commit inline and count
  // toward throughput but not toward update latency.
  std::uint64_t check_aborts = 0;
  for (int k = 0; k < tp::kTxnTypes; ++k) {
    const auto type = static_cast<tp::TxnType>(k);
    const tp::TxnStats& s = driver.total(type);
    run.ep.attempted += s.committed + s.aborted_check + s.aborted_fenced + s.aborted_other;
    run.ep.failed += s.aborted_fenced + s.aborted_other;
    check_aborts += s.aborted_check;
    if (type == tp::TxnType::kOrderStatus || type == tp::TxnType::kStockLevel) continue;
    append_samples(driver.stats(type).latency, run.latency);
  }
  run.window_commits = driver.committed_in_window();

  if (auto v = c.check_all()) run.fail("tpcc: " + *v);
  if (driver.remote_unchecked() != 0) run.fail("tpcc: remote new-orders ran unchecked");
  for (int w = 0; w < t.warehouses; ++w) {
    for (int d = 0; d < t.districts; ++d) {
      if (stored_num(c, tp::district_ytd_key(w, d)) != driver.payment_sum(w, d)) {
        run.fail("tpcc: district ytd differs from the payment ledger");
      }
      if (stored_num(c, tp::district_order_count_key(w, d)) != driver.admitted_new_orders(w, d)) {
        run.fail("tpcc: district order count differs from the admitted orders");
      }
    }
  }

  const std::string probe_key = tp::customer_balance_key(0, 0, 0);
  core::ReplicationEngine& probe = c.node(c.directory().shard_of(probe_key), 0).engine();
  const double weak_us = query_probe_us(probe, probe_key, core::QueryMode::kWeak, run);
  const double dirty_us = query_probe_us(probe, probe_key, core::QueryMode::kDirty, run);

  run.finish(sim);
  run.ep.host["core.weak_query_us"] = weak_us;
  run.ep.host["core.dirty_query_us"] = dirty_us;
  run.ep.sim["db.check_aborts"] = static_cast<double>(check_aborts);
  put_db(run.ep, nodes);
  put_router(run.ep, router_ws, router_we, cache_ws, cache_we);
  put_txn(run.ep, txn_d);
  return run.ep;
}

// --- churn -------------------------------------------------------------------
// One 7-replica group under an open loop of 300 ops/s through 21 client
// sessions, with a fault every 2 s, each undone 1 s later: in turn a crash
// of the gc sequencer, a crash of another replica, and a 4|3
// partition.

Episode run_churn(const EpisodeConfig& config) {
  constexpr int kReplicas = 7, kSessions = 3 * kReplicas;
  constexpr SimDuration kInterval = 1'000'000'000 / 300;  // 300 ops/s
  constexpr SimDuration kFaultEvery = seconds(2), kFaultLasts = seconds(1);
  Run run(config);
  run.clock.start();
  workload::ClusterOptions o;
  o.replicas = kReplicas;
  o.seed = config.seed;
  o.obs = obs_options(config.traced);
  workload::EngineCluster c(o);
  run.ep.host["setup.cluster_s"] = run.clock.stop_ms() / 1e3;
  const auto nodes = all_nodes(c);
  if (!form(run, c.sim(), seconds(1), [&] { return c.converged_primary(c.all_ids()); })) {
    run.fail("churn: primary did not form");
  }
  if (run.end_setup()) return run.ep;
  Simulator& sim = c.sim();
  run.set_window(sim.now() + millis(500), seconds(120));
  if (c.trace_bus()) run.stages.attach(*c.trace_bus(), run.ws, run.we);

  // Three sessions per replica: a session has one request in flight, so
  // 300 ops/s over 7 sessions would hold each near saturation and make the
  // latency tail a matter of queueing luck rather than of the protocol.
  std::vector<std::unique_ptr<core::ClientSession>> sessions;
  for (int i = 0; i < kSessions; ++i) {
    std::vector<core::ReplicaNode*> order;
    for (int k = 0; k < kReplicas; ++k) order.push_back(nodes[static_cast<std::size_t>((i + k) % kReplicas)]);
    sessions.push_back(std::make_unique<core::ClientSession>(sim, order, i));
  }

  // The open loop: request k is due at ws + k * interval, whatever the
  // state of earlier requests; latency counts from the due time.
  struct Request {
    SimTime due = 0, done = -1;
    bool committed = false;
  };
  const auto total = static_cast<std::size_t>((run.we - run.ws) / kInterval);
  std::vector<Request> requests(total);
  std::uint64_t replied = 0;
  for (std::size_t k = 0; k < total; ++k) {
    requests[k].due = run.ws + static_cast<SimTime>(k) * kInterval;
    sim.at(requests[k].due, [&, k] {
      core::ClientSession& s = *sessions[k % kSessions];
      s.submit(db::Command::add("ctr/" + std::to_string(k % 64), 1),
               [&, k](const core::SessionReply& r) {
                 Request& q = requests[k];
                 q.done = sim.now();
                 q.committed = r.committed;
                 ++replied;
                 if (r.committed) run.record_commit(q.due, q.done);
               });
    });
  }
  run.ep.attempted = total;

  // The fault schedule is part of the workload, drawn from a fixed seed:
  // every run fails over the same replicas, and the benchmark seed drives
  // the deployment's own randomness (message delays, timers). With victims
  // and sides drawn per seed, peak RSS spread by 15% across seeds.
  Rng rng(derive_seed(0, 7));
  struct Fault {
    SimTime at;
    bool crash;
    NodeId victim;
    std::vector<std::vector<NodeId>> sides;
  };
  std::vector<Fault> faults;
  // The kinds take turns, so the latency tail does not hinge on how many
  // sequencer crashes the schedule drew.
  int kind = 0;
  for (SimTime at = run.ws + millis(500); at + kFaultLasts < run.we; at += kFaultEvery) {
    Fault f{at, kind != 2, 0, {}};
    if (kind == 0) {
      f.victim = 0;  // the gc sequencer: the lowest member id
    } else if (kind == 1) {
      f.victim = static_cast<NodeId>(rng.next_range(1, kReplicas - 1));
    } else {
      std::vector<NodeId> ids = c.all_ids();
      for (std::size_t i = ids.size() - 1; i > 0; --i) std::swap(ids[i], ids[rng.next_below(i + 1)]);
      f.sides = {{ids.begin(), ids.begin() + 4}, {ids.begin() + 4, ids.end()}};
    }
    faults.push_back(std::move(f));
    kind = (kind + 1) % 3;
  }

  run.run_to(sim, run.ws, nodes);
  run.at_ws = sample(sim, c.net(), nodes, run.retired);
  if (c.trace_bus()) run.bus_at_ws = c.trace_bus()->emitted();
  for (const Fault& f : faults) {
    run.run_to(sim, f.at, nodes);
    if (f.crash) {
      run.retired.add_engine(c.node(f.victim));
      c.crash(f.victim);
    } else {
      c.partition(f.sides);
    }
    run.stages.on_topology_change(sim.now());
    run.run_to(sim, f.at + kFaultLasts, nodes);
    if (f.crash) {
      c.recover(f.victim);
    } else {
      c.heal();
    }
    run.stages.on_topology_change(sim.now());
  }
  run.run_to(sim, run.we, nodes);
  run.at_we = sample(sim, c.net(), nodes, run.retired);
  if (c.trace_bus()) run.bus_at_we = c.trace_bus()->emitted();

  if (!run.drain(sim, nodes, [&] { return replied == total; }, seconds(30))) {
    run.fail("churn: requests still outstanding at the drain deadline");
  }
  if (!run.drain(sim, nodes, [&] { return c.converged_primary(c.all_ids()); }, seconds(10))) {
    run.fail("churn: the group did not converge after the final heal");
  }
  if (auto v = c.check_all()) run.fail("churn: " + *v);

  // Exactly-once: the counters hold one increment per committed request.
  std::int64_t committed = 0;
  for (const Request& q : requests) committed += q.committed ? 1 : 0;
  std::int64_t applied = 0;
  const db::Database& state = c.engine(0).database();
  for (int k = 0; k < 64; ++k) {
    const std::string v = state.get("ctr/" + std::to_string(k));
    applied += v.empty() ? 0 : std::stoll(v);
  }
  if (applied != committed) run.fail("churn: counters disagree with the committed requests");
  run.ep.failed = total - static_cast<std::uint64_t>(committed);

  // Outage: from each fault to the first commit of a request due after it.
  double outage_sum_ms = 0;
  for (const Fault& f : faults) {
    SimTime first = -1;
    for (const Request& q : requests) {
      if (q.due >= f.at && q.committed && (first < 0 || q.done < first)) first = q.done;
    }
    if (first < 0) {
      run.fail("churn: no request committed after a fault");
    } else {
      outage_sum_ms += to_millis(first - f.at);
    }
  }

  run.finish(sim);
  run.ep.sim["outage_ms"] = ratio(outage_sum_ms, static_cast<double>(faults.size()));
  double retries = 0, failovers = 0;
  for (const auto& s : sessions) {
    retries += static_cast<double>(s->stats().retries);
    failovers += static_cast<double>(s->stats().failovers);
  }
  run.ep.sim["core.session.retries"] = retries;
  run.ep.sim["core.session.failovers"] = failovers;
  run.ep.sim["db.check_aborts"] = 0;
  put_db(run.ep, nodes);
  return run.ep;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"evs48", "shards32x6", "tpcc", "churn"};
  return names;
}

Episode run_episode(const EpisodeConfig& config) {
  Episode ep;
  if (config.workload == "evs48") {
    ep = run_evs48(config);
  } else if (config.workload == "shards32x6") {
    ep = run_shards32x6(config);
  } else if (config.workload == "tpcc") {
    ep = run_tpcc(config);
  } else if (config.workload == "churn") {
    ep = run_churn(config);
  } else {
    throw std::invalid_argument("unknown workload: " + config.workload);
  }
  // Metrics a workload does not exercise read 0, so every workload prints
  // the same per-layer set.
  for (const char* name :
       {"outage_ms", "core.session.retries", "core.session.failovers", "shard.cross_frac",
        "shard.failovers", "shard.bounces", "shard.route_cache_hit_ratio",
        "txn.prepares_per_txn", "txn.restarts", "txn.cancels"}) {
    ep.sim.emplace(name, 0.0);
  }
  return ep;
}

}  // namespace tordb::perfbench
