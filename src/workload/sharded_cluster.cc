#include "workload/sharded_cluster.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "util/rng.h"

namespace tordb::workload {

namespace {

ClusterOptions group_options(const ShardedClusterOptions& o) {
  if (o.shards < 1 || o.replicas_per_shard < 1) {
    throw std::invalid_argument("shards and replicas_per_shard must be >= 1");
  }
  if (!o.range_splits.empty() && static_cast<int>(o.range_splits.size()) != o.shards - 1) {
    throw std::invalid_argument("range_splits must have shards - 1 entries");
  }
  ClusterOptions c;
  c.replicas = o.replicas_per_shard;
  c.seed = o.seed;
  c.net = o.net;
  c.node = o.node;
  c.obs = o.obs;
  return c;
}

}  // namespace

EngineCluster::Lanes ShardedCluster::resolve_lanes(const ShardedClusterOptions& o) {
  int threads = o.sim_threads;
  bool lanes = o.sim_lanes;
  if (o.sim_env) {
    if (const char* v = std::getenv("TORDB_SIM_THREADS")) threads = std::max(1, std::atoi(v));
    if (const char* v = std::getenv("TORDB_SIM_LANES")) lanes = lanes || std::strcmp(v, "0") != 0;
  }
  if (threads < 1) throw std::invalid_argument("sim_threads must be >= 1");
  if (!lanes && threads == 1) return Lanes{};
  const SimDuration handoff = o.sim_handoff > 0 ? o.sim_handoff : o.net.base_latency;
  if (handoff > o.net.detect_delay) {
    // Reachability notifications are posted cross-lane with detect_delay;
    // the conservative windows require every cross-lane delay >= handoff.
    throw std::invalid_argument("lane handoff latency must be <= net.detect_delay");
  }
  return Lanes{threads, handoff};
}

ShardedCluster::ShardedCluster(ShardedClusterOptions options)
    : EngineCluster(group_options(options), options.shards, resolve_lanes(options), "shard."),
      options_(std::move(options)),
      directory_(options_.range_splits.empty()
                     ? shard::Directory::hashed(options_.shards)
                     : shard::Directory::ranged(options_.range_splits)) {
  // Each shard's members, in fail-over order: the router's is the one copy.
  std::vector<std::vector<core::ReplicaNode*>> members;
  for (int s = 0; s < shards(); ++s) {
    std::vector<core::ReplicaNode*> g;
    for (int i = 0; i < replicas_per_shard(); ++i) g.push_back(&node(s, i));
    members.push_back(std::move(g));
    shard_components_.push_back({});  // one implicit component: all members
  }

  router_ = std::make_unique<shard::Router>(
      sim(), directory_, std::move(members),
      shard::RouterOptions{.session = options_.session,
                           .tracer = obs::Tracer(trace_bus(), kNoNode),
                           .metrics = metrics()});

  make_txn_coordinator(options_.txn_halt_at_stage);
  // The handler dereferences txn_ at call time, so it survives coordinator
  // restarts without rewiring.
  router_->set_cross_check_handler(
      [this](std::int64_t client, db::Command update, shard::RouteReplyFn reply) {
        txn_->begin(client, std::move(update), std::move(reply));
      });

  // The directory's one mutator: the router sees each epoch bump at once.
  rebalancer_ =
      std::make_unique<shard::Rebalancer>(sim(), *router_, directory_, options_.rebalance);
}

void ShardedCluster::make_txn_coordinator(int halt_at_stage) {
  txn_ = std::make_unique<txn::TxnCoordinator>(
      sim(), *router_,
      txn::TxnOptions{.session_epoch = txn_session_epoch_, .halt_at_stage = halt_at_stage});
}

void ShardedCluster::restart_txn_coordinator(int halt_at_stage) {
  retired_txn_stats_ += txn_->stats();
  ++txn_session_epoch_;
  make_txn_coordinator(halt_at_stage);
}

std::uint64_t ShardedCluster::shard_seed(int shard) const {
  // Two splitmix steps over (seed, shard): related base seeds and adjacent
  // shard ids both land in uncorrelated streams.
  std::uint64_t x = options_.seed;
  (void)splitmix64(x);
  x ^= static_cast<std::uint64_t>(shard) * 0x9e3779b97f4a7c15ULL;
  return splitmix64(x);
}

void ShardedCluster::partition_shard(int shard, const std::vector<std::vector<int>>& components) {
  std::vector<bool> seen(static_cast<std::size_t>(replicas_per_shard()), false);
  for (const auto& comp : components) {
    for (int idx : comp) {
      if (idx < 0 || idx >= replicas_per_shard() || seen[static_cast<std::size_t>(idx)]) {
        throw std::invalid_argument("each shard member must appear in exactly one component");
      }
      seen[static_cast<std::size_t>(idx)] = true;
    }
  }
  if (std::find(seen.begin(), seen.end(), false) != seen.end()) {
    throw std::invalid_argument("each shard member must appear in exactly one component");
  }
  shard_components_.at(static_cast<std::size_t>(shard)) = components;
  apply_components();
}

void ShardedCluster::heal_shard(int shard) {
  shard_components_.at(static_cast<std::size_t>(shard)).clear();
  apply_components();
}

void ShardedCluster::heal() {
  for (auto& c : shard_components_) c.clear();
  apply_components();
}

void ShardedCluster::apply_components() {
  // Network components are global and must cover every node exactly once:
  // emit one global component per (shard, local component). Nodes of
  // different shards always end up in different components here, which is
  // invisible to the protocol — shards exchange no network traffic and the
  // reachability service is group-scoped anyway.
  std::vector<std::vector<NodeId>> global;
  for (int s = 0; s < shards(); ++s) {
    const auto& comps = shard_components_[static_cast<std::size_t>(s)];
    if (comps.empty()) {
      global.push_back(shard_ids(s));
      continue;
    }
    for (const auto& comp : comps) {
      std::vector<NodeId> g;
      for (int idx : comp) g.push_back(node_id(s, idx));
      global.push_back(std::move(g));
    }
  }
  net().set_components(global);
}

bool ShardedCluster::converged(int shard) const {
  std::vector<NodeId> running;
  for (NodeId id : shard_ids(shard)) {
    if (EngineCluster::node(id).running()) running.push_back(id);
  }
  return converged_primary(running);
}

std::optional<std::string> ShardedCluster::check_all() const {
  if (auto v = EngineCluster::check_all()) return v;
  if (router_->stats().cross_partial_aborts > 0) {
    std::ostringstream os;
    os << router_->stats().cross_partial_aborts
       << " cross-shard action(s) committed at some shards and aborted at others";
    return os.str();
  }
  return std::nullopt;
}

void ShardedCluster::sample_tier_metrics(const std::vector<Sample>& groups) {
  obs::MetricsRegistry& m = *metrics();
  for (int s = 0; s < shards(); ++s) {
    const Sample& g = groups[static_cast<std::size_t>(s)];
    const std::string prefix = "shard." + std::to_string(s) + ".";
    m.counter(prefix + "storage_forces").set_total(g.forces);
    m.gauge(prefix + "whiteline.min").set(g.min_white);
    m.gauge(prefix + "whiteline.lag").set(g.lag);
  }
  const Simulator& sim = this->sim();
  if (sim.lanes_enabled()) {
    // Lane health (DESIGN.md §15): window count and handoff volume tell how
    // often the lanes synchronize; the per-lane event spread and the clock
    // skew inside the current window tell whether the load is balanced
    // enough for the worker pool to help (see docs/OPERATIONS.md).
    m.gauge("sim.lanes.count").set(sim.lane_count());
    m.gauge("sim.lanes.threads").set(sim.worker_threads());
    m.counter("sim.lanes.windows").set_total(sim.windows_run());
    m.counter("sim.lanes.handoffs").set_total(sim.handoffs_posted());
    std::uint64_t ev_min = ~0ull, ev_max = 0;
    SimTime now_min = 0, now_max = 0;
    std::size_t depth_max = 0;
    for (int l = 0; l < sim.lane_count() - 1; ++l) {  // worker lanes only
      ev_min = std::min<std::uint64_t>(ev_min, sim.lane_executed(l));
      ev_max = std::max<std::uint64_t>(ev_max, sim.lane_executed(l));
      now_min = l == 0 ? sim.lane_now(l) : std::min(now_min, sim.lane_now(l));
      now_max = std::max(now_max, sim.lane_now(l));
      depth_max = std::max(depth_max, sim.lane_queue_depth(l));
    }
    m.gauge("sim.lanes.events.min").set(static_cast<std::int64_t>(ev_min));
    m.gauge("sim.lanes.events.max").set(static_cast<std::int64_t>(ev_max));
    m.gauge("sim.lanes.skew_ns").set(now_max - now_min);
    m.gauge("sim.lanes.queue_depth.max").set(static_cast<std::int64_t>(depth_max));
  }
  const shard::RouterStats& rs = router_->stats();
  m.counter("router.committed").set_total(rs.committed);
  m.counter("router.aborted").set_total(rs.aborted);
  m.counter("router.aborted_checks").set_total(rs.aborted_checks);
  m.counter("router.cross").set_total(rs.routed_cross);
  m.counter("router.failovers").set_total(rs.failovers);
  m.counter("router.fenced_bounces").set_total(rs.fenced_bounces);
  m.counter("router.txn.handoffs").set_total(rs.txn_handoffs);
  // Totals over every coordinator incarnation: a restarted coordinator's
  // stats start at 0, and a registry total only moves up.
  txn::TxnStats ts = retired_txn_stats_;
  ts += txn_->stats();
  m.counter("router.txn.prepares").set_total(ts.prepares);
  m.counter("router.txn.confirms").set_total(ts.confirms);
  m.counter("router.txn.cancels").set_total(ts.cancels);
  m.counter("router.rejected_unsupported").set_total(rs.rejected_unsupported);
  m.counter("txn.committed").set_total(ts.committed);
  m.counter("txn.aborted.check").set_total(ts.aborted_check);
  m.counter("txn.aborted.fenced").set_total(ts.aborted_fenced);
  m.counter("txn.restarts").set_total(ts.restarts);
  m.counter("txn.confirm_rerouted").set_total(ts.confirm_rerouted);
  m.counter("txn.snapshot_reads").set_total(ts.snapshot_reads);
  m.gauge("directory.epoch").set(directory_.epoch());
}

}  // namespace tordb::workload
