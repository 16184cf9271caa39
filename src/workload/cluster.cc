#include "workload/cluster.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace tordb::workload {

EngineCluster::EngineCluster(ClusterOptions options)
    : EngineCluster(std::move(options), 1, Lanes{}) {}

EngineCluster::EngineCluster(ClusterOptions options, int groups, Lanes lanes)
    : options_(std::move(options)),
      groups_(groups),
      sim_(options_.seed),
      net_(sim_, options_.net) {
  // Partition the simulator into lanes BEFORE anything is scheduled and
  // before the trace bus exists (the bus sizes its per-lane buffers and
  // installs the barrier hook at construction).
  if (lanes.threads > 0) sim_.enable_lanes(groups_ + 1, lanes.threads, lanes.handoff);

  const bool check = options_.obs.check || obs::check_forced();
  if (options_.obs.trace || check) {
    trace_bus_ = std::make_shared<obs::TraceBus>(sim_);
    trace_bus_->capture_logs();  // logger lines become kLogLine trace events
    options_.node.engine.trace_bus = trace_bus_;
    if (check) {
      obs::CheckerOptions copts;
      copts.fail_fast = options_.obs.checker_fail_fast;
      checker_ = std::make_unique<obs::SafetyChecker>(*trace_bus_, copts);
    }
  }
  if (options_.obs.metrics_window > 0) {
    metrics_ = std::make_shared<obs::MetricsRegistry>();
    options_.node.engine.metrics = metrics_;
  }

  // Scope every node to its group BEFORE construction where possible: the
  // checker needs the node->group map before the engine's first event
  // (kEngineStart fires inside the ReplicaNode constructor); the network
  // group is set right after registration, before any simulated time
  // elapses, so the first (detect-delay-deferred) reachability notification
  // already sees the final assignment.
  for (int g = 0; g < groups_; ++g) {
    const std::vector<NodeId> members = group_ids(g);
    // In lane mode, construct group g inside lane g: Network::add_node
    // stamps the current lane, and every event the nodes schedule during
    // construction (engine start, initial reachability notify) lands in
    // their own lane's heap. Lane `groups` is the control lane.
    std::optional<Simulator::LaneScope> scope;
    if (lanes.threads > 0) scope.emplace(sim_, g);
    for (NodeId id : members) {
      if (checker_) checker_->set_node_group(id, g);
      nodes_.push_back(std::make_unique<core::ReplicaNode>(net_, id, members, options_.node));
      net_.set_group(id, g);
    }
  }
  if (metrics_) schedule_metrics_roll();
}

std::vector<NodeId> EngineCluster::group_ids(int group) const {
  // With one group, dormant joiners (ids past the initial members) belong to it.
  const int size = groups_ == 1 ? std::max(options_.replicas, replicas()) : options_.replicas;
  std::vector<NodeId> ids;
  for (int i = 0; i < size; ++i) ids.push_back(static_cast<NodeId>(group * options_.replicas + i));
  return ids;
}

void EngineCluster::in_node_lane(NodeId id, void (*fn)(core::ReplicaNode&)) {
  core::ReplicaNode& n = node(id);
  if (!sim_.lanes_enabled()) {
    fn(n);
    return;
  }
  if (sim_.running()) {
    // Mid-run (a churn schedule driven from the control lane): defer by the
    // handoff latency so the mutation lands at the start of a future
    // window on the node's own lane.
    sim_.call_in_lane(n.sim_lane(), [fn, &n] { fn(n); });
    return;
  }
  // Parked: run inline, but scope any events the call schedules (engine
  // restart timers, reachability notifies) to the node's lane.
  Simulator::LaneScope scope(sim_, n.sim_lane());
  fn(n);
}

void EngineCluster::schedule_metrics_roll() {
  sim_.after(options_.obs.metrics_window, [this] {
    sample_metrics();
    metrics_->roll(sim_.now());
    schedule_metrics_roll();
  });
}

EngineCluster::Sample EngineCluster::sample_nodes(const std::vector<NodeId>& ids) {
  Sample s;
  std::int64_t min_white = -1, max_green = 0;
  for (NodeId id : ids) {
    core::ReplicaNode& n = node(id);
    const auto& st = n.storage().stats();
    s.forces += st.forces;
    s.appends += st.appends;
    s.counts += n.counts();
    if (!n.running()) continue;
    core::ReplicationEngine& e = n.engine();
    const std::int64_t wl = e.white_line();
    min_white = min_white < 0 ? wl : std::min(min_white, wl);
    max_green = std::max(max_green, e.green_count());
    s.stored_bodies += static_cast<std::int64_t>(e.action_log().stored_bodies());
    s.body_bytes += e.action_log().body_bytes();
    const db::DbStats ds = e.database().stats();
    s.intern_keys += ds.interned_keys;
    s.intern_bytes += ds.interned_bytes;
    s.table_slots += ds.table_slots;
  }
  s.min_white = std::max<std::int64_t>(min_white, 0);
  s.lag = max_green - s.min_white;
  return s;
}

void EngineCluster::sample_metrics() {
  if (!metrics_) return;
  std::vector<Sample> groups;
  for (int g = 0; g < groups_; ++g) groups.push_back(sample_nodes(group_ids(g)));
  Sample t = sample_nodes(all_ids());
  t.lag = 0;  // white-line lag is a per-group quantity: sum it
  for (const Sample& g : groups) t.lag += g.lag;
  // Cumulative sources: set_total() so roll() turns them into per-window
  // deltas. Node counts include engines that crashed or left, so none of
  // these stalls when a replica goes away.
  const core::NodeCounts& n = t.counts;
  metrics_->counter("engine.actions_green").set_total(n.greens);
  metrics_->counter("engine.actions_red").set_total(n.reds);
  metrics_->counter("engine.primaries_installed").set_total(n.installs);
  metrics_->counter("cluster.exchanges").set_total(n.exchanges);
  metrics_->counter("storage.forces").set_total(t.forces);
  metrics_->counter("storage.appends").set_total(t.appends);
  metrics_->counter("gc.safe_deliveries").set_total(n.safe_deliveries);
  metrics_->counter("gc.regular_configs").set_total(n.regular_configs);
  // White-line / body-store health (DESIGN.md §14): `lag` is how far each
  // group's slowest white line trails its fastest green count, summed over
  // groups — growing lag means trimming is starving and body stores are
  // pinned.
  metrics_->gauge("gc.whiteline.min").set(t.min_white);
  metrics_->gauge("gc.whiteline.lag").set(t.lag);
  metrics_->gauge("gc.bodies.stored").set(t.stored_bodies);
  metrics_->gauge("gc.bodies.bytes").set(t.body_bytes);
  // Flat-layout accounting (DESIGN.md §11). Sizes are gauges summed over
  // running replicas: they fall when a replica crashes.
  metrics_->gauge("db.intern.keys").set(static_cast<std::int64_t>(t.intern_keys));
  metrics_->gauge("db.intern.bytes").set(static_cast<std::int64_t>(t.intern_bytes));
  metrics_->gauge("db.table.slots").set(static_cast<std::int64_t>(t.table_slots));
  metrics_->counter("db.table.rehashes").set_total(n.db_rehashes);
  metrics_->counter("net.messages").set_total(net_.stats().messages_sent);
  metrics_->counter("net.bytes").set_total(net_.stats().bytes_sent);
  metrics_->counter("net.payload_bytes_copied").set_total(net_.stats().payload_bytes_copied);
  metrics_->counter("net.reachable_cache_hits").set_total(net_.stats().reachable_cache_hits);
  metrics_->counter("net.reachable_cache_misses").set_total(net_.stats().reachable_cache_misses);
  metrics_->counter("sim.events_executed").set_total(sim_.executed_events());
  metrics_->gauge("sim.queue_depth").set(static_cast<std::int64_t>(sim_.queue_depth()));
  metrics_->gauge("sim.peak_queue_depth").set(static_cast<std::int64_t>(sim_.peak_queue_depth()));
  sample_tier_metrics(groups);
}

std::vector<NodeId> EngineCluster::all_ids() const {
  std::vector<NodeId> all;
  for (std::size_t i = 0; i < nodes_.size(); ++i) all.push_back(static_cast<NodeId>(i));
  return all;
}

core::ReplicaNode& EngineCluster::add_dormant(NodeId id) {
  if (id != static_cast<NodeId>(nodes_.size())) {
    throw std::invalid_argument("dormant node ids must be contiguous");
  }
  nodes_.push_back(
      std::make_unique<core::ReplicaNode>(net_, id, core::ReplicaNode::DormantTag{},
                                          options_.node));
  return *nodes_.back();
}

bool EngineCluster::converged_primary(const std::vector<NodeId>& ids) const {
  std::int64_t green = -1;
  std::uint64_t digest = 0;
  for (NodeId id : ids) {
    const auto& n = nodes_.at(static_cast<std::size_t>(id));
    if (!n->running()) return false;
    const auto& e = n->engine();
    if (e.state() != core::EngineState::kRegPrim) return false;
    if (green == -1) {
      green = e.green_count();
      digest = e.db_digest();
    } else if (e.green_count() != green || e.db_digest() != digest) {
      return false;
    }
  }
  return green >= 0;
}

bool EngineCluster::all_green_at_least(const std::vector<NodeId>& ids,
                                       std::int64_t count) const {
  for (NodeId id : ids) {
    const auto& n = nodes_.at(static_cast<std::size_t>(id));
    if (!n->running() || n->engine().green_count() < count) return false;
  }
  return true;
}

std::optional<std::string> EngineCluster::check_green_prefix_consistency() const {
  // Groups own contiguous id ranges, so the inner loop stops at the first
  // member of the next group.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i]->running()) continue;
    const auto& a = nodes_[i]->engine();
    const int group = group_of(static_cast<NodeId>(i));
    for (std::size_t j = i + 1; j < nodes_.size() && group_of(static_cast<NodeId>(j)) == group;
         ++j) {
      if (!nodes_[j]->running()) continue;
      const auto& b = nodes_[j]->engine();
      const std::int64_t overlap_end = std::min(a.green_count(), b.green_count());
      for (std::int64_t pos = 1; pos <= overlap_end; ++pos) {
        const ActionId ia = a.green_action_at(pos);
        const ActionId ib = b.green_action_at(pos);
        if (ia.server_id == kNoNode || ib.server_id == kNoNode) continue;  // white-trimmed
        if (!(ia == ib)) {
          std::ostringstream os;
          os << "group " << group << " green divergence at position " << pos << ": node "
             << a.id() << " has " << to_string(ia) << ", node " << b.id() << " has "
             << to_string(ib);
          return os.str();
        }
      }
      if (a.green_count() == b.green_count() && a.db_digest() != b.db_digest()) {
        std::ostringstream os;
        os << "group " << group << ": equal green count " << a.green_count()
           << " but different digests at nodes " << a.id() << " and " << b.id();
        return os.str();
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> EngineCluster::check_green_fifo() const {
  for (const auto& n : nodes_) {
    if (!n->running()) continue;
    const auto& e = n->engine();
    std::map<NodeId, std::int64_t> last;
    for (std::int64_t pos = 1; pos <= e.green_count(); ++pos) {
      const ActionId id = e.green_action_at(pos);
      if (id.server_id == kNoNode) continue;  // white-trimmed
      auto it = last.find(id.server_id);
      if (it != last.end() && id.index != it->second + 1) {
        std::ostringstream os;
        os << "FIFO violation at node " << e.id() << ": creator " << id.server_id << " index "
           << id.index << " after " << it->second;
        return os.str();
      }
      last[id.server_id] = id.index;
    }
  }
  return std::nullopt;
}

std::optional<std::string> EngineCluster::check_single_primary() const {
  // Keyed by (group, prim_index): every group numbers its primaries from 1.
  std::map<std::pair<int, std::int64_t>, std::vector<NodeId>> prim_members;
  for (const auto& n : nodes_) {
    if (!n->running()) continue;
    const auto& e = n->engine();
    if (!e.in_primary()) continue;
    const auto& p = e.prim_component();
    const int group = group_of(e.id());
    auto [it, inserted] = prim_members.emplace(std::make_pair(group, p.prim_index), p.servers);
    if (!inserted && it->second != p.servers) {
      std::ostringstream os;
      os << "group " << group << ": two primaries with index " << p.prim_index
         << " but different memberships";
      return os.str();
    }
  }
  return std::nullopt;
}

std::optional<std::string> EngineCluster::check_all() const {
  if (checker_ && !checker_->ok()) return checker_->report();
  if (auto v = check_green_prefix_consistency()) return v;
  if (auto v = check_green_fifo()) return v;
  if (auto v = check_single_primary()) return v;
  return std::nullopt;
}

}  // namespace tordb::workload
