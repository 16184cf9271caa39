// Deployment harness: every simulated tordb deployment is built here — the
// simulator, the network, the observability wiring (trace bus, online
// checker, metrics registry and its roll timer) and the replica nodes of one
// or more equal-sized engine groups — together with topology controls,
// convergence tests and the engine-level correctness checks the suites run
// (paper §5.2 safety properties), applied per group.
//
// The public constructor builds the paper's deployment: one group. Partial
// replication (ShardedCluster) is N unmodified groups on the same network
// plus a router tier; it reaches the multi-group constructor below.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/replica_node.h"
#include "obs/metrics.h"
#include "obs/safety_checker.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace tordb::workload {

/// Deployment-wide observability switches. Everything defaults to off: no
/// bus is allocated and every Tracer handle stays disconnected, so the hot
/// paths pay one null test per would-be event. `TORDB_OBS_CHECK=1` (or
/// obs::force_check_for_tests()) force-enables the checker regardless.
struct ObsOptions {
  bool trace = false;             ///< allocate a TraceBus and wire every node
  bool check = false;             ///< subscribe the online SafetyChecker
  bool checker_fail_fast = true;  ///< abort the process on first violation
  /// >0: allocate a MetricsRegistry and roll a window every interval.
  SimDuration metrics_window = 0;
};

struct ClusterOptions {
  int replicas = 5;  ///< replicas per group
  std::uint64_t seed = 1;
  NetworkParams net;
  core::ReplicaOptions node;
  ObsOptions obs;
};

class EngineCluster {
 public:
  /// One group of `options.replicas` nodes, ids 0..replicas-1.
  explicit EngineCluster(ClusterOptions options);
  virtual ~EngineCluster() = default;
  // Timers and callbacks hold `this`.
  EngineCluster(const EngineCluster&) = delete;
  EngineCluster& operator=(const EngineCluster&) = delete;

  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }
  Network& net() { return net_; }
  core::ReplicaNode& node(NodeId id) { return *nodes_.at(static_cast<std::size_t>(id)); }
  const core::ReplicaNode& node(NodeId id) const {
    return *nodes_.at(static_cast<std::size_t>(id));
  }
  core::ReplicationEngine& engine(NodeId id) { return node(id).engine(); }
  int replicas() const { return static_cast<int>(nodes_.size()); }
  std::vector<NodeId> all_ids() const;

  void run_for(SimDuration d) { sim_.run_for(d); }

  /// Register an additional dormant node (a future §5.2 joiner).
  core::ReplicaNode& add_dormant(NodeId id);

  void partition(const std::vector<std::vector<NodeId>>& components) {
    net_.set_components(components);
  }
  void heal() { net_.heal(); }
  /// Crash/recover run on the node's own event lane (a recover constructs a
  /// fresh engine, whose timers must live there); plain direct calls in the
  /// classic event loop.
  void crash(NodeId id) { in_node_lane(id, [](core::ReplicaNode& n) { n.crash(); }); }
  void recover(NodeId id) { in_node_lane(id, [](core::ReplicaNode& n) { n.recover(); }); }

  /// True when every listed node runs an engine in RegPrim with identical
  /// green count and database digest.
  bool converged_primary(const std::vector<NodeId>& ids) const;

  /// True when every listed node's engine reached the given green count.
  bool all_green_at_least(const std::vector<NodeId>& ids, std::int64_t count) const;

  // --- invariant checkers (paper §5.2), per replication group ---------------
  // Return a violation description, or nullopt if the invariant holds.

  /// Global Total Order: any two members of one group agree on every green
  /// position both have (Theorem 1), and equal green counts imply equal
  /// database digests.
  std::optional<std::string> check_green_prefix_consistency() const;

  /// Global FIFO Order: within every green sequence, each creator's actions
  /// appear in creation-index order with no gaps (Theorem 2).
  std::optional<std::string> check_green_fifo() const;

  /// At most one primary component per group: two engines of one group in
  /// RegPrim/TransPrim with the same prim_index agree on its membership.
  std::optional<std::string> check_single_primary() const;

  std::optional<std::string> check_all() const;

  // --- observability --------------------------------------------------------
  /// Null unless ObsOptions enabled them (or the checker was forced).
  const std::shared_ptr<obs::TraceBus>& trace_bus() const { return trace_bus_; }
  obs::SafetyChecker* checker() const { return checker_.get(); }
  const std::shared_ptr<obs::MetricsRegistry>& metrics() const { return metrics_; }
  /// Publish every layer's stats into the registry: the one place counts
  /// enter it (DESIGN.md §7). Runs before every periodic window roll; call
  /// it before reading a counter between rolls.
  void sample_metrics();

 protected:
  /// Event lanes (DESIGN.md §15), already resolved by the caller:
  /// threads == 0 runs the classic single-threaded loop; otherwise one lane
  /// per group plus a control lane, on `threads` workers.
  struct Lanes {
    int threads = 0;
    SimDuration handoff = 0;
  };
  /// `groups` groups of `options.replicas` nodes each; group g owns the
  /// contiguous ids [g * replicas, (g+1) * replicas).
  EngineCluster(ClusterOptions options, int groups, Lanes lanes);

  int groups() const { return groups_; }
  int group_size() const { return options_.replicas; }
  /// Members of one group (with one group, dormant joiners included).
  std::vector<NodeId> group_ids(int group) const;

  /// Stats of a set of nodes. The counts (storage and `counts`) cover every
  /// node, crashed and left ones included; the sizes cover running ones.
  struct Sample {
    std::uint64_t forces = 0, appends = 0;
    core::NodeCounts counts;
    std::uint64_t intern_keys = 0, intern_bytes = 0, table_slots = 0;
    std::int64_t min_white = 0;  ///< slowest white line (0 with no running member)
    std::int64_t lag = 0;        ///< fastest green count minus min_white
    std::int64_t stored_bodies = 0, body_bytes = 0;
  };
  /// A derived harness publishes its own names here; sample_metrics() calls
  /// it last, with one sample per group.
  virtual void sample_tier_metrics(const std::vector<Sample>& /*groups*/) {}

 private:
  Sample sample_nodes(const std::vector<NodeId>& ids);
  void schedule_metrics_roll();
  /// Run `fn(node)` on the node's own lane: inline in the classic loop,
  /// under a LaneScope when parked, via a handoff when the simulation runs.
  void in_node_lane(NodeId id, void (*fn)(core::ReplicaNode&));
  int group_of(NodeId id) const {
    return groups_ == 1 ? 0 : static_cast<int>(id) / options_.replicas;
  }

  ClusterOptions options_;
  int groups_;
  Simulator sim_;
  Network net_;
  // Declared before nodes_: the bus must outlive every Tracer handle the
  // nodes hold (destruction runs in reverse order).
  std::shared_ptr<obs::TraceBus> trace_bus_;
  std::unique_ptr<obs::SafetyChecker> checker_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  std::vector<std::unique_ptr<core::ReplicaNode>> nodes_;  ///< indexed by id
};

}  // namespace tordb::workload
