// Sharded deployment harness: partial replication as N unmodified engine
// groups (one per shard of the key space) on ONE simulated network and ONE
// virtual clock, fronted by a router tier (DESIGN.md §8).
//
// ShardedCluster IS an EngineCluster built with N groups: the base builds
// the simulator, network, observability wiring and nodes, and runs the
// crash/recover, convergence and per-group invariant checks. This class
// adds only what is sharded: the Directory, the shard::Router (which holds
// the member lists, session knobs and obs wiring), the prepared-check
// txn::TxnCoordinator, the shard::Rebalancer, per-shard partitions, the
// TORDB_SIM_* lane resolution and the shard/router/txn/lane metrics. The
// engine itself is untouched: isolation comes from Network::set_group
// scoping the reachability service per group, so the groups never see
// each other's membership events while sharing the network's clock,
// latency model and per-node CPU accounting.
//
// Node ids are global and contiguous: shard s owns ids
// [s * replicas_per_shard, (s+1) * replicas_per_shard). Topology controls
// take (shard, local index) so tests speak per-group; partitions compose
// across shards (each shard's component layout is tracked separately and
// the global component set is rebuilt from the product). The single-group
// controls (add_dormant, a global partition) are not available here.
//
// Determinism: the Simulator is seeded with the base seed — a 1-shard
// ShardedCluster schedules events bit-identically to an EngineCluster of
// the same seed and size (sim_digest_test pins this). Per-shard workload
// seeds come from shard_seed(), a splitmix64 derivation of (base seed,
// shard id), so shards drive uncorrelated but reproducible load.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "shard/rebalancer.h"
#include "shard/router.h"
#include "txn/coordinator.h"
#include "workload/cluster.h"

namespace tordb::workload {

struct ShardedClusterOptions {
  int shards = 2;
  int replicas_per_shard = 3;
  std::uint64_t seed = 1;
  /// Non-empty: range sharding with these split points (size = shards - 1).
  /// Empty: hash sharding.
  std::vector<std::string> range_splits;
  NetworkParams net;
  core::ReplicaOptions node;
  /// Every shard-tier session's knobs; the router forces
  /// retry_when_unavailable on, so cross-shard actions wait out whole-group
  /// outages instead of half-applying.
  core::SessionOptions session;
  /// Rebalancer knobs; its sessions, tracer and metrics are the router's.
  shard::RebalancerOptions rebalance;
  /// Forwarded to the transaction coordinator's crash-model test hook
  /// (txn::TxnOptions::halt_at_stage); 0 in every production configuration.
  int txn_halt_at_stage = 0;
  ObsOptions obs;

  // --- parallel simulation (event lanes, DESIGN.md §15) ----------------------
  /// Worker threads executing shard lanes. 1 = the classic single-threaded
  /// event loop, bit-identical to every previous release (the sim_digest
  /// goldens). >= 2 partitions the simulator into one event lane per shard
  /// plus a control lane; the merged schedule is bit-identical for ANY
  /// thread count >= the switch to lane mode, but lane mode itself is a
  /// (deterministic) model refinement: cross-tier calls pay an explicit
  /// handoff latency instead of being instantaneous.
  int sim_threads = 1;
  /// Force lane mode even with sim_threads == 1 — the single-threaded
  /// baseline the parallel equivalence tests compare against.
  bool sim_lanes = false;
  /// Cross-lane handoff latency (the conservative-window lookahead).
  /// 0 = net.base_latency. Must be <= net.detect_delay.
  SimDuration sim_handoff = 0;
  /// Honor TORDB_SIM_THREADS / TORDB_SIM_LANES from the environment
  /// (overriding the two knobs above). Golden-pinned tests set this false
  /// so a CI-wide TORDB_SIM_THREADS cannot change their schedules.
  bool sim_env = true;
};

class ShardedCluster : public EngineCluster {
 public:
  explicit ShardedCluster(ShardedClusterOptions options);

  shard::Router& router() { return *router_; }
  shard::Rebalancer& rebalancer() { return *rebalancer_; }
  txn::TxnCoordinator& txn() { return *txn_; }
  /// Model a coordinator crash + replacement (DESIGN.md §13): the old
  /// instance's in-flight state dies with it; the new incarnation claims a
  /// fresh session-id epoch (its predecessor consumed the per-id guards)
  /// and is expected to call txn().adopt_orphans() at quiescence. txn()'s
  /// stats restart at 0; the registry's `txn.*` totals keep counting.
  void restart_txn_coordinator(int halt_at_stage = 0);
  const shard::Directory& directory() const { return directory_; }
  std::int64_t directory_epoch() const { return directory_.epoch(); }
  int shards() const { return groups(); }
  int replicas_per_shard() const { return group_size(); }
  /// True when the simulator runs partitioned into per-shard event lanes
  /// (sim_threads >= 2, sim_lanes, or the TORDB_SIM_* environment).
  bool lanes_enabled() const { return sim().lanes_enabled(); }
  /// Worker threads actually executing lanes (1 in classic mode).
  int sim_threads() const { return lanes_enabled() ? sim().worker_threads() : 1; }
  /// The event-schedule digest of one shard's lane: every (time, sequence)
  /// pair executed there, folded in order. Bit-identical across worker
  /// thread counts — the object the parallel equivalence tests compare.
  /// Lane mode only (0 in classic mode, where no per-shard split exists).
  std::uint64_t shard_digest(int shard) const {
    return lanes_enabled() ? sim().lane_digest(shard) : 0;
  }

  NodeId node_id(int shard, int idx) const {
    return static_cast<NodeId>(shard * group_size() + idx);
  }
  core::ReplicaNode& node(int shard, int idx) { return EngineCluster::node(node_id(shard, idx)); }
  const core::ReplicaNode& node(int shard, int idx) const {
    return EngineCluster::node(node_id(shard, idx));
  }
  std::vector<NodeId> shard_ids(int shard) const { return group_ids(shard); }

  /// Deterministic per-shard workload seed: splitmix64 over the base seed
  /// and the shard id. Distinct per shard, stable across runs.
  std::uint64_t shard_seed(int shard) const;

  // --- online rebalancing (ranged directories only; DESIGN.md §9) ------------
  /// Fence -> snapshot -> install -> cutover move of [lo, hi) to `to`.
  bool move_range(const std::string& lo, const std::string& hi, int to,
                  shard::MoveDoneFn done = nullptr) {
    return rebalancer_->move_range(lo, hi, to, std::move(done));
  }
  bool split_at(const std::string& key) { return rebalancer_->split_at(key); }
  bool merge_at(const std::string& key) { return rebalancer_->merge_at(key); }

  // --- topology, addressed per shard ----------------------------------------
  void crash(int shard, int idx) { EngineCluster::crash(node_id(shard, idx)); }
  void recover(int shard, int idx) { EngineCluster::recover(node_id(shard, idx)); }
  /// Partition ONE shard's members into the given components (local
  /// indices, each member exactly once). Other shards keep their current
  /// layout — the global component set is the union over shards.
  void partition_shard(int shard, const std::vector<std::vector<int>>& components);
  void heal_shard(int shard);
  void heal();
  /// Single-group controls: a joiner has no shard, and a global partition
  /// would bypass the per-shard layouts.
  core::ReplicaNode& add_dormant(NodeId id) = delete;
  void partition(const std::vector<std::vector<NodeId>>& components) = delete;

  // --- convergence & invariants ----------------------------------------------
  /// Every running member of `shard` is in RegPrim with identical green
  /// count and database digest.
  bool converged(int shard) const;
  /// Highest green count among the shard's running members.
  std::int64_t green_count(int shard) const { return router_->green_watermark(shard); }

  /// The per-group checks of EngineCluster::check_all, then cross-shard
  /// atomicity: no cross-shard action committed at some shards only.
  std::optional<std::string> check_all() const;

 private:
  /// Publishes `shard.<id>.*`, `shard.rebalance.*`, lane, router, txn and
  /// directory names.
  void sample_tier_metrics(const std::vector<Sample>& groups) override;
  /// Resolve the lane knobs (TORDB_SIM_* included, unless sim_env is off).
  static Lanes resolve_lanes(const ShardedClusterOptions& o);
  void apply_components();
  void make_txn_coordinator(int halt_at_stage);

  ShardedClusterOptions options_;
  shard::Directory directory_;  ///< outlives the router and rebalancer that refer to it
  std::unique_ptr<shard::Router> router_;
  /// Declared after router_ (the coordinator holds a Router&): destruction
  /// runs in reverse order, so the coordinator dies first.
  std::unique_ptr<txn::TxnCoordinator> txn_;
  std::int64_t txn_session_epoch_ = 0;
  txn::TxnStats retired_txn_stats_;  ///< summed over coordinators replaced by a restart
  std::unique_ptr<shard::Rebalancer> rebalancer_;
  /// Per-shard component layout (local indices); global layout is rebuilt
  /// from these on every change.
  std::vector<std::vector<std::vector<int>>> shard_components_;
};

}  // namespace tordb::workload
