// One replica: stable storage + replication engine + the node-side plumbing
// the engine does not own — crash/recovery orchestration (a node crash loses
// everything volatile but keeps the storage object, paper §2.1) and the
// joiner side of the §5.2 protocol (request a representative, receive the
// snapshot, fail over to another peer on timeout, then start the engine and
// enter the replica group).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/replication_engine.h"
#include "sim/network.h"
#include "storage/stable_storage.h"

namespace tordb::core {

inline constexpr SimDuration kJoinRetry = millis(400);  ///< joiner fails over to the next peer

struct ReplicaOptions {
  EngineParams engine;
  StorageParams storage;
};

/// Counts over every engine a node has run: a crash loses the engine with
/// its stats (§2.1) and a leave ends it, so the node carries them on.
struct NodeCounts {
  std::uint64_t greens = 0, reds = 0, installs = 0, exchanges = 0;
  std::uint64_t safe_deliveries = 0, regular_configs = 0, db_rehashes = 0;

  NodeCounts& operator+=(const NodeCounts& o);
};

class ReplicaNode {
 public:

  /// Founding member: registers the node and starts the engine immediately.
  ReplicaNode(Network& net, NodeId id, std::vector<NodeId> initial_servers,
              ReplicaOptions options = ReplicaOptions());

  struct DormantTag {};
  /// Dormant node: present on the network (direct channel only), not part
  /// of the replica group. Use join_via() to become a replica (§5.2).
  ReplicaNode(Network& net, NodeId id, DormantTag, ReplicaOptions options = ReplicaOptions());

  ~ReplicaNode();
  ReplicaNode(const ReplicaNode&) = delete;
  ReplicaNode& operator=(const ReplicaNode&) = delete;

  /// §5.2: connect to a member, transfer the database, join the group.
  /// Retries with the next peer if the current one fails or is unreachable.
  void join_via(std::vector<NodeId> peers, std::function<void()> on_joined = nullptr);

  /// Node crash: volatile state lost, stable storage retained (§2.1).
  void crash();

  /// Recover after a crash (Appendix A Recover). No-op if not crashed.
  void recover();

  NodeId id() const { return id_; }
  /// The simulator event lane this node lives on (0 unless the owning
  /// harness partitioned the simulation; see Network::set_lane).
  int sim_lane() const { return net_.lane(id_); }
  bool running() const { return engine_ != nullptr; }
  bool crashed() const { return crashed_; }
  bool has_left() const { return left_; }
  bool joining() const { return joining_; }
  ReplicationEngine& engine() { return *engine_; }
  const ReplicationEngine& engine() const { return *engine_; }
  StableStorage& storage() { return *storage_; }
  /// The retired engines' counts plus the live engine's. Call from the
  /// node's lane or the control lane.
  NodeCounts counts() const;

  /// Availability watch (client failover, DESIGN.md §17). `fn` runs once,
  /// on event lane `lane`, the network's detect_delay after this node's next
  /// availability change: a running node crashing or its engine entering
  /// kNonPrim, a crashed node recovering. Registering or removing a watch
  /// schedules nothing. Call from the node's lane or the control lane.
  std::uint64_t watch(int lane, SmallFn fn);
  /// Drop a watch that has not fired (a fired or unknown id is a no-op).
  void unwatch(std::uint64_t id);

 private:
  struct Watch {
    std::uint64_t id;
    int lane;
    SmallFn fn;
  };
  /// Storage params with the per-node obs tracer attached (the shared
  /// ReplicaOptions cannot carry per-node identity, so it is stamped here).
  StorageParams make_storage_params() const;
  void register_direct_handler();
  void on_direct(NodeId from, const Bytes& wire);
  void try_next_join_peer();
  void start_engine_from_snapshot(const SnapshotMessage& snap);
  void handle_engine_left();
  EngineCallbacks engine_callbacks();
  /// Deliver and clear every watch.
  void fire_watches();

  Network& net_;
  Simulator& sim_;
  NodeId id_;
  ReplicaOptions options_;
  std::vector<NodeId> initial_servers_;
  std::shared_ptr<bool> alive_;

  std::unique_ptr<StableStorage> storage_;
  std::unique_ptr<ReplicationEngine> engine_;
  NodeCounts retired_;  ///< summed over engines that crashed or left
  bool crashed_ = false;
  bool left_ = false;
  bool was_member_ = false;  ///< has ever run an engine (recovery possible)

  // Joiner-side state.
  bool joining_ = false;
  std::vector<NodeId> join_peers_;
  std::size_t join_peer_idx_ = 0;
  std::uint64_t join_epoch_ = 0;  ///< invalidates stale retry timers
  std::function<void()> on_joined_;

  std::vector<Watch> watches_;
  std::uint64_t next_watch_id_ = 0;
};

}  // namespace tordb::core
