// COReL-style baseline (Keidar [16], paper §7).
//
// COReL layers consistent object replication on group communication but
// requires an **end-to-end acknowledgement for every action, even when
// failures are not present**: an action is committed only after every
// replica has (a) received it in total order, (b) forced it to stable
// storage, and (c) multicast an acknowledgement that everyone received.
// Per action: one forced disk write per replica (one on the client's
// critical path) and n multicasts (the action itself plus one ack from each
// other replica) — the cost structure the paper attributes to COReL and the
// precise overhead its own algorithm eliminates.
//
// Like the paper's measurement setup, this implementation evaluates the
// failure-free path (the comparison in Figure 5 is "running in normal
// configuration when no failures occur"); on a membership change it simply
// resets outstanding acknowledgement bookkeeping to the new view.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "db/database.h"
#include "gc/group_communication.h"
#include "sim/network.h"
#include "storage/stable_storage.h"

namespace tordb::baselines {

struct CorelParams {
  StorageParams storage;
  std::uint32_t action_padding = 110;  ///< pads actions to ~200 wire bytes
};

struct CorelStats {
  std::uint64_t committed = 0;
  std::uint64_t acks_sent = 0;
};

class CorelReplica {
 public:
  CorelReplica(Network& net, NodeId id, std::vector<NodeId> servers, CorelParams params = {});
  ~CorelReplica();

  CorelReplica(const CorelReplica&) = delete;
  CorelReplica& operator=(const CorelReplica&) = delete;

  /// Submit an action; `done(true)` once it is committed (totally ordered,
  /// forced everywhere, and acknowledged by every replica).
  void submit(db::Command update, std::function<void(bool)> done);

  NodeId id() const { return id_; }
  const db::Database& database() const { return db_; }
  StableStorage& storage() { return *storage_; }
  const CorelStats& stats() const { return stats_; }
  gc::GroupCommunication& group_comm() { return *gc_; }

 private:
  struct PendingAction {
    ActionId id;
    db::Command cmd;
    bool forced = false;
    std::set<NodeId> acks;
    bool committed = false;
  };

  void on_deliver(const gc::Delivery& d);
  void on_direct(NodeId from, const Bytes& wire);
  void handle_data(NodeId origin, std::int64_t seq, db::Command cmd);
  void handle_ack(NodeId acker, const ActionId& acked);
  void try_commit();

  Network& net_;
  Simulator& sim_;
  NodeId id_;
  std::vector<NodeId> servers_;
  CorelParams params_;
  std::shared_ptr<bool> alive_;
  std::unique_ptr<StableStorage> storage_;
  db::Database db_;
  std::unique_ptr<gc::GroupCommunication> gc_;
  std::vector<NodeId> view_;

  std::int64_t next_seq_ = 0;
  std::deque<PendingAction> pending_;  ///< in delivery (total) order
  std::map<ActionId, std::set<NodeId>> early_acks_;  ///< acks before the action
  std::map<ActionId, std::function<void(bool)>> callbacks_;
  CorelStats stats_;
};

}  // namespace tordb::baselines
