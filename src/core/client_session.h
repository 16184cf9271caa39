// Exactly-once client sessions over the replication engine.
//
// The paper's model has clients submit actions to a replica and wait for
// the green reply. If that replica crashes (or the client's reply is lost),
// a naive client retry through another replica would apply the action
// twice. This session layer — an extension beyond the paper, built purely
// on the public engine API — gives each client a FIFO session with
// exactly-once update semantics:
//
//  - every update is fenced by a session-sequence guard on a reserved
//    database key (`__session/<client>`): a check that the guard still
//    holds the previous committed sequence, followed by an update to the
//    new one. The guard rides *inside* the action, so it is evaluated at
//    ordering time, identically at every replica;
//  - a duplicate (the first attempt did commit, the reply was lost) fails
//    the guard check and aborts harmlessly;
//  - when the replica holding the attempt crashes or leaves the primary
//    component, the session fails over to a replica that can order it and
//    re-issues the same sequence number; a timer is the backstop
//    (DESIGN.md §17);
//  - an ambiguous abort after a retry is resolved by reading the guard
//    key back: if it reached this sequence, some attempt committed.
//
// Sessions carry update commands; reads go through the engine's query
// interface (Reply::reads of a retried update are not reconstructable from
// a state read-back, so sessions report commit/abort only).
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/replica_node.h"
#include "db/database.h"
#include "sim/simulator.h"

namespace tordb::core {

struct SessionOptions {
  /// Backstop: fail over to the next replica when an attempt has had no
  /// reply for this long. A crash or a loss of the primary at the attempt's
  /// replica moves the session at once (DESIGN.md §17); the timer covers
  /// what no signal reports, such as a slow or cut-off primary.
  SimDuration retry_timeout = millis(800);
  /// The request aborts once this many retry_timeout periods have expired
  /// (signal-driven failovers are not charged).
  int max_attempts_per_request = 20;
  /// When no replica is currently running (all crashed or left), wait until
  /// a crashed one recovers, or one retry_timeout, and try again instead of
  /// aborting the request. Each expired wait counts against the budget. The
  /// shard tier uses this so a cross-shard action whose target group is
  /// temporarily wholly down still lands exactly once (all-or-nothing
  /// across groups) instead of half-applying.
  bool retry_when_unavailable = false;
};

struct SessionReply {
  bool committed = false;
  bool fenced = false;         ///< abort cause: an update hit a fenced key range
  /// Abort cause: the command's own kCheck precondition failed — a genuine
  /// deterministic abort (every replica aborted it identically), as opposed
  /// to a fenced bounce (rebalance interference, retryable at the new
  /// owner) or an exhausted attempt budget. A retried request resolves this
  /// via the guard read-back: if no attempt committed, the guard check
  /// necessarily passed, so the user's own precondition was what failed.
  bool check_aborted = false;
  int attempts = 1;
  /// Some attempt went to another replica than the session's current one.
  bool failed_over = false;
};
using SessionReplyFn = std::function<void(const SessionReply&)>;

struct SessionStats {
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t aborted_checks = 0;  ///< aborts with check_aborted set
  std::uint64_t aborted_fenced = 0;  ///< aborts with fenced set
  std::uint64_t retries = 0;
  std::uint64_t duplicates_suppressed = 0;
  /// Moves to another replica: after a signal or a timeout, or a skip past
  /// a replica that is down or in NonPrim when an attempt or a read-back
  /// picks its target.
  std::uint64_t failovers = 0;
  /// Backstop expiries that drove a failover attempt (a subset of
  /// `retries`); signals should leave this at 0.
  std::uint64_t timeouts = 0;
};

class ClientSession {
 public:
  /// `replicas` are tried round-robin on failover; they may crash, recover
  /// or leave while the session runs, and must outlive the session.
  ClientSession(Simulator& sim, std::vector<ReplicaNode*> replicas, std::int64_t client_id,
                SessionOptions options = {});
  ~ClientSession();

  ClientSession(const ClientSession&) = delete;
  ClientSession& operator=(const ClientSession&) = delete;

  /// Enqueue an update command; requests execute strictly in session order,
  /// each exactly once (commit or deterministic abort).
  void submit(db::Command update, SessionReplyFn reply = nullptr);

  /// The reserved guard key for a client id.
  static std::string guard_key(std::int64_t client_id);

  std::int64_t client_id() const { return client_id_; }
  const SessionStats& stats() const { return stats_; }
  bool idle() const { return !in_flight_ && queue_.empty(); }

 private:
  struct Request {
    std::int64_t seq;
    db::Command update;
    SessionReplyFn reply;
    int attempts = 0;
    int expired = 0;  ///< retry_timeout periods spent: the attempt budget
    bool failed_over = false;
  };

  void pump();
  /// Send the next attempt; `move_on` starts the replica search past the
  /// current one (a failover).
  void issue(bool move_on = false);
  void on_reply(std::int64_t seq, std::uint64_t attempt_epoch, bool aborted, bool fenced);
  void on_timeout(std::int64_t seq, std::uint64_t attempt_epoch);
  /// A watch fired. `waiting`: the session was waiting out a whole-group
  /// outage, and a replica recovered.
  void on_signal(std::int64_t seq, std::uint64_t attempt_epoch, bool waiting);
  void resolve_ambiguous_abort(std::int64_t seq, std::uint64_t attempt_epoch);
  void finish(bool committed, bool fenced = false, bool check_aborted = false);
  bool stale(std::int64_t seq, std::uint64_t attempt_epoch) const {
    return !in_flight_ || current_.seq != seq || attempt_epoch != attempt_epoch_;
  }
  /// The replica to use, searched round-robin from the current one (or the
  /// one after it with `move_on`): the first that can order actions now,
  /// else the first running one. A change of replica is a failover.
  ReplicaNode* pick_replica(bool move_on = false);
  /// Round-robin index of the first of `count` replicas from `from` that
  /// passes `ok`, or replicas_.size() when none does.
  std::size_t find_replica(std::size_t from, std::size_t count,
                           bool (*ok)(const ReplicaNode&)) const;
  /// Watch `node` on behalf of attempt (seq, epoch); on_signal handles it.
  void watch(ReplicaNode& node, std::int64_t seq, std::uint64_t epoch, bool waiting);
  void unwatch_all();

  Simulator& sim_;
  std::vector<ReplicaNode*> replicas_;
  std::size_t replica_idx_ = 0;
  /// The lane this session's state machine runs on (captured at
  /// construction; the control lane in a lane-partitioned cluster). Every
  /// submit hops to the target replica's lane via Simulator::call_in_lane
  /// and every reply hops back here — in classic mode both are plain
  /// inline calls, so the classic schedule is untouched.
  int home_lane_;
  std::int64_t client_id_;
  /// guard_key(client_id_), built once — every attempt fences with it twice.
  std::string guard_key_;
  SessionOptions options_;
  std::shared_ptr<bool> alive_;

  std::int64_t next_seq_ = 0;
  std::string last_committed_guard_;  ///< guard value of the last commit
  std::string seq_str_;  ///< decimal form of current_.seq, built once per request
  std::deque<Request> queue_;
  bool in_flight_ = false;
  Request current_;
  std::uint64_t attempt_epoch_ = 0;  ///< invalidates stale replies/timeouts
  /// Watches of the attempt in flight: one replica, or every crashed one
  /// while retry_when_unavailable waits for a recovery.
  std::vector<std::pair<ReplicaNode*, std::uint64_t>> watches_;
  SessionStats stats_;
};

}  // namespace tordb::core
