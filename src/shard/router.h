// Shard router: the client tier of partial replication.
//
// Clients submit ordinary db::Commands; the router consults the Directory
// and picks the path:
//
//  - single-shard fast path: every key maps to one shard — the command goes
//    through that shard's exactly-once client session (core/client_session)
//    to a live member of the group, failing over on timeout or crash. Zero
//    extra rounds: the paper's "no per-action acks" property is untouched,
//    and shards multiply aggregate green throughput.
//
//  - cross-shard path: the command's keys span >= 2 shards. The router (as
//    coordinator) stamps a deterministic cross-shard id, splits the ops by
//    owning shard, rides a marker write (`__xs/<client>/<n>`) inside each
//    sub-command, and submits every sub-command concurrently through the
//    involved groups' sessions. Each group orders and applies its slice in
//    its own green order (one end-to-end round total — the green reply);
//    the *commit barrier* is at the coordinator: the action commits, and
//    the client hears back, only once it is green in ALL involved groups.
//    The gap between the first and last green is the barrier wait — the
//    cross-shard tax the sharding bench quantifies.
//
// Atomicity model: sub-commands are unconditional, and each session retries
// through crashes, partitions and whole-group outages
// (retry_when_unavailable), so a cross-shard action is eventually applied at
// every involved shard exactly once, or — when rejected up front — at none.
// Cross-shard commands carrying user kCheck ops (a per-shard check cannot be
// evaluated atomically across independent green orders) are handed to the
// deployment's prepared-check transaction coordinator
// (set_cross_check_handler; src/txn, DESIGN.md §13), which buffers each
// shard's updates behind a prepare marker and confirms or cancels them
// identically everywhere. Genuinely unroutable mixes (range administration
// or raw txn markers spanning shards) abort with a precise `unsupported_mix`
// error. Within one shard the effects are atomic and 1SR as in the paper; a
// reader consulting two shards between the first and last green may observe
// the action partially applied — unless it goes through the coordinator's
// barrier-stamped snapshot reads. Those hold the router's cross gate, the
// one place cross-shard work is admitted, drain what is in flight, and pin
// a vector of per-shard green watermarks first; only work a transaction has
// already decided (submit_decided) gets past the gate meanwhile.
//
// The router is the tier's one owner of members, session knobs, tracer and
// metrics: the txn coordinator and the Rebalancer read them here and build
// their sessions through make_session.
//
// Rebalancing (DESIGN.md §9): the router reads the Directory that the
// Rebalancer mutates. A command that lands on a shard which has fenced
// the key's range aborts deterministically with `fenced` set; the router
// counts a fenced bounce, waits kFenceRetryDelay, re-consults the
// directory (the epoch bump may have happened meanwhile) and re-routes the
// command — for a cross-shard action, only the bounced slice is re-split
// and resubmitted into the same commit barrier. Exactly-once is preserved
// because a fenced abort provably had no effects (the session guard is
// only advanced by a commit), so the re-route is a fresh first attempt.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "core/client_session.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/directory.h"
#include "util/flat_map.h"

namespace tordb::shard {

struct RouterOptions {
  core::SessionOptions session;  ///< every session's knobs (see make_session)
  /// Observability (disconnected/null by default — zero cost). The tracer
  /// emits kShardRoute / kShardFailover / kShardCross* events with
  /// node = kNoNode (the router is client-side, not a replica). The
  /// registry gets the cross-shard barrier-wait histogram.
  obs::Tracer tracer;
  std::shared_ptr<obs::MetricsRegistry> metrics;
};

/// The one fenced-retry policy of the shard tier, shared by the router and
/// the txn coordinator: the fenced-bounce budget (router: per command,
/// summed over a cross-shard action's slices; coordinator: wholesale
/// restarts per transaction) and the pause before re-consulting the
/// directory. The budget covers a move's fence->cutover window, including a
/// source partition that stalls the transfer.
inline constexpr int kMaxFenceBounces = 400;
inline constexpr SimDuration kFenceRetryDelay = millis(50);

struct RouteReply {
  bool committed = false;
  bool fenced = false;           ///< aborted with the fence-bounce budget exhausted
  /// Aborted because the command's own kCheck precondition failed — the
  /// application-level abort (e.g. a TPC-C invalid item), distinct from
  /// rebalance interference (`fenced`) and exhausted budgets. Surfaced from
  /// SessionReply so workload drivers count real aborts separately from
  /// rebalance retries.
  bool check_aborted = false;
  /// Rejected up front: the op mix is genuinely unroutable across shards
  /// (range administration or raw txn markers are pinned to one group by
  /// construction). Applied at no shard.
  bool unsupported_mix = false;
  int shards_involved = 1;
  int attempts = 0;              ///< summed over sub-requests
  int fenced_bounces = 0;        ///< fenced re-routes this command consumed
  SimDuration barrier_wait = 0;  ///< first green -> last green (cross-shard)
};
using RouteReplyFn = std::function<void(const RouteReply&)>;

struct RouterStats {
  std::uint64_t routed_single = 0;
  std::uint64_t routed_cross = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t aborted_checks = 0;         ///< aborts whose cause was a failed kCheck
  std::uint64_t rejected_unsupported = 0;   ///< genuinely unroutable op mix (unsupported_mix)
  std::uint64_t txn_handoffs = 0;           ///< cross-shard kCheck commands handed to the coordinator
  std::uint64_t failovers = 0;              ///< sub-requests that moved to another replica
  std::uint64_t cross_partial_aborts = 0;   ///< some shard aborted, others committed
  std::uint64_t fenced_bounces = 0;         ///< re-routes after a fenced abort
};

class Router {
 public:
  /// `replicas[s]` are the members of shard `s`, tried in fail-over order.
  /// The directory's shard count must match replicas.size(). The directory
  /// must outlive the router; a Rebalancer mutating it is observed by the
  /// very next routing decision.
  Router(Simulator& sim, const Directory& directory,
         std::vector<std::vector<core::ReplicaNode*>> replicas, RouterOptions options = {});
  ~Router();

  /// Route an update command (see the path description above). Requests
  /// from one client execute in FIFO order per shard, each exactly once.
  void submit(std::int64_t client, db::Command update, RouteReplyFn reply = nullptr);

  /// Route work a transaction has already decided — the coordinator's
  /// re-driven slice of a fenced confirm — past the snapshot-read gate, on
  /// the first attempt and on every fenced re-route. The reader holding the
  /// gate waits for that transaction, so deferring its slice would deadlock
  /// the read. Only txn::TxnCoordinator calls this.
  void submit_decided(std::int64_t client, db::Command update, RouteReplyFn reply);

  /// The marker key a cross-shard action writes at every involved shard
  /// (the property tests read it back to assert all-or-nothing).
  static std::string cross_marker_key(std::int64_t client, std::int64_t cross_seq);

  const Directory& directory() const { return directory_; }
  const RouterStats& stats() const { return stats_; }
  /// True when every session created so far has drained.
  bool idle() const;

  /// Shard `shard`'s members, in fail-over order.
  const std::vector<core::ReplicaNode*>& members(int shard) const { return replicas_.at(shard); }
  /// A session over shard `shard`'s members with the tier's knobs, and
  /// retry_when_unavailable forced on: the one place, so no session of the
  /// tier half-applies a cross-shard action. Callers keep their own
  /// sessions, each in its own id space (guards are consumed per id).
  std::unique_ptr<core::ClientSession> make_session(std::int64_t session_id, int shard) const;
  /// The tier's tracer (node = kNoNode) and registry (may be null).
  const obs::Tracer& tracer() const { return options_.tracer; }
  const std::shared_ptr<obs::MetricsRegistry>& metrics() const { return options_.metrics; }
  /// The shard's running replica with the highest green count (the first in
  /// member order on a tie), or nullptr when none runs. Its green prefix
  /// covers every action any member applied (checker invariant 1), so its
  /// state is the shard's canonical view. Read-only engine access: safe
  /// from the control lane in lane mode (the control phase runs exclusively,
  /// over worker state frozen at the window end), so it needs no handoff.
  const core::ReplicaNode* greenest(int shard) const;
  /// greenest(shard)'s green count, 0 when none runs — the per-shard green
  /// watermark the commit barrier is tracked against.
  std::int64_t green_watermark(int shard) const;

  /// Handler for cross-shard commands carrying user kCheck preconditions:
  /// the deployment wires this to txn::TxnCoordinator::begin (DESIGN.md
  /// §13) before the first submit.
  using CrossCheckHandler = std::function<void(std::int64_t client, db::Command, RouteReplyFn)>;
  void set_cross_check_handler(CrossCheckHandler handler) {
    cross_check_handler_ = std::move(handler);
  }

  /// Snapshot-read gate (DESIGN.md §13), the one place cross-shard work is
  /// admitted: while held, NEW cross-shard commands, checked or not, are
  /// deferred in FIFO order (single-shard traffic is unaffected — it can
  /// never straddle a barrier); the last release flushes them. Decided work
  /// (submit_decided) passes. Held by the coordinator while a
  /// barrier-stamped snapshot read drains the in-flight barriers and
  /// transactions and pins its watermark vector. Nests.
  void hold_cross();
  void release_cross();
  /// Cross-shard actions currently inside the commit barrier — what a
  /// snapshot read drains to zero before stamping its watermark vector.
  /// (Single-shard traffic, bounced or not, is irrelevant: it cannot
  /// straddle a barrier.)
  std::int64_t cross_in_flight() const {
    return static_cast<std::int64_t>(cross_inflight_.size());
  }

 private:
  struct CrossState {
    std::int64_t xid = 0;
    std::int64_t client = 0;
    std::string marker;
    int involved = 0;
    int outstanding = 0;
    int bounces = 0;  ///< fenced bounces consumed, summed over slices
    bool all_committed = true;
    bool any_committed = false;
    bool fenced_exhausted = false;
    bool check_aborted = false;
    int attempts = 0;
    SimTime first_green = -1;
    SimTime last_green = -1;
    RouteReplyFn reply;
  };

  /// (client, shard) packed into the flat-map key, built once per lookup
  /// from two integers instead of a pair compare per tree level. Shard
  /// counts are < 2^16 by construction (the directory validates its shard
  /// count against the replica groups).
  static std::uint64_t session_key(std::int64_t client, int shard) {
    return (static_cast<std::uint64_t>(client) << 16) |
           static_cast<std::uint64_t>(shard & 0xffff);
  }

  core::ClientSession& session(std::int64_t client, int shard);
  /// `decided`: the command passes the snapshot-read gate (submit_decided);
  /// fenced re-routes carry it along.
  void route(std::int64_t client, db::Command update, RouteReplyFn reply, int bounces,
             bool decided);
  void submit_cross_slice(std::int64_t token, int shard, db::Command user_slice);
  void rebounce_cross_slice(std::int64_t token, const db::Command& user_slice);
  void finish_cross(std::int64_t token);

  Simulator& sim_;
  const Directory& directory_;
  std::vector<std::vector<core::ReplicaNode*>> replicas_;
  RouterOptions options_;
  std::shared_ptr<bool> alive_;

  // Hot per-request state on flat open-addressing maps (util::FlatMap64):
  // one probe per lookup, no tree walks. Values are re-fetched after any
  // call that can insert (inserts may rehash).
  util::FlatMap64<std::unique_ptr<core::ClientSession>> sessions_;  ///< by session_key
  util::FlatMap64<std::int64_t> next_cross_seq_;                   ///< per client
  std::int64_t next_cross_token_ = 0;
  util::FlatMap64<CrossState> cross_inflight_;  ///< token -> state
  std::int64_t pending_bounces_ = 0;  ///< single-shard re-routes waiting out the delay
  CrossCheckHandler cross_check_handler_;
  /// Snapshot-read gate: depth of nested holds, plus the deferred
  /// cross-shard submissions flushed (FIFO) when the last hold releases.
  int cross_hold_ = 0;
  struct Deferred {
    std::int64_t client = 0;
    db::Command update;
    RouteReplyFn reply;
    int bounces = 0;
  };
  std::deque<Deferred> deferred_cross_;
  obs::Histogram* barrier_hist_ = nullptr;
  RouterStats stats_;
};

}  // namespace tordb::shard
