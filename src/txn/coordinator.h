// Cross-shard prepared-check transaction coordinator (DESIGN.md §13).
//
// The paper's single total order gives atomic checked actions for free; the
// sharded tier (§8) broke that for commands whose kCheck preconditions span
// groups. This coordinator restores them with a two-round protocol over the
// existing router/session machinery, in the spirit of Sutra & Shapiro's
// decentralised commitment over partially-replicated groups — no global
// total order is reintroduced:
//
//   Round 1 (prepare): the command is split by owning shard. Each shard
//   orders ONE action carrying its slice's checks plus a kTxnPrepare
//   marker that buffers the slice's updates in a reserved `__txnp/` cell.
//   A failed check aborts the whole slice atomically (nothing buffered) —
//   the shard's deterministic "no" vote; a green prepare is its "yes".
//   Because the pending update is an ordinary reserved-key row, snapshot,
//   state transfer, recovery replay and digests carry it for free.
//
//   Round 2 (confirm/cancel): when every shard voted yes, one kTxnConfirm
//   (apply the buffered update, erase the cell) per involved shard; after
//   any abort (a "no" vote, or the fence-restart budget exhausted), one
//   kTxnCancel (erase without applying) per prepared shard. Each goes
//   through that shard's green order, so every replica of a group takes the
//   identical transition at the identical green position — checker
//   invariant 9. There is no separate decision write: every confirm also
//   puts a `__txnd/` stamp ("C") on its own shard in the same action, so
//   the first confirm green anywhere is the durable commit decision. The
//   client reply waits for the green-watermark commit barrier: all markers
//   green. A committed n-shard transaction orders 3n actions: n prepares,
//   n confirms and n post-reply cleanups retiring the stamps and intent.
//
// Rebalance interference: a fenced PREPARE cancels the prepared shards and
// restarts the whole transaction against the fresh directory (bounded by
// max_fence_retries). A fenced CONFIRM means a data range moved between
// prepare and confirm — the reserved pending cell never travels with a
// move — so the coordinator cancels the stranded prepare and re-drives the
// already-decided slice through the router, which re-splits it for the
// range's new owner (`confirm_rerouted`). The stranded cancel carries the
// confirm's stamp.
//
// Isolation caveat (documented, not hidden): checks are evaluated at the
// prepare position, buffered updates apply at the confirm position; a
// writer may touch a checked key in between. TPC-C's new-order checks are
// against immutable catalog rows, where the distinction is invisible.
//
// Coordinator crash recovery: the home-shard prepare piggybacks a `__txn/`
// intent record (client, seq, involved shards). A replacement coordinator
// calls adopt_orphans(): for every surviving intent it commits iff some
// involved shard holds the stamp (a stamp exists only after all voted yes)
// or every involved shard still holds its pending (all voted yes and no
// marker of either kind landed), else it cancels; a pending whose intent
// never went green is cancelled outright (the home prepare aborted), and a
// stamp whose intent is gone is retired (its commit finished; the cleanup
// was cut). There is no separate recovery protocol: each recovered
// transaction is rebuilt from the scan as an ordinary in-flight transaction
// (surviving pendings are its "yes" votes) and re-enters round 2 — the
// stamped confirms, fenced-confirm reroutes and the cleanup are the live
// code path. Run it at quiescence, after the dead coordinator's traffic
// drained.
//
// Barrier-stamped snapshot reads: snapshot_read() holds the router's
// cross-shard gate plus this coordinator's own admission gate, waits until
// every in-flight cross action and transaction drains, pins one green
// watermark per involved shard, and answers each shard's kGets with a weak
// query at a replica whose green count reached that watermark. Every cross
// action is then either entirely before or entirely after the pinned
// vector — a reader can no longer observe one half-applied.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/client_session.h"
#include "core/replica_node.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/router.h"
#include "util/flat_map.h"

namespace tordb::txn {

struct TxnOptions {
  core::SessionOptions session;  ///< marker/prepare session knobs
  obs::Tracer tracer;            ///< coordinator-side events (node = kNoNode)
  std::shared_ptr<obs::MetricsRegistry> metrics;
  /// Wholesale-restart budget when a prepare bounces off a fenced range
  /// mid-rebalance, and the pause before the restart re-consults the
  /// directory (mirrors RouterOptions' fenced-bounce knobs).
  int max_fence_retries = 400;
  SimDuration fence_retry_delay = millis(50);
  /// Distinguishes a replacement coordinator's sessions and transaction
  /// keys from its dead predecessor's: session guards are consumed per id,
  /// and the predecessor's `__txn*` cells may still await adoption, so a
  /// new incarnation must claim fresh id and seq space (ShardedCluster
  /// bumps this on restart_txn_coordinator).
  std::int64_t session_epoch = 0;
  /// Test hook modelling a coordinator crash mid-protocol: freeze every
  /// transaction at this stage (no reply, no further markers; txn_test
  /// then builds a replacement coordinator and drives adoption).
  /// 0 = never, 1 = after the prepare votes are collected (before any
  /// confirm or cancel), 2 = commit partly issued: only the home slot's
  /// confirm is sent, and the transaction freezes once it is green.
  int halt_at_stage = 0;
};

struct TxnStats {
  std::uint64_t begun = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted_check = 0;   ///< some shard's precondition failed
  std::uint64_t aborted_fenced = 0;  ///< fence-restart budget exhausted
  std::uint64_t aborted_other = 0;   ///< a vote neither committed nor classified
  std::uint64_t prepares = 0;        ///< prepare markers submitted
  std::uint64_t confirms = 0;        ///< confirm markers submitted
  std::uint64_t cancels = 0;         ///< cancel markers submitted
  std::uint64_t restarts = 0;        ///< wholesale fenced restarts
  std::uint64_t confirm_rerouted = 0;  ///< confirms bounced by a move, re-driven via the router
  std::uint64_t snapshot_reads = 0;
  std::uint64_t adopted_confirmed = 0;  ///< recovery pass drove the txn to commit
  std::uint64_t adopted_cancelled = 0;  ///< recovery pass cancelled it

  /// Field-wise sum (a deployment's totals over coordinator incarnations).
  TxnStats& operator+=(const TxnStats& o);
};

/// Result of a barrier-stamped snapshot read.
struct SnapshotReadReply {
  bool ok = false;                       ///< false: the query carried non-kGet ops
  std::vector<std::string> reads;        ///< one entry per kGet, in program order
  std::vector<std::int64_t> watermarks;  ///< pinned green watermark per involved shard (ascending)
  SimDuration drain_wait = 0;            ///< gate hold -> all barriers drained
};
using SnapshotReadFn = std::function<void(const SnapshotReadReply&)>;

class TxnCoordinator {
 public:
  /// `replicas[s]` are the members of shard `s` — the same groups the
  /// router holds; adoption and snapshot reads consult their green state
  /// directly. The router must outlive the coordinator.
  TxnCoordinator(Simulator& sim, shard::Router& router,
                 std::vector<std::vector<core::ReplicaNode*>> replicas, TxnOptions options = {});
  ~TxnCoordinator();

  TxnCoordinator(const TxnCoordinator&) = delete;
  TxnCoordinator& operator=(const TxnCoordinator&) = delete;

  /// Run `update` as a prepared-check transaction (the router's
  /// cross-check handler lands here). Degenerate single-shard commands go
  /// straight back to the router's atomic fast path.
  void submit(std::int64_t client, db::Command update, shard::RouteReplyFn reply);

  /// Barrier-stamped snapshot read: `query` must be kGet-only; its reads
  /// are answered against one pinned green watermark per involved shard.
  void snapshot_read(db::Command query, SnapshotReadFn reply);

  /// Recovery pass over every shard's surviving `__txn/` intents and
  /// orphaned `__txnp/` pendings (see the header comment). `done` fires
  /// with the number of adopted transactions once all of them resolved.
  void adopt_orphans(std::function<void(int adopted)> done = nullptr);

  /// Every transaction, marker, cleanup, restart and snapshot read drained.
  bool idle() const;
  const TxnStats& stats() const { return stats_; }

  static std::string intent_key(std::int64_t client, std::int64_t seq);
  static std::string pending_key(std::int64_t client, std::int64_t seq);
  static std::string decision_key(std::int64_t client, std::int64_t seq);

 private:
  struct Txn {
    std::int64_t client = 0;
    std::int64_t seq = 0;
    std::int64_t xid = 0;   ///< deterministic: client * 1e6 + seq
    std::int64_t sid = 0;   ///< session id every marker of this txn goes through
    std::uint64_t fp = 0;   ///< db::range_fingerprint(pending key, "")
    db::Command original;   ///< kept verbatim for wholesale fenced restarts
    shard::RouteReplyFn reply;
    std::vector<int> shards;            ///< involved shards, ascending
    std::vector<db::Command> checks;    ///< per slot: the slice's kCheck ops
    std::vector<db::Command> buffered;  ///< per slot: the slice's buffered updates
    std::vector<char> prepared;         ///< per slot: 1 = green prepare ("yes" vote)
    int home = 0;           ///< lowest involved shard; holds the intent
    int outstanding = 0;    ///< markers awaited in the current round
    int bounces = 0;        ///< wholesale restarts consumed
    int attempts = 0;       ///< summed session attempts
    bool check_fail = false;
    bool fence_fail = false;
    bool other_fail = false;
    bool committing = false;  ///< round 2 is the confirm leg (all voted yes)
    bool restarting = false;  ///< round 2 is the cancel leg of a restart
    bool halted = false;      ///< frozen by TxnOptions::halt_at_stage
    bool adopted = false;     ///< recovered by adopt_orphans: no client, adopted_* stats
    SimTime t0 = 0;
    SimTime first_marker = -1;  ///< first round-2 marker green
    SimTime last_marker = -1;   ///< last round-2 marker green
  };

  core::ClientSession& session(std::int64_t session_id, int shard);
  const db::Database* best_db(int shard) const;

  void begin(std::int64_t client, db::Command update, shard::RouteReplyFn reply, int bounces);
  void on_prepared(std::int64_t token);
  void round2(std::int64_t token, bool commit);
  /// `__txnd/<client>/<seq>` = "C": rides every committed slice's marker.
  static db::Op decision_stamp(const Txn& t);
  void submit_confirm(std::int64_t token, std::size_t slot);
  void submit_cancel(std::int64_t token, std::size_t slot);
  void reroute_slice(std::int64_t token, std::size_t slot);
  void mark_marker(Txn& t);
  void maybe_finish(std::int64_t token);
  void finish(std::int64_t token);
  void schedule_restart(std::unique_ptr<Txn> t);
  /// Post-commit retirement of one shard's stamp (and, at home, the intent).
  void submit_cleanup(std::int64_t sid, int shard, db::Command cmd);
  void flush_deferred();

  void drain_for_snapshot(std::int64_t token);
  void read_snapshot_shard(std::int64_t token, std::size_t slot);
  void finish_snapshot(std::int64_t token);

  /// A recovered transaction seeded from the scan: `prepared` and
  /// `buffered` from the surviving pendings, adopter session ids.
  std::unique_ptr<Txn> recovered_txn(std::int64_t client, std::int64_t seq, int home,
                                     std::vector<int> shards) const;

  Simulator& sim_;
  shard::Router& router_;
  std::vector<std::vector<core::ReplicaNode*>> replicas_;
  TxnOptions options_;
  std::shared_ptr<bool> alive_;

  util::FlatMap64<std::unique_ptr<core::ClientSession>> sessions_;  ///< by (sid << 16) | shard
  util::FlatMap64<std::int64_t> next_seq_;  ///< per client
  std::int64_t next_token_ = 0;
  std::map<std::int64_t, std::unique_ptr<Txn>> inflight_;

  /// Snapshot-read admission gate: while > 0, new transactions are
  /// deferred (FIFO) so the barrier can drain.
  int hold_ = 0;
  struct DeferredTxn {
    std::int64_t client = 0;
    db::Command update;
    shard::RouteReplyFn reply;
  };
  std::deque<DeferredTxn> deferred_;

  struct Snapshot {
    db::Command query;
    SnapshotReadFn reply;
    std::vector<int> shards;  ///< involved shards, ascending
    /// For each kGet of the query, (slot, index within the slot's slice).
    std::vector<std::pair<std::size_t, std::size_t>> slots;
    std::vector<db::Command> slices;            ///< per slot: the shard's kGets
    std::vector<std::vector<std::string>> out;  ///< per slot: that shard's reads
    std::vector<std::int64_t> watermarks;
    SimTime t0 = 0;
    SimTime stamped = 0;
    int outstanding = 0;
    bool gated = false;  ///< this read holds one router hold_cross()
  };
  std::map<std::int64_t, Snapshot> snapshots_;

  int adopting_ = 0;  ///< adopted transactions still in flight
  std::function<void()> adoption_done_;

  std::int64_t pending_restarts_ = 0;
  std::int64_t cleanups_ = 0;  ///< post-commit intent/stamp deletions in flight

  obs::Histogram* prepare_decide_hist_ = nullptr;
  obs::Histogram* barrier_hist_ = nullptr;
  TxnStats stats_;
};

}  // namespace tordb::txn
