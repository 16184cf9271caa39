// The replication engine — the paper's primary contribution (§5, Appendix
// A): a generic engine, running outside the database, that turns Extended
// Virtual Synchrony group communication into a *global persistent consistent
// order* of actions over a partitionable network, with end-to-end
// acknowledgement rounds only at membership changes, never per action.
//
// States (Figure 4):
//
//   NonPrim          member of a non-primary component; actions ordered
//                    locally, marked red.
//   RegPrim          member of the primary component, regular
//                    configuration; safe-delivered actions marked green and
//                    applied immediately.
//   TransPrim        primary's transitional configuration; deliveries
//                    marked yellow.
//   ExchangeStates   a new configuration formed; members exchange State
//                    messages.
//   ExchangeActions  members retransmit so everyone reaches the maximal
//                    common state.
//   Construct        quorum reached; Create-Primary-Component (CPC)
//                    messages in flight.
//   No / Un          interrupted installation (paper §5): `No` — as far as
//                    we know nobody installed; `Un` — somebody may have.
//
// Coloring (Figures 1, 3): red = ordered locally, global order unknown;
// yellow = delivered in a primary's transitional configuration; green =
// global order known; white = known green at every replica (discardable).
//
// Dynamic membership (§5.1): PERSISTENT_JOIN / PERSISTENT_LEAVE ride the
// green order itself, which sidesteps the consensus problem of changing the
// replica set; a representative transfers a database snapshot to the
// joiner, with fail-over to any other member.
//
// Semantics (§6): strict actions are applied/answered only when green; weak
// queries answer from the (possibly stale) green state; dirty queries from
// a red-applied overlay; timestamp/commutative updates are acknowledged on
// red and converge once merged into the green order.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/action.h"
#include "core/action_log.h"
#include "core/messages.h"
#include "core/quorum.h"
#include "db/database.h"
#include "gc/group_communication.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "storage/stable_storage.h"
#include "util/flat_map.h"

namespace tordb::core {

enum class EngineState : std::uint8_t {
  kNonPrim,
  kRegPrim,
  kTransPrim,
  kExchangeStates,
  kExchangeActions,
  kConstruct,
  kNo,
  kUn,
  kLeft,  ///< our PERSISTENT_LEAVE became green; engine is shut down
};

std::string to_string(EngineState s);

enum class QueryMode : std::uint8_t {
  kStrict = 0,  ///< answered in the primary component, fully consistent
  kWeak = 1,    ///< §6: consistent but possibly obsolete (green state)
  kDirty = 2,   ///< §6: latest local info including red actions
};

struct Reply {
  ActionId action;  ///< invalid (kNoNode) for pure queries
  bool aborted = false;
  bool fenced = false;  ///< aborted because an update hit a fenced key range (§9)
  std::vector<std::string> reads;
};
using ReplyFn = std::function<void(const Reply&)>;

struct EngineParams {
  std::map<NodeId, int> weights;       ///< voting weights
  QuorumMode quorum_mode = QuorumMode::kDynamicLinearVoting;
  std::uint32_t action_padding = 110;  ///< pads actions to ~200 wire bytes
  std::int64_t compact_every_greens = 8000;  ///< log compaction cadence (0 = off)
  bool white_trim = true;  ///< discard white action bodies (paper Figure 1)
  /// Batch multi-action persist+multicast: one StableStorage append+sync
  /// and one group multicast per batch of buffered client actions instead
  /// of per action. Single-action submissions are unaffected.
  bool batch_persist = true;
  /// Observability (all null by default — zero cost). When `trace_bus` is
  /// set the engine constructs a per-node Tracer and emits the structured
  /// event stream documented on obs::EventKind; it also hands the bus down
  /// to its GroupCommunication instance. When `metrics` is set the engine
  /// records green-commit latency and view-change duration histograms.
  std::shared_ptr<obs::TraceBus> trace_bus;
  std::shared_ptr<obs::MetricsRegistry> metrics;
};

struct EngineStats {
  std::uint64_t actions_created = 0;
  std::uint64_t actions_red = 0;
  std::uint64_t actions_green = 0;
  std::uint64_t actions_white_trimmed = 0;
  std::uint64_t exchanges = 0;
  std::uint64_t primaries_installed = 0;
  std::uint64_t cpc_sent = 0;
  std::uint64_t green_retrans_sent = 0;
  std::uint64_t red_retrans_sent = 0;
  std::uint64_t replies = 0;
  std::uint64_t snapshots_sent = 0;
  /// Always 0: green lines ride the gc stability streams, no announcement
  /// token is sent any more (DESIGN.md §14). perfbench/workloads.cc reads it.
  std::uint64_t announces_sent = 0;
  // Write batching (one forced append+sync and one multicast per batch).
  std::uint64_t persist_batches = 0;        ///< multi-action batches issued
  std::uint64_t persist_batch_actions = 0;  ///< actions carried by them
};

struct EngineCallbacks {
  std::function<void()> on_left;  ///< our own leave became green
  /// Entered kNonPrim: an exchange ended without quorum, or a configuration
  /// change cut an exchange short (A.4 / A.6). Called inline from engine
  /// processing; the handler must defer anything that re-enters the engine.
  std::function<void()> on_non_prim;
};

/// One creator's share of the A.5 red retransmission: `holder` multicasts
/// that creator's actions with indices in (lo, hi].
struct RedRetrans {
  NodeId creator = kNoNode;
  NodeId holder = kNoNode;
  std::int64_t lo = 0;
  std::int64_t hi = 0;

  friend bool operator==(const RedRetrans&, const RedRetrans&) = default;
};

/// The A.5 red retransmission plan, computed identically by every member
/// from the same State messages, given in configuration order. Per creator,
/// ascending: `hi` is the highest red cut; the holder is the first member
/// with it; `lo` is the higher of the lowest red cut (0 where a member lists
/// no such creator) and the holder's green cut, since the green path
/// carries the rest; creators with hi <= lo are left out. One merge walk
/// over the members' red cuts, which the NodePairs reader keeps ascending:
/// O(members x creators).
std::vector<RedRetrans> red_retrans_plan(std::span<const StateMessage* const> members);

class ReplicationEngine {
 public:
  /// Fresh start as a founding member of `initial_servers`.
  ReplicationEngine(Network& net, StableStorage& storage, NodeId id,
                    std::vector<NodeId> initial_servers, EngineParams params = {},
                    EngineCallbacks callbacks = {});

  /// Start as a joining replica from a received snapshot (§5.2).
  ReplicationEngine(Network& net, StableStorage& storage, NodeId id,
                    const SnapshotMessage& snapshot, EngineParams params = {},
                    EngineCallbacks callbacks = {});

  struct RecoverTag {};
  /// Recover from stable storage after a crash (Appendix A, Recover).
  /// `fallback_servers` seeds the server set when the log is empty.
  ReplicationEngine(Network& net, StableStorage& storage, NodeId id, RecoverTag,
                    std::vector<NodeId> fallback_servers, EngineParams params = {},
                    EngineCallbacks callbacks = {});

  ~ReplicationEngine();
  ReplicationEngine(const ReplicationEngine&) = delete;
  ReplicationEngine& operator=(const ReplicationEngine&) = delete;

  // --- client interface ---------------------------------------------------

  /// Submit an action with a query part and an update part (either may be
  /// empty). Strict actions reply once green; timestamp/commutative actions
  /// reply once ordered locally (red) and converge globally later (§6).
  void submit(db::Command query, db::Command update, std::int64_t client,
              Semantics semantics, ReplyFn reply);

  /// Query-only fast path (§6): no action message is generated or ordered.
  void submit_query(db::Command query, QueryMode mode, ReplyFn reply);

  /// §5.1: ask this engine to represent `joiner` — creates a
  /// PERSISTENT_JOIN (or resumes the transfer if the join is already green).
  void handle_join_request(NodeId joiner);

  /// §5.1: create a PERSISTENT_LEAVE for ourselves.
  void request_leave();

  /// §5.1: administratively remove a permanently failed replica.
  void remove_replica(NodeId dead);

  // --- introspection --------------------------------------------------------

  NodeId id() const { return id_; }
  EngineState state() const { return state_; }
  bool in_primary() const {
    return state_ == EngineState::kRegPrim || state_ == EngineState::kTransPrim;
  }
  std::int64_t green_count() const { return log_.green_count(); }
  std::size_t red_count() const { return log_.red_count(); }
  /// Known green at every server-set member (paper Figure 1): kept
  /// incrementally from greenLines[] and the gc's knowledge words.
  std::int64_t white_line() const { return white_; }
  /// The colored-action history (read-only; all mutation goes through the
  /// engine's protocol paths).
  const ActionLog& action_log() const { return log_; }
  const db::Database& database() const { return db_; }
  std::uint64_t db_digest() const { return db_.digest(); }
  /// Green state plus red actions applied on top (the §6 dirty version).
  db::Database dirty_database() const;
  const std::vector<NodeId>& server_set() const { return server_set_; }
  const PrimComponent& prim_component() const { return prim_; }
  /// The primary's membership as install() set it. prim_component().servers
  /// also drops members whose leave turned green since, at each replica's
  /// own pace; this copy is what every member of one primary agrees on.
  /// Volatile: set at each install of this incarnation.
  const std::vector<NodeId>& installed_servers() const { return installed_servers_; }
  const VulnerableRecord& vulnerable() const { return vulnerable_; }
  const YellowRecord& yellow() const { return yellow_; }
  const EngineStats& stats() const { return stats_; }
  gc::GroupCommunication& group_comm() { return *gc_; }
  const gc::GroupCommunication& group_comm() const { return *gc_; }
  /// Green sequence entry at `position` (1-based); kNoNode id if trimmed.
  ActionId green_action_at(std::int64_t position) const;
  /// The State messages of the current or last exchange, by sender. Every
  /// member of the group holds the same decoded objects (DESIGN.md §3.1).
  const std::map<NodeId, std::shared_ptr<const StateMessage>>& exchange_states() const {
    return state_msgs_;
  }

  // --- shard rebalancing hooks (DESIGN.md §9) --------------------------------

  /// Extract [lo, hi) from the green state. Once the range's fence action is
  /// green here, the extraction is exactly the range's content at the fence
  /// position — no later green can touch a fenced range.
  db::RangeSnapshot extract_range(const std::string& lo, const std::string& hi) const {
    return db_.extract_range(lo, hi);
  }
  /// True once a green kFenceRange for exactly [lo, hi) has applied here.
  bool range_fenced(const std::string& lo, const std::string& hi) const {
    return db_.range_fenced(lo, hi);
  }

 private:
  /// A client or membership request. It waits in buffered_requests_ while
  /// the engine cannot create actions (outside RegPrim/NonPrim, A.8).
  struct BufferedRequest {
    ActionType type;
    db::Command query;
    db::Command update;
    std::int64_t client;
    Semantics semantics;
    NodeId subject;
    ReplyFn reply;
  };

  /// The member initialization every public constructor delegates to.
  ReplicationEngine(Network& net, StableStorage& storage, NodeId id, EngineParams params,
                    EngineCallbacks callbacks);

  // --- group communication events ------------------------------------------
  void on_regular_config(const gc::Configuration& conf);
  void on_transitional_config(const gc::Configuration& conf);
  void on_deliver(const gc::Delivery& d);
  void handle_action(ActionRef a);
  void handle_state_msg(std::shared_ptr<const StateMessage> s);
  void handle_cpc(const CpcMessage& c);
  void handle_green_retrans(std::int64_t position, ActionRef a);
  void handle_red_retrans(ActionRef a);
  void handle_catchup(const SnapshotMessage& s);

  // --- knowledge and the white line (DESIGN.md §14) ---------------------------
  /// The gc learned a higher knowledge word: raise the white line, and trim
  /// in RegPrim/NonPrim.
  void on_knowledge();
  /// Raise white_. O(1) from the gc's knowledge floor while the view is the
  /// server set; otherwise, or with `rescan`, the minimum of greenLines[]
  /// refreshed from the gc.
  void raise_white(bool rescan = false);
  /// Max-merge the gc's per-member knowledge into greenLines[] (in-view
  /// members only; the gc knows nothing of the others).
  void refresh_green_lines();
  /// greenLines[] as persisted and shipped in snapshots, refreshed first.
  std::vector<std::pair<NodeId, std::int64_t>> green_line_entries();
  /// Recompute servers_in_view_ after the server set or the view changed.
  void track_view() { servers_in_view_ = server_set_ == conf_.members; }

  // --- paper procedures (Appendix A) -----------------------------------------
  void shift_to_exchange_states();             // A.5
  void shift_to_exchange_actions();            // A.5
  void maybe_end_of_retrans();                 // A.5 / A.6
  void end_of_retrans();                       // A.5
  void compute_knowledge();                    // A.7
  bool is_quorum() const;                      // A.8
  void check_construct_complete();             // A.9
  void install();                              // A.10
  void handle_buffered_requests();             // A.8
  void mark_red(ActionRef a);                  // A.14
  void mark_yellow(ActionRef a);               // A.14
  void mark_green(ActionRef a);                // A.14 + CodeSegment 5.1
  void apply_green(const Action& a);
  void on_join_green(const Action& a);         // 5.1 lines 5-10
  void on_leave_green(const Action& a);        // 5.1 lines 11-13
  void recover_from_log(const std::vector<NodeId>& fallback_servers);
  /// Restore the meta fields of a recovered record; green lines max-merge.
  void restore_meta(const MetaRecord& m, std::int64_t& gc_counter);
  /// The server-set edits of a green join / leave, shared by the live path
  /// and replay. False when the set already had / lacked `n`.
  bool add_server(NodeId n);
  bool remove_server(NodeId n);

  // --- helpers ---------------------------------------------------------------
  void init_members(const std::vector<NodeId>& servers);
  void construct_gc(std::int64_t initial_counter);
  /// Adopt a transferred green prefix wholesale (join §5.2 / catch-up).
  void adopt_snapshot(const SnapshotMessage& s, bool set_prim);
  /// Create the action now (RegPrim/NonPrim) or buffer the request.
  void request(BufferedRequest req);
  /// Turn `req` into this server's next action and register its reply.
  Action make_action(BufferedRequest& req);
  void persist_and_send(std::vector<Action> actions);
  /// `log_red` false: the caller logs the action green in the same step.
  void on_newly_red(const Action& a, bool log_red = true);
  /// Encoded body of `a`, memoized for the immediately-repeated case (a
  /// delivered action's wire slice seeds it for the log record that
  /// follows). Valid until the next call.
  std::span<const std::uint8_t> encoded_body(const Action& a);
  /// Append the log record [type][record], whose layout ends in the body
  /// cache's bytes: by reference to the delivered wire when the cache holds
  /// its slice, else copied.
  template <class Record>
  void append_action_record(LogRecordType type, const Record& record);
  /// Append a green log record framed in place (hot: one per green action).
  void append_log_green(std::int64_t position, const Action& a);
  bool is_green(const ActionId& id) const { return log_.is_green(id); }
  MetaRecord current_meta();
  void append_meta();
  void trim_white();
  void maybe_compact();
  void maybe_reply_red(const Action& a);
  void reply_green(const Action& a, const db::ApplyResult& result);
  /// Answers `query` from `db` at once (§6 query fast path).
  void answer_query(const db::Database& db, const db::Command& query, const ReplyFn& fn);
  void flush_strict_queries();
  /// The green state as a transfer: §5.2 join and the exchange catch-up.
  SnapshotMessage green_snapshot();
  /// The encoded full-state log record over `db_snapshot` and the current
  /// log, meta, pending reds and ongoing actions.
  Bytes snapshot_record(Bytes db_snapshot);
  void send_snapshot_to(NodeId joiner);
  /// 5.1 line 13, exit: from on_leave_green, and from a recovery or a
  /// catch-up whose server set no longer holds this node.
  void enter_left();
  /// Ongoing actions in ActionId order (sorted packed keys) — the
  /// deterministic order persisted records and catch-up snapshots use.
  std::vector<Action> sorted_ongoing() const;

  // --- observability ---------------------------------------------------------
  /// Builds the per-node Tracer from params_.trace_bus, hands it down to the
  /// GC layer, and resolves metric handles. Must run before construct_gc.
  void init_obs();
  /// Single choke point for engine state transitions: emits kStateTransition
  /// and fires EngineCallbacks::on_non_prim on entry to kNonPrim.
  void set_state(EngineState next);
  /// Emits kEngineStart (mode: 0 fresh, 1 recover, 2 join) plus a
  /// kMemberReset / kMemberAdd sequence describing the server set.
  void trace_engine_start(std::int64_t mode);

  Network& net_;
  Simulator& sim_;
  StableStorage& storage_;
  NodeId id_;
  EngineParams params_;
  EngineCallbacks callbacks_;
  QuorumPolicy quorum_;
  std::shared_ptr<bool> alive_;

  db::Database db_;
  std::unique_ptr<gc::GroupCommunication> gc_;

  EngineState state_ = EngineState::kNonPrim;
  gc::Configuration conf_;
  std::int64_t action_index_ = 0;
  std::int64_t attempt_index_ = 0;
  PrimComponent prim_;
  std::vector<NodeId> installed_servers_;  ///< prim_.servers as of install()
  VulnerableRecord vulnerable_;
  YellowRecord yellow_;
  std::vector<NodeId> server_set_;

  // Coloring bookkeeping: the colored-action history lives in the
  // ActionLog subsystem; the engine keeps only cluster-knowledge state.
  ActionLog log_;
  /// Body-encode cache: the canonical body of action enc_body_id_ (kNoNode:
  /// none), a slice of the delivered wire `enc_wire_` or, when that is
  /// null, of `enc_owned_`.
  ActionId enc_body_id_;
  std::span<const std::uint8_t> enc_body_;
  std::shared_ptr<const SharedWire> enc_wire_;
  Bytes enc_owned_;
  /// A: greenLines (as counts). Group-sized; the sorted vector keeps
  /// map_to_pairs-style wire encodings in creator order for free.
  util::VecMap<NodeId, std::int64_t> green_lines_;
  /// The white line, monotone: knowledge never becomes false.
  std::int64_t white_ = 0;
  /// The view is exactly the server set, so the gc's knowledge floor bounds
  /// every server's green count.
  bool servers_in_view_ = false;
  /// A: ongoingQueue, keyed by pack_action_id. Values are the canonical
  /// encoded action bodies: the hot path only ever inserts and erases
  /// (one buffer memcpy instead of a deep Action copy), and the cold
  /// readers (sorted_ongoing) decode on demand.
  util::FlatMap64<Bytes> ongoing_;

  // Exchange state.
  std::map<NodeId, std::shared_ptr<const StateMessage>> state_msgs_;
  bool exchange_plan_ready_ = false;
  std::int64_t expected_retrans_ = 0;
  std::int64_t received_retrans_ = 0;
  std::map<NodeId, bool> effective_vulnerable_;  ///< post-ComputeKnowledge view

  // Construct state.
  std::set<NodeId> cpc_received_;

  // Client handling.
  std::deque<BufferedRequest> buffered_requests_;
  struct PendingReply {
    Semantics semantics;
    ReplyFn fn;
  };
  util::FlatMap64<PendingReply> pending_replies_;  ///< keyed by pack_action_id
  struct PendingQuery {
    db::Command query;
    ReplyFn fn;
  };
  std::vector<PendingQuery> pending_strict_queries_;

  // Join protocol.
  std::set<NodeId> pending_join_transfers_;

  EngineStats stats_;

  // Observability (all inert unless params_.trace_bus / params_.metrics set).
  obs::Tracer tracer_;
  obs::Histogram* green_latency_hist_ = nullptr;   ///< submit → green, ms
  obs::Histogram* view_change_hist_ = nullptr;     ///< exchange → install, ms
  util::FlatMap64<SimTime> submit_times_;  ///< by pack_action_id; only when metrics on
  SimTime exchange_started_at_ = -1;          ///< -1 = no exchange in flight
};

}  // namespace tordb::core
