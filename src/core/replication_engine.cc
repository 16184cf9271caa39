#include "core/replication_engine.h"

#include <algorithm>
#include <cassert>

#include "util/log.h"

namespace tordb::core {

namespace {
bool contains(const std::vector<NodeId>& v, NodeId n) {
  return std::find(v.begin(), v.end(), n) != v.end();
}

void insert_sorted(std::vector<NodeId>& v, NodeId n) {
  v.insert(std::upper_bound(v.begin(), v.end(), n), n);
}

void erase_value(std::vector<NodeId>& v, NodeId n) {
  v.erase(std::remove(v.begin(), v.end(), n), v.end());
}

// Every member of the group delivers the same wire: the first to get here
// decodes it, the others share that object (DESIGN.md §3.1). A separate
// allocation, not make_shared, so the wire's weak memo, which lives as long
// as anything holds the wire (a disk record of an action does), pins only
// the control block once the object itself is released.
template <typename T, typename Decode>
std::shared_ptr<const T> decode_shared(const gc::Delivery& d, int lane, Decode&& decode) {
  auto fresh = [&] { return std::shared_ptr<const T>(new T(decode())); };
  return d.wire ? d.wire->decoded<T>(lane, fresh) : fresh();
}
}  // namespace

std::vector<RedRetrans> red_retrans_plan(std::span<const StateMessage* const> members) {
  std::vector<RedRetrans> plan;
  std::vector<std::size_t> at(members.size(), 0);  // per member: next red_cut pair
  for (;;) {
    // The next creator is the smallest one under any member's cursor.
    bool any = false;
    NodeId c = kNoNode;
    for (std::size_t i = 0; i < members.size(); ++i) {
      const auto& cuts = members[i]->red_cut;
      if (at[i] < cuts.size() && (!any || cuts[at[i]].first < c)) {
        c = cuts[at[i]].first;
        any = true;
      }
    }
    if (!any) break;
    std::int64_t hi = 0, lo = INT64_MAX;
    std::size_t holder = 0;
    for (std::size_t i = 0; i < members.size(); ++i) {
      const auto& cuts = members[i]->red_cut;
      std::int64_t v = 0;
      if (at[i] < cuts.size() && cuts[at[i]].first == c) v = cuts[at[i]++].second;
      lo = std::min(lo, v);
      if (v > hi) {
        hi = v;
        holder = i;
      }
    }
    const auto& green = members[holder]->green_red_cut;
    auto g = std::lower_bound(green.begin(), green.end(), c,
                              [](const std::pair<NodeId, std::int64_t>& e, NodeId k) {
                                return e.first < k;
                              });
    if (g != green.end() && g->first == c) lo = std::max(lo, g->second);
    if (hi > lo) plan.push_back({c, members[holder]->server_id, lo, hi});
  }
  return plan;
}

std::string to_string(EngineState s) {
  switch (s) {
    case EngineState::kNonPrim: return "NonPrim";
    case EngineState::kRegPrim: return "RegPrim";
    case EngineState::kTransPrim: return "TransPrim";
    case EngineState::kExchangeStates: return "ExchangeStates";
    case EngineState::kExchangeActions: return "ExchangeActions";
    case EngineState::kConstruct: return "Construct";
    case EngineState::kNo: return "No";
    case EngineState::kUn: return "Un";
    case EngineState::kLeft: return "Left";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Construction / recovery
// ---------------------------------------------------------------------------

ReplicationEngine::ReplicationEngine(Network& net, StableStorage& storage, NodeId id,
                                     EngineParams params, EngineCallbacks callbacks)
    : net_(net),
      sim_(net.sim()),
      storage_(storage),
      id_(id),
      params_(std::move(params)),
      callbacks_(std::move(callbacks)),
      quorum_(params_.weights, params_.quorum_mode),
      alive_(std::make_shared<bool>(true)) {
  init_obs();
}

ReplicationEngine::ReplicationEngine(Network& net, StableStorage& storage, NodeId id,
                                     std::vector<NodeId> initial_servers, EngineParams params,
                                     EngineCallbacks callbacks)
    : ReplicationEngine(net, storage, id, std::move(params), std::move(callbacks)) {
  init_members(initial_servers);
  trace_engine_start(0);
  construct_gc(0);
}

ReplicationEngine::ReplicationEngine(Network& net, StableStorage& storage, NodeId id,
                                     const SnapshotMessage& snapshot, EngineParams params,
                                     EngineCallbacks callbacks)
    : ReplicationEngine(net, storage, id, std::move(params), std::move(callbacks)) {
  adopt_snapshot(snapshot, /*set_prim=*/true);
  // §5.2 line 28: the joiner's green line is the position of its
  // PERSISTENT_JOIN action, inherited with the snapshot.
  green_lines_[id_] = log_.green_count();
  // Persist the inherited state so a crash after joining recovers it.
  storage_.append(snapshot_record(snapshot.db_snapshot));
  storage_.sync([] {});
  trace_engine_start(2);
  construct_gc(0);
}

ReplicationEngine::ReplicationEngine(Network& net, StableStorage& storage, NodeId id, RecoverTag,
                                     std::vector<NodeId> fallback_servers, EngineParams params,
                                     EngineCallbacks callbacks)
    : ReplicationEngine(net, storage, id, std::move(params), std::move(callbacks)) {
  recover_from_log(fallback_servers);
}

ReplicationEngine::~ReplicationEngine() { *alive_ = false; }

void ReplicationEngine::init_obs() {
  if (params_.trace_bus) {
    tracer_ = obs::Tracer(params_.trace_bus, id_);
  }
  if (params_.metrics) {
    green_latency_hist_ = &params_.metrics->histogram("engine.green_latency_ms");
    view_change_hist_ = &params_.metrics->histogram("engine.view_change_ms");
  }
}

void ReplicationEngine::set_state(EngineState next) {
  if (next == state_) return;
  if (tracer_) {
    tracer_.emit(obs::EventKind::kStateTransition, static_cast<std::int64_t>(state_),
                 static_cast<std::int64_t>(next));
  }
  state_ = next;
  if (next == EngineState::kNonPrim && callbacks_.on_non_prim) callbacks_.on_non_prim();
}

void ReplicationEngine::trace_engine_start(std::int64_t mode) {
  if (!tracer_) return;
  tracer_.emit(obs::EventKind::kEngineStart, log_.green_count(), mode);
  tracer_.emit(obs::EventKind::kMemberReset);
  for (NodeId s : server_set_) {
    tracer_.emit(obs::EventKind::kMemberAdd, static_cast<std::int64_t>(s));
  }
}

void ReplicationEngine::init_members(const std::vector<NodeId>& servers) {
  server_set_ = servers;
  std::sort(server_set_.begin(), server_set_.end());
  for (NodeId s : server_set_) {
    log_.ensure_creator(s);
    green_lines_[s] = 0;
  }
  // The founding configuration is the first "primary component": dynamic
  // linear voting starts from a majority of the full initial set.
  prim_.prim_index = 0;
  prim_.attempt_index = 0;
  prim_.servers = server_set_;
}

void ReplicationEngine::construct_gc(std::int64_t initial_counter) {
  gc::Listener listener;
  listener.on_regular_config = [this](const gc::Configuration& c) { on_regular_config(c); };
  listener.on_transitional_config = [this](const gc::Configuration& c) {
    on_transitional_config(c);
  };
  listener.on_deliver = [this](const gc::Delivery& d) { on_deliver(d); };
  listener.on_knowledge = [this] { on_knowledge(); };
  gc_ = std::make_unique<gc::GroupCommunication>(net_, id_, std::move(listener), initial_counter,
                                                 tracer_);
  gc_->set_knowledge(log_.green_count());
  raise_white(/*rescan=*/true);  // from the lines the log or snapshot carried
}

void ReplicationEngine::recover_from_log(const std::vector<NodeId>& fallback_servers) {
  // Appendix A, Recover: rebuild state from stable storage, re-mark own
  // unordered actions red, and start in NonPrim. The vulnerable record comes
  // back exactly as it was forced — a server that crashed while vulnerable
  // recovers vulnerable and cannot help form a primary component until the
  // exchange protocol resolves its attempt (paper §5).
  init_members(fallback_servers);
  std::int64_t gc_counter = 0;
  std::vector<Action> ongoing_candidates;

  for (const Bytes& rec : storage_.recover_records()) {
    BufReader r(rec);
    const auto type = static_cast<LogRecordType>(r.u8());
    switch (type) {
      case LogRecordType::kDbSnapshot: {
        DbSnapshotRecord s = decode_db_snapshot(r);
        db_.restore(s.db_snapshot);
        log_.reset(s.green_count, s.green_red_cut);
        green_lines_.clear();  // the record replaces the lines, not merges
        restore_meta(s.meta, gc_counter);
        ongoing_candidates.clear();
        for (Action& a : s.red_actions) log_.mark_red(std::make_shared<const Action>(std::move(a)));
        for (const Action& a : s.ongoing_actions) ongoing_candidates.push_back(a);
        break;
      }
      case LogRecordType::kMeta:
        restore_meta(decode_meta(r), gc_counter);
        break;
      case LogRecordType::kGreen: {
        const std::int64_t pos = r.i64();
        const ActionRef ref = std::make_shared<const Action>(Action::decode(r));
        if (!log_.replay_green(pos, ref)) break;  // duplicate / out of order
        const Action& a = *ref;
        if (a.type == ActionType::kUpdate) {
          db_.apply(a.query, a.update);
        } else if (a.type == ActionType::kPersistentJoin) {
          add_server(a.subject);
        } else if (a.type == ActionType::kPersistentLeave) {
          remove_server(a.subject);
        }
        break;
      }
      case LogRecordType::kRed: {
        log_.mark_red(std::make_shared<const Action>(Action::decode(r)));
        break;
      }
      case LogRecordType::kOngoing: {
        ongoing_candidates.push_back(Action::decode(r));
        break;
      }
      case LogRecordType::kOngoingBatch: {
        for (Action& a : decode_action_batch(r)) ongoing_candidates.push_back(std::move(a));
        break;
      }
    }
  }

  // A.13: re-mark red the own actions that were forced but never ordered.
  std::sort(ongoing_candidates.begin(), ongoing_candidates.end(),
            [](const Action& a, const Action& b) { return a.id < b.id; });
  for (const Action& a : ongoing_candidates) {
    action_index_ = std::max(action_index_, a.id.index);
    if (log_.red_cut(id_) < a.id.index) mark_red(std::make_shared<const Action>(a));
  }
  action_index_ = std::max({action_index_, log_.red_cut(id_), log_.green_red_cut(id_)});
  green_lines_[id_] = log_.green_count();
  set_state(EngineState::kNonPrim);
  append_meta();
  storage_.sync([] {});
  trace_engine_start(1);
  construct_gc(gc_counter + 1);
  // 5.1 line 13: our own leave turned green before the crash. An empty set
  // recovered nothing (a joiner whose snapshot record was lost).
  if (!server_set_.empty() && !contains(server_set_, id_)) enter_left();
}

void ReplicationEngine::restore_meta(const MetaRecord& m, std::int64_t& gc_counter) {
  server_set_ = m.server_set;
  prim_ = m.prim;
  attempt_index_ = m.attempt_index;
  vulnerable_ = m.vulnerable;
  yellow_ = m.yellow;
  for (const auto& [n, g] : m.green_lines) {
    std::int64_t& v = green_lines_[n];
    v = std::max(v, g);
  }
  gc_counter = std::max(gc_counter, m.gc_counter);
}

void ReplicationEngine::adopt_snapshot(const SnapshotMessage& s, bool set_prim) {
  db_.restore(s.db_snapshot);
  if (tracer_) {
    tracer_.emit(obs::EventKind::kStateTransferApply, s.green_count);
    tracer_.emit(obs::EventKind::kMemberReset);
    for (NodeId n : s.server_set) {
      tracer_.emit(obs::EventKind::kMemberAdd, static_cast<std::int64_t>(n));
    }
  }
  // The log adopts the green prefix wholesale; pending reds the prefix
  // swallowed (now green) drop out of the pending set automatically, and
  // parked retransmissions the prefix unblocks are admitted red here.
  for (const Action* r : log_.adopt_green_prefix(s.green_count, s.green_red_cut)) {
    on_newly_red(*r);
  }
  server_set_ = s.server_set;
  track_view();
  for (const auto& [n, g] : s.green_lines) {
    std::int64_t& v = green_lines_[n];
    v = std::max(v, g);
  }
  if (set_prim) prim_ = s.prim;
  // Own in-flight actions the snapshot already ordered are settled, in
  // ActionId order (sorted packed keys) so reply ordering stays
  // deterministic despite the flat table's unspecified iteration order.
  std::vector<std::uint64_t> settled;
  ongoing_.for_each([&](std::uint64_t key, const Bytes&) {
    if (is_green(unpack_action_id(key))) settled.push_back(key);
  });
  std::sort(settled.begin(), settled.end());
  for (const std::uint64_t key : settled) {
    if (PendingReply* pit = pending_replies_.find(key)) {
      // Ordered inside the transferred prefix; the per-action result is
      // not recoverable from a state transfer, so acknowledge commit.
      Reply rep;
      rep.action = unpack_action_id(key);
      auto fn = std::move(pit->fn);
      pending_replies_.erase(key);
      ++stats_.replies;
      if (fn) fn(rep);
    }
    ongoing_.erase(key);
  }
}

// ---------------------------------------------------------------------------
// Client interface
// ---------------------------------------------------------------------------

void ReplicationEngine::request(BufferedRequest req) {
  if (state_ == EngineState::kRegPrim || state_ == EngineState::kNonPrim) {
    persist_and_send({make_action(req)});
  } else {
    buffered_requests_.push_back(std::move(req));
  }
}

Action ReplicationEngine::make_action(BufferedRequest& req) {
  Action a;
  a.type = req.type;
  a.id = ActionId{id_, ++action_index_};
  a.green_line = log_.green_count();
  a.client = req.client;
  a.semantics = req.semantics;
  a.query = std::move(req.query);
  a.update = std::move(req.update);
  a.subject = req.subject;
  a.padding = req.type == ActionType::kUpdate ? params_.action_padding : 0;
  ++stats_.actions_created;
  if (tracer_) {
    tracer_.emit_action(obs::EventKind::kActionSubmitted, a.id,
                        static_cast<std::int64_t>(req.semantics),
                        static_cast<std::int64_t>(req.type));
  }
  if (green_latency_hist_ != nullptr) submit_times_[pack_action_id(a.id)] = sim_.now();
  if (req.reply) {
    pending_replies_[pack_action_id(a.id)] = PendingReply{req.semantics, std::move(req.reply)};
  }
  return a;
}

void ReplicationEngine::persist_and_send(std::vector<Action> actions) {
  // A.1 / A.2 / A.8: write to ongoingQueue, one forced sync (shared by all
  // actions created in this batch — and, via group commit, with concurrent
  // batches), then hand to the group communication. Multi-action batches
  // (buffered requests flushing together) are framed as one log record and
  // one multicast instead of per-action records and messages.
  if (actions.empty()) return;
  const bool batched = params_.batch_persist && actions.size() > 1;
  // Encode each body exactly once: the ongoing-queue entry, the log record
  // and the multicast wire all share the same canonical bytes. The wires
  // are framed here (not in the sync callback) so the callback only moves
  // pre-built buffers into the gc layer.
  std::vector<Bytes> wires;
  if (batched) {
    for (const Action& a : actions) {
      ongoing_[pack_action_id(a.id)] = encode_action_body(a);
    }
    storage_.append(encode_log_ongoing_batch(actions));
    wires.push_back(encode_action_batch(actions));
    ++stats_.persist_batches;
    stats_.persist_batch_actions += actions.size();
  } else {
    wires.reserve(actions.size());
    for (const Action& a : actions) {
      const std::span<const std::uint8_t> body = encoded_body(a);
      ongoing_[pack_action_id(a.id)].assign(body.begin(), body.end());
      storage_.append_framed(static_cast<std::uint8_t>(LogRecordType::kOngoing), body);
      Bytes wire;
      wire.reserve(1 + body.size());
      wire.push_back(static_cast<std::uint8_t>(EngineMsgType::kAction));
      wire.insert(wire.end(), body.begin(), body.end());
      wires.push_back(std::move(wire));
    }
  }
  storage_.sync([this, alive = alive_, wires = std::move(wires)]() mutable {
    if (!*alive || state_ == EngineState::kLeft) return;
    for (Bytes& w : wires) gc_->multicast(std::move(w), gc::Service::kSafe);
  });
}

void ReplicationEngine::submit(db::Command query, db::Command update, std::int64_t client,
                               Semantics semantics, ReplyFn reply) {
  if (state_ == EngineState::kLeft) {
    Reply rep;
    rep.aborted = true;
    if (reply) reply(rep);
    return;
  }
  request({ActionType::kUpdate, std::move(query), std::move(update), client, semantics, kNoNode,
           std::move(reply)});
}

void ReplicationEngine::submit_query(db::Command query, QueryMode mode, ReplyFn reply) {
  switch (mode) {
    case QueryMode::kWeak:
      // §6: consistent but possibly obsolete — answered from the green
      // state even in a non-primary component.
      answer_query(db_, query, reply);
      return;
    case QueryMode::kDirty:
      // §6: latest local information, red actions included. With no red
      // pending the overlay equals the green state, so answer in place; it
      // is built only when reds wait (non-primary component, mid-exchange).
      if (log_.red_count() == 0) {
        answer_query(db_, query, reply);
      } else {
        answer_query(dirty_database(), query, reply);
      }
      return;
    case QueryMode::kStrict:
      if (state_ == EngineState::kRegPrim && ongoing_.empty()) {
        answer_query(db_, query, reply);
      } else {
        pending_strict_queries_.push_back(PendingQuery{std::move(query), std::move(reply)});
      }
      return;
  }
}

void ReplicationEngine::answer_query(const db::Database& db, const db::Command& query,
                                     const ReplyFn& fn) {
  auto res = db.peek(query);
  Reply rep;
  rep.aborted = res.aborted;
  rep.reads = std::move(res.reads);
  ++stats_.replies;
  if (fn) fn(rep);
}

void ReplicationEngine::flush_strict_queries() {
  if (state_ != EngineState::kRegPrim || !ongoing_.empty() || pending_strict_queries_.empty()) {
    return;
  }
  std::vector<PendingQuery> ready;
  ready.swap(pending_strict_queries_);
  for (PendingQuery& q : ready) answer_query(db_, q.query, q.fn);
}

void ReplicationEngine::handle_join_request(NodeId joiner) {
  if (state_ == EngineState::kLeft) return;
  if (contains(server_set_, joiner)) {
    // §5.1 line 21: the join is already green here; resume the transfer.
    send_snapshot_to(joiner);
    return;
  }
  if (pending_join_transfers_.count(joiner)) return;  // announcement in flight
  pending_join_transfers_.insert(joiner);
  request({ActionType::kPersistentJoin, {}, {}, 0, Semantics::kStrict, joiner, nullptr});
}

void ReplicationEngine::request_leave() { remove_replica(id_); }

void ReplicationEngine::remove_replica(NodeId dead) {
  if (state_ == EngineState::kLeft) return;
  request({ActionType::kPersistentLeave, {}, {}, 0, Semantics::kStrict, dead, nullptr});
}

void ReplicationEngine::handle_buffered_requests() {
  if (buffered_requests_.empty()) {
    flush_strict_queries();
    return;
  }
  std::vector<Action> actions;
  for (BufferedRequest& req : buffered_requests_) actions.push_back(make_action(req));
  buffered_requests_.clear();
  persist_and_send(std::move(actions));
  flush_strict_queries();
}

// ---------------------------------------------------------------------------
// Group communication events
// ---------------------------------------------------------------------------

void ReplicationEngine::on_transitional_config(const gc::Configuration& conf) {
  (void)conf;
  // Keep what the old configuration's words taught: they reset at install.
  refresh_green_lines();
  switch (state_) {
    case EngineState::kRegPrim:
      set_state(EngineState::kTransPrim);  // A.2
      break;
    case EngineState::kExchangeStates:
    case EngineState::kExchangeActions:
      set_state(EngineState::kNonPrim);  // A.4 / A.6
      break;
    case EngineState::kConstruct:
      set_state(EngineState::kNo);  // A.9
      break;
    case EngineState::kNonPrim:  // A.1: ignore
    default:
      break;
  }
}

void ReplicationEngine::on_regular_config(const gc::Configuration& conf) {
  conf_ = conf;
  track_view();
  switch (state_) {
    case EngineState::kTransPrim:
      // A.3: we processed the primary component to its end; complete
      // knowledge of it is (being) persisted, so we are no longer
      // vulnerable, and the actions caught in the transitional
      // configuration form the yellow set.
      vulnerable_.valid = false;
      yellow_.valid = true;
      shift_to_exchange_states();
      break;
    case EngineState::kNo:
      // A.11: nobody can have installed — some CPC was never received here,
      // so no server received all of them safely in the regular
      // configuration.
      vulnerable_.valid = false;
      shift_to_exchange_states();
      break;
    case EngineState::kNonPrim:
    case EngineState::kUn:  // A.12: still uncertain; stay vulnerable
      shift_to_exchange_states();
      break;
    case EngineState::kRegPrim:
    case EngineState::kExchangeStates:
    case EngineState::kExchangeActions:
    case EngineState::kConstruct:
      // Unreachable: the GC always delivers a transitional configuration
      // first, which moves us out of these states.
      shift_to_exchange_states();
      break;
    case EngineState::kLeft:
      break;
  }
}

void ReplicationEngine::on_deliver(const gc::Delivery& d) {
  if (state_ == EngineState::kLeft) return;
  BufReader r(d.payload.data(), d.payload.size());
  const auto type = static_cast<EngineMsgType>(r.u8());
  switch (type) {
    case EngineMsgType::kAction: {
      ActionRef a =
          decode_shared<Action>(d, sim_.current_lane(), [&r] { return Action::decode(r); });
      // The wire payload is [type][body] where [body] is the canonical
      // Action encoding; point the body-encode cache at that slice of the
      // shared wire, so the log record this action triggers references the
      // wire instead of copying or re-encoding the body.
      enc_body_id_ = a->id;
      enc_body_ = d.payload.subspan(1);
      enc_wire_ = d.wire;
      handle_action(std::move(a));
      break;
    }
    case EngineMsgType::kActionBatch: {
      // A batch shares one delivery (and therefore one color decision);
      // members process its actions in batch order.
      for (Action& a : decode_action_batch(r)) {
        handle_action(std::make_shared<const Action>(std::move(a)));
      }
      break;
    }
    case EngineMsgType::kState:
      handle_state_msg(decode_shared<StateMessage>(d, sim_.current_lane(),
                                                   [&r] { return StateMessage::decode(r); }));
      break;
    case EngineMsgType::kCpc: {
      CpcMessage c;
      c.server_id = r.i32();
      c.conf_id = r.config_id();
      handle_cpc(c);
      break;
    }
    case EngineMsgType::kGreenRetrans: {
      const std::int64_t pos = r.i64();
      handle_green_retrans(pos, std::make_shared<const Action>(Action::decode(r)));
      break;
    }
    case EngineMsgType::kRedRetrans:
      handle_red_retrans(std::make_shared<const Action>(Action::decode(r)));
      break;
    case EngineMsgType::kCatchup:
      handle_catchup(decode_snapshot(r));
      break;
  }
}

void ReplicationEngine::handle_action(ActionRef a) {
  switch (state_) {
    case EngineState::kRegPrim: {
      // A.2 (OR-1.1): safe delivery in the primary's regular configuration
      // determines the global order immediately.
      const NodeId creator = a->id.server_id;
      const std::int64_t line = a->green_line;
      mark_green(std::move(a));
      std::int64_t& v = green_lines_[creator];
      v = std::max(v, line);
      raise_white();
      trim_white();
      break;
    }
    case EngineState::kTransPrim:
      mark_yellow(std::move(a));  // A.3
      break;
    case EngineState::kUn:
      // A.12 (1b): an action in Un proves some server installed the primary
      // component and generated actions; act as if installing to stay
      // consistent with it.
      install();
      mark_yellow(std::move(a));
      set_state(EngineState::kTransPrim);
      break;
    case EngineState::kNonPrim:
    case EngineState::kExchangeStates:
    case EngineState::kExchangeActions:
      mark_red(std::move(a));  // A.1 / A.4 / A.6
      break;
    case EngineState::kConstruct:
    case EngineState::kNo:
      // The paper marks these "not possible"; with asynchronous disk writes
      // a stray resend can land here — red is always safe.
      mark_red(std::move(a));
      break;
    case EngineState::kLeft:
      break;
  }
}

// ---------------------------------------------------------------------------
// Exchange phase (A.4, A.5, A.6)
// ---------------------------------------------------------------------------

void ReplicationEngine::shift_to_exchange_states() {
  ++stats_.exchanges;
  state_msgs_.clear();
  cpc_received_.clear();
  exchange_plan_ready_ = false;
  expected_retrans_ = 0;
  received_retrans_ = 0;
  effective_vulnerable_.clear();
  set_state(EngineState::kExchangeStates);
  if (tracer_) {
    tracer_.emit(obs::EventKind::kExchangeStart, conf_.id.counter,
                 static_cast<std::int64_t>(conf_.id.coordinator));
  }
  exchange_started_at_ = sim_.now();
  append_meta();
  const ConfigId cid = conf_.id;
  storage_.sync([this, alive = alive_, cid] {
    if (!*alive) return;
    if (state_ != EngineState::kExchangeStates || !(conf_.id == cid)) return;
    StateMessage s;
    s.server_id = id_;
    s.conf_id = conf_.id;
    s.green_count = log_.green_count();
    s.white_count = log_.white_count();
    s.red_cut = log_.red_cut_pairs();
    s.green_red_cut = log_.green_red_cut_pairs();
    s.server_set = server_set_;
    s.attempt_index = attempt_index_;
    s.prim = prim_;
    s.vulnerable = vulnerable_;
    s.yellow = yellow_;
    gc_->multicast(encode_state_msg(s), gc::Service::kAgreed);
  });
}

void ReplicationEngine::handle_state_msg(std::shared_ptr<const StateMessage> s) {
  if (state_ != EngineState::kExchangeStates) return;  // A.1/A.3: ignore
  if (!(s->conf_id == conf_.id)) return;
  const NodeId from = s->server_id;
  state_msgs_[from] = std::move(s);
  if (state_msgs_.size() < conf_.members.size()) return;
  for (NodeId m : conf_.members) {
    if (!state_msgs_.count(m)) return;
  }
  shift_to_exchange_actions();
}

void ReplicationEngine::shift_to_exchange_actions() {
  set_state(EngineState::kExchangeActions);

  // Deterministic retransmission plan, computed identically by every member
  // from the identical set of State messages (replacing the turn-based
  // Retrans() of A.4/A.6 — same content, fully parallel).
  std::vector<const StateMessage*> states;
  states.reserve(conf_.members.size());
  for (NodeId m : conf_.members) states.push_back(state_msgs_.at(m).get());
  std::int64_t min_green = INT64_MAX, max_green = -1;
  const StateMessage* holder_msg = nullptr;
  for (const StateMessage* s : states) {
    min_green = std::min(min_green, s->green_count);
    // Among members with the maximal green count, prefer one that still
    // holds action bodies (lower white line) so cheap per-action
    // retransmission beats a full state transfer; then lowest id.
    if (s->green_count > max_green ||
        (s->green_count == max_green && s->white_count < holder_msg->white_count)) {
      max_green = s->green_count;
      holder_msg = s;
    }
  }
  const NodeId most_updated = holder_msg->server_id;

  if (max_green > min_green) {
    if (holder_msg->white_count > min_green) {
      // The most updated member inherited its prefix (joined via snapshot)
      // and holds no bodies below its white line: transfer the whole green
      // state instead of individual actions.
      expected_retrans_ += 1;
      if (most_updated == id_) {
        gc_->multicast(encode_catchup(green_snapshot()), gc::Service::kAgreed);
        ++stats_.snapshots_sent;
      }
    } else {
      expected_retrans_ += max_green - min_green;
      if (most_updated == id_) {
        for (std::int64_t pos = min_green + 1; pos <= max_green; ++pos) {
          const Action* body = log_.green_body_at(pos);
          assert(body != nullptr);
          gc_->multicast(encode_green_retrans(pos, *body), gc::Service::kAgreed);
          ++stats_.green_retrans_sent;
        }
      }
    }
  }

  // Red actions, per creator: the member holding the longest prefix
  // retransmits what others lack (beyond what the green path carries).
  for (const RedRetrans& p : red_retrans_plan(states)) {
    expected_retrans_ += p.hi - p.lo;
    if (p.holder == id_) {
      for (std::int64_t idx = p.lo + 1; idx <= p.hi; ++idx) {
        const ActionRef body = log_.body_of(ActionId{p.creator, idx});
        assert(body != nullptr);
        gc_->multicast(encode_red_retrans(*body), gc::Service::kAgreed);
        ++stats_.red_retrans_sent;
      }
    }
  }

  exchange_plan_ready_ = true;
  maybe_end_of_retrans();
}

void ReplicationEngine::handle_green_retrans(std::int64_t position, ActionRef a) {
  ++received_retrans_;
  if (position == log_.green_count() + 1) mark_green(std::move(a));
  maybe_end_of_retrans();
}

void ReplicationEngine::handle_red_retrans(ActionRef a) {
  ++received_retrans_;
  mark_red(std::move(a));
  maybe_end_of_retrans();
}

void ReplicationEngine::handle_catchup(const SnapshotMessage& s) {
  ++received_retrans_;
  if (s.green_count > log_.green_count()) {
    adopt_snapshot(s, /*set_prim=*/false);
    gc_->set_knowledge(log_.green_count());
    // Persist the adopted prefix as a compaction record so recovery does
    // not mix the old per-action log with the jumped green count.
    storage_.append(snapshot_record(s.db_snapshot));
    if (!contains(server_set_, id_)) {
      // 5.1 line 13: the prefix carried our own green leave. Force the
      // record, or a restart recovers the old set and rejoins the group.
      storage_.sync([] {});
      enter_left();
      return;
    }
  }
  maybe_end_of_retrans();
}

void ReplicationEngine::maybe_end_of_retrans() {
  if (state_ != EngineState::kExchangeActions || !exchange_plan_ready_) return;
  if (received_retrans_ < expected_retrans_) return;
  end_of_retrans();
}

void ReplicationEngine::end_of_retrans() {
  // A.5 End_of_retrans: incorporate green lines, compute knowledge, decide.
  for (const auto& [m, s] : state_msgs_) {
    std::int64_t& g = green_lines_[m];
    g = std::max(g, s->green_count);
  }
  compute_knowledge();
  raise_white(/*rescan=*/true);
  trim_white();

  if (is_quorum()) {
    ++attempt_index_;
    vulnerable_.valid = true;
    vulnerable_.prim_index = prim_.prim_index;
    vulnerable_.attempt_index = attempt_index_;
    vulnerable_.set = conf_.members;
    vulnerable_.bits.assign(conf_.members.size(), false);
    set_state(EngineState::kConstruct);
    append_meta();
    const ConfigId cid = conf_.id;
    storage_.sync([this, alive = alive_, cid] {
      if (!*alive) return;
      if (state_ != EngineState::kConstruct || !(conf_.id == cid)) return;
      CpcMessage c{id_, conf_.id};
      gc_->multicast(encode_cpc_msg(c), gc::Service::kSafe);
      ++stats_.cpc_sent;
    });
  } else {
    set_state(EngineState::kNonPrim);
    append_meta();
    storage_.sync([] {});
    handle_buffered_requests();
  }
}

void ReplicationEngine::compute_knowledge() {
  // A.7 step 1: adopt the most advanced primary component knowledge.
  std::pair<std::int64_t, std::int64_t> best{-1, -1};
  for (const auto& [m, s] : state_msgs_) {
    best = std::max(best, {s->prim.prim_index, s->prim.attempt_index});
  }
  std::vector<NodeId> updated_group;
  std::vector<NodeId> valid_group;
  std::int64_t max_attempt = 0;
  for (const auto& [m, s] : state_msgs_) {
    if (std::pair{s->prim.prim_index, s->prim.attempt_index} == best) {
      updated_group.push_back(m);
      prim_ = s->prim;
      max_attempt = std::max(max_attempt, s->attempt_index);
      if (s->yellow.valid) valid_group.push_back(m);
    }
  }
  attempt_index_ = max_attempt;
  // The adopted record may predate PERSISTENT_LEAVEs that the exchange just
  // retransmitted to us as greens; re-apply them so departed members never
  // count toward the voting denominator. Every member runs this against the
  // same post-exchange server set, so the result stays identical everywhere.
  std::vector<NodeId> still_members;
  for (NodeId s : prim_.servers) {
    if (contains(server_set_, s)) still_members.push_back(s);
  }
  prim_.servers = std::move(still_members);

  // A.7 step 2: the yellow set becomes the intersection of the valid
  // members' yellow sets, in their transitional delivery order.
  if (!valid_group.empty()) {
    YellowRecord merged;
    merged.valid = true;
    for (const ActionId& aid : state_msgs_.at(valid_group.front())->yellow.set) {
      bool in_all = true;
      for (NodeId v : valid_group) {
        const auto& set = state_msgs_.at(v)->yellow.set;
        if (std::find(set.begin(), set.end(), aid) == set.end()) {
          in_all = false;
          break;
        }
      }
      if (in_all) merged.set.push_back(aid);
    }
    yellow_ = std::move(merged);
  } else {
    yellow_ = YellowRecord{};
  }

  // A.7 step 3: invalidate vulnerable records that the exchanged knowledge
  // proves moot (superseded attempt, or a co-attempter that resolved it).
  std::map<NodeId, VulnerableRecord> eff;
  for (const auto& [m, s] : state_msgs_) eff[m] = s->vulnerable;
  for (auto& [m, v] : eff) {
    if (!v.valid) continue;
    bool invalidate = !contains(prim_.servers, m);
    if (!invalidate) {
      for (NodeId j : v.set) {
        auto it = state_msgs_.find(j);
        if (it == state_msgs_.end()) continue;
        const VulnerableRecord& jv = it->second->vulnerable;
        if (!jv.valid || jv.prim_index != v.prim_index ||
            jv.attempt_index != v.attempt_index) {
          invalidate = true;
          break;
        }
      }
    }
    if (invalidate) v.valid = false;
  }

  // A.7 step 4: union the CPC bits of servers vulnerable to the same
  // attempt; complete bits mean the attempt's fate is collectively known.
  for (auto& [m, v] : eff) {
    if (!v.valid) continue;
    std::vector<bool> unioned = v.bits;
    for (const auto& [m2, v2] : eff) {
      if (!v2.valid || v2.prim_index != v.prim_index ||
          v2.attempt_index != v.attempt_index || v2.set != v.set) {
        continue;
      }
      for (std::size_t i = 0; i < unioned.size() && i < v2.bits.size(); ++i) {
        if (v2.bits[i]) unioned[i] = true;
      }
    }
    bool all = !unioned.empty();
    for (bool b : unioned) all = all && b;
    v.bits = std::move(unioned);
    if (all) v.valid = false;
  }

  effective_vulnerable_.clear();
  for (const auto& [m, v] : eff) effective_vulnerable_[m] = v.valid;
  vulnerable_ = eff.at(id_);
}

bool ReplicationEngine::is_quorum() const {
  // A.8: nobody in the view may still be vulnerable, and the view must hold
  // a (weighted) majority of the last primary component.
  for (NodeId m : conf_.members) {
    auto it = effective_vulnerable_.find(m);
    if (it != effective_vulnerable_.end() && it->second) return false;
  }
  return quorum_.is_majority(conf_.members, prim_, server_set_);
}

// ---------------------------------------------------------------------------
// Construct / install (A.9, A.10, A.11, A.12)
// ---------------------------------------------------------------------------

void ReplicationEngine::handle_cpc(const CpcMessage& c) {
  if (!(c.conf_id == conf_.id)) return;
  cpc_received_.insert(c.server_id);
  if (tracer_) {
    tracer_.emit(obs::EventKind::kQuorumVote, c.conf_id.counter,
                 static_cast<std::int64_t>(c.conf_id.coordinator),
                 static_cast<std::int64_t>(c.server_id));
  }
  if (vulnerable_.valid) vulnerable_.set_bit(c.server_id);
  if (state_ == EngineState::kConstruct) {
    check_construct_complete();
  } else if (state_ == EngineState::kNo) {
    // A.11: all CPCs arrived, but some only in the transitional
    // configuration — someone may have installed. Undecided.
    bool all = true;
    for (NodeId m : conf_.members) {
      if (!cpc_received_.count(m)) {
        all = false;
        break;
      }
    }
    if (all) set_state(EngineState::kUn);
  }
  // A.4: CPC in ExchangeStates is ignored (stale by definition).
}

void ReplicationEngine::check_construct_complete() {
  for (NodeId m : conf_.members) {
    if (!cpc_received_.count(m)) return;
  }
  // A.9: everyone reached the same state during the exchange, so after
  // install all members share this server's green line.
  const std::int64_t own_line = log_.green_count();
  for (NodeId m : conf_.members) {
    std::int64_t& v = green_lines_[m];
    v = std::max(v, own_line);
  }
  install();
  set_state(EngineState::kRegPrim);
  handle_buffered_requests();
  flush_strict_queries();
  raise_white(/*rescan=*/true);
  trim_white();
}

void ReplicationEngine::install() {
  // A.10: yellow actions first (they were delivered in the previous
  // primary's transitional configuration and keep their order), then all
  // remaining red actions in action-id order.
  if (yellow_.valid) {
    for (const ActionId& aid : yellow_.set) {
      if (is_green(aid)) continue;
      if (ActionRef body = log_.body_of(aid)) mark_green(std::move(body));  // OR-1.2
    }
  }
  yellow_ = YellowRecord{};

  prim_.prim_index += 1;
  prim_.attempt_index = attempt_index_;
  prim_.servers = vulnerable_.set;
  installed_servers_ = prim_.servers;
  attempt_index_ = 0;

  // Pending reds are derived from the per-creator cuts, already in the
  // deterministic ActionId order OR-2 requires.
  for (const ActionId& rid : log_.pending_red_ids()) {
    if (is_green(rid)) continue;  // promoted via the yellow set above
    if (ActionRef body = log_.body_of(rid)) mark_green(std::move(body));  // OR-2
  }

  ++stats_.primaries_installed;
  if (view_change_hist_ != nullptr && exchange_started_at_ >= 0) {
    view_change_hist_->record((sim_.now() - exchange_started_at_) / 1000000);  // ns -> ms
    exchange_started_at_ = -1;
  }
  if (tracer_) {
    // Membership hash lets the checker compare installations structurally
    // without shipping the member list in one event.
    std::uint64_t h = 1469598103934665603ull;
    for (NodeId m : prim_.servers) {
      h ^= static_cast<std::uint64_t>(m) + 0x9e3779b97f4a7c15ull;
      h *= 1099511628211ull;
    }
    tracer_.emit(obs::EventKind::kPrimaryInstall, prim_.prim_index, prim_.attempt_index,
                 static_cast<std::int64_t>(prim_.servers.size()), static_cast<std::int64_t>(h));
    for (NodeId m : prim_.servers) {
      tracer_.emit(obs::EventKind::kPrimaryMember, prim_.prim_index,
                   static_cast<std::int64_t>(m));
    }
  }
  append_meta();
  storage_.sync([] {});
}

// ---------------------------------------------------------------------------
// Coloring (A.14, CodeSegment 5.1)
// ---------------------------------------------------------------------------

void ReplicationEngine::on_newly_red(const Action& a, bool log_red) {
  // A.14: persist the red mark; the action is ordered, no longer at risk
  // of loss, so it leaves the ongoing queue and (§6 semantics permitting)
  // the client can be answered.
  if (log_red) {
    const auto type = static_cast<std::uint8_t>(LogRecordType::kRed);
    append_body_record(&type, 1, a);
  }
  ++stats_.actions_red;
  if (tracer_) tracer_.emit_action(obs::EventKind::kActionRed, a.id);
  // Only this server's own actions wait in the ongoing queue.
  if (a.id.server_id == id_) ongoing_.erase(pack_action_id(a.id));
  maybe_reply_red(a);
}

void ReplicationEngine::mark_red(ActionRef a) {
  for (const Action* r : log_.mark_red(std::move(a))) on_newly_red(*r);
}

void ReplicationEngine::append_log_green(std::int64_t position, const Action& a) {
  // [kGreen][i64 LE position][body] — byte-identical to
  // encode_log_green(position, a) without materializing the record.
  std::uint8_t hdr[9];
  hdr[0] = static_cast<std::uint8_t>(LogRecordType::kGreen);
  for (std::size_t i = 0; i < 8; ++i) {
    hdr[1 + i] = static_cast<std::uint8_t>(static_cast<std::uint64_t>(position) >> (8 * i));
  }
  append_body_record(hdr, sizeof(hdr), a);
}

void ReplicationEngine::append_body_record(const std::uint8_t* header, std::size_t header_len,
                                           const Action& a) {
  const std::span<const std::uint8_t> body = encoded_body(a);
  if (enc_wire_ == nullptr) {
    storage_.append_framed(header, header_len, body);
    return;
  }
  const auto off = static_cast<std::size_t>(body.data() - enc_wire_->data());
  storage_.append_shared(header, header_len,
                         std::shared_ptr<const Bytes>(enc_wire_, &enc_wire_->bytes()), off,
                         body.size());
}

std::span<const std::uint8_t> ReplicationEngine::encoded_body(const Action& a) {
  // An ActionId names one immutable action for the lifetime of the system
  // (the protocol's core invariant), so a cached body can never be stale.
  if (!(enc_body_id_ == a.id)) {
    enc_owned_ = encode_action_body(a);
    enc_body_id_ = a.id;
    enc_body_ = enc_owned_;
    enc_wire_ = nullptr;
  }
  return enc_body_;
}

void ReplicationEngine::mark_yellow(ActionRef a) {
  const ActionId aid = a->id;
  mark_red(std::move(a));
  if (!is_green(aid) &&
      std::find(yellow_.set.begin(), yellow_.set.end(), aid) == yellow_.set.end()) {
    yellow_.set.push_back(aid);
  }
}

void ReplicationEngine::mark_green(ActionRef a) {
  const ActionId aid = a->id;
  const ActionLog::GreenResult res = log_.mark_green(std::move(a));
  if (res.position == 0) {  // duplicate: already green
    for (const Action* r : res.newly_red) on_newly_red(*r);
    return;
  }
  const Action& g = *res.body;
  // An action turning red and green in one step (the regular-primary path)
  // is logged once, as green: replaying a green record implies red. The
  // green record goes first, so a crash, which loses a suffix of the log,
  // never keeps the red records of successors this step unparked without
  // the record that fills their creator-FIFO gap.
  append_log_green(res.position, g);
  const Action* self =
      !res.newly_red.empty() && res.newly_red.front()->id == aid ? res.newly_red.front() : nullptr;
  for (const Action* r : res.newly_red) on_newly_red(*r, /*log_red=*/r != self);
  gc_->set_knowledge(log_.green_count());
  ++stats_.actions_green;
  if (tracer_) tracer_.emit_action(obs::EventKind::kActionGreen, aid, res.position);
  if (green_latency_hist_ != nullptr) {
    const std::uint64_t key = pack_action_id(aid);
    if (const SimTime* t = submit_times_.find(key)) {
      green_latency_hist_->record((sim_.now() - *t) / 1000000);  // ns -> ms
      submit_times_.erase(key);
    }
  }
  apply_green(g);
  maybe_compact();
}

void ReplicationEngine::apply_green(const Action& a) {
  switch (a.type) {
    case ActionType::kUpdate: {
      const db::ApplyResult res = db_.apply(a.query, a.update);
      if (tracer_ && !res.range_events.empty()) {
        // Stamp each range event with the green position so the checker can
        // order fence/install/write across independent groups (DESIGN.md §9).
        const std::int64_t pos = log_.green_count();
        for (const db::RangeEvent& ev : res.range_events) {
          switch (ev.kind) {
            case db::RangeEvent::Kind::kFence:
              tracer_.emit_action(obs::EventKind::kRangeFence, a.id,
                                  static_cast<std::int64_t>(ev.range), pos);
              break;
            case db::RangeEvent::Kind::kInstall:
              tracer_.emit(obs::EventKind::kRangeInstall, static_cast<std::int64_t>(ev.range),
                           pos, ev.rows);
              break;
            case db::RangeEvent::Kind::kWrite:
              tracer_.emit(obs::EventKind::kRangeWrite, static_cast<std::int64_t>(ev.range),
                           pos);
              break;
            case db::RangeEvent::Kind::kUnfence:
              tracer_.emit(obs::EventKind::kRangeUnfence, static_cast<std::int64_t>(ev.range),
                           pos);
              break;
          }
        }
      }
      if (tracer_ && !res.txn_events.empty()) {
        // Same discipline as range events: stamp each transaction-state
        // transition with the green position so the checker can dedup
        // lagging-replica replays and order prepare/confirm/cancel within
        // the group's own history (DESIGN.md §13).
        const std::int64_t pos = log_.green_count();
        for (const db::TxnEvent& ev : res.txn_events) {
          const obs::EventKind kind = ev.kind == db::TxnEvent::Kind::kPrepare
                                          ? obs::EventKind::kTxnPrepare
                                      : ev.kind == db::TxnEvent::Kind::kConfirm
                                          ? obs::EventKind::kTxnConfirm
                                          : obs::EventKind::kTxnCancel;
          tracer_.emit(kind, static_cast<std::int64_t>(ev.txn), pos);
        }
      }
      if (a.semantics == Semantics::kStrict) reply_green(a, res);
      break;
    }
    case ActionType::kPersistentJoin:
      on_join_green(a);
      break;
    case ActionType::kPersistentLeave:
      on_leave_green(a);
      break;
  }
  flush_strict_queries();
}

void ReplicationEngine::maybe_reply_red(const Action& a) {
  // §6 timestamp/commutative semantics: the client is answered as soon as
  // the action is ordered locally; global convergence follows later.
  if (a.semantics == Semantics::kStrict || a.id.server_id != id_) return;
  const std::uint64_t key = pack_action_id(a.id);
  PendingReply* it = pending_replies_.find(key);
  if (it == nullptr) return;
  Reply rep;
  rep.action = a.id;
  ++stats_.replies;
  auto fn = std::move(it->fn);
  pending_replies_.erase(key);
  if (fn) fn(rep);
}

void ReplicationEngine::reply_green(const Action& a, const db::ApplyResult& result) {
  if (a.id.server_id != id_) return;
  const std::uint64_t key = pack_action_id(a.id);
  PendingReply* it = pending_replies_.find(key);
  if (it == nullptr) return;
  Reply rep;
  rep.action = a.id;
  rep.aborted = result.aborted;
  rep.fenced = result.fenced;
  rep.reads = result.reads;
  ++stats_.replies;
  auto fn = std::move(it->fn);
  pending_replies_.erase(key);
  if (fn) fn(rep);
}

// ---------------------------------------------------------------------------
// Online reconfiguration (CodeSegment 5.1 / 5.2)
// ---------------------------------------------------------------------------

bool ReplicationEngine::add_server(NodeId n) {
  if (contains(server_set_, n)) return false;
  insert_sorted(server_set_, n);
  // 5.1 line 7: the joiner's green line is the join action's position.
  green_lines_[n] = log_.green_count();
  return true;
}

bool ReplicationEngine::remove_server(NodeId n) {
  if (!contains(server_set_, n)) return false;
  erase_value(server_set_, n);
  green_lines_.erase(n);
  // Remove the departed member from the dynamic-linear-voting denominator:
  // it can never vote again, and without this a leave of a recent-primary
  // member could block quorum forever — the very failure mode §5.1 says
  // permanent removal exists to prevent. Uniqueness is preserved: the
  // removal happens at the same green position at every replica, and a
  // majority of P\{n} plus a disjoint majority of P would need more
  // members than P has once n itself is gone for good.
  erase_value(prim_.servers, n);
  return true;
}

void ReplicationEngine::on_join_green(const Action& a) {
  const NodeId j = a.subject;
  const bool added = add_server(j);
  if (added) {
    track_view();
    if (tracer_) tracer_.emit(obs::EventKind::kMemberAdd, static_cast<std::int64_t>(j));
  }
  // 5.1 lines 9-10; a duplicate announcement still owes a pending transfer.
  if ((added && a.id.server_id == id_) || pending_join_transfers_.count(j)) send_snapshot_to(j);
}

void ReplicationEngine::on_leave_green(const Action& a) {
  const NodeId l = a.subject;
  if (!remove_server(l)) return;
  track_view();
  if (tracer_) tracer_.emit(obs::EventKind::kMemberRemove, static_cast<std::int64_t>(l));
  if (l == id_) enter_left();  // 5.1 line 13: exit
}

SnapshotMessage ReplicationEngine::green_snapshot() {
  SnapshotMessage s;
  s.db_snapshot = db_.snapshot();
  s.green_count = log_.green_count();
  s.green_red_cut = log_.green_red_cut_pairs();
  s.server_set = server_set_;
  s.green_lines = green_line_entries();
  s.prim = prim_;
  return s;
}

void ReplicationEngine::send_snapshot_to(NodeId joiner) {
  const SnapshotMessage s = green_snapshot();
  net_.send(id_, joiner, encode_snapshot(s), Channel::kDirect);
  pending_join_transfers_.erase(joiner);
  ++stats_.snapshots_sent;
  if (tracer_) {
    tracer_.emit(obs::EventKind::kStateTransferSend, s.green_count,
                 static_cast<std::int64_t>(joiner));
  }
}

void ReplicationEngine::enter_left() {
  set_state(EngineState::kLeft);
  // Fail any requests that can no longer be served, in ActionId order
  // (sorted packed keys keep the abort replies deterministic).
  std::vector<std::uint64_t> keys;
  pending_replies_.for_each([&](std::uint64_t key, const PendingReply&) { keys.push_back(key); });
  std::sort(keys.begin(), keys.end());
  for (const std::uint64_t key : keys) {
    PendingReply* pending = pending_replies_.find(key);
    if (pending != nullptr && pending->fn) {
      Reply rep;
      rep.action = unpack_action_id(key);
      rep.aborted = true;
      auto fn = std::move(pending->fn);
      fn(rep);
    }
  }
  pending_replies_.clear();
  if (callbacks_.on_left) callbacks_.on_left();
}

// ---------------------------------------------------------------------------
// Housekeeping
// ---------------------------------------------------------------------------

db::Database ReplicationEngine::dirty_database() const {
  db::Database dirty = db_.clone();
  // §6 dirty overlay: pending reds applied over the green state in the
  // deterministic per-creator order the log derives from its cuts (the
  // same order Install would promote them in).
  log_.for_each_pending_red([&](const Action& body) {
    if (body.type == ActionType::kUpdate) dirty.apply(body.update);
  });
  return dirty;
}

ActionId ReplicationEngine::green_action_at(std::int64_t position) const {
  return log_.green_action_at(position);
}

void ReplicationEngine::trim_white() {
  if (!params_.white_trim || white_ <= log_.white_count()) return;
  const auto trimmed = log_.trim_white_to(white_);
  stats_.actions_white_trimmed += trimmed;
  if (trimmed > 0 && tracer_) {
    tracer_.emit(obs::EventKind::kWhiteTrim, white_, static_cast<std::int64_t>(trimmed));
  }
}

// ---------------------------------------------------------------------------
// Knowledge and the white line (DESIGN.md §14)
// ---------------------------------------------------------------------------

void ReplicationEngine::on_knowledge() {
  // Words are lower-bound claims, so merging them is a max. Trim only in
  // settled states: mid-exchange the retransmission plan assumes the bodies
  // it promised to resend are still in the log.
  if (state_ != EngineState::kRegPrim && state_ != EngineState::kNonPrim) return;
  raise_white();
  trim_white();
}

void ReplicationEngine::raise_white(bool rescan) {
  std::int64_t line = log_.green_count();
  if (servers_in_view_ && !rescan) {
    line = std::min(line, gc_->knowledge_floor());
  } else {
    // Some server is outside the view (or the lines were just merged):
    // its last claim in greenLines[] pins the line until it is heard again.
    refresh_green_lines();
    for (NodeId s : server_set_) {
      const std::int64_t* g = green_lines_.find(s);
      line = std::min(line, g == nullptr ? 0 : *g);
    }
  }
  white_ = std::max(white_, line);
}

void ReplicationEngine::refresh_green_lines() {
  if (!gc_) return;
  for (NodeId s : server_set_) {
    if (std::int64_t* g = green_lines_.find(s)) *g = std::max(*g, gc_->knowledge_of(s));
  }
}

std::vector<std::pair<NodeId, std::int64_t>> ReplicationEngine::green_line_entries() {
  refresh_green_lines();
  return green_lines_.entries();
}

MetaRecord ReplicationEngine::current_meta() {
  MetaRecord m;
  m.server_set = server_set_;
  m.prim = prim_;
  m.attempt_index = attempt_index_;
  m.vulnerable = vulnerable_;
  m.yellow = yellow_;
  m.green_lines = green_line_entries();
  m.gc_counter = gc_ ? gc_->max_counter_seen() : 0;
  return m;
}

void ReplicationEngine::append_meta() { storage_.append(encode_log_meta(current_meta())); }

void ReplicationEngine::maybe_compact() {
  if (params_.compact_every_greens <= 0) return;
  if (log_.green_count() % params_.compact_every_greens != 0) return;
  const std::size_t upto = storage_.durable_size();
  if (upto < 2) return;
  storage_.compact(upto, snapshot_record(db_.snapshot()));
}

Bytes ReplicationEngine::snapshot_record(Bytes db_snapshot) {
  DbSnapshotRecord rec;
  rec.db_snapshot = std::move(db_snapshot);
  rec.green_count = log_.green_count();
  rec.green_red_cut = log_.green_red_cut_pairs();
  rec.meta = current_meta();
  log_.for_each_pending_red([&](const Action& a) { rec.red_actions.push_back(a); });
  rec.ongoing_actions = sorted_ongoing();
  return encode_log_db_snapshot(rec);
}

std::vector<Action> ReplicationEngine::sorted_ongoing() const {
  std::vector<std::uint64_t> keys;
  keys.reserve(ongoing_.size());
  ongoing_.for_each([&](std::uint64_t key, const Bytes&) { keys.push_back(key); });
  std::sort(keys.begin(), keys.end());
  std::vector<Action> v;
  v.reserve(keys.size());
  for (const std::uint64_t key : keys) {
    BufReader r(*ongoing_.find(key));
    v.push_back(Action::decode(r));
  }
  return v;
}

}  // namespace tordb::core
