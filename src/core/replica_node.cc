#include "core/replica_node.h"

#include "util/log.h"

namespace tordb::core {

namespace {

NodeCounts counts_of(const ReplicationEngine& e) {
  const EngineStats& es = e.stats();
  const gc::GcStats& gs = e.group_comm().stats();
  return {es.actions_green, es.actions_red, es.primaries_installed, es.exchanges,
          gs.safe_deliveries, gs.regular_configs, e.database().stats().table_rehashes};
}

}  // namespace

NodeCounts& NodeCounts::operator+=(const NodeCounts& o) {
  greens += o.greens;
  reds += o.reds;
  installs += o.installs;
  exchanges += o.exchanges;
  safe_deliveries += o.safe_deliveries;
  regular_configs += o.regular_configs;
  db_rehashes += o.db_rehashes;
  return *this;
}

ReplicaNode::ReplicaNode(Network& net, NodeId id, std::vector<NodeId> initial_servers,
                         ReplicaOptions options)
    : net_(net),
      sim_(net.sim()),
      id_(id),
      options_(std::move(options)),
      initial_servers_(std::move(initial_servers)),
      alive_(std::make_shared<bool>(true)),
      storage_(std::make_unique<StableStorage>(sim_, make_storage_params())) {
  net_.add_node(id_);
  register_direct_handler();
  engine_ = std::make_unique<ReplicationEngine>(net_, *storage_, id_, initial_servers_,
                                                options_.engine, engine_callbacks());
  was_member_ = true;
}

ReplicaNode::ReplicaNode(Network& net, NodeId id, DormantTag, ReplicaOptions options)
    : net_(net),
      sim_(net.sim()),
      id_(id),
      options_(std::move(options)),
      alive_(std::make_shared<bool>(true)),
      storage_(std::make_unique<StableStorage>(sim_, make_storage_params())) {
  net_.add_node(id_);
  net_.set_group_active(id_, false);
  register_direct_handler();
}

StorageParams ReplicaNode::make_storage_params() const {
  StorageParams p = options_.storage;
  if (options_.engine.trace_bus) p.tracer = obs::Tracer(options_.engine.trace_bus, id_);
  return p;
}

ReplicaNode::~ReplicaNode() {
  *alive_ = false;
  engine_.reset();  // unhooks the GC handlers before the node goes away
  net_.clear_packet_handler(id_, Channel::kDirect);
}

void ReplicaNode::register_direct_handler() {
  net_.set_packet_handler(
      id_, [this](NodeId from, const Bytes& wire) { on_direct(from, wire); },
      Channel::kDirect);
}

void ReplicaNode::on_direct(NodeId from, const Bytes& wire) {
  (void)from;
  if (crashed_) return;
  BufReader r(wire);
  const auto type = static_cast<DirectMsgType>(r.u8());
  switch (type) {
    case DirectMsgType::kJoinRequest: {
      const JoinRequest req = decode_join_request(r);
      if (engine_ && !left_) engine_->handle_join_request(req.joiner);
      break;
    }
    case DirectMsgType::kSnapshot: {
      if (!joining_) break;  // duplicate transfer from a second representative
      start_engine_from_snapshot(decode_snapshot(r));
      break;
    }
  }
}

void ReplicaNode::join_via(std::vector<NodeId> peers, std::function<void()> on_joined) {
  if (engine_ || peers.empty()) return;
  joining_ = true;
  join_peers_ = std::move(peers);
  join_peer_idx_ = 0;
  on_joined_ = std::move(on_joined);
  ++join_epoch_;
  try_next_join_peer();
}

void ReplicaNode::try_next_join_peer() {
  if (!joining_ || crashed_) return;
  const NodeId peer = join_peers_[join_peer_idx_ % join_peers_.size()];
  ++join_peer_idx_;
  net_.send(id_, peer, encode_join_request(JoinRequest{id_}), Channel::kDirect);
  const std::uint64_t epoch = join_epoch_;
  sim_.after(kJoinRetry, [this, alive = alive_, epoch] {
    if (!*alive || !joining_ || epoch != join_epoch_) return;
    try_next_join_peer();  // representative failed or unreachable: fail over
  });
}

void ReplicaNode::start_engine_from_snapshot(const SnapshotMessage& snap) {
  joining_ = false;
  ++join_epoch_;
  engine_ = std::make_unique<ReplicationEngine>(net_, *storage_, id_, snap, options_.engine,
                                                engine_callbacks());
  was_member_ = true;
  net_.set_group_active(id_, true);
  if (on_joined_) {
    auto cb = std::move(on_joined_);
    on_joined_ = nullptr;
    cb();
  }
}

void ReplicaNode::crash() {
  if (crashed_) return;
  crashed_ = true;
  joining_ = false;
  ++join_epoch_;
  net_.crash(id_);
  storage_->crash();
  if (engine_) retired_ += counts_of(*engine_);
  engine_.reset();
  fire_watches();  // the analogue of a client losing its daemon connection
}

void ReplicaNode::recover() {
  if (!crashed_) return;
  crashed_ = false;
  net_.recover(id_);
  register_direct_handler();
  if (!was_member_) return;  // dormant node: nothing to recover
  engine_ = std::make_unique<ReplicationEngine>(net_, *storage_, id_,
                                                ReplicationEngine::RecoverTag{},
                                                initial_servers_, options_.engine,
                                                engine_callbacks());
  net_.set_group_active(id_, true);
  fire_watches();
}

EngineCallbacks ReplicaNode::engine_callbacks() {
  EngineCallbacks cbs;
  cbs.on_left = [this] { handle_engine_left(); };
  cbs.on_non_prim = [this] { fire_watches(); };
  return cbs;
}

std::uint64_t ReplicaNode::watch(int lane, SmallFn fn) {
  watches_.push_back(Watch{++next_watch_id_, lane, std::move(fn)});
  return next_watch_id_;
}

void ReplicaNode::unwatch(std::uint64_t id) {
  for (auto it = watches_.begin(); it != watches_.end(); ++it) {
    if (it->id == id) {
      watches_.erase(it);
      return;
    }
  }
}

void ReplicaNode::fire_watches() {
  // Deferred, never inline: on_non_prim runs inside engine processing, and
  // a watcher on another lane must only be touched from its own.
  for (Watch& w : watches_) sim_.post(w.lane, net_.params().detect_delay, std::move(w.fn));
  watches_.clear();
}

void ReplicaNode::handle_engine_left() {
  // Called from inside the engine; defer teardown until the loop turns.
  left_ = true;
  sim_.after(0, [this, alive = alive_] {
    if (!*alive) return;
    if (engine_) retired_ += counts_of(*engine_);  // unless a crash came first
    engine_.reset();
    net_.set_group_active(id_, false);
  });
}

NodeCounts ReplicaNode::counts() const {
  NodeCounts c = retired_;
  if (engine_) c += counts_of(*engine_);
  return c;
}

}  // namespace tordb::core
