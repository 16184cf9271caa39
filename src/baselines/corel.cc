#include "baselines/corel.h"

namespace tordb::baselines {

namespace {

enum class CorelMsg : std::uint8_t {
  kData = 20,
  kAck = 21,
};

Bytes encode_data(NodeId origin, std::int64_t seq, const db::Command& cmd,
                  std::uint32_t padding) {
  BufWriter w;
  w.u8(static_cast<std::uint8_t>(CorelMsg::kData));
  w.i32(origin);
  w.i64(seq);
  cmd.encode(w);
  w.u32(padding);
  for (std::uint32_t i = 0; i < padding; ++i) w.u8(0);
  return w.take();
}

Bytes encode_ack(const ActionId& acked) {
  BufWriter w;
  w.u8(static_cast<std::uint8_t>(CorelMsg::kAck));
  w.action_id(acked);
  return w.take();
}

}  // namespace

CorelReplica::CorelReplica(Network& net, NodeId id, std::vector<NodeId> servers,
                           CorelParams params)
    : net_(net),
      sim_(net.sim()),
      id_(id),
      servers_(std::move(servers)),
      params_(params),
      alive_(std::make_shared<bool>(true)),
      storage_(std::make_unique<StableStorage>(sim_, params_.storage)) {
  gc::Listener listener;
  listener.on_regular_config = [this](const gc::Configuration& c) {
    view_ = c.members;
    try_commit();
  };
  listener.on_deliver = [this](const gc::Delivery& d) { on_deliver(d); };
  gc_ = std::make_unique<gc::GroupCommunication>(net_, id_, std::move(listener));
  // Acknowledgements travel as plain (unordered) multicasts beside the
  // totally ordered data stream, as in Keidar's COReL over Transis/Spread.
  net_.set_packet_handler(
      id_, [this](NodeId from, const Bytes& wire) { on_direct(from, wire); },
      Channel::kDirect);
}

CorelReplica::~CorelReplica() {
  *alive_ = false;
  net_.clear_packet_handler(id_, Channel::kDirect);
}

void CorelReplica::on_direct(NodeId from, const Bytes& wire) {
  BufReader r(wire);
  const auto type = static_cast<CorelMsg>(r.u8());
  if (type == CorelMsg::kAck) handle_ack(from, r.action_id());
}

void CorelReplica::submit(db::Command update, std::function<void(bool)> done) {
  const ActionId aid{id_, ++next_seq_};
  callbacks_[aid] = std::move(done);
  gc_->multicast(encode_data(id_, aid.index, update, params_.action_padding),
                 gc::Service::kAgreed);
}

void CorelReplica::on_deliver(const gc::Delivery& d) {
  BufReader r(d.payload.data(), d.payload.size());
  const auto type = static_cast<CorelMsg>(r.u8());
  switch (type) {
    case CorelMsg::kData: {
      const NodeId origin = r.i32();
      const std::int64_t seq = r.i64();
      handle_data(origin, seq, db::Command::decode(r));
      break;
    }
    case CorelMsg::kAck:
      handle_ack(d.sender, r.action_id());
      break;
  }
}

void CorelReplica::handle_data(NodeId origin, std::int64_t seq, db::Command cmd) {
  PendingAction p;
  p.id = ActionId{origin, seq};
  p.cmd = std::move(cmd);
  if (auto it = early_acks_.find(p.id); it != early_acks_.end()) {
    p.acks = std::move(it->second);
    early_acks_.erase(it);
  }
  pending_.push_back(std::move(p));
  PendingAction& slot = pending_.back();
  const ActionId aid = slot.id;

  // COReL's per-action cost: force to stable storage, then multicast an
  // end-to-end acknowledgement to the whole group.
  BufWriter rec;
  rec.i32(aid.server_id);
  rec.i64(aid.index);
  storage_->append(rec.take());
  storage_->sync([this, alive = alive_, aid] {
    if (!*alive) return;
    for (PendingAction& q : pending_) {
      if (q.id == aid) {
        q.forced = true;
        break;
      }
    }
    ++stats_.acks_sent;
    net_.multicast(id_, servers_, encode_ack(aid), Channel::kDirect);
    try_commit();
  });
}

void CorelReplica::handle_ack(NodeId acker, const ActionId& acked) {
  for (PendingAction& q : pending_) {
    if (q.id == acked) {
      q.acks.insert(acker);
      try_commit();
      return;
    }
  }
  early_acks_[acked].insert(acker);
}

void CorelReplica::try_commit() {
  // Commit strictly in total order: an action commits once it is forced
  // locally and acknowledged by every member of the view.
  while (!pending_.empty()) {
    PendingAction& head = pending_.front();
    if (!head.forced) return;
    for (NodeId s : view_.empty() ? servers_ : view_) {
      if (!head.acks.count(s)) return;
    }
    db_.apply(head.cmd);
    ++stats_.committed;
    if (head.id.server_id == id_) {
      auto it = callbacks_.find(head.id);
      if (it != callbacks_.end()) {
        auto done = std::move(it->second);
        callbacks_.erase(it);
        if (done) done(true);
      }
    }
    pending_.pop_front();
  }
}

}  // namespace tordb::baselines
