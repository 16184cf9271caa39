#include "core/messages.h"

namespace tordb::core {

void encode_pairs(BufWriter& w, const std::vector<std::pair<NodeId, std::int64_t>>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const auto& [n, x] : v) {
    w.i32(n);
    w.i64(x);
  }
}

std::vector<std::pair<NodeId, std::int64_t>> decode_pairs(BufReader& r) {
  const std::uint32_t n = r.u32();
  // Each pair is an i32 and an i64 on the wire: a count the payload cannot
  // hold is malformed, and must not size the reservation.
  if (n > r.remaining() / 12) throw SerdeError("pair count exceeds payload");
  std::vector<std::pair<NodeId, std::int64_t>> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    NodeId node = r.i32();
    std::int64_t x = r.i64();
    if (!v.empty() && node <= v.back().first) throw SerdeError("pair keys not ascending");
    v.emplace_back(node, x);
  }
  return v;
}

void PrimComponent::encode(BufWriter& w) const {
  w.i64(prim_index);
  w.i64(attempt_index);
  w.node_ids(servers);
}

PrimComponent PrimComponent::decode(BufReader& r) {
  PrimComponent p;
  p.prim_index = r.i64();
  p.attempt_index = r.i64();
  p.servers = r.node_ids();
  return p;
}

void VulnerableRecord::encode(BufWriter& w) const {
  w.boolean(valid);
  w.i64(prim_index);
  w.i64(attempt_index);
  w.node_ids(set);
  w.u32(static_cast<std::uint32_t>(bits.size()));
  for (bool b : bits) w.boolean(b);
}

VulnerableRecord VulnerableRecord::decode(BufReader& r) {
  VulnerableRecord v;
  v.valid = r.boolean();
  v.prim_index = r.i64();
  v.attempt_index = r.i64();
  v.set = r.node_ids();
  const std::uint32_t n = r.u32();
  v.bits.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) v.bits[i] = r.boolean();
  return v;
}

bool VulnerableRecord::all_bits_set() const {
  for (bool b : bits) {
    if (!b) return false;
  }
  return !bits.empty();
}

void VulnerableRecord::set_bit(NodeId server) {
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (set[i] == server && i < bits.size()) bits[i] = true;
  }
}

void YellowRecord::encode(BufWriter& w) const {
  w.boolean(valid);
  w.vec(set, [](BufWriter& w2, const ActionId& a) { w2.action_id(a); });
}

YellowRecord YellowRecord::decode(BufReader& r) {
  YellowRecord y;
  y.valid = r.boolean();
  y.set = r.vec<ActionId>([](BufReader& r2) { return r2.action_id(); });
  return y;
}

void StateMessage::encode(BufWriter& w) const {
  w.i32(server_id);
  w.config_id(conf_id);
  w.i64(green_count);
  w.i64(white_count);
  encode_pairs(w, red_cut);
  encode_pairs(w, green_red_cut);
  w.node_ids(server_set);
  w.i64(attempt_index);
  prim.encode(w);
  vulnerable.encode(w);
  yellow.encode(w);
}

StateMessage StateMessage::decode(BufReader& r) {
  StateMessage s;
  s.server_id = r.i32();
  s.conf_id = r.config_id();
  s.green_count = r.i64();
  s.white_count = r.i64();
  s.red_cut = decode_pairs(r);
  s.green_red_cut = decode_pairs(r);
  s.server_set = r.node_ids();
  s.attempt_index = r.i64();
  s.prim = PrimComponent::decode(r);
  s.vulnerable = VulnerableRecord::decode(r);
  s.yellow = YellowRecord::decode(r);
  return s;
}

namespace {
template <typename Body>
Bytes with_type(std::uint8_t type, Body&& body) {
  BufWriter w;
  w.u8(type);
  body(w);
  return w.take();
}
}  // namespace

Bytes encode_action_msg(const Action& a) {
  return with_type(static_cast<std::uint8_t>(EngineMsgType::kAction),
                   [&](BufWriter& w) { a.encode(w); });
}

Bytes encode_action_batch(const std::vector<Action>& actions) {
  return with_type(static_cast<std::uint8_t>(EngineMsgType::kActionBatch), [&](BufWriter& w) {
    w.vec(actions, [](BufWriter& w2, const Action& a) { a.encode(w2); });
  });
}

std::vector<Action> decode_action_batch(BufReader& r) {
  return r.vec<Action>([](BufReader& r2) { return Action::decode(r2); });
}

Bytes encode_state_msg(const StateMessage& s) {
  return with_type(static_cast<std::uint8_t>(EngineMsgType::kState),
                   [&](BufWriter& w) { s.encode(w); });
}

Bytes encode_cpc_msg(const CpcMessage& c) {
  return with_type(static_cast<std::uint8_t>(EngineMsgType::kCpc), [&](BufWriter& w) {
    w.i32(c.server_id);
    w.config_id(c.conf_id);
  });
}

Bytes encode_green_retrans(std::int64_t position, const Action& a) {
  return with_type(static_cast<std::uint8_t>(EngineMsgType::kGreenRetrans), [&](BufWriter& w) {
    w.i64(position);
    a.encode(w);
  });
}

Bytes encode_red_retrans(const Action& a) {
  return with_type(static_cast<std::uint8_t>(EngineMsgType::kRedRetrans),
                   [&](BufWriter& w) { a.encode(w); });
}

namespace {
void encode_snapshot_body(BufWriter& w, const SnapshotMessage& s) {
  w.bytes(s.db_snapshot);
  w.i64(s.green_count);
  encode_pairs(w, s.green_red_cut);
  w.node_ids(s.server_set);
  encode_pairs(w, s.green_lines);
  s.prim.encode(w);
}
}  // namespace

Bytes encode_catchup(const SnapshotMessage& s) {
  return with_type(static_cast<std::uint8_t>(EngineMsgType::kCatchup),
                   [&](BufWriter& w) { encode_snapshot_body(w, s); });
}

EngineMsgType peek_engine_type(const Bytes& wire) {
  if (wire.empty()) throw SerdeError("empty engine message");
  return static_cast<EngineMsgType>(wire[0]);
}

Bytes encode_join_request(const JoinRequest& j) {
  return with_type(static_cast<std::uint8_t>(DirectMsgType::kJoinRequest),
                   [&](BufWriter& w) { w.i32(j.joiner); });
}

Bytes encode_snapshot(const SnapshotMessage& s) {
  return with_type(static_cast<std::uint8_t>(DirectMsgType::kSnapshot),
                   [&](BufWriter& w) { encode_snapshot_body(w, s); });
}

DirectMsgType peek_direct_type(const Bytes& wire) {
  if (wire.empty()) throw SerdeError("empty direct message");
  return static_cast<DirectMsgType>(wire[0]);
}

JoinRequest decode_join_request(BufReader& r) {
  JoinRequest j;
  j.joiner = r.i32();
  return j;
}

SnapshotMessage decode_snapshot(BufReader& r) {
  SnapshotMessage s;
  s.db_snapshot = r.bytes();
  s.green_count = r.i64();
  s.green_red_cut = decode_pairs(r);
  s.server_set = r.node_ids();
  s.green_lines = decode_pairs(r);
  s.prim = PrimComponent::decode(r);
  return s;
}

namespace {
void encode_meta_body(BufWriter& w, const MetaRecord& m) {
  w.node_ids(m.server_set);
  m.prim.encode(w);
  w.i64(m.attempt_index);
  m.vulnerable.encode(w);
  m.yellow.encode(w);
  encode_pairs(w, m.green_lines);
  w.i64(m.gc_counter);
}
}  // namespace

Bytes encode_log_ongoing(const Action& a) {
  return with_type(static_cast<std::uint8_t>(LogRecordType::kOngoing),
                   [&](BufWriter& w) { a.encode(w); });
}

Bytes encode_log_ongoing_batch(const std::vector<Action>& actions) {
  return with_type(static_cast<std::uint8_t>(LogRecordType::kOngoingBatch), [&](BufWriter& w) {
    w.vec(actions, [](BufWriter& w2, const Action& a) { a.encode(w2); });
  });
}

Bytes encode_log_red(const Action& a) {
  return with_type(static_cast<std::uint8_t>(LogRecordType::kRed),
                   [&](BufWriter& w) { a.encode(w); });
}

Bytes encode_log_green(std::int64_t position, const Action& a) {
  return with_type(static_cast<std::uint8_t>(LogRecordType::kGreen), [&](BufWriter& w) {
    w.i64(position);
    a.encode(w);
  });
}

Bytes encode_action_body(const Action& a) {
  BufWriter w;
  a.encode(w);
  return w.take();
}

Bytes encode_log_meta(const MetaRecord& m) {
  return with_type(static_cast<std::uint8_t>(LogRecordType::kMeta),
                   [&](BufWriter& w) { encode_meta_body(w, m); });
}

Bytes encode_log_db_snapshot(const DbSnapshotRecord& s) {
  return with_type(static_cast<std::uint8_t>(LogRecordType::kDbSnapshot), [&](BufWriter& w) {
    w.bytes(s.db_snapshot);
    w.i64(s.green_count);
    encode_pairs(w, s.green_red_cut);
    encode_meta_body(w, s.meta);
    w.vec(s.red_actions, [](BufWriter& w2, const Action& a) { a.encode(w2); });
    w.vec(s.ongoing_actions, [](BufWriter& w2, const Action& a) { a.encode(w2); });
  });
}

DbSnapshotRecord decode_db_snapshot(BufReader& r) {
  DbSnapshotRecord s;
  s.db_snapshot = r.bytes();
  s.green_count = r.i64();
  s.green_red_cut = decode_pairs(r);
  s.meta = decode_meta(r);
  s.red_actions = r.vec<Action>([](BufReader& r2) { return Action::decode(r2); });
  s.ongoing_actions = r.vec<Action>([](BufReader& r2) { return Action::decode(r2); });
  return s;
}

LogRecordType peek_log_type(const Bytes& record) {
  if (record.empty()) throw SerdeError("empty log record");
  return static_cast<LogRecordType>(record[0]);
}

MetaRecord decode_meta(BufReader& r) {
  MetaRecord m;
  m.server_set = r.node_ids();
  m.prim = PrimComponent::decode(r);
  m.attempt_index = r.i64();
  m.vulnerable = VulnerableRecord::decode(r);
  m.yellow = YellowRecord::decode(r);
  m.green_lines = decode_pairs(r);
  m.gc_counter = r.i64();
  return m;
}

}  // namespace tordb::core
