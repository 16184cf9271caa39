#include "gc/messages.h"

namespace tordb::gc {

namespace {

void write_i64_vec(BufWriter& w, const std::vector<std::int64_t>& v) {
  w.vec(v, [](BufWriter& w2, std::int64_t x) { w2.i64(x); });
}

std::vector<std::int64_t> read_i64_vec(BufReader& r) {
  return r.vec<std::int64_t>([](BufReader& r2) { return r2.i64(); });
}

void write_token(BufWriter& w, const GatherToken& t) {
  w.i32(t.coordinator);
  w.i64(t.seq);
}

GatherToken read_token(BufReader& r) {
  GatherToken t;
  t.coordinator = r.i32();
  t.seq = r.i64();
  return t;
}

void write_ordered_body(BufWriter& w, const OrderedMsg& m) {
  w.config_id(m.config);
  w.i64(m.seq);
  w.i32(m.origin);
  w.i64(m.origin_local_seq);
  w.u8(static_cast<std::uint8_t>(m.service));
  w.bytes(m.payload);
}

OrderedMsg read_ordered_body(BufReader& r) {
  OrderedMsg m;
  m.config = r.config_id();
  m.seq = r.i64();
  m.origin = r.i32();
  m.origin_local_seq = r.i64();
  m.service = static_cast<Service>(r.u8());
  m.payload = r.bytes();
  return m;
}

void write_plan_entry(BufWriter& w, const PlanEntry& e) {
  w.config_id(e.old_config);
  w.node_ids(e.old_members);
  w.node_ids(e.participants);
  write_i64_vec(w, e.participant_contig);
  w.i64(e.safe_line);
  w.i64(e.target_seq);
  w.i32(e.retransmitter);
}

PlanEntry read_plan_entry(BufReader& r) {
  PlanEntry e;
  e.old_config = r.config_id();
  e.old_members = r.node_ids();
  e.participants = r.node_ids();
  e.participant_contig = read_i64_vec(r);
  e.safe_line = r.i64();
  e.target_seq = r.i64();
  e.retransmitter = r.i32();
  return e;
}

}  // namespace

Bytes encode_message(MsgType type, const std::function<void(BufWriter&)>& body) {
  BufWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  body(w);
  return w.take();
}

MsgType peek_type(const Bytes& wire) {
  if (wire.empty()) throw SerdeError("empty gc message");
  return static_cast<MsgType>(wire[0]);
}

Bytes encode(const DataMsg& m) {
  return encode_message(MsgType::kData, [&](BufWriter& w) {
    w.config_id(m.config);
    w.i32(m.origin);
    w.i64(m.local_seq);
    w.u8(static_cast<std::uint8_t>(m.service));
    w.bytes(m.payload);
  });
}

DataMsg decode_data(BufReader& r) {
  DataMsg m;
  m.config = r.config_id();
  m.origin = r.i32();
  m.local_seq = r.i64();
  m.service = static_cast<Service>(r.u8());
  m.payload = r.bytes();
  return m;
}

Bytes encode(const OrderedMsg& m) {
  return encode_message(MsgType::kOrdered, [&](BufWriter& w) { write_ordered_body(w, m); });
}

OrderedMsg decode_ordered(BufReader& r) { return read_ordered_body(r); }

Bytes encode(const AckMsg& m) {
  return encode_message(MsgType::kAck, [&](BufWriter& w) {
    w.config_id(m.config);
    w.i64(m.recv_contig);
  });
}

AckMsg decode_ack(BufReader& r) {
  AckMsg m;
  m.config = r.config_id();
  m.recv_contig = r.i64();
  return m;
}

Bytes encode(const StableMsg& m) {
  return encode_message(MsgType::kStable, [&](BufWriter& w) {
    w.config_id(m.config);
    w.i64(m.safe_line);
  });
}

StableMsg decode_stable(BufReader& r) {
  StableMsg m;
  m.config = r.config_id();
  m.safe_line = r.i64();
  return m;
}

Bytes encode(const InquireMsg& m) {
  return encode_message(MsgType::kInquire, [&](BufWriter& w) {
    write_token(w, m.token);
    w.node_ids(m.proposed);
  });
}

InquireMsg decode_inquire(BufReader& r) {
  InquireMsg m;
  m.token = read_token(r);
  m.proposed = r.node_ids();
  return m;
}

Bytes encode(const JoinInfoMsg& m) {
  return encode_message(MsgType::kJoinInfo, [&](BufWriter& w) {
    write_token(w, m.token);
    w.config_id(m.old_config);
    w.node_ids(m.old_members);
    w.i64(m.recv_contig);
    w.i64(m.delivered_upto);
    write_i64_vec(w, m.known_contig);
    w.i64(m.max_config_counter);
  });
}

JoinInfoMsg decode_join_info(BufReader& r) {
  JoinInfoMsg m;
  m.token = read_token(r);
  m.old_config = r.config_id();
  m.old_members = r.node_ids();
  m.recv_contig = r.i64();
  m.delivered_upto = r.i64();
  m.known_contig = read_i64_vec(r);
  m.max_config_counter = r.i64();
  return m;
}

Bytes encode(const PlanMsg& m) {
  return encode_message(MsgType::kPlan, [&](BufWriter& w) {
    write_token(w, m.token);
    w.config_id(m.new_config);
    w.node_ids(m.new_members);
    w.vec(m.entries, [](BufWriter& w2, const PlanEntry& e) { write_plan_entry(w2, e); });
  });
}

PlanMsg decode_plan(BufReader& r) {
  PlanMsg m;
  m.token = read_token(r);
  m.new_config = r.config_id();
  m.new_members = r.node_ids();
  m.entries = r.vec<PlanEntry>([](BufReader& r2) { return read_plan_entry(r2); });
  return m;
}

Bytes encode(const RetransMsg& m) {
  return encode_message(MsgType::kRetrans, [&](BufWriter& w) {
    write_token(w, m.token);
    write_ordered_body(w, m.message);
  });
}

RetransMsg decode_retrans(BufReader& r) {
  RetransMsg m;
  m.token = read_token(r);
  m.message = read_ordered_body(r);
  return m;
}

Bytes encode(const PlanAckMsg& m) {
  return encode_message(MsgType::kPlanAck, [&](BufWriter& w) { write_token(w, m.token); });
}

PlanAckMsg decode_plan_ack(BufReader& r) {
  PlanAckMsg m;
  m.token = read_token(r);
  return m;
}

Bytes encode(const InstallMsg& m) {
  return encode_message(MsgType::kInstall, [&](BufWriter& w) { write_token(w, m.token); });
}

InstallMsg decode_install(BufReader& r) {
  InstallMsg m;
  m.token = read_token(r);
  return m;
}

}  // namespace tordb::gc
