// Wire-format round-trip tests for every group-communication and engine
// message and every stable-storage log record.
#include <gtest/gtest.h>

#include "core/messages.h"
#include "gc/messages.h"

namespace tordb {
namespace {

TEST(GcMessages, DataRoundTrip) {
  gc::DataMsg m;
  m.config = ConfigId{7, 2};
  m.origin = 3;
  m.local_seq = 42;
  m.service = gc::Service::kSafe;
  m.payload = Bytes{1, 2, 3};
  Bytes wire = encode(m);
  EXPECT_EQ(gc::peek_type(wire), gc::MsgType::kData);
  BufReader r(wire);
  r.u8();
  auto back = gc::decode_data(r);
  EXPECT_EQ(back.config, m.config);
  EXPECT_EQ(back.origin, 3);
  EXPECT_EQ(back.local_seq, 42);
  EXPECT_EQ(back.service, gc::Service::kSafe);
  EXPECT_EQ(back.payload, m.payload);
}

TEST(GcMessages, OrderedRoundTrip) {
  gc::OrderedMsg m;
  m.config = ConfigId{1, 0};
  m.seq = 99;
  m.origin = 5;
  m.origin_local_seq = 17;
  m.service = gc::Service::kAgreed;
  m.payload = Bytes{9};
  Bytes wire = encode(m);
  BufReader r(wire);
  r.u8();
  auto back = gc::decode_ordered(r);
  EXPECT_EQ(back.seq, 99);
  EXPECT_EQ(back.origin_local_seq, 17);
  EXPECT_EQ(back.service, gc::Service::kAgreed);
}

TEST(GcMessages, AckAndStableRoundTrip) {
  const ConfigId cfg{7, 3};
  Bytes wire = gc::encode(gc::AckMsg{cfg, 41, 1234});
  EXPECT_EQ(gc::peek_type(wire), gc::MsgType::kAck);
  BufReader ra(wire);
  ra.u8();
  const gc::AckMsg ack = gc::decode_ack(ra);
  EXPECT_TRUE(ra.done());
  EXPECT_EQ(ack.config, cfg);
  EXPECT_EQ(ack.recv_contig, 41);
  EXPECT_EQ(ack.knowledge, 1234);

  wire = gc::encode(gc::StableMsg{cfg, 40, 1200});
  EXPECT_EQ(gc::peek_type(wire), gc::MsgType::kStable);
  BufReader rs(wire);
  rs.u8();
  const gc::StableMsg stable = gc::decode_stable(rs);
  EXPECT_TRUE(rs.done());
  EXPECT_EQ(stable.config, cfg);
  EXPECT_EQ(stable.safe_line, 40);
  EXPECT_EQ(stable.knowledge, 1200);
}

TEST(GcMessages, PlanRoundTrip) {
  gc::PlanMsg m;
  m.token = gc::GatherToken{2, 8};
  m.new_config = ConfigId{10, 2};
  m.new_members = {2, 3, 5};
  gc::PlanEntry e;
  e.old_config = ConfigId{9, 3};
  e.old_members = {2, 3, 4, 5};
  e.participants = {2, 3, 5};
  e.participant_contig = {10, 8, 10};
  e.safe_line = 7;
  e.target_seq = 10;
  e.retransmitter = 2;
  m.entries.push_back(e);
  Bytes wire = encode(m);
  BufReader r(wire);
  r.u8();
  auto back = gc::decode_plan(r);
  EXPECT_EQ(back.token, m.token);
  EXPECT_EQ(back.new_members, m.new_members);
  ASSERT_EQ(back.entries.size(), 1u);
  EXPECT_EQ(back.entries[0].participant_contig, e.participant_contig);
  EXPECT_EQ(back.entries[0].safe_line, 7);
  EXPECT_EQ(back.entries[0].retransmitter, 2);
}

TEST(GcMessages, JoinInfoRoundTrip) {
  gc::JoinInfoMsg m;
  m.token = gc::GatherToken{0, 3};
  m.old_config = ConfigId{4, 1};
  m.old_members = {0, 1, 2};
  m.recv_contig = 55;
  m.delivered_upto = 50;
  m.known_contig = {55, 54, 53};
  m.max_config_counter = 6;
  Bytes wire = encode(m);
  BufReader r(wire);
  r.u8();
  auto back = gc::decode_join_info(r);
  EXPECT_EQ(back.known_contig, m.known_contig);
  EXPECT_EQ(back.max_config_counter, 6);
}

TEST(CoreMessages, ActionRoundTrip) {
  core::Action a;
  a.type = core::ActionType::kPersistentJoin;
  a.id = ActionId{4, 123};
  a.green_line = 77;
  a.client = 9;
  a.semantics = core::Semantics::kCommutative;
  a.query = db::Command::get("q");
  a.update = db::Command::add("u", -5);
  a.subject = 11;
  a.padding = 16;
  BufWriter w;
  a.encode(w);
  Bytes b = w.take();
  BufReader r(b);
  core::Action back = core::Action::decode(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.type, a.type);
  EXPECT_EQ(back.id, a.id);
  EXPECT_EQ(back.green_line, 77);
  EXPECT_EQ(back.semantics, core::Semantics::kCommutative);
  EXPECT_EQ(back.update.ops, a.update.ops);
  EXPECT_EQ(back.subject, 11);
}

TEST(CoreMessages, ActionWireSizeTracksPadding) {
  core::Action a;
  a.update = db::Command::put("k", "v");
  a.padding = 0;
  const std::size_t base = a.wire_size();
  a.padding = 110;
  EXPECT_EQ(a.wire_size(), base + 110);
}

core::StateMessage sample_state() {
  core::StateMessage s;
  s.server_id = 2;
  s.conf_id = ConfigId{5, 0};
  s.green_count = 100;
  s.white_count = 40;
  s.red_cut = {{0, 30}, {1, 25}, {2, 45}};
  s.green_red_cut = {{0, 28}, {1, 25}, {2, 44}};
  s.server_set = {0, 1, 2, 7};
  s.attempt_index = 3;
  s.prim = core::PrimComponent{4, 2, {0, 1, 2}};
  s.vulnerable.valid = true;
  s.vulnerable.prim_index = 4;
  s.vulnerable.attempt_index = 3;
  s.vulnerable.set = {0, 1, 2};
  s.vulnerable.bits = {true, false, true};
  s.yellow.valid = true;
  s.yellow.set = {ActionId{1, 9}, ActionId{0, 12}};
  return s;
}

core::StateMessage decode_state(const std::uint8_t* data, std::size_t size) {
  BufReader r(data, size);
  r.u8();
  return core::StateMessage::decode(r);
}

TEST(CoreMessages, StateMessageRoundTrip) {
  const core::StateMessage s = sample_state();
  Bytes wire = core::encode_state_msg(s);
  EXPECT_EQ(core::peek_engine_type(wire), core::EngineMsgType::kState);
  BufReader r(wire);
  r.u8();
  core::StateMessage back = core::StateMessage::decode(r);
  EXPECT_EQ(back.green_count, 100);
  EXPECT_EQ(back.white_count, 40);
  EXPECT_EQ(back.red_cut, s.red_cut);
  EXPECT_EQ(back.green_red_cut, s.green_red_cut);
  EXPECT_EQ(back.prim, s.prim);
  EXPECT_EQ(back.vulnerable, s.vulnerable);
  EXPECT_EQ(back.yellow, s.yellow);
}

// Every proper prefix of a State payload is malformed: the decoder throws
// instead of reading past it.
TEST(CoreMessages, TruncatedStateMessageThrows) {
  const Bytes wire = core::encode_state_msg(sample_state());
  EXPECT_EQ(decode_state(wire.data(), wire.size()).red_cut, sample_state().red_cut);
  for (std::size_t len = 1; len < wire.size(); ++len) {
    EXPECT_THROW(decode_state(wire.data(), len), SerdeError) << "length " << len;
  }
}

// The exchange plan walks the cuts in creator order, so a State payload
// whose cuts are out of order or repeat a creator is refused.
TEST(CoreMessages, UnsortedStateCutsThrow) {
  using Pairs = std::vector<std::pair<NodeId, std::int64_t>>;
  for (const Pairs& bad : {Pairs{{1, 25}, {0, 30}, {2, 45}}, Pairs{{0, 30}, {0, 31}}}) {
    core::StateMessage red = sample_state();
    red.red_cut = bad;
    const Bytes red_wire = core::encode_state_msg(red);
    EXPECT_THROW(decode_state(red_wire.data(), red_wire.size()), SerdeError);

    core::StateMessage green = sample_state();
    green.green_red_cut = bad;
    const Bytes green_wire = core::encode_state_msg(green);
    EXPECT_THROW(decode_state(green_wire.data(), green_wire.size()), SerdeError);
  }
}

// A pair count larger than the payload can hold is refused before it sizes
// any allocation.
TEST(CoreMessages, OversizedPairCountThrows) {
  BufWriter w;
  w.u32(0xFFFFFFFFu);
  w.i32(0);
  w.i64(1);
  const Bytes b = w.take();
  BufReader r(b);
  EXPECT_THROW(core::decode_pairs(r), SerdeError);
}

TEST(CoreMessages, VulnerableBits) {
  core::VulnerableRecord v;
  v.set = {3, 5, 9};
  v.bits = {false, false, false};
  EXPECT_FALSE(v.all_bits_set());
  v.set_bit(5);
  EXPECT_EQ(v.bits, (std::vector<bool>{false, true, false}));
  v.set_bit(99);  // unknown server: no effect
  EXPECT_EQ(v.bits, (std::vector<bool>{false, true, false}));
  v.set_bit(3);
  v.set_bit(9);
  EXPECT_TRUE(v.all_bits_set());
}

TEST(CoreMessages, EmptyBitsNeverComplete) {
  core::VulnerableRecord v;
  EXPECT_FALSE(v.all_bits_set());
}

TEST(CoreMessages, SnapshotRoundTrip) {
  core::SnapshotMessage s;
  db::Database d;
  d.apply(db::Command::put("a", "1"));
  s.db_snapshot = d.snapshot();
  s.green_count = 12;
  s.green_red_cut = {{0, 5}, {1, 7}};
  s.server_set = {0, 1, 9};
  s.green_lines = {{0, 12}, {1, 10}};
  s.prim = core::PrimComponent{2, 1, {0, 1}};
  Bytes wire = core::encode_snapshot(s);
  EXPECT_EQ(core::peek_direct_type(wire), core::DirectMsgType::kSnapshot);
  BufReader r(wire);
  r.u8();
  core::SnapshotMessage back = core::decode_snapshot(r);
  EXPECT_EQ(back.green_count, 12);
  EXPECT_EQ(back.server_set, s.server_set);
  db::Database d2;
  d2.restore(back.db_snapshot);
  EXPECT_EQ(d2.digest(), d.digest());
}

TEST(CoreMessages, ActionBatchWireRoundTrip) {
  core::Action a;
  a.id = ActionId{2, 7};
  a.update = db::Command::add("n", 1);
  core::Action b = a;
  b.id = ActionId{2, 8};
  Bytes wire = core::encode_action_batch({a, b});
  EXPECT_EQ(core::peek_engine_type(wire), core::EngineMsgType::kActionBatch);
  BufReader r(wire);
  r.u8();
  const auto back = core::decode_action_batch(r);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].id, a.id);
  EXPECT_EQ(back[1].id, b.id);
}

TEST(CoreMessages, CatchupSharesSnapshotBody) {
  core::SnapshotMessage s;
  s.green_count = 3;
  Bytes wire = core::encode_catchup(s);
  EXPECT_EQ(core::peek_engine_type(wire), core::EngineMsgType::kCatchup);
  BufReader r(wire);
  r.u8();
  EXPECT_EQ(core::decode_snapshot(r).green_count, 3);
}

TEST(CoreMessages, LogRecordsRoundTrip) {
  core::Action a;
  a.id = ActionId{1, 2};
  a.update = db::Command::put("k", "v");

  Bytes ongoing = core::encode_log_ongoing(a);
  EXPECT_EQ(core::peek_log_type(ongoing), core::LogRecordType::kOngoing);

  Bytes red = core::encode_log_red(a);
  EXPECT_EQ(core::peek_log_type(red), core::LogRecordType::kRed);

  Bytes green = core::encode_log_green(17, a);
  EXPECT_EQ(core::peek_log_type(green), core::LogRecordType::kGreen);
  {
    BufReader r(green);
    r.u8();
    EXPECT_EQ(r.i64(), 17);
    EXPECT_EQ(core::Action::decode(r).id, a.id);
  }

  core::Action a2 = a;
  a2.id = ActionId{1, 3};
  Bytes batch = core::encode_log_ongoing_batch({a, a2});
  EXPECT_EQ(core::peek_log_type(batch), core::LogRecordType::kOngoingBatch);
  {
    BufReader r(batch);
    r.u8();
    const auto back = core::decode_action_batch(r);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].id, a.id);
    EXPECT_EQ(back[1].id, a2.id);
  }

  core::MetaRecord m;
  m.server_set = {0, 1};
  m.prim = core::PrimComponent{1, 1, {0, 1}};
  m.attempt_index = 2;
  m.gc_counter = 33;
  m.green_lines = {{0, 4}, {1, 3}};
  Bytes meta = core::encode_log_meta(m);
  EXPECT_EQ(core::peek_log_type(meta), core::LogRecordType::kMeta);
  {
    BufReader r(meta);
    r.u8();
    core::MetaRecord back = core::decode_meta(r);
    EXPECT_EQ(back.gc_counter, 33);
    EXPECT_EQ(back.green_lines, m.green_lines);
    EXPECT_EQ(back.prim, m.prim);
  }

  core::DbSnapshotRecord snap;
  db::Database d;
  d.apply(db::Command::put("x", "y"));
  snap.db_snapshot = d.snapshot();
  snap.green_count = 9;
  snap.green_red_cut = {{0, 9}};
  snap.meta = m;
  snap.red_actions = {a};
  snap.ongoing_actions = {a, a};
  Bytes rec = core::encode_log_db_snapshot(snap);
  EXPECT_EQ(core::peek_log_type(rec), core::LogRecordType::kDbSnapshot);
  {
    BufReader r(rec);
    r.u8();
    core::DbSnapshotRecord back = core::decode_db_snapshot(r);
    EXPECT_EQ(back.green_count, 9);
    ASSERT_EQ(back.red_actions.size(), 1u);
    ASSERT_EQ(back.ongoing_actions.size(), 2u);
    EXPECT_EQ(back.red_actions[0].id, a.id);
    EXPECT_EQ(back.meta.gc_counter, 33);
  }
}

TEST(CoreMessages, GreenAndRedRetransEncodings) {
  core::Action a;
  a.id = ActionId{2, 7};
  Bytes g = core::encode_green_retrans(41, a);
  EXPECT_EQ(core::peek_engine_type(g), core::EngineMsgType::kGreenRetrans);
  BufReader rg(g);
  rg.u8();
  EXPECT_EQ(rg.i64(), 41);
  EXPECT_EQ(core::Action::decode(rg).id, a.id);

  Bytes rr = core::encode_red_retrans(a);
  EXPECT_EQ(core::peek_engine_type(rr), core::EngineMsgType::kRedRetrans);
}

TEST(CoreMessages, JoinRequestRoundTrip) {
  Bytes wire = core::encode_join_request(core::JoinRequest{42});
  EXPECT_EQ(core::peek_direct_type(wire), core::DirectMsgType::kJoinRequest);
  BufReader r(wire);
  r.u8();
  EXPECT_EQ(core::decode_join_request(r).joiner, 42);
}

}  // namespace
}  // namespace tordb
