// Wire-format tests for every group-communication and engine message and
// every stable-storage log record: round trips, the type bytes and enum
// fields the readers refuse, and a mutation harness over every layout.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/messages.h"
#include "db/database.h"
#include "gc/messages.h"
#include "util/rng.h"

namespace tordb {
namespace {

// The largest single allocation since the last reset. A decoder must not
// let a count read from the wire size an allocation before it is checked
// against the bytes left.
std::atomic<std::size_t> largest_alloc{0};

}  // namespace
}  // namespace tordb

void* operator new(std::size_t n) {
  std::size_t seen = tordb::largest_alloc.load(std::memory_order_relaxed);
  while (n > seen && !tordb::largest_alloc.compare_exchange_weak(seen, n)) {
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs an inlined free() with new.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tordb {
namespace {

template <class T>
T decode(ByteView b) {
  return BufReader(b).read<T>();
}

TEST(GcMessages, DataRoundTrip) {
  const Bytes payload{1, 2, 3};
  gc::DataMsg m;
  m.config = ConfigId{7, 2};
  m.origin = 3;
  m.local_seq = 42;
  m.service = gc::Service::kSafe;
  m.payload = payload;
  const Bytes wire = encode(m);
  BufReader r(wire);
  EXPECT_EQ(r.read<gc::MsgType>(), gc::MsgType::kData);
  const auto back = r.read<gc::DataMsg>();
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.config, m.config);
  EXPECT_EQ(back.origin, 3);
  EXPECT_EQ(back.local_seq, 42);
  EXPECT_EQ(back.service, gc::Service::kSafe);
  EXPECT_EQ(Bytes(back.payload.begin(), back.payload.end()), payload);
  // The payload decodes as a view into the wire, not a copy.
  EXPECT_EQ(back.payload.data(), wire.data() + wire.size() - payload.size());
}

TEST(GcMessages, OrderedRoundTrip) {
  const Bytes payload{9};
  gc::OrderedMsg m;
  m.config = ConfigId{1, 0};
  m.seq = 99;
  m.origin = 5;
  m.origin_local_seq = 17;
  m.service = gc::Service::kAgreed;
  m.payload = payload;
  const Bytes wire = encode(m);
  BufReader r(wire);
  EXPECT_EQ(r.read<gc::MsgType>(), gc::MsgType::kOrdered);
  const auto back = r.read<gc::OrderedMsg>();
  EXPECT_EQ(back.seq, 99);
  EXPECT_EQ(back.origin_local_seq, 17);
  EXPECT_EQ(back.service, gc::Service::kAgreed);
  EXPECT_EQ(Bytes(back.payload.begin(), back.payload.end()), payload);
}

TEST(GcMessages, AckAndStableRoundTrip) {
  const ConfigId cfg{7, 3};
  Bytes wire = gc::encode(gc::AckMsg{cfg, 41, 1234});
  BufReader ra(wire);
  EXPECT_EQ(ra.read<gc::MsgType>(), gc::MsgType::kAck);
  const auto ack = ra.read<gc::AckMsg>();
  EXPECT_TRUE(ra.done());
  EXPECT_EQ(ack.config, cfg);
  EXPECT_EQ(ack.recv_contig, 41);
  EXPECT_EQ(ack.knowledge, 1234);

  wire = gc::encode(gc::StableMsg{cfg, 40, 1200});
  BufReader rs(wire);
  EXPECT_EQ(rs.read<gc::MsgType>(), gc::MsgType::kStable);
  const auto stable = rs.read<gc::StableMsg>();
  EXPECT_TRUE(rs.done());
  EXPECT_EQ(stable.config, cfg);
  EXPECT_EQ(stable.safe_line, 40);
  EXPECT_EQ(stable.knowledge, 1200);
}

gc::PlanMsg sample_plan() {
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
  return m;
}

TEST(GcMessages, PlanRoundTrip) {
  const gc::PlanMsg m = sample_plan();
  const Bytes wire = encode(m);
  BufReader r(wire);
  EXPECT_EQ(r.read<gc::MsgType>(), gc::MsgType::kPlan);
  const auto back = r.read<gc::PlanMsg>();
  EXPECT_EQ(back.token, m.token);
  EXPECT_EQ(back.new_members, m.new_members);
  ASSERT_EQ(back.entries.size(), 1u);
  EXPECT_EQ(back.entries[0].participant_contig, m.entries[0].participant_contig);
  EXPECT_EQ(back.entries[0].safe_line, 7);
  EXPECT_EQ(back.entries[0].retransmitter, 2);
}

gc::JoinInfoMsg sample_join_info() {
  gc::JoinInfoMsg m;
  m.token = gc::GatherToken{0, 3};
  m.old_config = ConfigId{4, 1};
  m.old_members = {0, 1, 2};
  m.recv_contig = 55;
  m.delivered_upto = 50;
  m.known_contig = {55, 54, 53};
  m.max_config_counter = 6;
  return m;
}

TEST(GcMessages, JoinInfoRoundTrip) {
  const gc::JoinInfoMsg m = sample_join_info();
  const Bytes wire = encode(m);
  BufReader r(wire);
  EXPECT_EQ(r.read<gc::MsgType>(), gc::MsgType::kJoinInfo);
  const auto back = r.read<gc::JoinInfoMsg>();
  EXPECT_EQ(back.known_contig, m.known_contig);
  EXPECT_EQ(back.max_config_counter, 6);
}

// Type bytes and the service byte outside their enums are refused.
TEST(GcMessages, UnknownTypeAndServiceThrow) {
  for (std::uint8_t type : {0, 11, 255}) {
    const Bytes wire{type};
    EXPECT_THROW(decode<gc::MsgType>(wire), SerdeError) << int{type};
  }
  const Bytes payload{1};
  gc::DataMsg m;
  m.payload = payload;
  Bytes wire = frame(m);
  const std::size_t service_at = 12 + 4 + 8;
  ASSERT_EQ(wire.at(service_at), static_cast<std::uint8_t>(gc::Service::kAgreed));
  wire[service_at] = 2;
  EXPECT_THROW(decode<gc::DataMsg>(wire), SerdeError);
}

core::Action sample_action() {
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
  return a;
}

TEST(CoreMessages, ActionRoundTrip) {
  const core::Action a = sample_action();
  const Bytes b = core::encode_action_body(a);
  BufReader r(b);
  const auto back = r.read<core::Action>();
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.type, a.type);
  EXPECT_EQ(back.id, a.id);
  EXPECT_EQ(back.green_line, 77);
  EXPECT_EQ(back.semantics, core::Semantics::kCommutative);
  EXPECT_EQ(back.update.ops, a.update.ops);
  EXPECT_EQ(back.subject, 11);
  EXPECT_EQ(back.padding, 16u);
}

TEST(CoreMessages, ActionWireSizeTracksPadding) {
  core::Action a;
  a.update = db::Command::put("k", "v");
  a.padding = 0;
  const std::size_t base = a.wire_size();
  a.padding = 110;
  EXPECT_EQ(a.wire_size(), base + 110);
}

// The action's enum fields (type, semantics, each op's type) are refused
// outside their enums.
TEST(CoreMessages, ActionEnumsOutOfRangeThrow) {
  core::Action a;
  a.update = db::Command::put("k", "v");
  const Bytes good = core::encode_action_body(a);
  const std::size_t type_at = 0;
  const std::size_t semantics_at = 1 + 12 + 8 + 8;
  const std::size_t op_type_at = semantics_at + 1 + 4 + 4;
  ASSERT_EQ(good.at(op_type_at), static_cast<std::uint8_t>(db::OpType::kPut));
  for (const auto& [at, bad] : {std::pair<std::size_t, std::uint8_t>{type_at, 3},
                                {semantics_at, 3},
                                {op_type_at, 13},
                                {op_type_at, 255}}) {
    Bytes b = good;
    b[at] = bad;
    EXPECT_THROW(decode<core::Action>(b), SerdeError) << "byte " << at << " = " << int{bad};
  }
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

TEST(CoreMessages, StateMessageRoundTrip) {
  const core::StateMessage s = sample_state();
  const Bytes wire = core::encode_state_msg(s);
  BufReader r(wire);
  EXPECT_EQ(r.read<core::EngineMsgType>(), core::EngineMsgType::kState);
  const auto back = r.read<core::StateMessage>();
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.green_count, 100);
  EXPECT_EQ(back.white_count, 40);
  EXPECT_EQ(back.red_cut, s.red_cut);
  EXPECT_EQ(back.green_red_cut, s.green_red_cut);
  EXPECT_EQ(back.prim, s.prim);
  EXPECT_EQ(back.vulnerable, s.vulnerable);
  EXPECT_EQ(back.yellow, s.yellow);
}

// The exchange plan walks the cuts in creator order, so a State payload
// whose cuts are out of order or repeat a creator is refused.
TEST(CoreMessages, UnsortedStateCutsThrow) {
  using Pairs = NodePairs;
  for (const Pairs& bad : {Pairs{{1, 25}, {0, 30}, {2, 45}}, Pairs{{0, 30}, {0, 31}}}) {
    core::StateMessage red = sample_state();
    red.red_cut = bad;
    EXPECT_THROW(decode<core::StateMessage>(frame(red)), SerdeError);

    core::StateMessage green = sample_state();
    green.green_red_cut = bad;
    EXPECT_THROW(decode<core::StateMessage>(frame(green)), SerdeError);
  }
}

// A pair count larger than the payload can hold is refused before it sizes
// any allocation.
TEST(CoreMessages, OversizedPairCountThrows) {
  BufWriter w;
  w.u32(0xFFFFFFFFu);
  w.i32(0);
  w.i64(1);
  EXPECT_THROW(decode<NodePairs>(w.data()), SerdeError);
}

// The vulnerable record's bit count is checked before it sizes the bits.
TEST(CoreMessages, InflatedVulnerableBitCountThrowsBeforeAllocating) {
  core::VulnerableRecord v;
  v.set = {1};
  v.bits = {true};
  Bytes b = frame(v);
  const std::size_t count_at = b.size() - 1 - 4;  // [count][one bit]
  ASSERT_EQ(b.at(count_at), 1);
  for (std::size_t i = 0; i < 4; ++i) b[count_at + i] = 0xFF;
  largest_alloc = 0;
  EXPECT_THROW(decode<core::VulnerableRecord>(b), SerdeError);
  EXPECT_LT(largest_alloc.load(), std::size_t{1} << 20);
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

core::SnapshotMessage sample_snapshot() {
  core::SnapshotMessage s;
  db::Database d;
  d.apply(db::Command::put("a", "1"));
  s.db_snapshot = d.snapshot();
  s.green_count = 12;
  s.green_red_cut = {{0, 5}, {1, 7}};
  s.server_set = {0, 1, 9};
  s.green_lines = {{0, 12}, {1, 10}};
  s.prim = core::PrimComponent{2, 1, {0, 1}};
  return s;
}

TEST(CoreMessages, SnapshotRoundTrip) {
  const core::SnapshotMessage s = sample_snapshot();
  const Bytes wire = core::encode_snapshot(s);
  BufReader r(wire);
  EXPECT_EQ(r.read<core::DirectMsgType>(), core::DirectMsgType::kSnapshot);
  const auto back = r.read<core::SnapshotMessage>();
  EXPECT_EQ(back.green_count, 12);
  EXPECT_EQ(back.server_set, s.server_set);
  db::Database d1;
  d1.restore(s.db_snapshot);
  db::Database d2;
  d2.restore(back.db_snapshot);
  EXPECT_EQ(d2.digest(), d1.digest());
}

TEST(CoreMessages, ActionBatchWireRoundTrip) {
  core::Action a;
  a.id = ActionId{2, 7};
  a.update = db::Command::add("n", 1);
  core::Action b = a;
  b.id = ActionId{2, 8};
  const Bytes wire = core::encode_action_batch({a, b});
  BufReader r(wire);
  EXPECT_EQ(r.read<core::EngineMsgType>(), core::EngineMsgType::kActionBatch);
  const auto back = r.read<std::vector<core::Action>>();
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].id, a.id);
  EXPECT_EQ(back[1].id, b.id);
}

TEST(CoreMessages, CatchupSharesSnapshotBody) {
  core::SnapshotMessage s;
  s.green_count = 3;
  const Bytes wire = core::encode_catchup(s);
  BufReader r(wire);
  EXPECT_EQ(r.read<core::EngineMsgType>(), core::EngineMsgType::kCatchup);
  EXPECT_EQ(r.read<core::SnapshotMessage>().green_count, 3);
  const Bytes direct = core::encode_snapshot(s);
  EXPECT_TRUE(std::equal(wire.begin() + 1, wire.end(), direct.begin() + 1, direct.end()));
}

core::MetaRecord sample_meta() {
  core::MetaRecord m;
  m.server_set = {0, 1};
  m.prim = core::PrimComponent{1, 1, {0, 1}};
  m.attempt_index = 2;
  m.vulnerable.set = {0, 1};
  m.vulnerable.bits = {true, false};
  m.yellow.set = {ActionId{1, 4}};
  m.gc_counter = 33;
  m.green_lines = {{0, 4}, {1, 3}};
  return m;
}

core::DbSnapshotRecord sample_db_snapshot() {
  core::Action a;
  a.id = ActionId{1, 2};
  a.update = db::Command::put("k", "v");
  core::DbSnapshotRecord snap;
  db::Database d;
  d.apply(db::Command::put("x", "y"));
  snap.db_snapshot = d.snapshot();
  snap.green_count = 9;
  snap.green_red_cut = {{0, 9}};
  snap.meta = sample_meta();
  snap.red_actions = {a};
  snap.ongoing_actions = {a, a};
  return snap;
}

TEST(CoreMessages, LogRecordsRoundTrip) {
  core::Action a;
  a.id = ActionId{1, 2};
  a.update = db::Command::put("k", "v");
  const Bytes body = core::encode_action_body(a);

  // The single-action records are the type byte and the action's canonical
  // encoding, which is what lets the engine frame them around a cached body.
  for (const auto& [rec, type] :
       {std::pair{core::encode_log_ongoing(a), core::LogRecordType::kOngoing},
        std::pair{core::encode_log_red(a), core::LogRecordType::kRed}}) {
    BufReader r(rec);
    EXPECT_EQ(r.read<core::LogRecordType>(), type);
    const ByteView rest = r.read<Rest>().bytes;
    EXPECT_EQ(Bytes(rest.begin(), rest.end()), body);
  }

  const Bytes green = core::encode_log_green(17, a);
  {
    BufReader r(green);
    EXPECT_EQ(r.read<core::LogRecordType>(), core::LogRecordType::kGreen);
    const auto back = r.read<core::GreenAction<core::Action>>();
    EXPECT_TRUE(r.done());
    EXPECT_EQ(back.position, 17);
    EXPECT_EQ(back.action.id, a.id);
  }
  // The engine's in-place framing: the fields before the body become the
  // record's inline header, the body stays borrowed.
  {
    SplitWriter<9> w;
    w(core::LogRecordType::kGreen, core::GreenAction<Rest>{17, {body}});
    EXPECT_EQ(w.header().size(), 9u);
    EXPECT_EQ(w.body().data(), body.data());
    Bytes joined(w.header().begin(), w.header().end());
    joined.insert(joined.end(), body.begin(), body.end());
    EXPECT_EQ(joined, green);
  }

  core::Action a2 = a;
  a2.id = ActionId{1, 3};
  const Bytes batch = core::encode_log_ongoing_batch({a, a2});
  {
    BufReader r(batch);
    EXPECT_EQ(r.read<core::LogRecordType>(), core::LogRecordType::kOngoingBatch);
    const auto back = r.read<std::vector<core::Action>>();
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].id, a.id);
    EXPECT_EQ(back[1].id, a2.id);
  }

  const core::MetaRecord m = sample_meta();
  const Bytes meta = core::encode_log_meta(m);
  {
    BufReader r(meta);
    EXPECT_EQ(r.read<core::LogRecordType>(), core::LogRecordType::kMeta);
    const auto back = r.read<core::MetaRecord>();
    EXPECT_EQ(back.gc_counter, 33);
    EXPECT_EQ(back.green_lines, m.green_lines);
    EXPECT_EQ(back.prim, m.prim);
  }

  const Bytes rec = core::encode_log_db_snapshot(sample_db_snapshot());
  {
    BufReader r(rec);
    EXPECT_EQ(r.read<core::LogRecordType>(), core::LogRecordType::kDbSnapshot);
    const auto back = r.read<core::DbSnapshotRecord>();
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
  const Bytes g = core::encode_green_retrans(41, a);
  BufReader rg(g);
  EXPECT_EQ(rg.read<core::EngineMsgType>(), core::EngineMsgType::kGreenRetrans);
  const auto green = rg.read<core::GreenAction<core::Action>>();
  EXPECT_EQ(green.position, 41);
  EXPECT_EQ(green.action.id, a.id);

  const Bytes rr = core::encode_red_retrans(a);
  BufReader rr_reader(rr);
  EXPECT_EQ(rr_reader.read<core::EngineMsgType>(), core::EngineMsgType::kRedRetrans);
  EXPECT_EQ(rr_reader.read<core::Action>().id, a.id);
}

TEST(CoreMessages, JoinRequestRoundTrip) {
  const Bytes wire = core::encode_join_request(core::JoinRequest{42});
  BufReader r(wire);
  EXPECT_EQ(r.read<core::DirectMsgType>(), core::DirectMsgType::kJoinRequest);
  EXPECT_EQ(r.read<core::JoinRequest>().joiner, 42);
}

// Every type byte outside its enum is refused: the engine's, the log's and
// the direct channel's switches never see one.
TEST(CoreMessages, UnknownTypeBytesThrow) {
  for (std::uint8_t type : {0, 8, 255}) {
    EXPECT_THROW(decode<core::EngineMsgType>(Bytes{type}), SerdeError) << int{type};
  }
  for (std::uint8_t type : {0, 7, 255}) {
    EXPECT_THROW(decode<core::LogRecordType>(Bytes{type}), SerdeError) << int{type};
  }
  for (std::uint8_t type : {0, 3, 255}) {
    EXPECT_THROW(decode<core::DirectMsgType>(Bytes{type}), SerdeError) << int{type};
  }
}

// --- decoder mutation harness ----------------------------------------------
//
// One sample per layout. Every proper prefix of its encoding must throw
// SerdeError, and a fixed, seeded set of single-byte flips and inflated
// counts must decode or throw SerdeError: nothing else, no read outside the
// buffer (each mutant lives in an exact-size allocation, so ASan sees one)
// and no allocation out of proportion to the input.

const Bytes kPayload{1, 2, 3, 250};

template <class T>
T sample();

template <>
gc::DataMsg sample() {
  return gc::DataMsg{ConfigId{7, 2}, 3, 42, gc::Service::kSafe, kPayload};
}
template <>
gc::OrderedMsg sample() {
  return gc::OrderedMsg{ConfigId{7, 2}, 99, 5, 17, gc::Service::kAgreed, kPayload};
}
template <>
gc::AckMsg sample() {
  return gc::AckMsg{ConfigId{7, 3}, 41, 1234};
}
template <>
gc::StableMsg sample() {
  return gc::StableMsg{ConfigId{7, 3}, 40, 1200};
}
template <>
gc::InquireMsg sample() {
  return gc::InquireMsg{gc::GatherToken{2, 8}, {2, 3, 5}};
}
template <>
gc::JoinInfoMsg sample() {
  return sample_join_info();
}
template <>
gc::PlanMsg sample() {
  return sample_plan();
}
template <>
gc::RetransMsg sample() {
  return gc::RetransMsg{gc::GatherToken{2, 8}, sample<gc::OrderedMsg>()};
}
template <>
gc::PlanAckMsg sample() {
  return gc::PlanAckMsg{gc::GatherToken{1, 4}};
}
template <>
gc::InstallMsg sample() {
  return gc::InstallMsg{gc::GatherToken{1, 5}};
}
template <>
core::Action sample() {
  return sample_action();
}
template <>
core::StateMessage sample() {
  return sample_state();
}
template <>
core::CpcMessage sample() {
  return core::CpcMessage{4, ConfigId{9, 1}};
}
template <>
core::GreenAction<core::Action> sample() {
  return {41, sample_action()};
}
template <>
core::JoinRequest sample() {
  return core::JoinRequest{42};
}
template <>
core::SnapshotMessage sample() {
  return sample_snapshot();
}
template <>
core::MetaRecord sample() {
  return sample_meta();
}
template <>
core::DbSnapshotRecord sample() {
  return sample_db_snapshot();
}
template <>
db::Command sample() {
  db::Command c = db::Command::checked_put("k", "old", "new");
  c.ops.push_back(db::Op{db::OpType::kTimestampPut, "t", "x", 123});
  return c;
}
template <>
db::TxnPending sample() {
  return db::TxnPending{77, 5, 3, sample<db::Command>()};
}
template <>
db::RangeSnapshot sample() {
  return db::RangeSnapshot{"b", "m", {db::RangeRow{"c", "1", -1}, db::RangeRow{"d", "22", 99}}};
}

template <class T>
class DecoderMutation : public ::testing::Test {
 protected:
  /// Decodes `b` from an allocation of exactly its size. True if it
  /// decoded, false on SerdeError; any other exception fails the test.
  static bool decodes(const Bytes& b, const std::string& what) {
    const auto copy = std::make_unique<std::uint8_t[]>(b.size() + (b.empty() ? 1 : 0));
    std::copy(b.begin(), b.end(), copy.get());
    largest_alloc = 0;
    bool ok = false;
    try {
      BufReader(copy.get(), b.size()).read<T>();
      ok = true;
    } catch (const SerdeError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": " << e.what();
    }
    EXPECT_LT(largest_alloc.load(), kAllocBound) << what;
    return ok;
  }

  // Every sample encodes to well under 1 KB; a decoder that honours the
  // count bound reserves at most its input's bytes times an element's size.
  static constexpr std::size_t kAllocBound = std::size_t{1} << 20;
};

using Layouts =
    ::testing::Types<gc::DataMsg, gc::OrderedMsg, gc::AckMsg, gc::StableMsg, gc::InquireMsg,
                     gc::JoinInfoMsg, gc::PlanMsg, gc::RetransMsg, gc::PlanAckMsg,
                     gc::InstallMsg, core::Action, core::StateMessage, core::CpcMessage,
                     core::GreenAction<core::Action>, core::JoinRequest,
                     core::SnapshotMessage, core::MetaRecord, core::DbSnapshotRecord,
                     db::Command, db::TxnPending, db::RangeSnapshot>;
TYPED_TEST_SUITE(DecoderMutation, Layouts);

TYPED_TEST(DecoderMutation, SampleRoundTripsAndEveryProperPrefixThrows) {
  const Bytes wire = frame(sample<TypeParam>());
  ASSERT_TRUE(this->decodes(wire, "whole"));
  EXPECT_EQ(frame(decode<TypeParam>(wire)), wire);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(this->decodes(Bytes(wire.begin(), wire.begin() + len), "prefix"))
        << "length " << len << " of " << wire.size();
  }
}

TYPED_TEST(DecoderMutation, FlipsAndInflatedCountsDecodeOrThrow) {
  const Bytes wire = frame(sample<TypeParam>());
  Rng rng(0x5eed);
  for (int i = 0; i < 256; ++i) {
    Bytes b = wire;
    const std::size_t at = rng.next_u64() % b.size();
    b[at] ^= static_cast<std::uint8_t>(1 + rng.next_u64() % 255);
    this->decodes(b, "flip at " + std::to_string(at));
  }
  // A count may start at any offset: inflate every aligned-or-not u32.
  for (std::size_t at = 0; at + 4 <= wire.size(); ++at) {
    const auto size = static_cast<std::uint32_t>(wire.size());
    for (std::uint32_t count : {0xFFFFFFFFu, 0x80000000u, size}) {
      Bytes b = wire;
      for (std::size_t i = 0; i < 4; ++i) b[at + i] = static_cast<std::uint8_t>(count >> (8 * i));
      this->decodes(b, "count " + std::to_string(count) + " at " + std::to_string(at));
    }
  }
}

}  // namespace
}  // namespace tordb
