// Byte-exact pins of every wire message and log record format.
//
// Each case encodes one fixed sample and compares an FNV-1a hash of its
// bytes with a committed constant. Round-trip tests (messages_test) only
// show that an encoder and its decoder agree; these show that neither
// moved. A replica must read back the records it forced before a change to
// the code (paper Appendix A, Recover), so a layout edit that changes any
// byte fails here even when encode and decode change together.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/action.h"
#include "core/messages.h"
#include "db/database.h"
#include "gc/messages.h"

namespace tordb {
namespace {

std::uint64_t fnv1a(const Bytes& b) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint8_t c : b) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

db::Command sample_command() {
  db::Command c;
  c.ops.push_back(db::Op{db::OpType::kPut, "k1", "v1", 0});
  c.ops.push_back(db::Op{db::OpType::kAdd, "n", "", -17});
  c.ops.push_back(db::Op{db::OpType::kTimestampPut, "t", "late", 1234567890123ll});
  c.ops.push_back(db::Op{db::OpType::kTxnCancel, "__txnp/9", "", 0});
  return c;
}

core::Action sample_action() {
  core::Action a;
  a.type = core::ActionType::kUpdate;
  a.id = ActionId{3, 4097};
  a.green_line = 88;
  a.client = -5;
  a.semantics = core::Semantics::kTimestamp;
  a.query = db::Command::get("q");
  a.update = sample_command();
  a.subject = kNoNode;
  a.padding = 7;
  return a;
}

core::Action join_action() {
  core::Action a;
  a.type = core::ActionType::kPersistentJoin;
  a.id = ActionId{0, 12};
  a.green_line = 40;
  a.semantics = core::Semantics::kStrict;
  a.subject = 9;
  return a;
}

core::PrimComponent sample_prim() { return core::PrimComponent{6, 4, {0, 2, 3}}; }

core::StateMessage sample_state() {
  core::StateMessage s;
  s.server_id = 2;
  s.conf_id = ConfigId{5, 1};
  s.green_count = 100;
  s.white_count = 40;
  s.red_cut = {{0, 30}, {1, 25}, {2, 45}};
  s.green_red_cut = {{0, 28}, {2, 44}};
  s.server_set = {0, 1, 2, 7};
  s.attempt_index = 3;
  s.prim = sample_prim();
  s.vulnerable.valid = true;
  s.vulnerable.prim_index = 4;
  s.vulnerable.attempt_index = 3;
  s.vulnerable.set = {0, 1, 2};
  s.vulnerable.bits = {true, false, true};
  s.yellow.valid = true;
  s.yellow.set = {ActionId{1, 9}, ActionId{0, 12}};
  return s;
}

core::SnapshotMessage sample_snapshot() {
  core::SnapshotMessage s;
  s.db_snapshot = Bytes{9, 8, 7, 6, 5};
  s.green_count = 12;
  s.green_red_cut = {{0, 5}, {1, 7}};
  s.server_set = {0, 1, 9};
  s.green_lines = {{0, 12}, {1, 10}};
  s.prim = sample_prim();
  return s;
}

core::MetaRecord sample_meta() {
  core::MetaRecord m;
  m.server_set = {0, 1, 4};
  m.prim = sample_prim();
  m.attempt_index = 2;
  m.vulnerable.valid = true;
  m.vulnerable.prim_index = 7;
  m.vulnerable.attempt_index = 5;
  m.vulnerable.set = {0, 4};
  m.vulnerable.bits = {false, true};
  m.yellow.valid = true;
  m.yellow.set = {ActionId{4, 2}};
  m.green_lines = {{0, 4}, {1, 3}, {4, 1}};
  m.gc_counter = 33;
  return m;
}

Bytes command_bytes(const db::Command& c) {
  BufWriter w;
  c.encode(w);
  return w.take();
}

struct Pin {
  const char* name;
  Bytes bytes;
  std::uint64_t fnv;
};

std::vector<Pin> gc_pins() {
  const ConfigId cfg{7, 2};
  const gc::GatherToken token{2, 8};
  const Bytes payload{1, 2, 3, 250};
  std::vector<Pin> pins;

  gc::DataMsg data;
  data.config = cfg;
  data.origin = 3;
  data.local_seq = 42;
  data.service = gc::Service::kSafe;
  data.payload = payload;
  pins.push_back({"gc.Data", gc::encode(data), 0x6d23b58f7bc946d3ull});

  gc::OrderedMsg ordered;
  ordered.config = cfg;
  ordered.seq = 99;
  ordered.origin = 5;
  ordered.origin_local_seq = 17;
  ordered.service = gc::Service::kAgreed;
  ordered.payload = payload;
  pins.push_back({"gc.Ordered", gc::encode(ordered), 0x83a634dcfc96f0a9ull});

  pins.push_back({"gc.Ack", gc::encode(gc::AckMsg{cfg, 41, 1234}), 0xea440962ae6c9a7aull});
  pins.push_back({"gc.Stable", gc::encode(gc::StableMsg{cfg, 40, 1200}), 0xdb8916c67b44dba4ull});

  gc::InquireMsg inquire;
  inquire.token = token;
  inquire.proposed = {2, 3, 5};
  pins.push_back({"gc.Inquire", gc::encode(inquire), 0xd222b92e4355450full});

  gc::JoinInfoMsg info;
  info.token = token;
  info.old_config = ConfigId{4, 1};
  info.old_members = {0, 1, 2};
  info.recv_contig = 55;
  info.delivered_upto = 50;
  info.known_contig = {55, 54, 53};
  info.max_config_counter = 6;
  pins.push_back({"gc.JoinInfo", gc::encode(info), 0x31ca2fff2967ca14ull});

  gc::PlanMsg plan;
  plan.token = token;
  plan.new_config = ConfigId{10, 2};
  plan.new_members = {2, 3, 5};
  gc::PlanEntry e;
  e.old_config = ConfigId{9, 3};
  e.old_members = {2, 3, 4, 5};
  e.participants = {2, 3, 5};
  e.participant_contig = {10, 8, 10};
  e.safe_line = 7;
  e.target_seq = 10;
  e.retransmitter = 2;
  plan.entries = {e, e};
  plan.entries[1].retransmitter = 3;
  pins.push_back({"gc.Plan", gc::encode(plan), 0xbc8d046c154f893aull});

  gc::RetransMsg retrans;
  retrans.token = token;
  retrans.message.config = cfg;
  retrans.message.seq = 8;
  retrans.message.origin = 4;
  retrans.message.origin_local_seq = 3;
  retrans.message.service = gc::Service::kSafe;
  retrans.message.payload = payload;
  pins.push_back({"gc.Retrans", gc::encode(retrans), 0xfe2265154af10642ull});

  pins.push_back({"gc.PlanAck", gc::encode(gc::PlanAckMsg{token}), 0x682249a2f7d037b4ull});
  pins.push_back({"gc.Install", gc::encode(gc::InstallMsg{token}), 0xd830ef28ab65e2f1ull});
  return pins;
}

std::vector<Pin> core_pins() {
  const core::Action a = sample_action();
  const core::Action j = join_action();
  std::vector<Pin> pins;

  // The kAction wire is the type byte followed by the action's canonical
  // encoding, unprefixed.
  Bytes action_wire{static_cast<std::uint8_t>(core::EngineMsgType::kAction)};
  const Bytes body = core::encode_action_body(a);
  action_wire.insert(action_wire.end(), body.begin(), body.end());
  pins.push_back({"engine.Action", action_wire, 0xf6240ed012082ca2ull});
  pins.push_back({"engine.State", core::encode_state_msg(sample_state()), 0xcba811cd05f6122aull});
  pins.push_back({"engine.Cpc", core::encode_cpc_msg(core::CpcMessage{4, ConfigId{9, 1}}),
                  0x6c403e5729a4352cull});
  pins.push_back({"engine.GreenRetrans", core::encode_green_retrans(41, a), 0x969779fe79488330ull});
  pins.push_back({"engine.RedRetrans", core::encode_red_retrans(j), 0x3eb47508093f654eull});
  pins.push_back({"engine.Catchup", core::encode_catchup(sample_snapshot()),
                  0x222454a82ae10cc2ull});
  pins.push_back({"engine.ActionBatch", core::encode_action_batch({a, j}), 0x4674a7749beea1b6ull});

  pins.push_back({"log.Ongoing", core::encode_log_ongoing(a), 0xf6240ed012082ca2ull});
  pins.push_back({"log.Red", core::encode_log_red(j), 0x3f0f54d36d639a9full});
  pins.push_back({"log.Green", core::encode_log_green(17, a), 0xb75919226ac8209full});
  pins.push_back({"log.Meta", core::encode_log_meta(sample_meta()), 0xb506ce247bb7cffeull});
  core::DbSnapshotRecord snap;
  snap.db_snapshot = Bytes{4, 3, 2, 1};
  snap.green_count = 9;
  snap.green_red_cut = {{0, 9}, {3, 1}};
  snap.meta = sample_meta();
  snap.red_actions = {a};
  snap.ongoing_actions = {j, a};
  pins.push_back({"log.DbSnapshot", core::encode_log_db_snapshot(snap), 0x283582fb79cc0ebaull});
  pins.push_back({"log.OngoingBatch", core::encode_log_ongoing_batch({j, a}),
                  0xb24837ad9008f657ull});

  pins.push_back({"direct.JoinRequest", core::encode_join_request(core::JoinRequest{42}),
                  0x2840d9c186d5088cull});
  pins.push_back({"direct.Snapshot", core::encode_snapshot(sample_snapshot()),
                  0xfca59dcd07458aeeull});
  return pins;
}

std::vector<Pin> db_pins() {
  std::vector<Pin> pins;
  pins.push_back({"Action", core::encode_action_body(sample_action()), 0x301e56974b53a239ull});
  pins.push_back({"Action.join", core::encode_action_body(join_action()), 0xd65a7b857a59856full});
  pins.push_back({"Command", command_bytes(sample_command()), 0xee182238e09b258bull});
  pins.push_back({"Command.empty", command_bytes(db::Command{}), 0x315446a086a23133ull});

  db::TxnPending pending;
  pending.client = 77;
  pending.seq = 5;
  pending.home = 3;
  pending.update = sample_command();
  pins.push_back({"TxnPending", pending.encode(), 0x05b855b97b17e6e0ull});

  db::RangeSnapshot range;
  range.lo = "b";
  range.hi = "m";
  range.rows = {db::RangeRow{"c", "1", -1}, db::RangeRow{"d", "22", 99}};
  pins.push_back({"RangeSnapshot", range.encode(), 0xc4aebd81d188ad9aull});
  return pins;
}

void check(const std::vector<Pin>& pins) {
  for (const Pin& p : pins) {
    EXPECT_EQ(fnv1a(p.bytes), p.fnv)
        << p.name << " (" << p.bytes.size() << " bytes) hashes to 0x" << std::hex
        << fnv1a(p.bytes);
  }
}

TEST(WireBytes, GroupCommunicationMessages) { check(gc_pins()); }

TEST(WireBytes, EngineMessagesAndLogRecords) { check(core_pins()); }

TEST(WireBytes, ActionsAndDatabaseBlobs) { check(db_pins()); }

// wire_size() feeds the network cost model: it must count exactly the bytes
// the encoder writes.
TEST(WireBytes, WireSizeMatchesEncoding) {
  for (const core::Action& a : {sample_action(), join_action(), core::Action{}}) {
    EXPECT_EQ(a.wire_size(), core::encode_action_body(a).size());
  }
  for (const db::Command& c : {sample_command(), db::Command{}, db::Command::get("")}) {
    EXPECT_EQ(c.wire_size(), command_bytes(c).size());
  }
}

}  // namespace
}  // namespace tordb
