// Direct unit tests of the engine's crash-recovery constructor against
// handcrafted stable-storage logs (Appendix A, Recover): record ordering,
// duplicates, compaction snapshots, and the ongoing-queue replay rule.
#include <gtest/gtest.h>

#include "obs_enable.h"  // run every cluster under the online safety checker
#include "core/replication_engine.h"
#include "db/database.h"
#include "workload/cluster.h"

namespace tordb::core {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() : sim_(1), net_(sim_), storage_(sim_) {
    for (NodeId n : {0, 1, 2}) net_.add_node(n);
  }

  Action make_action(NodeId creator, std::int64_t index, db::Command update,
                     ActionType type = ActionType::kUpdate, NodeId subject = kNoNode) {
    Action a;
    a.type = type;
    a.id = ActionId{creator, index};
    a.update = std::move(update);
    a.subject = subject;
    return a;
  }

  void force_all() {
    bool done = false;
    storage_.sync([&] { done = true; });
    sim_.run();
    ASSERT_TRUE(done);
  }

  std::unique_ptr<ReplicationEngine> recover() {
    return std::make_unique<ReplicationEngine>(net_, storage_, 0,
                                               ReplicationEngine::RecoverTag{},
                                               std::vector<NodeId>{0, 1, 2});
  }

  Simulator sim_;
  Network net_;
  StableStorage storage_;
};

TEST_F(RecoveryTest, EmptyLogFallsBackToInitialServers) {
  auto e = recover();
  EXPECT_EQ(e->state(), EngineState::kNonPrim);
  EXPECT_EQ(e->green_count(), 0);
  EXPECT_EQ(e->server_set(), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(e->prim_component().servers, (std::vector<NodeId>{0, 1, 2}));
}

TEST_F(RecoveryTest, GreenRecordsRebuildDatabaseInOrder) {
  storage_.append(encode_log_green(1, make_action(1, 1, db::Command::put("k", "a"))));
  storage_.append(encode_log_green(2, make_action(2, 1, db::Command::append("k", "b"))));
  storage_.append(encode_log_green(3, make_action(1, 2, db::Command::append("k", "c"))));
  force_all();
  auto e = recover();
  EXPECT_EQ(e->green_count(), 3);
  EXPECT_EQ(e->database().get("k"), "abc");
  EXPECT_EQ(e->green_action_at(2), (ActionId{2, 1}));
}

TEST_F(RecoveryTest, OutOfOrderGreenRecordIgnored) {
  storage_.append(encode_log_green(1, make_action(1, 1, db::Command::put("k", "a"))));
  storage_.append(encode_log_green(5, make_action(1, 2, db::Command::put("k", "GAP"))));
  force_all();
  auto e = recover();
  EXPECT_EQ(e->green_count(), 1);
  EXPECT_EQ(e->database().get("k"), "a");
}

TEST_F(RecoveryTest, DuplicateGreenRecordIgnored) {
  const Action a = make_action(1, 1, db::Command::add("n", 1));
  storage_.append(encode_log_green(1, a));
  storage_.append(encode_log_green(1, a));
  force_all();
  auto e = recover();
  EXPECT_EQ(e->green_count(), 1);
  EXPECT_EQ(e->database().get("n"), "1");
}

// A record whose type byte names no record type is corrupt: recovery
// refuses the log rather than skip the record and recover without it.
TEST_F(RecoveryTest, UnknownRecordTypeThrows) {
  storage_.append(encode_log_green(1, make_action(1, 1, db::Command::put("k", "a"))));
  Bytes corrupt = encode_log_green(2, make_action(1, 2, db::Command::put("k", "b")));
  corrupt[0] = static_cast<std::uint8_t>(LogRecordType::kOngoingBatch) + 1;
  storage_.append(std::move(corrupt));
  force_all();
  EXPECT_THROW(recover(), SerdeError);
}

// So is a record whose action carries an op type no database knows: the
// replay must not apply it as a no-op.
TEST_F(RecoveryTest, UnknownOpTypeInRecordThrows) {
  const Action a = make_action(1, 1, db::Command::put("k", "a"));
  Bytes rec = encode_log_green(1, a);
  // The op type is the first byte after the fixed action fields and the
  // two commands' headers: [kGreen][position][type][id][green_line]
  // [client][semantics][query: u32 0][update: u32 1][op type].
  const std::size_t op_type_at = 1 + 8 + 1 + 12 + 8 + 8 + 1 + 4 + 4;
  ASSERT_EQ(rec.at(op_type_at), static_cast<std::uint8_t>(db::OpType::kPut));
  rec[op_type_at] = static_cast<std::uint8_t>(db::OpType::kTxnCancel) + 1;
  storage_.append(std::move(rec));
  force_all();
  EXPECT_THROW(recover(), SerdeError);
}

TEST_F(RecoveryTest, RedRecordsRebuildRedQueue) {
  storage_.append(encode_log_red(make_action(2, 1, db::Command::put("r", "1"))));
  storage_.append(encode_log_red(make_action(2, 2, db::Command::put("r", "2"))));
  force_all();
  auto e = recover();
  EXPECT_EQ(e->green_count(), 0);
  EXPECT_EQ(e->red_count(), 2u);
  EXPECT_EQ(e->database().get("r"), "");           // reds not green-applied
  EXPECT_EQ(e->dirty_database().get("r"), "2");    // but visible dirty
}

TEST_F(RecoveryTest, OngoingBeyondRedCutIsReMarkedRed) {
  // A.13: an own action that was forced but never ordered comes back red.
  storage_.append(encode_log_ongoing(make_action(0, 1, db::Command::put("mine", "yes"))));
  force_all();
  auto e = recover();
  EXPECT_EQ(e->red_count(), 1u);
  EXPECT_EQ(e->dirty_database().get("mine"), "yes");
}

TEST_F(RecoveryTest, OngoingCoveredByGreenIsNotDuplicated) {
  const Action a = make_action(0, 1, db::Command::add("n", 5));
  storage_.append(encode_log_ongoing(a));
  storage_.append(encode_log_green(1, a));
  force_all();
  auto e = recover();
  EXPECT_EQ(e->green_count(), 1);
  EXPECT_EQ(e->red_count(), 0u);
  EXPECT_EQ(e->database().get("n"), "5");
}

TEST_F(RecoveryTest, MetaRecordRestoresMembershipAndVulnerability) {
  MetaRecord m;
  m.server_set = {0, 1};
  m.prim = PrimComponent{4, 2, {0, 1}};
  m.attempt_index = 2;
  m.vulnerable.valid = true;
  m.vulnerable.prim_index = 4;
  m.vulnerable.attempt_index = 2;
  m.vulnerable.set = {0, 1};
  m.vulnerable.bits = {true, false};
  m.green_lines = {{0, 7}, {1, 6}};
  m.gc_counter = 12;
  storage_.append(encode_log_meta(m));
  force_all();
  auto e = recover();
  EXPECT_EQ(e->server_set(), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(e->prim_component().prim_index, 4);
  EXPECT_TRUE(e->vulnerable().valid);
  EXPECT_EQ(e->vulnerable().bits, (std::vector<bool>{true, false}));
}

TEST_F(RecoveryTest, SnapshotRecordResetsThenTailExtends) {
  // Compaction snapshot at green 10, followed by two more greens.
  db::Database db;
  db.apply(db::Command::put("base", "state"));
  DbSnapshotRecord snap;
  snap.db_snapshot = db.snapshot();
  snap.green_count = 10;
  snap.green_red_cut = {{1, 6}, {2, 4}};
  snap.meta.server_set = {0, 1, 2};
  snap.meta.prim = PrimComponent{3, 1, {0, 1, 2}};
  snap.red_actions = {make_action(2, 5, db::Command::put("red", "tail"))};
  storage_.append(encode_log_db_snapshot(snap));
  storage_.append(encode_log_green(11, make_action(1, 7, db::Command::put("after", "snap"))));
  force_all();
  auto e = recover();
  EXPECT_EQ(e->green_count(), 11);
  EXPECT_EQ(e->database().get("base"), "state");
  EXPECT_EQ(e->database().get("after"), "snap");
  EXPECT_EQ(e->red_count(), 1u);
  EXPECT_EQ(e->white_line(), 0);  // green lines of others unknown
  // Positions at or below the snapshot have no bodies.
  EXPECT_EQ(e->green_action_at(10).server_id, kNoNode);
  EXPECT_EQ(e->green_action_at(11), (ActionId{1, 7}));
}

TEST_F(RecoveryTest, GreenJoinRecordExtendsServerSet) {
  storage_.append(
      encode_log_green(1, make_action(0, 1, {}, ActionType::kPersistentJoin, 7)));
  force_all();
  auto e = recover();
  EXPECT_EQ(e->server_set(), (std::vector<NodeId>{0, 1, 2, 7}));
}

TEST_F(RecoveryTest, GreenLeaveRecordShrinksServerSetAndVotes) {
  storage_.append(
      encode_log_green(1, make_action(0, 1, {}, ActionType::kPersistentLeave, 2)));
  force_all();
  auto e = recover();
  EXPECT_EQ(e->server_set(), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(e->prim_component().servers, (std::vector<NodeId>{0, 1}));
}

TEST_F(RecoveryTest, GreenRecordBeforeUnparkedSuccessorsRebuildsRedChain) {
  // The regular-primary layout: an action turning red and green in one step
  // is logged only green, ahead of the successors that step unparked. The
  // replayed green record fills their creator-FIFO gap, so they come back
  // red exactly as under the older red-then-green layout.
  const Action a = make_action(1, 1, db::Command::put("k", "a"));
  const Action b = make_action(1, 2, db::Command::append("k", "b"));
  const Action c = make_action(1, 3, db::Command::append("k", "c"));
  storage_.append(encode_log_green(1, a));
  storage_.append(encode_log_red(b));
  storage_.append(encode_log_red(c));
  force_all();
  auto e = recover();
  EXPECT_EQ(e->green_count(), 1);
  EXPECT_EQ(e->red_count(), 2u);
  EXPECT_EQ(e->database().get("k"), "a");
  EXPECT_EQ(e->dirty_database().get("k"), "abc");
}

TEST(RecoveryLog, RegularPrimaryLogsEachBodyOnceAndRecoversEquivalently) {
  workload::ClusterOptions o;
  o.replicas = 3;
  o.seed = 5;
  workload::EngineCluster c(o);
  c.run_for(seconds(1));
  auto count = [&](NodeId n, LogRecordType type) {
    std::size_t k = 0;
    for (const Bytes& rec : c.node(n).storage().recover_records()) {
      if (static_cast<LogRecordType>(rec.at(0)) == type) ++k;
    }
    return k;
  };
  const std::size_t reds_before = count(1, LogRecordType::kRed);
  const std::size_t greens_before = count(1, LogRecordType::kGreen);
  const std::int64_t green_before = c.engine(1).green_count();
  for (int i = 0; i < 40; ++i) {
    const NodeId n = static_cast<NodeId>(i % 3);
    c.engine(n).submit({}, db::Command::add("n" + std::to_string(i % 5), i), n,
                       Semantics::kStrict, nullptr);
    c.run_for(millis(2));
  }
  c.run_for(seconds(1));
  c.node(1).storage().sync([] {});  // green records are appended unforced
  c.run_for(millis(20));
  const std::int64_t greened = c.engine(1).green_count() - green_before;
  ASSERT_EQ(greened, 40);
  // One green record per action and no red record beside it.
  EXPECT_EQ(count(1, LogRecordType::kGreen) - greens_before, 40u);
  EXPECT_EQ(count(1, LogRecordType::kRed), reds_before);

  c.crash(1);
  c.run_for(millis(100));
  c.recover(1);
  c.run_for(seconds(2));
  EXPECT_TRUE(c.converged_primary({0, 1, 2}));
  EXPECT_EQ(c.engine(1).green_count(), c.engine(0).green_count());
  EXPECT_EQ(c.engine(1).db_digest(), c.engine(0).db_digest());
  EXPECT_EQ(c.check_all(), std::nullopt);
}

// Drives a five-replica cluster through both green record paths: actions
// delivered one per wire in a steady primary, whose green records share the
// delivered wire, and a burst node 0 buffers mid-exchange after a partition
// and flushes as one kActionBatch wire, whose green records copy each body.
void drive_both_green_record_paths(workload::EngineCluster& c) {
  auto submit_round = [&c](int base) {
    for (int i = 0; i < 10; ++i) {
      const NodeId n = static_cast<NodeId>(i % 5);
      c.engine(n).submit({}, db::Command::add("s" + std::to_string(i % 4), base + i), n,
                         Semantics::kStrict, nullptr);
      c.run_for(millis(2));
    }
  };
  c.run_for(seconds(1));
  submit_round(0);
  c.run_for(seconds(1));
  c.partition({{0, 1, 2}, {3, 4}});
  c.run_for(seconds(2));
  c.heal();
  bool submitted = false;
  for (int step = 0; step < 4000 && !submitted; ++step) {
    c.run_for(millis(1));
    const EngineState s = c.engine(0).state();
    if (s != EngineState::kRegPrim && s != EngineState::kNonPrim) {
      for (int k = 0; k < 6; ++k) {
        c.engine(0).submit({}, db::Command::add("burst" + std::to_string(k), k + 1), 0,
                           Semantics::kStrict, nullptr);
      }
      submitted = true;
    }
  }
  EXPECT_TRUE(submitted) << "never caught an exchange window";
  c.run_for(seconds(5));
  submit_round(100);
  c.run_for(seconds(1));
}

TEST(RecoveryLog, SharedAndCopiedGreenRecordsRecoverEquivalently) {
  workload::ClusterOptions o;
  o.replicas = 5;
  o.seed = 11;
  workload::EngineCluster reference(o);  // never crashed
  drive_both_green_record_paths(reference);
  workload::EngineCluster c(o);
  drive_both_green_record_paths(c);
  EXPECT_GE(c.engine(0).stats().persist_batches, 1u);  // a kActionBatch wire went out
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_GT(c.node(n).storage().stats().bytes_shared, 0u) << "node " << n;
    c.node(n).storage().sync([] {});  // green records are appended unforced
  }
  c.run_for(millis(20));
  for (NodeId n = 0; n < 5; ++n) c.crash(n);
  for (NodeId n = 0; n < 5; ++n) {
    std::size_t greens = 0;
    for (const Bytes& rec : c.node(n).storage().recover_records()) {
      BufReader r(rec);
      if (r.read<LogRecordType>() != LogRecordType::kGreen) continue;
      const auto green = r.read<GreenAction<Action>>();
      EXPECT_EQ(rec, encode_log_green(green.position, green.action))
          << "node " << n << " position " << green.position;
      ++greens;
    }
    EXPECT_GT(greens, 0u) << "node " << n;
  }
  c.run_for(millis(100));
  for (NodeId n = 0; n < 5; ++n) c.recover(n);
  c.run_for(seconds(3));
  EXPECT_TRUE(c.converged_primary({0, 1, 2, 3, 4}));
  ASSERT_EQ(reference.engine(0).green_count(), 26);  // 10 + a burst of 6 + 10
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(c.engine(n).green_count(), reference.engine(0).green_count()) << "node " << n;
    EXPECT_EQ(c.engine(n).db_digest(), reference.engine(0).db_digest()) << "node " << n;
  }
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST_F(RecoveryTest, VolatileTailIsInvisible) {
  storage_.append(encode_log_green(1, make_action(1, 1, db::Command::put("k", "durable"))));
  force_all();
  storage_.append(encode_log_green(2, make_action(1, 2, db::Command::put("k", "volatile"))));
  storage_.crash();  // the second record was never forced
  auto e = recover();
  EXPECT_EQ(e->green_count(), 1);
  EXPECT_EQ(e->database().get("k"), "durable");
}

}  // namespace
}  // namespace tordb::core
