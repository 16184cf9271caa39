// Cross-shard prepared-check transactions (src/txn; DESIGN.md §13):
// two-round commit/abort atomicity, no reserved-key residue, barrier-stamped
// snapshot reads, and coordinator-crash adoption before any confirm, with
// the commit partly issued, and between the post-commit cleanups.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs_enable.h"  // run every cluster under the online safety checker
#include "db/database.h"
#include "obs/metrics.h"
#include "txn/coordinator.h"
#include "workload/sharded_cluster.h"

namespace tordb::txn {
namespace {

using db::Command;
using workload::ShardedCluster;
using workload::ShardedClusterOptions;

std::int64_t as_num(const std::string& v) { return v.empty() ? 0 : std::stoll(v); }

class TxnTest : public ::testing::Test {
 protected:
  TxnTest() : TxnTest(0) {}
  explicit TxnTest(int halt_at_stage) : TxnTest(options(halt_at_stage)) {}
  explicit TxnTest(ShardedClusterOptions o) : c_(std::move(o)) {
    c_.run_for(seconds(2));  // both shards form their primary
  }

  static ShardedClusterOptions options(int halt_at_stage) {
    ShardedClusterOptions o;
    o.shards = 2;
    o.replicas_per_shard = 3;
    o.seed = 11;
    o.range_splits = {"m"};  // "a*" -> shard 0, "z*" -> shard 1
    o.txn_halt_at_stage = halt_at_stage;
    o.obs.check = true;
    return o;
  }

  std::string db_at(int shard, int idx, const std::string& key) {
    return c_.node(shard, idx).engine().database().get(key);
  }

  /// Reserved transaction keys (`__txn/`, `__txnp/`, `__txnd/`) surviving
  /// at any running replica — must be empty once everything resolved.
  std::vector<std::string> txn_residue() {
    std::vector<std::string> out;
    for (int s = 0; s < c_.shards(); ++s) {
      for (int i = 0; i < c_.replicas_per_shard(); ++i) {
        if (!c_.node(s, i).running()) continue;
        const auto& db = c_.node(s, i).engine().database();
        for (const auto& [key, value] : db.scan_prefix("__txn")) out.push_back(key);
      }
    }
    return out;
  }

  /// A checked cross-shard command: a trivially-true precondition at shard 0
  /// plus one update per shard — the router hands it to the coordinator.
  static Command checked_cross(const std::string& k0, const std::string& v0,
                               const std::string& k1, const std::string& v1) {
    Command cmd;
    cmd.ops.push_back(db::Op{db::OpType::kCheck, "a-flag", "", 0});
    cmd.ops.push_back(db::Op{db::OpType::kPut, k0, v0, 0});
    cmd.ops.push_back(db::Op{db::OpType::kPut, k1, v1, 0});
    return cmd;
  }

  ShardedCluster c_;
};

TEST_F(TxnTest, CommitAppliesAllSlicesAndCleansUp) {
  bool committed = false;
  int involved = 0;
  c_.router().submit(5, checked_cross("a-key", "va", "z-key", "vz"),
                     [&](const shard::RouteReply& r) {
                       committed = r.committed;
                       involved = r.shards_involved;
                     });
  c_.run_for(seconds(2));
  ASSERT_TRUE(committed);
  EXPECT_EQ(involved, 2);
  for (int idx = 0; idx < 3; ++idx) {
    EXPECT_EQ(db_at(0, idx, "a-key"), "va") << idx;
    EXPECT_EQ(db_at(1, idx, "z-key"), "vz") << idx;
    EXPECT_EQ(db_at(0, idx, "z-key"), "") << idx;  // only its slice
  }
  EXPECT_TRUE(c_.txn().idle());
  EXPECT_TRUE(txn_residue().empty());  // pending/intent/decision all erased
  EXPECT_EQ(c_.txn().stats().committed, 1u);
  EXPECT_EQ(c_.txn().stats().prepares, 2u);
  EXPECT_EQ(c_.txn().stats().confirms, 2u);
  EXPECT_EQ(c_.router().stats().txn_handoffs, 1u);
  ASSERT_NE(c_.checker(), nullptr);
  EXPECT_GE(c_.checker()->txn_prepared(), 2);
  EXPECT_EQ(c_.checker()->txn_unresolved(), 0);
  EXPECT_EQ(c_.check_all(), std::nullopt);
}

TEST_F(TxnTest, CheckAbortIsAtomicAndLeavesNoResidue) {
  // The shard-0 precondition is false: shard 1's prepared slice must be
  // cancelled, nothing applied anywhere, and no reserved keys survive.
  Command cmd;
  cmd.ops.push_back(db::Op{db::OpType::kCheck, "a-flag", "set", 0});
  cmd.ops.push_back(db::Op{db::OpType::kPut, "a-key", "va", 0});
  cmd.ops.push_back(db::Op{db::OpType::kPut, "z-key", "vz", 0});
  bool replied = false;
  shard::RouteReply reply;
  c_.router().submit(5, cmd, [&](const shard::RouteReply& r) {
    replied = true;
    reply = r;
  });
  c_.run_for(seconds(2));
  ASSERT_TRUE(replied);
  EXPECT_FALSE(reply.committed);
  EXPECT_TRUE(reply.check_aborted);
  for (int idx = 0; idx < 3; ++idx) {
    EXPECT_EQ(db_at(0, idx, "a-key"), "") << idx;
    EXPECT_EQ(db_at(1, idx, "z-key"), "") << idx;
  }
  EXPECT_TRUE(c_.txn().idle());
  EXPECT_TRUE(txn_residue().empty());
  EXPECT_EQ(c_.txn().stats().aborted_check, 1u);
  EXPECT_EQ(c_.txn().stats().committed, 0u);
  EXPECT_GE(c_.txn().stats().cancels, 1u);  // shard 1's stranded prepare
  EXPECT_EQ(c_.checker()->txn_unresolved(), 0);
  EXPECT_EQ(c_.check_all(), std::nullopt);
}

class TxnMetricsTest : public TxnTest {
 protected:
  TxnMetricsTest() : TxnTest(with_metrics()) {}

  static ShardedClusterOptions with_metrics() {
    ShardedClusterOptions o = options(0);
    o.obs.metrics_window = millis(500);
    return o;
  }

  /// Commit `n` checked cross-shard transactions, one after another.
  void commit(int n) {
    for (int i = 0; i < n; ++i) {
      bool committed = false;
      const std::string v = std::to_string(i);
      c_.router().submit(5, checked_cross("a-key", v, "z-key", v),
                         [&](const shard::RouteReply& r) { committed = r.committed; });
      c_.run_for(seconds(1));
      ASSERT_TRUE(committed) << i;
    }
  }
};

TEST_F(TxnMetricsTest, RegistryTotalsSumOverCoordinatorRestarts) {
  // A restarted coordinator's stats start at 0, and a registry total only
  // moves up: the `txn.*` totals must still count both incarnations, and
  // the windows after the restart must count the new one's work.
  obs::MetricsRegistry& m = *c_.metrics();
  commit(3);
  const TxnStats first = c_.txn().stats();
  ASSERT_EQ(first.committed, 3u);
  c_.sample_metrics();
  m.roll(c_.sim().now());
  const std::size_t windows_at_restart = m.windows().size();

  c_.restart_txn_coordinator();
  commit(2);
  const TxnStats second = c_.txn().stats();
  ASSERT_EQ(second.committed, 2u);
  c_.sample_metrics();
  EXPECT_EQ(m.counter("txn.committed").value(), first.committed + second.committed);
  EXPECT_EQ(m.counter("router.txn.prepares").value(), first.prepares + second.prepares);
  EXPECT_EQ(m.counter("router.txn.confirms").value(), first.confirms + second.confirms);

  m.roll(c_.sim().now());
  std::uint64_t committed_since_restart = 0;
  for (std::size_t w = windows_at_restart; w < m.windows().size(); ++w) {
    const auto& deltas = m.windows()[w].counter_deltas;
    const auto it = deltas.find("txn.committed");
    if (it != deltas.end()) committed_since_restart += it->second;
  }
  EXPECT_EQ(committed_since_restart, second.committed);
  EXPECT_EQ(c_.check_all(), std::nullopt);
}

TEST_F(TxnTest, SnapshotReadPinsAConsistentCut) {
  // Checked transfers conserve a-acct + z-acct == 1000; a snapshot read
  // issued mid-stream must observe exactly that sum — never a transfer's
  // debit without its credit.
  bool seeded = false;
  c_.router().submit(1, Command::add("a-acct", 1000),
                     [&](const shard::RouteReply& r) { seeded = r.committed; });
  c_.run_for(millis(300));
  ASSERT_TRUE(seeded);

  int committed = 0;
  auto transfer = [&] {
    Command cmd;
    cmd.ops.push_back(db::Op{db::OpType::kCheck, "a-flag", "", 0});
    cmd.ops.push_back(db::Op{db::OpType::kAdd, "a-acct", "", -5});
    cmd.ops.push_back(db::Op{db::OpType::kAdd, "z-acct", "", 5});
    c_.router().submit(2, std::move(cmd), [&](const shard::RouteReply& r) {
      if (r.committed) ++committed;
    });
  };
  for (int i = 0; i < 10; ++i) transfer();
  c_.sim().after(millis(50), [&] {
    for (int i = 0; i < 10; ++i) transfer();
  });

  SnapshotReadReply snap;
  bool snapped = false;
  c_.sim().after(millis(80), [&] {
    Command q;
    q.ops.push_back(db::Op{db::OpType::kGet, "a-acct", "", 0});
    q.ops.push_back(db::Op{db::OpType::kGet, "z-acct", "", 0});
    c_.txn().snapshot_read(std::move(q), [&](const SnapshotReadReply& r) {
      snapped = true;
      snap = r;
    });
  });
  c_.run_for(seconds(5));

  ASSERT_TRUE(snapped);
  ASSERT_TRUE(snap.ok);
  ASSERT_EQ(snap.reads.size(), 2u);
  EXPECT_EQ(snap.watermarks.size(), 2u);
  EXPECT_EQ(as_num(snap.reads[0]) + as_num(snap.reads[1]), 1000);
  EXPECT_GE(snap.drain_wait, 0);

  EXPECT_EQ(committed, 20);
  EXPECT_TRUE(c_.txn().idle());
  for (int idx = 0; idx < 3; ++idx) {
    EXPECT_EQ(db_at(0, idx, "a-acct"), "900") << idx;
    EXPECT_EQ(db_at(1, idx, "z-acct"), "100") << idx;
  }
  EXPECT_TRUE(txn_residue().empty());
  EXPECT_EQ(c_.txn().stats().snapshot_reads, 1u);
  EXPECT_EQ(c_.check_all(), std::nullopt);
}

TEST_F(TxnTest, SnapshotReadRejectsNonGetQueries) {
  Command q;
  q.ops.push_back(db::Op{db::OpType::kGet, "a-acct", "", 0});
  q.ops.push_back(db::Op{db::OpType::kPut, "a-key", "v", 0});
  bool replied = false, ok = true;
  c_.txn().snapshot_read(std::move(q), [&](const SnapshotReadReply& r) {
    replied = true;
    ok = r.ok;
  });
  c_.run_for(millis(200));
  EXPECT_TRUE(replied);
  EXPECT_FALSE(ok);
  EXPECT_EQ(c_.txn().stats().snapshot_reads, 0u);
}

// Coordinator crash modelling: halt_at_stage freezes every transaction at a
// protocol stage; the test then builds a replacement coordinator (fresh
// session epoch) and drives adopt_orphans().
class TxnAdoptionTest : public TxnTest {
 protected:
  explicit TxnAdoptionTest(int stage) : TxnTest(stage), stage_(stage) {}

  /// Submit one passing checked cross-shard transaction; the halted
  /// coordinator never replies. Stage 1 froze before any confirm, so both
  /// updates sit buffered in reserved cells; stage 2 froze once the home
  /// confirm was green, so only shard 0's slice is applied.
  void submit_frozen() {
    c_.router().submit(5, checked_cross("a-key", "va", "z-key", "vz"),
                       [&](const shard::RouteReply&) { replied_ = true; });
    c_.run_for(seconds(2));
    EXPECT_FALSE(replied_);
    EXPECT_EQ(db_at(0, 0, "a-key"), stage_ == 2 ? "va" : "");
    EXPECT_EQ(db_at(1, 0, "z-key"), "");
    EXPECT_FALSE(txn_residue().empty());
  }

  /// Crash + replace the coordinator, adopt, and require the transaction to
  /// resolve as a commit: updates applied everywhere, no residue.
  void adopt_and_expect_commit() {
    c_.restart_txn_coordinator();
    int adopted = -1;
    c_.txn().adopt_orphans([&](int n) { adopted = n; });
    c_.run_for(seconds(4));
    EXPECT_EQ(adopted, 1);
    EXPECT_TRUE(c_.txn().idle());
    for (int idx = 0; idx < 3; ++idx) {
      EXPECT_EQ(db_at(0, idx, "a-key"), "va") << idx;
      EXPECT_EQ(db_at(1, idx, "z-key"), "vz") << idx;
    }
    EXPECT_TRUE(txn_residue().empty());
    EXPECT_EQ(c_.txn().stats().adopted_confirmed, 1u);
    EXPECT_EQ(c_.txn().stats().adopted_cancelled, 0u);
    EXPECT_EQ(c_.checker()->txn_unresolved(), 0);
    EXPECT_EQ(c_.check_all(), std::nullopt);
  }

  const int stage_;
  bool replied_ = false;
};

class TxnAdoptionBeforeDecision : public TxnAdoptionTest {
 protected:
  TxnAdoptionBeforeDecision() : TxnAdoptionTest(1) {}
};

TEST_F(TxnAdoptionBeforeDecision, AllPendingsSurviveSoAdoptionCommits) {
  // Crash after every shard voted yes but before the decision record: all
  // involved shards still hold their pendings, so the adopter must commit
  // (no decision against the transaction can exist).
  submit_frozen();
  adopt_and_expect_commit();
}

TEST_F(TxnAdoptionBeforeDecision, AbortedHomePrepareLeavesOrphanThatCancels) {
  // The home shard's check fails, so its prepare (and the piggybacked
  // intent) aborted; shard 1's pending is an orphan the adopter cancels.
  Command cmd;
  cmd.ops.push_back(db::Op{db::OpType::kCheck, "a-flag", "set", 0});
  cmd.ops.push_back(db::Op{db::OpType::kPut, "a-key", "va", 0});
  cmd.ops.push_back(db::Op{db::OpType::kPut, "z-key", "vz", 0});
  c_.router().submit(5, cmd, [&](const shard::RouteReply&) { replied_ = true; });
  c_.run_for(seconds(2));
  EXPECT_FALSE(replied_);  // halted after the votes, before the cancels
  EXPECT_FALSE(txn_residue().empty());

  c_.restart_txn_coordinator();
  int adopted = -1;
  c_.txn().adopt_orphans([&](int n) { adopted = n; });
  c_.run_for(seconds(4));
  EXPECT_EQ(adopted, 1);
  EXPECT_TRUE(c_.txn().idle());
  for (int idx = 0; idx < 3; ++idx) {
    EXPECT_EQ(db_at(0, idx, "a-key"), "") << idx;
    EXPECT_EQ(db_at(1, idx, "z-key"), "") << idx;
  }
  EXPECT_TRUE(txn_residue().empty());
  EXPECT_EQ(c_.txn().stats().adopted_cancelled, 1u);
  EXPECT_EQ(c_.txn().stats().adopted_confirmed, 0u);
  EXPECT_EQ(c_.checker()->txn_unresolved(), 0);
  EXPECT_EQ(c_.check_all(), std::nullopt);
}

TEST_F(TxnAdoptionBeforeDecision, FailedNonHomeCheckCancelsHomePendingAndIntent) {
  // Shard 1's check fails, so only the home shard prepared: the intent
  // survives beside one pending of two, no decision exists, and the adopter
  // must cancel the home pending and retire the intent with it.
  Command cmd;
  cmd.ops.push_back(db::Op{db::OpType::kCheck, "z-flag", "set", 0});
  cmd.ops.push_back(db::Op{db::OpType::kPut, "a-key", "va", 0});
  cmd.ops.push_back(db::Op{db::OpType::kPut, "z-key", "vz", 0});
  c_.router().submit(5, cmd, [&](const shard::RouteReply&) { replied_ = true; });
  c_.run_for(seconds(2));
  EXPECT_FALSE(replied_);
  EXPECT_FALSE(c_.node(0, 0).engine().database().scan_prefix("__txn/").empty());

  c_.restart_txn_coordinator();
  int adopted = -1;
  c_.txn().adopt_orphans([&](int n) { adopted = n; });
  c_.run_for(seconds(4));
  EXPECT_EQ(adopted, 1);
  EXPECT_TRUE(c_.txn().idle());
  for (int idx = 0; idx < 3; ++idx) {
    EXPECT_EQ(db_at(0, idx, "a-key"), "") << idx;
    EXPECT_EQ(db_at(1, idx, "z-key"), "") << idx;
  }
  EXPECT_TRUE(txn_residue().empty());
  EXPECT_EQ(c_.txn().stats().adopted_cancelled, 1u);
  EXPECT_EQ(c_.txn().stats().adopted_confirmed, 0u);
  EXPECT_EQ(c_.checker()->txn_unresolved(), 0);
  EXPECT_EQ(c_.check_all(), std::nullopt);
}

class TxnAdoptionMidCommit : public TxnAdoptionTest {
 protected:
  TxnAdoptionMidCommit() : TxnAdoptionTest(2) {}
};

TEST_F(TxnAdoptionMidCommit, StampedConfirmDrivesAdoptionToCommit) {
  // Crash once the home confirm, and with it the home shard's `__txnd/`
  // stamp, went green but before the remote confirm was sent: the stamp is
  // the durable decision, and the adopter must finish the commit.
  submit_frozen();
  adopt_and_expect_commit();
}

TEST_F(TxnAdoptionMidCommit, AdopterCommitsWhileTheRemoteStillHoldsItsPending) {
  // The state the stamp exists for: the home pending is consumed (its slice
  // applied), the remote pending is intact, and no decision record was ever
  // written on its own. "Every pending intact" no longer holds, so only the
  // stamp riding the home confirm tells the adopter the transaction
  // committed; without it the adopter would cancel the remote slice and
  // leave the transaction half applied.
  submit_frozen();
  const std::string pend = TxnCoordinator::pending_key(5, 1);
  const std::string dec = TxnCoordinator::decision_key(5, 1);
  for (int idx = 0; idx < 3; ++idx) {
    EXPECT_EQ(db_at(0, idx, pend), "") << idx;
    EXPECT_EQ(db_at(0, idx, dec), "C") << idx;
    EXPECT_NE(db_at(0, idx, TxnCoordinator::intent_key(5, 1)), "") << idx;
    EXPECT_NE(db_at(1, idx, pend), "") << idx;
    EXPECT_EQ(db_at(1, idx, dec), "") << idx;
  }
  ASSERT_NE(c_.checker(), nullptr);
  EXPECT_EQ(c_.checker()->txn_unresolved(), 1);  // shard 1's prepare
  adopt_and_expect_commit();
  EXPECT_EQ(c_.txn().stats().confirms, 2u);  // both re-sent; the home one is a no-op
}

TEST_F(TxnAdoptionMidCommit, ConfirmFencedByAMoveIsReroutedToTheNewOwner) {
  // The commit is decided, then z-key's range moves to shard 0 before the
  // adopter runs. Shard 1's pending stays behind (reserved cells never
  // travel), so its confirm is fenced: the adopter cancels it, stamping the
  // cancel, and re-drives the buffered slice through the router to the
  // range's new owner.
  submit_frozen();
  bool moved = false;
  ASSERT_TRUE(c_.move_range("m", "", 0, [&](const shard::MoveReport& r) { moved = r.ok; }));
  c_.run_for(seconds(2));
  ASSERT_TRUE(moved);

  c_.restart_txn_coordinator();
  int adopted = -1;
  c_.txn().adopt_orphans([&](int n) { adopted = n; });
  c_.run_for(seconds(4));
  EXPECT_EQ(adopted, 1);
  EXPECT_TRUE(c_.txn().idle());
  for (int idx = 0; idx < 3; ++idx) {
    EXPECT_EQ(db_at(0, idx, "a-key"), "va") << idx;
    EXPECT_EQ(db_at(0, idx, "z-key"), "vz") << idx;  // the range's new owner
  }
  EXPECT_TRUE(txn_residue().empty());
  EXPECT_EQ(c_.txn().stats().confirm_rerouted, 1u);
  EXPECT_EQ(c_.txn().stats().adopted_confirmed, 1u);
  EXPECT_EQ(c_.txn().stats().adopted_cancelled, 0u);
  EXPECT_EQ(c_.checker()->txn_unresolved(), 0);
  EXPECT_EQ(c_.check_all(), std::nullopt);
}

TEST_F(TxnAdoptionMidCommit, AdoptionIsIdempotentAcrossASecondCrash) {
  // The replacement coordinator adopts, commits, and a SECOND replacement
  // adopts again over the clean state: nothing to do, nothing disturbed.
  submit_frozen();
  adopt_and_expect_commit();
  c_.restart_txn_coordinator();
  int adopted = -1;
  c_.txn().adopt_orphans([&](int n) { adopted = n; });
  c_.run_for(seconds(2));
  EXPECT_EQ(adopted, 0);
  for (int idx = 0; idx < 3; ++idx) {
    EXPECT_EQ(db_at(0, idx, "a-key"), "va") << idx;
    EXPECT_EQ(db_at(1, idx, "z-key"), "vz") << idx;
  }
  EXPECT_TRUE(txn_residue().empty());
  EXPECT_EQ(c_.check_all(), std::nullopt);
}

TEST_F(TxnTest, CrashBetweenThePerShardCleanupsLeavesNoResidueAfterAdoption) {
  // The commit replied; its cleanups went out, one per shard. Shard 1's
  // replica holding the cleanup crashes before forcing it, and the
  // coordinator dies before its session fails over: shard 0 retired the
  // intent and its stamp, shard 1's stamp survives with no intent. The
  // adopter has nothing to commit or cancel, but must retire that stamp.
  std::vector<std::uint64_t> created(3);
  for (int idx = 0; idx < 3; ++idx) {
    created[static_cast<std::size_t>(idx)] = c_.node(1, idx).engine().stats().actions_created;
  }
  bool committed = false;
  c_.router().submit(5, checked_cross("a-key", "va", "z-key", "vz"),
                     [&](const shard::RouteReply& r) {
                       committed = r.committed;
                       // The shard-1 session sent prepare, confirm and now
                       // the cleanup to one replica: crash it while the
                       // cleanup is unforced. The coordinator dies once
                       // both cleanups reached their replicas, before the
                       // crash signal (detect_delay, 1 ms) moves the session.
                       for (int idx = 0; idx < 3; ++idx) {
                         if (c_.node(1, idx).engine().stats().actions_created >
                             created[static_cast<std::size_t>(idx)]) {
                           c_.crash(1, idx);
                         }
                       }
                       c_.sim().after(micros(500), [&] { c_.restart_txn_coordinator(); });
                     });
  c_.run_for(seconds(2));
  ASSERT_TRUE(committed);
  for (int idx = 0; idx < 3; ++idx) c_.recover(1, idx);
  c_.run_for(seconds(3));
  const std::string dec = TxnCoordinator::decision_key(5, 1);
  EXPECT_EQ(txn_residue(), std::vector<std::string>(3, dec));

  int adopted = -1;
  c_.txn().adopt_orphans([&](int n) { adopted = n; });
  c_.run_for(seconds(2));
  EXPECT_EQ(adopted, 0);
  EXPECT_TRUE(c_.txn().idle());
  EXPECT_TRUE(txn_residue().empty());
  for (int idx = 0; idx < 3; ++idx) {
    EXPECT_EQ(db_at(0, idx, "a-key"), "va") << idx;
    EXPECT_EQ(db_at(1, idx, "z-key"), "vz") << idx;
  }
  EXPECT_EQ(c_.checker()->txn_unresolved(), 0);
  EXPECT_EQ(c_.check_all(), std::nullopt);
}

}  // namespace
}  // namespace tordb::txn
