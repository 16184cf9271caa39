// Client sessions: exactly-once update semantics with replica fail-over.
#include <gtest/gtest.h>

#include <memory>

#include "obs_enable.h"  // run every cluster under the online safety checker
#include "core/client_session.h"
#include "db/database.h"
#include "workload/cluster.h"

namespace tordb::core {
namespace {

using db::Command;
using workload::ClusterOptions;
using workload::EngineCluster;

class SessionTest : public ::testing::Test {
 protected:
  SessionTest() : c_(options()) {
    c_.run_for(seconds(1));
    for (NodeId i = 0; i < 4; ++i) nodes_.push_back(&c_.node(i));
  }

  static ClusterOptions options() {
    ClusterOptions o;
    o.replicas = 4;
    o.seed = 1;
    return o;
  }

  ClientSession make_session(std::int64_t client_id, SessionOptions o = {}) {
    return ClientSession(c_.sim(), nodes_, client_id, o);
  }

  struct Outcome {
    SimTime submitted = 0;
    SimTime done = -1;  ///< reply time; -1 until the reply arrives
    bool committed = false;
  };
  /// Submit `cmd` and record when its reply arrives.
  std::shared_ptr<Outcome> submit_timed(ClientSession& s, Command cmd) {
    auto out = std::make_shared<Outcome>();
    out->submitted = c_.sim().now();
    s.submit(std::move(cmd), [this, out](const SessionReply& r) {
      out->done = c_.sim().now();
      out->committed = r.committed;
    });
    return out;
  }

  EngineCluster c_;
  std::vector<ReplicaNode*> nodes_;
};

TEST_F(SessionTest, CommitsAndApplies) {
  ClientSession s = make_session(1);
  bool committed = false;
  s.submit(Command::add("n", 1), [&](const SessionReply& r) { committed = r.committed; });
  c_.run_for(millis(300));
  EXPECT_TRUE(committed);
  EXPECT_EQ(c_.engine(2).database().get("n"), "1");
  EXPECT_EQ(s.stats().committed, 1u);
}

TEST_F(SessionTest, RequestsExecuteInSessionOrder) {
  ClientSession s = make_session(1);
  for (int i = 0; i < 5; ++i) s.submit(Command::append("log", std::to_string(i)));
  c_.run_for(seconds(1));
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(c_.engine(0).database().get("log"), "01234");
}

TEST_F(SessionTest, GenuineAbortReported) {
  ClientSession s = make_session(1);
  bool committed = true;
  s.submit(Command::checked_put("missing", "not-this", "x"),
           [&](const SessionReply& r) { committed = r.committed; });
  c_.run_for(millis(300));
  EXPECT_FALSE(committed);
  EXPECT_EQ(s.stats().aborted, 1u);
  // The session chain continues past an abort.
  bool second = false;
  s.submit(Command::add("n", 1), [&](const SessionReply& r) { second = r.committed; });
  c_.run_for(millis(300));
  EXPECT_TRUE(second);
  EXPECT_EQ(c_.engine(1).database().get("n"), "1");
}

TEST_F(SessionTest, CrashFailoverAppliesExactlyOnce) {
  // Crash the serving replica after the action may have been ordered but
  // before the client heard back: the session must fail over and the update
  // must land exactly once, regardless of whether the first attempt made it.
  ClientSession s = make_session(7);
  bool committed = false;
  int attempts = 0;
  s.submit(Command::add("balance", 100), [&](const SessionReply& r) {
    committed = r.committed;
    attempts = r.attempts;
  });
  c_.run_for(millis(9) + micros(200));  // forced write done; ordering in flight
  c_.crash(0);
  c_.run_for(seconds(3));
  EXPECT_TRUE(committed);
  EXPECT_GE(attempts, 2);
  EXPECT_EQ(c_.engine(1).database().get("balance"), "100");
  EXPECT_EQ(c_.engine(2).database().get("balance"), "100");
  EXPECT_EQ(c_.check_all(), std::nullopt);
}

TEST_F(SessionTest, ManyCrashFailoversStillExactlyOnce) {
  ClientSession s = make_session(7);
  int committed = 0;
  for (int i = 0; i < 6; ++i) {
    s.submit(Command::add("balance", 1), [&](const SessionReply& r) {
      if (r.committed) ++committed;
    });
  }
  // Crash/recover the first replica twice while the session works.
  c_.run_for(millis(15));
  c_.crash(0);
  c_.run_for(seconds(2));
  c_.recover(0);
  c_.run_for(millis(40));
  c_.crash(1);
  c_.run_for(seconds(2));
  c_.recover(1);
  c_.run_for(seconds(3));
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(committed, 6);
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_EQ(c_.engine(i).database().get("balance"), "6") << "node " << i;
  }
  EXPECT_EQ(c_.check_all(), std::nullopt);
}

TEST_F(SessionTest, PartitionFailoverToMajority) {
  // The session's replica lands in a minority; the request cannot commit
  // there, so the session sends it to a majority member instead, without
  // waiting for the retry timer.
  ClientSession s = make_session(3);
  c_.partition({{0}, {1, 2, 3}});
  c_.run_for(millis(500));
  bool committed = false;
  const SimTime submitted = c_.sim().now();
  SimTime done = -1;
  s.submit(Command::put("k", "v"), [&](const SessionReply& r) {
    committed = r.committed;
    done = c_.sim().now();
  });
  c_.run_for(seconds(3));
  EXPECT_TRUE(committed);
  EXPECT_GE(s.stats().failovers, 1u);
  EXPECT_LT(done - submitted, millis(200));  // before the 800 ms timer
  EXPECT_EQ(c_.engine(1).database().get("k"), "v");
}

TEST_F(SessionTest, MinorityPartitionMidRequestFailsOverBeforeTheTimer) {
  // The partition cuts the session's replica off while the request is in
  // flight there. Its engine entering NonPrim moves the session to the
  // majority at once; the original stays red in the minority and aborts on
  // the session guard after the heal.
  ClientSession s = make_session(5);
  auto out = submit_timed(s, Command::add("n", 1));
  c_.run_for(millis(1));
  c_.partition({{0}, {1, 2, 3}});
  c_.run_for(seconds(1));
  EXPECT_TRUE(out->committed);
  EXPECT_LT(out->done - out->submitted, millis(200));
  EXPECT_GE(s.stats().failovers, 1u);
  EXPECT_EQ(s.stats().timeouts, 0u);
  c_.heal();
  c_.run_for(seconds(2));
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_EQ(c_.engine(i).database().get("n"), "1") << "node " << i;
  }
  EXPECT_EQ(c_.check_all(), std::nullopt);
}

TEST_F(SessionTest, CrashFailoverCommitsWithinDetectionPlusOneExchange) {
  // The crash is the session's lost connection: it fails over one
  // detect_delay later and the request commits as soon as the survivors
  // have installed their new primary — exactly once.
  ClientSession s = make_session(7);
  auto out = submit_timed(s, Command::add("balance", 100));
  c_.run_for(millis(9) + micros(200));  // forced write done; ordering in flight
  const SimTime crashed = c_.sim().now();
  c_.crash(0);
  c_.run_for(seconds(1));
  EXPECT_TRUE(out->committed);
  // Detection (1 ms) plus one view change and exchange: ~25 ms here.
  EXPECT_LT(out->done - crashed, millis(100));
  EXPECT_EQ(s.stats().timeouts, 0u);
  c_.recover(0);
  c_.run_for(seconds(2));
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_EQ(c_.engine(i).database().get("balance"), "100") << "node " << i;
  }
  EXPECT_EQ(c_.check_all(), std::nullopt);
}

TEST_F(SessionTest, QuorumLossOutlastingTheAttemptBudgetCommitsOnceAfterHeal) {
  // No component has a quorum, and connectivity keeps changing: every view
  // change puts the engines through an exchange that ends in NonPrim, so
  // the session's watch fires over and over. Signals must not consume the
  // attempt budget (20), or the request would abort long before the heal.
  // Two halves of the last primary: ties lose, so neither side has quorum.
  ClientSession s = make_session(9);
  c_.partition({{0, 1}, {2, 3}});
  c_.run_for(millis(200));
  auto out = submit_timed(s, Command::add("n", 1));
  for (int flap = 0; flap < 30; ++flap) {
    if (flap % 2 == 0) {
      c_.partition({{0, 2}, {1, 3}});
    } else {
      c_.partition({{0, 1}, {2, 3}});
    }
    c_.run_for(millis(100));
  }
  EXPECT_EQ(out->done, -1);  // still pending: no quorum anywhere
  c_.heal();
  c_.run_for(seconds(2));
  EXPECT_TRUE(out->committed);
  EXPECT_EQ(s.stats().aborted, 0u);
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_EQ(c_.engine(i).database().get("n"), "1") << "node " << i;
  }
  EXPECT_EQ(c_.check_all(), std::nullopt);
}

TEST_F(SessionTest, WaitForAWhollyCrashedGroupEndsAtRecovery) {
  // Every replica is down at submit: with retry_when_unavailable the
  // session waits, and a recovery wakes it instead of the next
  // kRetryTimeout tick.
  SessionOptions o;
  o.retry_when_unavailable = true;
  ClientSession s = make_session(11, o);
  for (NodeId i = 0; i < 4; ++i) c_.crash(i);
  c_.run_for(millis(10));
  auto out = submit_timed(s, Command::add("n", 1));
  c_.run_for(millis(100));
  const SimTime recovered = c_.sim().now();
  for (NodeId i = 0; i < 4; ++i) c_.recover(i);
  c_.run_for(seconds(1));
  EXPECT_TRUE(out->committed);
  // Detection plus the recovered group's first exchange, not the 800 ms
  // timer.
  EXPECT_LT(out->done - recovered, millis(100));
  EXPECT_EQ(s.stats().timeouts, 0u);
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_EQ(c_.engine(i).database().get("n"), "1") << "node " << i;
  }
  EXPECT_EQ(c_.check_all(), std::nullopt);
}

TEST_F(SessionTest, InterleavedSessionsDoNotInterfere) {
  ClientSession a = make_session(1);
  ClientSession b = make_session(2);
  for (int i = 0; i < 10; ++i) {
    a.submit(Command::add("a", 1));
    b.submit(Command::add("b", 1));
  }
  c_.run_for(seconds(2));
  EXPECT_EQ(c_.engine(0).database().get("a"), "10");
  EXPECT_EQ(c_.engine(0).database().get("b"), "10");
  EXPECT_EQ(a.stats().committed, 10u);
  EXPECT_EQ(b.stats().committed, 10u);
}

TEST_F(SessionTest, GuardKeyIsReserved) {
  EXPECT_EQ(ClientSession::guard_key(42), "__session/42");
  ClientSession s = make_session(42);
  s.submit(Command::add("n", 1));
  c_.run_for(millis(300));
  EXPECT_EQ(c_.engine(0).database().get("__session/42"), "1");  // seq tracker
}

}  // namespace
}  // namespace tordb::core
