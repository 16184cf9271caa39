// Unit tests for the ActionLog subsystem (the engine's colored-action
// history), plus an engine-level determinism check that batched
// persist+multicast leaves replicated state bit-identical to per-action
// operation.
#include "core/action_log.h"

#include <gtest/gtest.h>

#include "db/database.h"
#include "util/rng.h"
#include "workload/cluster.h"

namespace tordb::core {
namespace {

ActionRef mk(NodeId creator, std::int64_t index) {
  Action a;
  a.type = ActionType::kUpdate;
  a.id = ActionId{creator, index};
  a.update = db::Command::add("k" + std::to_string(index), index);
  return std::make_shared<const Action>(std::move(a));
}

TEST(ActionLog, RedThenGreenPromotion) {
  ActionLog log;
  const auto newly = log.mark_red(mk(1, 1));
  ASSERT_EQ(newly.size(), 1u);
  EXPECT_EQ(newly[0]->id, (ActionId{1, 1}));
  EXPECT_EQ(log.red_cut(1), 1);
  EXPECT_EQ(log.green_red_cut(1), 0);
  EXPECT_EQ(log.red_count(), 1u);
  EXPECT_FALSE(log.is_green(ActionId{1, 1}));

  const auto res = log.mark_green(mk(1, 1));
  EXPECT_TRUE(res.newly_red.empty());  // already red
  EXPECT_EQ(res.position, 1);
  EXPECT_EQ(log.green_count(), 1);
  EXPECT_EQ(log.green_red_cut(1), 1);
  EXPECT_EQ(log.red_count(), 0u);
  EXPECT_TRUE(log.is_green(ActionId{1, 1}));
  EXPECT_EQ(log.position_of(ActionId{1, 1}), 1);
  EXPECT_EQ(log.green_action_at(1), (ActionId{1, 1}));

  // Marking green again is a duplicate: no new position.
  EXPECT_EQ(log.mark_green(mk(1, 1)).position, 0);
  EXPECT_EQ(log.green_count(), 1);
}

TEST(ActionLog, OutOfOrderRetransmissionsParkUntilGapFills) {
  ActionLog log;
  // Exchange-phase retransmissions may arrive ahead of their creator-FIFO
  // predecessors; they must wait in the retransmission buffer.
  EXPECT_TRUE(log.mark_red(mk(1, 2)).empty());
  EXPECT_TRUE(log.mark_red(mk(1, 3)).empty());
  EXPECT_EQ(log.red_cut(1), 0);
  EXPECT_EQ(log.waiting_count(), 2u);
  EXPECT_EQ(log.red_count(), 0u);

  // The gap-filler drains the parked chain in index order.
  const auto newly = log.mark_red(mk(1, 1));
  ASSERT_EQ(newly.size(), 3u);
  EXPECT_EQ(newly[0]->id, (ActionId{1, 1}));
  EXPECT_EQ(newly[1]->id, (ActionId{1, 2}));
  EXPECT_EQ(newly[2]->id, (ActionId{1, 3}));
  EXPECT_EQ(log.red_cut(1), 3);
  EXPECT_EQ(log.waiting_count(), 0u);
  EXPECT_EQ(log.red_count(), 3u);

  // Duplicates of already-ordered actions are ignored.
  EXPECT_TRUE(log.mark_red(mk(1, 2)).empty());
  EXPECT_EQ(log.red_cut(1), 3);
}

TEST(ActionLog, GreenCoverageMayRunAheadOfRedCut) {
  ActionLog log;
  // A green retransmission for {1,5} can arrive while the local red chain
  // is still incomplete; green coverage then exceeds the red cut and the
  // pending-red set stays empty (nothing is red-but-not-green).
  const auto res = log.mark_green(mk(1, 5));
  EXPECT_EQ(res.position, 1);
  EXPECT_TRUE(log.is_green(ActionId{1, 5}));
  EXPECT_EQ(log.green_red_cut(1), 5);
  EXPECT_EQ(log.red_cut(1), 0);
  EXPECT_EQ(log.red_count(), 0u);
  EXPECT_NE(log.body_of(ActionId{1, 5}), nullptr);
}

TEST(ActionLog, PerCreatorCutsAndPendingReds) {
  ActionLog log;
  for (std::int64_t i = 1; i <= 3; ++i) log.mark_red(mk(1, i));
  for (std::int64_t i = 1; i <= 2; ++i) log.mark_red(mk(2, i));
  log.mark_green(mk(1, 1));
  log.mark_green(mk(2, 1));

  EXPECT_EQ(log.red_count(), 3u);
  const auto pending = log.pending_red_ids();
  ASSERT_EQ(pending.size(), 3u);
  EXPECT_EQ(pending[0], (ActionId{1, 2}));
  EXPECT_EQ(pending[1], (ActionId{1, 3}));
  EXPECT_EQ(pending[2], (ActionId{2, 2}));

  std::vector<ActionId> seen;
  log.for_each_pending_red([&](const Action& a) { seen.push_back(a.id); });
  EXPECT_EQ(seen, pending);

  using Pairs = std::vector<std::pair<NodeId, std::int64_t>>;
  EXPECT_EQ(log.red_cut_pairs(), (Pairs{{1, 3}, {2, 2}}));
  EXPECT_EQ(log.green_red_cut_pairs(), (Pairs{{1, 1}, {2, 1}}));
}

// Satellite regression: positions at or below the white line and beyond
// the green count must resolve to kNoNode / nullptr, never touch freed
// storage.
TEST(ActionLog, WhiteTrimBoundsHardened) {
  ActionLog log;
  for (std::int64_t i = 1; i <= 5; ++i) log.mark_green(mk(1, i));
  ASSERT_EQ(log.green_count(), 5);

  EXPECT_EQ(log.trim_white_to(3), 3u);
  EXPECT_EQ(log.white_count(), 3);
  EXPECT_EQ(log.green_count(), 5);

  // Probing the trimmed prefix.
  for (std::int64_t pos : {-1, 0, 1, 2, 3}) {
    EXPECT_EQ(log.green_action_at(pos).server_id, kNoNode) << "pos " << pos;
    EXPECT_EQ(log.green_body_at(pos), nullptr) << "pos " << pos;
  }
  // Probing beyond the green count.
  for (std::int64_t pos : {6, 7, 100}) {
    EXPECT_EQ(log.green_action_at(pos).server_id, kNoNode) << "pos " << pos;
    EXPECT_EQ(log.green_body_at(pos), nullptr) << "pos " << pos;
  }
  // The untrimmed tail still resolves.
  EXPECT_EQ(log.green_action_at(4), (ActionId{1, 4}));
  ASSERT_NE(log.green_body_at(5), nullptr);
  EXPECT_EQ(log.green_body_at(5)->id, (ActionId{1, 5}));

  // Trimmed bodies are released; position lookups of trimmed ids miss.
  EXPECT_EQ(log.body_of(ActionId{1, 2}), nullptr);
  EXPECT_EQ(log.position_of(ActionId{1, 2}), 0);
  EXPECT_EQ(log.stored_bodies(), 2u);

  // A trim line behind the current one is a no-op.
  EXPECT_EQ(log.trim_white_to(2), 0u);
  EXPECT_EQ(log.white_count(), 3);
}

TEST(ActionLog, TrimSurvivesInternalCompaction) {
  ActionLog log;
  const std::int64_t n = 300;
  for (std::int64_t i = 1; i <= n; ++i) log.mark_green(mk(1, i));
  // Trim in steps so the contiguous green vector compacts its dead prefix
  // at least once; indexing must stay position-correct throughout.
  for (std::int64_t line = 50; line <= 250; line += 50) {
    log.trim_white_to(line);
    EXPECT_EQ(log.green_action_at(line).server_id, kNoNode);
    EXPECT_EQ(log.green_action_at(line + 1), (ActionId{1, line + 1}));
    EXPECT_EQ(log.green_action_at(n), (ActionId{1, n}));
  }
  EXPECT_EQ(log.white_count(), 250);
  EXPECT_EQ(log.stored_bodies(), 50u);
}

TEST(ActionLog, AdoptGreenPrefixReleasesCoveredBodies) {
  ActionLog log;
  for (std::int64_t i = 1; i <= 4; ++i) log.mark_red(mk(1, i));
  ASSERT_EQ(log.red_count(), 4u);

  // A §5.2 snapshot covers creator 1 up to index 2 inside a 10-green
  // prefix; the covered reds become (trimmed) green, the rest stay pending.
  log.adopt_green_prefix(10, {{1, 2}});
  EXPECT_EQ(log.green_count(), 10);
  EXPECT_EQ(log.white_count(), 10);
  EXPECT_TRUE(log.is_green(ActionId{1, 2}));
  EXPECT_EQ(log.body_of(ActionId{1, 1}), nullptr);
  EXPECT_EQ(log.green_action_at(5).server_id, kNoNode);  // adopted: no ids
  EXPECT_EQ(log.pending_red_ids(), (std::vector<ActionId>{{1, 3}, {1, 4}}));
  EXPECT_NE(log.body_of(ActionId{1, 3}), nullptr);
}

TEST(ActionLog, ResetAndReplayFromRecovery) {
  ActionLog log;
  log.mark_red(mk(9, 1));
  log.reset(7, {{1, 7}});
  EXPECT_EQ(log.green_count(), 7);
  EXPECT_EQ(log.white_count(), 7);
  EXPECT_EQ(log.red_cut(1), 7);
  EXPECT_EQ(log.green_red_cut(1), 7);
  EXPECT_EQ(log.red_count(), 0u);
  EXPECT_EQ(log.stored_bodies(), 0u);

  // Replay accepts only the exact next position.
  EXPECT_FALSE(log.replay_green(7, mk(1, 7)));
  EXPECT_FALSE(log.replay_green(9, mk(2, 1)));
  EXPECT_TRUE(log.replay_green(8, mk(1, 8)));
  EXPECT_EQ(log.green_count(), 8);
  EXPECT_EQ(log.green_action_at(8), (ActionId{1, 8}));
  EXPECT_TRUE(log.is_green(ActionId{1, 8}));
}

// --- exact body accounting --------------------------------------------------
//
// stored_bodies() and body_bytes() feed the gc.bodies.* gauges and the
// simulated core.peak_body_kb metric, so every path that stores, moves or
// drops a body must keep them exact, not merely bounded.

std::int64_t wsize(NodeId creator, std::int64_t index) {
  return static_cast<std::int64_t>(mk(creator, index)->wire_size());
}

TEST(ActionLogBodies, RedThenGreenThenTrim) {
  ActionLog log;
  log.mark_red(mk(1, 1));
  log.mark_red(mk(1, 2));
  EXPECT_EQ(log.stored_bodies(), 2u);
  EXPECT_EQ(log.body_bytes(), wsize(1, 1) + wsize(1, 2));

  // Red → green keeps the one body; red and green in one step adds one.
  log.mark_green(mk(1, 1));
  log.mark_green(mk(2, 1));
  EXPECT_EQ(log.stored_bodies(), 3u);
  EXPECT_EQ(log.body_bytes(), wsize(1, 1) + wsize(1, 2) + wsize(2, 1));

  // A duplicate green changes nothing.
  log.mark_green(mk(2, 1));
  EXPECT_EQ(log.stored_bodies(), 3u);

  // Trim drops green bodies in green order; the pending red stays.
  EXPECT_EQ(log.trim_white_to(1), 1u);
  EXPECT_EQ(log.stored_bodies(), 2u);
  EXPECT_EQ(log.body_bytes(), wsize(1, 2) + wsize(2, 1));
  EXPECT_EQ(log.trim_white_to(2), 1u);
  EXPECT_EQ(log.stored_bodies(), 1u);
  EXPECT_EQ(log.body_bytes(), wsize(1, 2));
  EXPECT_NE(log.body_of(ActionId{1, 2}), nullptr);
}

TEST(ActionLogBodies, GreenWhileParkedThenGapFillsCountsOnce) {
  ActionLog log;
  log.mark_red(mk(1, 1));
  // {1,3} turns green while parked behind the missing {1,2}: the green
  // order holds its body, the parked copy is not counted.
  const auto res = log.mark_green(mk(1, 3));
  EXPECT_EQ(res.position, 1);
  ASSERT_NE(res.body, nullptr);
  EXPECT_EQ(res.body->id, (ActionId{1, 3}));
  EXPECT_EQ(log.waiting_count(), 1u);
  EXPECT_EQ(log.stored_bodies(), 2u);
  EXPECT_EQ(log.body_bytes(), wsize(1, 1) + wsize(1, 3));

  // The gap-filler admits {1,2} and drains {1,3}, which is already stored.
  const auto newly = log.mark_red(mk(1, 2));
  ASSERT_EQ(newly.size(), 2u);
  EXPECT_EQ(log.waiting_count(), 0u);
  EXPECT_EQ(log.stored_bodies(), 3u);
  EXPECT_EQ(log.body_bytes(), wsize(1, 1) + wsize(1, 2) + wsize(1, 3));
  ASSERT_NE(log.green_body_at(1), nullptr);
  EXPECT_EQ(log.green_body_at(1)->id, (ActionId{1, 3}));

  // Trimming the one green drops exactly its body.
  EXPECT_EQ(log.trim_white_to(1), 1u);
  EXPECT_EQ(log.stored_bodies(), 2u);
  EXPECT_EQ(log.body_bytes(), wsize(1, 1) + wsize(1, 2));
}

TEST(ActionLogBodies, ReplayGreenOverPendingRed) {
  ActionLog log;
  // Recovery replays a red record, then the green record of the same
  // action: one body, not two.
  log.mark_red(mk(1, 1));
  log.mark_red(mk(1, 2));
  EXPECT_TRUE(log.replay_green(1, mk(1, 1)));
  EXPECT_EQ(log.stored_bodies(), 2u);
  EXPECT_EQ(log.body_bytes(), wsize(1, 1) + wsize(1, 2));
  EXPECT_EQ(log.position_of(ActionId{1, 1}), 1);
  EXPECT_EQ(log.red_count(), 1u);

  EXPECT_EQ(log.trim_white_to(1), 1u);
  EXPECT_EQ(log.stored_bodies(), 1u);
  EXPECT_EQ(log.body_bytes(), wsize(1, 2));
}

TEST(ActionLogBodies, AdoptGreenPrefixWithUntrimmedGreens) {
  ActionLog log;
  log.mark_green(mk(1, 1));
  log.mark_green(mk(1, 2));
  log.mark_red(mk(1, 3));
  log.mark_red(mk(1, 4));
  log.mark_red(mk(2, 2));  // parked behind {2,1}
  EXPECT_EQ(log.stored_bodies(), 4u);
  EXPECT_EQ(log.waiting_count(), 1u);

  // The prefix covers both greens and {1,3}; raising creator 2's cut to 1
  // unparks {2,2}.
  const auto admitted = log.adopt_green_prefix(10, {{1, 3}, {2, 1}});
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(admitted[0]->id, (ActionId{2, 2}));
  EXPECT_EQ(log.stored_bodies(), 2u);
  EXPECT_EQ(log.body_bytes(), wsize(1, 4) + wsize(2, 2));
  EXPECT_EQ(log.green_body_at(2), nullptr);
  EXPECT_EQ(log.trim_white_to(10), 0u);
  EXPECT_EQ(log.stored_bodies(), 2u);
}

// wire_size() is counted, not encoded: it must match encode() byte for byte,
// since the body-store accounting and the network cost model both use it.
TEST(ActionLog, WireSizeEqualsEncodedSize) {
  auto encoded = [](const Action& a) {
    BufWriter w;
    a.encode(w);
    return w.data().size();
  };
  Action empty;
  EXPECT_EQ(empty.wire_size(), encoded(empty));

  Action padded = *mk(3, 4);
  padded.padding = 110;
  EXPECT_EQ(padded.wire_size(), encoded(padded));

  Action multi;
  multi.type = ActionType::kPersistentJoin;
  multi.id = ActionId{7, 12};
  multi.subject = 9;
  multi.semantics = Semantics::kCommutative;
  multi.query = db::Command::get("q");
  multi.update = db::Command::checked_put("key", "expected", std::string(300, 'v'));
  multi.update.ops.push_back(db::Command::add("", -5).ops.front());
  multi.padding = 17;
  EXPECT_EQ(multi.wire_size(), encoded(multi));
}

// --- batched persist+multicast determinism ---------------------------------

using workload::ClusterOptions;
using workload::EngineCluster;

// Every replica of a group delivers the same wire, so they share the one
// action object its first recipient decoded, instead of holding a copy each.
TEST(ActionLogSharing, OneActionObjectPerGroup) {
  ClusterOptions o;
  o.replicas = 5;
  o.seed = 5;
  EngineCluster c(o);
  c.run_for(seconds(1));
  ASSERT_EQ(c.engine(0).state(), EngineState::kRegPrim);
  const std::int64_t pos = c.engine(0).green_count() + 1;
  c.engine(2).submit({}, db::Command::put("shared", "once"), 0, Semantics::kStrict, nullptr);
  auto all_green = [&] {
    for (NodeId i = 0; i < 5; ++i) {
      if (c.engine(i).green_count() < pos) return false;
    }
    return true;
  };
  for (int step = 0; step < 1000 && !all_green(); ++step) c.run_for(micros(100));
  ASSERT_TRUE(all_green());

  const Action* first = c.engine(0).action_log().green_body_at(pos);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->id.server_id, 2);
  for (NodeId i = 1; i < 5; ++i) {
    EXPECT_EQ(c.engine(i).action_log().green_body_at(pos), first) << "node " << i;
  }
}

struct RunResult {
  std::vector<std::uint64_t> digests;
  std::vector<std::int64_t> greens;
  std::uint64_t batches = 0;

  friend bool operator==(const RunResult&, const RunResult&) = default;
};

// One submitting engine buffers a burst of actions during a membership
// change; with batching they flush as a single record+multicast, without
// as per-action ones. Replicated state must come out identical.
RunResult run_burst(std::uint64_t seed, bool batch) {
  ClusterOptions o;
  o.replicas = 5;
  o.seed = seed;
  o.node.engine.batch_persist = batch;
  EngineCluster c(o);
  c.run_for(seconds(1));
  c.partition({{0, 1, 2}, {3, 4}});
  c.run_for(seconds(2));
  c.heal();

  // Catch node 0 mid-exchange so the submissions buffer and flush together.
  bool submitted = false;
  for (int step = 0; step < 4000 && !submitted; ++step) {
    c.run_for(millis(1));
    const auto s = c.engine(0).state();
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

  RunResult r;
  for (NodeId i = 0; i < 5; ++i) {
    r.digests.push_back(c.engine(i).db_digest());
    r.greens.push_back(c.engine(i).green_count());
  }
  r.batches = c.engine(0).stats().persist_batches;
  return r;
}

TEST(ActionLogBatching, BatchedEqualsUnbatchedAcrossSeeds) {
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    RunResult batched = run_burst(seed, true);
    RunResult unbatched = run_burst(seed, false);
    EXPECT_GE(batched.batches, 1u) << "seed " << seed;
    EXPECT_EQ(unbatched.batches, 0u) << "seed " << seed;
    // Same green prefix, bit-identical database digests.
    batched.batches = unbatched.batches = 0;
    EXPECT_EQ(batched, unbatched) << "seed " << seed;
    for (std::size_t i = 1; i < batched.digests.size(); ++i) {
      EXPECT_EQ(batched.digests[i], batched.digests[0]) << "seed " << seed;
    }
  }
}

TEST(ActionLogBatching, BatchedRunsAreReproducible) {
  const RunResult a = run_burst(7, true);
  const RunResult b = run_burst(7, true);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace tordb::core
