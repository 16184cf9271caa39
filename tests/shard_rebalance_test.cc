// Online shard rebalancing (DESIGN.md §9): directory versioning unit tests
// plus end-to-end fenced key-range moves over live engine groups — happy
// path, a move straddling a source partition, a destination crash
// mid-install, client exactly-once across the epoch bump, and online
// split/merge. Every cluster runs under the online safety checker
// (tests/obs_enable.h), whose range-ownership invariant watches each move.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs_enable.h"  // run every cluster under the online safety checker
#include "db/database.h"
#include "shard/directory.h"
#include "workload/sharded_cluster.h"

namespace tordb::shard {
namespace {

using db::Command;
using workload::ShardedCluster;
using workload::ShardedClusterOptions;

TEST(Directory, SplitMergeAndOwnership) {
  Directory d = Directory::ranged({"m"});
  EXPECT_EQ(d.shards(), 2);
  EXPECT_EQ(d.range_count(), 2);
  EXPECT_EQ(d.epoch(), 0);
  EXPECT_EQ(d.shard_of("a"), 0);
  EXPECT_EQ(d.shard_of("z"), 1);

  // Split refines the map without moving keys.
  ASSERT_TRUE(d.split_at("f"));
  EXPECT_EQ(d.epoch(), 1);
  EXPECT_EQ(d.range_count(), 3);
  EXPECT_EQ(d.shard_of("a"), 0);
  EXPECT_EQ(d.shard_of("g"), 0);
  EXPECT_EQ(d.range_index("", "f"), 0);
  EXPECT_EQ(d.range_index("f", "m"), 1);
  EXPECT_EQ(d.range_index("m", ""), 2);
  EXPECT_FALSE(d.split_at("f"));  // already a bound
  EXPECT_FALSE(d.split_at(""));   // the open end is not a key
  EXPECT_EQ(d.epoch(), 1);

  // Ownership cutover is an epoch bump; keys retarget instantly.
  ASSERT_TRUE(d.set_range_owner("f", "m", 1));
  EXPECT_EQ(d.epoch(), 2);
  EXPECT_EQ(d.shard_of("g"), 1);
  EXPECT_EQ(d.shard_of("a"), 0);
  EXPECT_FALSE(d.set_range_owner("f", "m", 1));  // no-op: already owner
  EXPECT_FALSE(d.set_range_owner("f", "q", 0));  // not a range
  EXPECT_FALSE(d.set_range_owner("f", "m", 7));  // no such shard

  // A merge never moves data: owners must match on both sides.
  EXPECT_FALSE(d.merge_at("f"));  // owners 0 | 1
  ASSERT_TRUE(d.set_range_owner("f", "m", 0));
  ASSERT_TRUE(d.merge_at("f"));
  EXPECT_EQ(d.range_count(), 2);
  EXPECT_EQ(d.shard_of("g"), 0);
  EXPECT_FALSE(d.merge_at("q"));  // not a split point

  Directory h = Directory::hashed(4);
  EXPECT_FALSE(h.split_at("x"));
  EXPECT_FALSE(h.merge_at("x"));
  EXPECT_EQ(h.range_count(), 0);
  EXPECT_EQ(h.epoch(), 0);
}

ShardedClusterOptions ranged_options(std::uint64_t seed) {
  ShardedClusterOptions o;
  o.shards = 2;
  o.replicas_per_shard = 3;
  o.seed = seed;
  o.range_splits = {"m"};  // shard 0: [-inf, "m"), shard 1: ["m", +inf)
  o.session.max_attempts_per_request = 100000;
  return o;
}

/// Drive the router with `n` adds of `key` spread `gap` apart, collecting
/// commit replies into `committed`.
void add_loop(ShardedCluster& c, const std::string& key, int n, SimDuration gap,
              std::uint64_t* committed) {
  for (int i = 0; i < n; ++i) {
    c.router().submit(7, Command::add(key, 1), [committed](const RouteReply& r) {
      if (r.committed) ++*committed;
    });
    c.run_for(gap);
  }
}

void drain(ShardedCluster& c, std::uint64_t seed) {
  for (int rounds = 0; !(c.router().idle() && c.rebalancer().idle()) && rounds < 120;
       ++rounds) {
    c.run_for(seconds(1));
  }
  ASSERT_TRUE(c.router().idle()) << "router never drained, seed " << seed;
  ASSERT_TRUE(c.rebalancer().idle()) << "rebalancer never drained, seed " << seed;
}

TEST(ShardRebalance, MoveHappyPath) {
  ShardedCluster c(ranged_options(11));
  c.run_for(seconds(2));

  // Seed rows in the range that will move.
  std::uint64_t committed = 0;
  for (const char* key : {"a", "b", "c"}) {
    add_loop(c, key, 2, millis(50), &committed);
  }
  drain(c, 11);
  ASSERT_EQ(committed, 6u);

  MoveReport report;
  ASSERT_TRUE(c.move_range("", "m", 1, [&report](const MoveReport& r) { report = r; }));
  EXPECT_FALSE(c.move_range("", "m", 1));  // same range is mid-move: rejected
  drain(c, 11);

  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.from, 0);
  EXPECT_EQ(report.to, 1);
  EXPECT_GE(report.rows, 3);  // a, b, c (session guards are pinned, not moved)
  EXPECT_GT(report.bytes, 0);
  EXPECT_EQ(c.directory_epoch(), 1);
  EXPECT_EQ(c.directory().shard_of("a"), 1);

  // Every key of the moved range is readable at the destination, value
  // intact, and new writes land there.
  c.run_for(seconds(15));
  ASSERT_TRUE(c.converged(1));
  for (const char* key : {"a", "b", "c"}) {
    EXPECT_EQ(c.node(1, 0).engine().database().get(key), "2") << key;
  }
  add_loop(c, "a", 3, millis(50), &committed);
  drain(c, 11);
  c.run_for(seconds(15));
  EXPECT_EQ(committed, 9u);
  EXPECT_EQ(c.node(1, 0).engine().database().get("a"), "5");
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(ShardRebalance, ClientExactlyOnceAcrossEpochBump) {
  ShardedClusterOptions o = ranged_options(12);
  o.rebalance.transfer_base = millis(400);  // widen the fence->cutover window
  ShardedCluster c(o);
  c.run_for(seconds(2));

  std::uint64_t committed = 0;
  add_loop(c, "hot", 5, millis(20), &committed);

  // Move the hot range while the same client keeps writing: commands that
  // land in the fence window bounce and re-route to the new owner.
  ASSERT_TRUE(c.move_range("", "m", 1));
  add_loop(c, "hot", 40, millis(25), &committed);
  drain(c, 12);
  c.run_for(seconds(15));

  EXPECT_EQ(committed, 45u);
  EXPECT_GT(c.router().stats().fenced_bounces, 0u);
  ASSERT_TRUE(c.converged(1));
  // Exactly-once across the bump: the counter equals the committed adds.
  EXPECT_EQ(c.node(1, 0).engine().database().get("hot"), "45");
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(ShardRebalance, MoveDuringSourcePartition) {
  ShardedCluster c(ranged_options(13));
  c.run_for(seconds(2));

  std::uint64_t committed = 0;
  add_loop(c, "a", 4, millis(50), &committed);
  drain(c, 13);

  // Partition the source: majority {0,1} | {2}. The fence still commits in
  // the majority component; the snapshot is extracted from a fenced member.
  c.partition_shard(0, {{0, 1}, {2}});
  c.run_for(seconds(2));
  ASSERT_TRUE(c.move_range("", "m", 1));
  c.run_for(seconds(5));
  c.heal();
  drain(c, 13);
  c.run_for(seconds(15));

  EXPECT_EQ(c.directory().shard_of("a"), 1);
  ASSERT_TRUE(c.converged(1));
  EXPECT_EQ(c.node(1, 0).engine().database().get("a"), "4");
  add_loop(c, "a", 2, millis(50), &committed);
  drain(c, 13);
  c.run_for(seconds(15));
  EXPECT_EQ(committed, 6u);
  EXPECT_EQ(c.node(1, 0).engine().database().get("a"), "6");
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(ShardRebalance, DestinationCrashMidInstall) {
  ShardedClusterOptions o = ranged_options(14);
  o.rebalance.transfer_base = millis(600);  // crash lands inside the transfer
  ShardedCluster c(o);
  c.run_for(seconds(2));

  std::uint64_t committed = 0;
  add_loop(c, "a", 3, millis(50), &committed);
  drain(c, 14);

  ASSERT_TRUE(c.move_range("", "m", 1));
  c.run_for(millis(300));  // fence is green; the snapshot is in flight
  c.crash(1, 0);           // the install session's first target dies
  c.run_for(seconds(3));
  c.recover(1, 0);
  drain(c, 14);
  c.run_for(seconds(15));

  EXPECT_EQ(c.directory().shard_of("a"), 1);
  ASSERT_TRUE(c.converged(1));
  EXPECT_EQ(c.node(1, 0).engine().database().get("a"), "3");
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(ShardRebalance, MoveWaitsOutWholeDestinationOutage) {
  // The deployment leaves retry_when_unavailable off; the router forces it
  // on for every session it builds, the rebalancer's included, so a move
  // waits out a whole-group outage of its destination instead of failing.
  ShardedClusterOptions o = ranged_options(19);
  ASSERT_FALSE(o.session.retry_when_unavailable);
  o.rebalance.transfer_base = millis(600);  // the install starts mid-outage
  ShardedCluster c(o);
  c.run_for(seconds(2));

  std::uint64_t committed = 0;
  add_loop(c, "a", 3, millis(50), &committed);
  drain(c, 19);

  MoveReport report;
  ASSERT_TRUE(c.move_range("", "m", 1, [&report](const MoveReport& r) { report = r; }));
  c.run_for(millis(300));  // fence is green; the snapshot is in flight
  for (int i = 0; i < 3; ++i) c.crash(1, i);
  c.run_for(seconds(2));
  EXPECT_FALSE(c.rebalancer().idle());
  for (int i = 0; i < 3; ++i) c.recover(1, i);
  drain(c, 19);
  c.run_for(seconds(15));

  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.to, 1);
  EXPECT_EQ(c.rebalancer().stats().moves_failed, 0u);
  EXPECT_EQ(c.directory().shard_of("a"), 1);
  ASSERT_TRUE(c.converged(1));
  EXPECT_EQ(c.node(1, 0).engine().database().get("a"), "3");
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(ShardRebalance, SplitAndMergeOnline) {
  ShardedCluster c(ranged_options(15));
  c.run_for(seconds(2));

  std::uint64_t committed = 0;
  add_loop(c, "a", 2, millis(50), &committed);
  add_loop(c, "f", 2, millis(50), &committed);
  drain(c, 15);

  // Split [ -inf, "m") at "d": both halves keep shard 0; no data moves.
  ASSERT_TRUE(c.split_at("d"));
  EXPECT_EQ(c.directory_epoch(), 1);
  EXPECT_EQ(c.directory().shard_of("a"), 0);
  EXPECT_EQ(c.directory().shard_of("f"), 0);

  // Move just the ["d", "m") half: "f" retargets, "a" stays.
  ASSERT_TRUE(c.move_range("d", "m", 1));
  drain(c, 15);
  c.run_for(seconds(15));
  EXPECT_EQ(c.directory().shard_of("a"), 0);
  EXPECT_EQ(c.directory().shard_of("f"), 1);
  ASSERT_TRUE(c.converged(1));
  EXPECT_EQ(c.node(1, 0).engine().database().get("f"), "2");

  // Merge is rejected across owners; move back, then it collapses.
  EXPECT_FALSE(c.merge_at("d"));
  ASSERT_TRUE(c.move_range("d", "m", 0));
  drain(c, 15);
  ASSERT_TRUE(c.merge_at("d"));
  EXPECT_EQ(c.directory().range_count(), 2);
  EXPECT_EQ(c.directory().shard_of("f"), 0);

  add_loop(c, "f", 2, millis(50), &committed);
  drain(c, 15);
  c.run_for(seconds(15));
  EXPECT_EQ(committed, 6u);
  ASSERT_TRUE(c.converged(0));
  EXPECT_EQ(c.node(0, 0).engine().database().get("f"), "4");
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(ShardRebalance, MoveBackDoesNotResurrectDeletes) {
  ShardedCluster c(ranged_options(16));
  c.run_for(seconds(2));

  std::uint64_t committed = 0;
  add_loop(c, "a", 2, millis(50), &committed);
  add_loop(c, "b", 2, millis(50), &committed);
  drain(c, 16);
  ASSERT_EQ(committed, 4u);

  // Move ["", "m") to shard 1, delete "a" under the new owner, move back.
  ASSERT_TRUE(c.move_range("", "m", 1));
  drain(c, 16);
  bool deleted = false;
  c.router().submit(7, Command::del("a"),
                    [&deleted](const RouteReply& r) { deleted = r.committed; });
  drain(c, 16);
  ASSERT_TRUE(deleted);
  ASSERT_TRUE(c.move_range("", "m", 0));
  drain(c, 16);
  c.run_for(seconds(15));

  // The install replaced shard 0's stale copy: the key deleted under the
  // interim owner stays deleted, the survivor keeps its value.
  EXPECT_EQ(c.directory().shard_of("a"), 0);
  ASSERT_TRUE(c.converged(0));
  EXPECT_EQ(c.node(0, 0).engine().database().get("a"), "");
  EXPECT_EQ(c.node(0, 0).engine().database().get("b"), "2");
  add_loop(c, "a", 1, millis(50), &committed);
  drain(c, 16);
  c.run_for(seconds(15));
  EXPECT_EQ(c.node(0, 0).engine().database().get("a"), "1");  // fresh counter
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(ShardRebalance, SplitAfterMoveThenMoveSubRangeBack) {
  ShardedCluster c(ranged_options(17));
  c.run_for(seconds(2));

  std::uint64_t committed = 0;
  add_loop(c, "a", 2, millis(50), &committed);
  add_loop(c, "f", 2, millis(50), &committed);
  drain(c, 17);

  // Move the whole range away, split it under its new owner, then bring
  // just ["", "d") back. Shard 0's stale fenced ["", "m") entry must not
  // shadow the narrower install — writes to "a" would abort forever.
  ASSERT_TRUE(c.move_range("", "m", 1));
  drain(c, 17);
  ASSERT_TRUE(c.split_at("d"));
  ASSERT_TRUE(c.move_range("", "d", 0));
  drain(c, 17);
  c.run_for(seconds(15));

  EXPECT_EQ(c.directory().shard_of("a"), 0);
  EXPECT_EQ(c.directory().shard_of("f"), 1);
  add_loop(c, "a", 3, millis(50), &committed);
  add_loop(c, "f", 3, millis(50), &committed);
  drain(c, 17);
  c.run_for(seconds(15));
  EXPECT_EQ(committed, 10u);
  ASSERT_TRUE(c.converged(0));
  ASSERT_TRUE(c.converged(1));
  EXPECT_EQ(c.node(0, 0).engine().database().get("a"), "5");
  EXPECT_EQ(c.node(1, 0).engine().database().get("f"), "5");
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(ShardRebalance, AbandonedMoveUnfencesSource) {
  ShardedClusterOptions o = ranged_options(18);
  o.session.max_attempts_per_request = 4;  // the install gives up quickly
  ShardedCluster c(o);
  c.run_for(seconds(2));

  std::uint64_t committed = 0;
  add_loop(c, "a", 2, millis(50), &committed);
  drain(c, 18);

  // Kill the whole destination group: the fence commits at shard 0, the
  // install exhausts its budget against shard 1, and the move rolls back
  // by unfencing the source instead of parking the range unwritable.
  for (int i = 0; i < 3; ++i) c.crash(1, i);
  MoveReport report;
  report.ok = true;
  ASSERT_TRUE(c.move_range("", "m", 1, [&report](const MoveReport& r) { report = r; }));
  drain(c, 18);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(c.rebalancer().stats().moves_failed, 1u);
  EXPECT_EQ(c.rebalancer().stats().moves_rejected, 0u);

  // The directory never flipped; after the rollback the source accepts
  // writes to the range again.
  EXPECT_EQ(c.directory().shard_of("a"), 0);
  EXPECT_EQ(c.directory_epoch(), 0);
  add_loop(c, "a", 3, millis(50), &committed);
  drain(c, 18);
  c.run_for(seconds(15));
  EXPECT_EQ(committed, 5u);
  ASSERT_TRUE(c.converged(0));
  EXPECT_EQ(c.node(0, 0).engine().database().get("a"), "5");

  for (int i = 0; i < 3; ++i) c.recover(1, i);
  c.run_for(seconds(15));
  EXPECT_EQ(c.check_all(), std::nullopt);
}

}  // namespace
}  // namespace tordb::shard
