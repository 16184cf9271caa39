// Shard tier: directory mapping, router fast path, cross-shard commit
// barrier, fail-over under partition/crash, and exactly-once across
// fail-over (DESIGN.md §8).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs_enable.h"  // run every cluster under the online safety checker
#include "db/database.h"
#include "shard/directory.h"
#include "shard/router.h"
#include "workload/sharded_cluster.h"

namespace tordb::shard {
namespace {

using db::Command;
using workload::ShardedCluster;
using workload::ShardedClusterOptions;

TEST(Directory, HashedMappingIsDeterministicAndTotal) {
  const Directory d = Directory::hashed(4);
  EXPECT_EQ(d.shards(), 4);
  EXPECT_FALSE(d.is_ranged());
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 400; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const int s = d.shard_of(key);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    EXPECT_EQ(d.shard_of(key), s);  // stable
    ++hits[static_cast<std::size_t>(s)];
  }
  for (int s = 0; s < 4; ++s) EXPECT_GT(hits[static_cast<std::size_t>(s)], 0) << s;
}

TEST(Directory, RangedMappingFollowsSplitPoints) {
  const Directory d = Directory::ranged({"g", "p"});
  EXPECT_EQ(d.shards(), 3);
  EXPECT_TRUE(d.is_ranged());
  EXPECT_EQ(d.shard_of(""), 0);
  EXPECT_EQ(d.shard_of("apple"), 0);
  EXPECT_EQ(d.shard_of("g"), 1);  // split point belongs to the upper shard
  EXPECT_EQ(d.shard_of("melon"), 1);
  EXPECT_EQ(d.shard_of("p"), 2);
  EXPECT_EQ(d.shard_of("zebra"), 2);
  EXPECT_THROW(Directory::ranged({"z", "a"}), std::invalid_argument);
  EXPECT_THROW(Directory::hashed(0), std::invalid_argument);
}

TEST(Directory, ShardsOfDeduplicatesAndSorts) {
  const Directory d = Directory::ranged({"m"});
  Command cmd;
  cmd.ops.push_back(db::Op{db::OpType::kPut, "zz", "v", 0});
  cmd.ops.push_back(db::Op{db::OpType::kPut, "aa", "v", 0});
  cmd.ops.push_back(db::Op{db::OpType::kPut, "ab", "v", 0});
  EXPECT_EQ(d.shards_of(cmd), (std::vector<int>{0, 1}));
  EXPECT_TRUE(d.shards_of(Command{}).empty());
}

/// The keys of each slice, in slice order.
std::vector<std::vector<std::string>> slice_keys(const std::vector<Directory::Slice>& slices) {
  std::vector<std::vector<std::string>> out;
  for (const Directory::Slice& slice : slices) {
    out.emplace_back();
    for (const db::Op& op : slice.cmd.ops) out.back().push_back(op.key);
  }
  return out;
}

std::vector<int> slice_shards(const std::vector<Directory::Slice>& slices) {
  std::vector<int> out;
  for (const Directory::Slice& slice : slices) out.push_back(slice.shard);
  return out;
}

TEST(Directory, RangedSplitIsAscendingWithProgramOrderInsideEachSlice) {
  const Directory d = Directory::ranged({"g", "p"});
  Command cmd;
  for (const char* key : {"zebra", "apple", "melon", "banana", "pear", "grape"}) {
    cmd.ops.push_back(db::Op{db::OpType::kPut, key, std::string("v-") + key, 0});
  }
  const std::vector<Directory::Slice> slices = d.split(cmd);
  EXPECT_EQ(slice_shards(slices), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(slice_keys(slices), (std::vector<std::vector<std::string>>{
                                    {"apple", "banana"}, {"melon", "grape"}, {"zebra", "pear"}}));
  for (const Directory::Slice& slice : slices) {
    for (const db::Op& op : slice.cmd.ops) EXPECT_EQ(op.value, "v-" + op.key);  // ops intact
  }
  EXPECT_TRUE(d.split(Command{}).empty());
}

TEST(Directory, HashedSplitIsAscendingWithProgramOrderInsideEachSlice) {
  const Directory d = Directory::hashed(4);
  Command cmd;
  for (int i = 0; i < 40; ++i) {
    cmd.ops.push_back(db::Op{db::OpType::kAdd, "key-" + std::to_string(i), "", i});
  }
  const std::vector<Directory::Slice> slices = d.split(cmd);
  EXPECT_EQ(slice_shards(slices), d.shards_of(cmd));  // ascending, one per shard
  std::size_t ops = 0;
  for (const Directory::Slice& slice : slices) {
    std::int64_t prev = -1;
    for (const db::Op& op : slice.cmd.ops) {
      EXPECT_EQ(d.shard_of(op.key), slice.shard) << op.key;
      EXPECT_GT(op.num, prev) << op.key;  // program order
      prev = op.num;
    }
    ops += slice.cmd.ops.size();
  }
  EXPECT_EQ(ops, cmd.ops.size());
  EXPECT_TRUE(d.split(Command{}).empty());
}

TEST(Directory, RoutingFollowsAnOwnershipChangeOnTheVeryNextQuery) {
  // Routing is uncached: the first query after split_at + set_range_owner
  // already answers from the new map, with no epoch check to miss.
  Directory d = Directory::ranged({"m"});
  Command cmd;
  cmd.ops.push_back(db::Op{db::OpType::kPut, "x", "1", 0});
  cmd.ops.push_back(db::Op{db::OpType::kPut, "c", "2", 0});
  cmd.ops.push_back(db::Op{db::OpType::kPut, "h", "3", 0});
  EXPECT_EQ(d.shard_of("c"), 0);
  EXPECT_EQ(slice_keys(d.split(cmd)),
            (std::vector<std::vector<std::string>>{{"c", "h"}, {"x"}}));

  ASSERT_TRUE(d.split_at("f"));
  ASSERT_TRUE(d.set_range_owner("", "f", 1));
  EXPECT_EQ(d.shard_of("c"), 1);
  EXPECT_EQ(d.shard_of("h"), 0);
  std::vector<Directory::Slice> slices = d.split(cmd);
  EXPECT_EQ(slice_shards(slices), (std::vector<int>{0, 1}));
  EXPECT_EQ(slice_keys(slices), (std::vector<std::vector<std::string>>{{"h"}, {"x", "c"}}));

  ASSERT_TRUE(d.set_range_owner("f", "m", 1));  // now every key lives on shard 1
  EXPECT_EQ(d.shard_of("h"), 1);
  slices = d.split(cmd);
  EXPECT_EQ(slice_shards(slices), (std::vector<int>{1}));
  EXPECT_EQ(slice_keys(slices), (std::vector<std::vector<std::string>>{{"x", "c", "h"}}));
}

class RouterTest : public ::testing::Test {
 protected:
  explicit RouterTest(ShardedClusterOptions o = options()) : c_(std::move(o)) {
    c_.run_for(seconds(2));  // both shards form their primary
    // One key owned by each shard, for targeted traffic.
    for (int i = 0; shard_key_[0].empty() || shard_key_[1].empty(); ++i) {
      const std::string key = "k" + std::to_string(i);
      auto& slot = shard_key_[static_cast<std::size_t>(c_.directory().shard_of(key))];
      if (slot.empty()) slot = key;
    }
  }

  static ShardedClusterOptions options() {
    ShardedClusterOptions o;
    o.shards = 2;
    o.replicas_per_shard = 3;
    o.seed = 1;
    return o;
  }

  const std::string& key_in(int shard) { return shard_key_[static_cast<std::size_t>(shard)]; }

  std::string db_at(int shard, int idx, const std::string& key) {
    return c_.node(shard, idx).engine().database().get(key);
  }

  ShardedCluster c_;
  std::string shard_key_[2];
};

TEST_F(RouterTest, SingleShardFastPathCommitsAtOwningShardOnly) {
  bool committed = false;
  int involved = 0;
  c_.router().submit(1, Command::put(key_in(0), "v"), [&](const RouteReply& r) {
    committed = r.committed;
    involved = r.shards_involved;
  });
  c_.run_for(millis(300));
  EXPECT_TRUE(committed);
  EXPECT_EQ(involved, 1);
  EXPECT_EQ(db_at(0, 1, key_in(0)), "v");
  EXPECT_EQ(db_at(1, 1, key_in(0)), "");  // never reached the other group
  EXPECT_EQ(c_.router().stats().routed_single, 1u);
  EXPECT_EQ(c_.router().stats().routed_cross, 0u);
  EXPECT_EQ(c_.check_all(), std::nullopt);
}

TEST_F(RouterTest, ShardsRunIndependentGreenOrders) {
  const std::int64_t base1 = c_.green_count(1);
  for (int i = 0; i < 8; ++i) c_.router().submit(1, Command::put(key_in(0), "v"));
  c_.run_for(seconds(1));
  EXPECT_TRUE(c_.router().idle());
  // Shard 0 ordered the traffic; shard 1's green order never moved.
  EXPECT_GE(c_.green_count(0), 8);
  EXPECT_EQ(c_.green_count(1), base1);
  EXPECT_EQ(c_.check_all(), std::nullopt);
}

TEST_F(RouterTest, CrossShardAppliesAtEveryInvolvedShard) {
  Command cmd;
  cmd.ops.push_back(db::Op{db::OpType::kPut, key_in(0), "x0", 0});
  cmd.ops.push_back(db::Op{db::OpType::kPut, key_in(1), "x1", 0});
  bool committed = false;
  RouteReply reply;
  c_.router().submit(7, cmd, [&](const RouteReply& r) {
    committed = r.committed;
    reply = r;
  });
  c_.run_for(millis(500));
  ASSERT_TRUE(committed);
  EXPECT_EQ(reply.shards_involved, 2);
  EXPECT_GE(reply.barrier_wait, 0);
  // Each group applied its slice, plus the cross-shard marker.
  const std::string marker = Router::cross_marker_key(7, 1);
  for (int idx = 0; idx < 3; ++idx) {
    EXPECT_EQ(db_at(0, idx, key_in(0)), "x0") << idx;
    EXPECT_EQ(db_at(1, idx, key_in(1)), "x1") << idx;
    EXPECT_NE(db_at(0, idx, marker), "") << idx;
    EXPECT_NE(db_at(1, idx, marker), "") << idx;
  }
  // But only its slice: shard 0 never saw shard 1's key.
  EXPECT_EQ(db_at(0, 0, key_in(1)), "");
  EXPECT_EQ(c_.router().stats().routed_cross, 1u);
  EXPECT_EQ(c_.router().stats().cross_partial_aborts, 0u);
  EXPECT_EQ(c_.check_all(), std::nullopt);
}

TEST_F(RouterTest, CrossShardChecksHandOffToCoordinatorAndAbortAtomically) {
  // A cross-shard command carrying a kCheck is handed to the wired
  // prepared-check coordinator (DESIGN.md §13). Here the precondition is
  // false, so the transaction check-aborts — atomically: nothing applied.
  Command cmd;
  cmd.ops.push_back(db::Op{db::OpType::kCheck, key_in(0), "whatever", 0});
  cmd.ops.push_back(db::Op{db::OpType::kPut, key_in(1), "x1", 0});
  bool replied = false, committed = true, check_aborted = false;
  c_.router().submit(3, cmd, [&](const RouteReply& r) {
    replied = true;
    committed = r.committed;
    check_aborted = r.check_aborted;
  });
  c_.run_for(millis(500));
  EXPECT_TRUE(replied);
  EXPECT_FALSE(committed);
  EXPECT_TRUE(check_aborted);
  EXPECT_EQ(c_.router().stats().txn_handoffs, 1u);
  // Applied at NO shard.
  EXPECT_EQ(db_at(1, 0, key_in(1)), "");
  // Single-shard commands still carry checks (evaluated inside one group).
  bool ok = false;
  c_.router().submit(3, Command::checked_put(key_in(0), "", "once"),
                     [&](const RouteReply& r) { ok = r.committed; });
  c_.run_for(millis(300));
  EXPECT_TRUE(ok);
}

TEST_F(RouterTest, GenuinelyUnroutableMixesRejectWithUnsupportedMix) {
  // Range administration pinned to one group can never span shards: the
  // router rejects the mix up front, applied at no shard, with the precise
  // unsupported_mix cause (not the generic abort).
  Command cmd;
  cmd.ops.push_back(db::Op{db::OpType::kFenceRange, key_in(0), "", 0});
  cmd.ops.push_back(db::Op{db::OpType::kPut, key_in(1), "x1", 0});
  bool replied = false;
  RouteReply reply;
  c_.router().submit(4, cmd, [&](const RouteReply& r) {
    replied = true;
    reply = r;
  });
  c_.run_for(millis(300));
  EXPECT_TRUE(replied);
  EXPECT_FALSE(reply.committed);
  EXPECT_TRUE(reply.unsupported_mix);
  EXPECT_EQ(c_.router().stats().rejected_unsupported, 1u);
  EXPECT_EQ(db_at(1, 0, key_in(1)), "");
}

TEST_F(RouterTest, FailoverUnderPartitionCommitsInMajority) {
  // The session's first replica of shard 0 lands in a minority; the session
  // skips it for the majority side.
  c_.partition_shard(0, {{0}, {1, 2}});
  c_.run_for(millis(500));
  bool committed = false;
  const SimTime submitted = c_.sim().now();
  SimTime done = -1;
  c_.router().submit(1, Command::put(key_in(0), "v"), [&](const RouteReply& r) {
    committed = r.committed;
    done = c_.sim().now();
  });
  c_.run_for(seconds(4));
  EXPECT_TRUE(committed);
  EXPECT_GE(c_.router().stats().failovers, 1u);
  EXPECT_LT(done - submitted, millis(200));  // before the 800 ms session timer
  EXPECT_EQ(db_at(0, 1, key_in(0)), "v");
  // Shard 1 was never partitioned and kept working throughout.
  bool other = false;
  c_.router().submit(2, Command::put(key_in(1), "w"), [&](const RouteReply& r) {
    other = r.committed;
  });
  c_.run_for(millis(300));
  EXPECT_TRUE(other);
  c_.heal();
  c_.run_for(seconds(2));
  EXPECT_EQ(c_.check_all(), std::nullopt);
}

TEST_F(RouterTest, ExactlyOnceAcrossCrashFailover) {
  // Crash the serving replica after the action may have been ordered but
  // before the reply: the add must land exactly once at shard 0.
  Command cmd;
  cmd.ops.push_back(db::Op{db::OpType::kAdd, key_in(0), "", 100});
  bool committed = false;
  int attempts = 0;
  c_.router().submit(9, cmd, [&](const RouteReply& r) {
    committed = r.committed;
    attempts = r.attempts;
  });
  c_.run_for(millis(9) + micros(200));
  c_.crash(0, 0);
  c_.run_for(seconds(4));
  EXPECT_TRUE(committed);
  EXPECT_GE(attempts, 2);
  EXPECT_EQ(db_at(0, 1, key_in(0)), "100");
  EXPECT_EQ(db_at(0, 2, key_in(0)), "100");
  c_.recover(0, 0);
  c_.run_for(seconds(2));
  EXPECT_EQ(c_.check_all(), std::nullopt);
}

// Lane mode (DESIGN.md §15): replicas run on shard lanes, router sessions on
// the control lane. A replica's failover signal is raised on its shard lane
// and must reach the session only through a handoff to the control lane;
// under TORDB_SIM_THREADS=4 and TSan this pins that hop race-free.
class LaneRouterTest : public RouterTest {
 protected:
  LaneRouterTest() : RouterTest(lane_options()) {}

  static ShardedClusterOptions lane_options() {
    ShardedClusterOptions o = options();
    o.sim_lanes = true;
    return o;
  }
};

TEST_F(LaneRouterTest, CrashFailoverCommitsExactlyOnceBeforeTheTimer) {
  ASSERT_TRUE(c_.lanes_enabled());
  Command cmd;
  cmd.ops.push_back(db::Op{db::OpType::kAdd, key_in(0), "", 100});
  bool committed = false;
  SimTime done = -1;
  c_.router().submit(9, cmd, [&](const RouteReply& r) {
    committed = r.committed;
    done = c_.sim().now();
  });
  c_.run_for(millis(9) + micros(200));
  const SimTime crashed = c_.sim().now();
  c_.crash(0, 0);
  c_.run_for(seconds(1));
  EXPECT_TRUE(committed);
  EXPECT_LT(done - crashed, millis(100));
  EXPECT_GE(c_.router().stats().failovers, 1u);
  c_.recover(0, 0);
  c_.run_for(seconds(2));
  for (int i = 0; i < 3; ++i) EXPECT_EQ(db_at(0, i, key_in(0)), "100") << "replica " << i;
  EXPECT_EQ(c_.check_all(), std::nullopt);
}

TEST_F(LaneRouterTest, PartitionFailoverMidRequestCommitsExactlyOnceBeforeTheTimer) {
  ASSERT_TRUE(c_.lanes_enabled());
  Command cmd;
  cmd.ops.push_back(db::Op{db::OpType::kAdd, key_in(0), "", 1});
  bool committed = false;
  const SimTime submitted = c_.sim().now();
  SimTime done = -1;
  c_.router().submit(1, cmd, [&](const RouteReply& r) {
    committed = r.committed;
    done = c_.sim().now();
  });
  c_.run_for(millis(1));
  c_.partition_shard(0, {{0}, {1, 2}});
  c_.run_for(seconds(1));
  EXPECT_TRUE(committed);
  EXPECT_LT(done - submitted, millis(200));
  EXPECT_GE(c_.router().stats().failovers, 1u);
  c_.heal();
  c_.run_for(seconds(2));
  for (int i = 0; i < 3; ++i) EXPECT_EQ(db_at(0, i, key_in(0)), "1") << "replica " << i;
  EXPECT_EQ(c_.check_all(), std::nullopt);
}

TEST_F(RouterTest, ShardSeedsAreDeterministicAndDistinct) {
  const std::uint64_t s0 = c_.shard_seed(0);
  const std::uint64_t s1 = c_.shard_seed(1);
  EXPECT_NE(s0, s1);
  EXPECT_EQ(c_.shard_seed(0), s0);  // stable
  ShardedCluster other(options());  // same base seed => same derived seeds
  EXPECT_EQ(other.shard_seed(0), s0);
  EXPECT_EQ(other.shard_seed(1), s1);
}

TEST(ShardedClusterObs, RouterEmitsTraceEventsAndPerShardMetrics) {
  ShardedClusterOptions o;
  o.shards = 2;
  o.replicas_per_shard = 3;
  o.seed = 5;
  o.obs.trace = true;
  o.obs.check = true;
  o.obs.metrics_window = millis(500);
  ShardedCluster c(o);
  c.run_for(seconds(2));
  std::string k0, k1;
  for (int i = 0; k0.empty() || k1.empty(); ++i) {
    const std::string key = "k" + std::to_string(i);
    (c.directory().shard_of(key) == 0 ? k0 : k1) = key;
  }
  c.router().submit(1, Command::put(k0, "v"));
  Command cross;
  cross.ops.push_back(db::Op{db::OpType::kPut, k0, "x", 0});
  cross.ops.push_back(db::Op{db::OpType::kPut, k1, "x", 0});
  c.router().submit(1, cross);
  c.run_for(seconds(1));
  ASSERT_TRUE(c.router().idle());

  int route = 0, cross_submit = 0, cross_commit = 0;
  for (const auto& e : c.trace_bus()->ring_snapshot()) {
    if (e.kind == obs::EventKind::kShardRoute) ++route;
    if (e.kind == obs::EventKind::kShardCrossSubmit) ++cross_submit;
    if (e.kind == obs::EventKind::kShardCrossCommit) ++cross_commit;
  }
  EXPECT_EQ(route, 3);  // 1 single + 2 cross sub-routes
  EXPECT_EQ(cross_submit, 1);
  EXPECT_EQ(cross_commit, 1);

  c.sample_metrics();
  const std::string totals = c.metrics()->totals();
  EXPECT_NE(totals.find("shard.0.actions_green"), std::string::npos) << totals;
  EXPECT_NE(totals.find("shard.1.actions_green"), std::string::npos) << totals;
  EXPECT_NE(totals.find("router.committed"), std::string::npos) << totals;

  // The per-group checker followed both groups' histories.
  ASSERT_NE(c.checker(), nullptr);
  EXPECT_TRUE(c.checker()->ok()) << c.checker()->report();
  EXPECT_GT(c.checker()->canonical_green_count(0), 0);
  EXPECT_GT(c.checker()->canonical_green_count(1), 0);
  EXPECT_EQ(c.checker()->total_green_count(),
            c.checker()->canonical_green_count(0) + c.checker()->canonical_green_count(1));
}

}  // namespace
}  // namespace tordb::shard
