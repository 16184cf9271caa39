// Fixed-seed trace-digest regression suite: the before/after guard for
// simulator hot-path work.
//
// Each scenario folds everything the simulation produced — per-node green
// orders, database digests, network message counts, the final virtual
// clock — into one 64-bit digest, and asserts it against a golden value
// recorded before the simulator/network hot-path refactor (dense node
// tables, shared-payload multicast, reachability caching, the slot-pool
// event heap). All arithmetic is integral and seeded, so the digests are
// identical on every platform; any change to event ordering, RNG draw
// order, latency math, or delivery semantics shifts them.
//
// The sharded scenario also runs twice in-process (run-to-run determinism)
// and once with the online safety checker subscribed (observability must
// not perturb virtual time — under TORDB_OBS_CHECK=1 every variant has the
// checker on, which must *still* reproduce the golden digest).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "util/rng.h"
#include "workload/cluster.h"
#include "workload/sharded_cluster.h"

namespace tordb {
namespace {

using workload::ClusterOptions;
using workload::EngineCluster;
using workload::ShardedCluster;
using workload::ShardedClusterOptions;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t s = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  return splitmix64(s);
}

std::uint64_t fold_engine(std::uint64_t h, const core::ReplicationEngine& e) {
  h = mix(h, static_cast<std::uint64_t>(e.green_count()));
  h = mix(h, e.db_digest());
  for (std::int64_t pos = 1; pos <= e.green_count(); ++pos) {
    const ActionId a = e.green_action_at(pos);
    h = mix(h, static_cast<std::uint64_t>(a.server_id));
    h = mix(h, static_cast<std::uint64_t>(a.index));
  }
  return h;
}

std::uint64_t fold_net(std::uint64_t h, const NetworkStats& s, SimTime now) {
  h = mix(h, s.messages_sent);
  h = mix(h, s.messages_delivered);
  h = mix(h, s.messages_dropped);
  h = mix(h, s.bytes_sent);
  h = mix(h, static_cast<std::uint64_t>(now));
  return h;
}

// ---------------------------------------------------------------------------
// Scenario 1: churn-heavy sharded run — 3 engine groups on one network, a
// router in front, cross-shard actions, partitions, crashes, recoveries.
// ---------------------------------------------------------------------------

std::uint64_t sharded_churn_digest(bool with_checker) {
  ShardedClusterOptions o;
  o.shards = 3;
  o.replicas_per_shard = 3;
  o.seed = 0x5eed2026;
  o.obs.check = with_checker;
  // Pin the classic event loop regardless of TORDB_SIM_THREADS: these
  // goldens record the classic schedule, and the sanitizer lanes export
  // lane mode for the whole suite.
  o.sim_env = false;
  ShardedCluster c(o);
  c.run_for(seconds(2));  // primaries form

  // Pre-bucket keys per owning shard so cross-shard commands can target two
  // distinct shards deterministically under hash sharding.
  std::vector<std::vector<std::string>> pool(3);
  for (int i = 0;; ++i) {
    std::string key = "dk" + std::to_string(i);
    auto& bucket = pool[static_cast<std::size_t>(c.directory().shard_of(key))];
    if (bucket.size() < 8) bucket.push_back(std::move(key));
    if (pool[0].size() >= 8 && pool[1].size() >= 8 && pool[2].size() >= 8) break;
  }

  // 9 closed-loop clients, 3 per home shard; every 6th action of a client is
  // cross-shard (two puts in one command).
  struct Client {
    int id;
    int home;
    std::int64_t n = 0;
  };
  auto clients = std::make_shared<std::vector<Client>>();
  for (int i = 0; i < 9; ++i) clients->push_back({i, i % 3});
  auto rng = std::make_shared<Rng>(o.seed ^ 0xd1ce5);
  std::function<void(std::size_t)> issue = [&, clients, rng](std::size_t idx) {
    Client& cl = (*clients)[idx];
    ++cl.n;
    db::Command cmd;
    const auto& ph = pool[static_cast<std::size_t>(cl.home)];
    cmd.ops.push_back(db::Op{db::OpType::kPut, ph[rng->next_below(ph.size())],
                             "v" + std::to_string(cl.n), 0});
    if (cl.n % 6 == 0) {
      const int other = (cl.home + 1) % 3;
      const auto& po = pool[static_cast<std::size_t>(other)];
      cmd.ops.push_back(db::Op{db::OpType::kPut, po[rng->next_below(po.size())],
                               "x" + std::to_string(cl.n), 0});
    }
    c.router().submit(cl.id, std::move(cmd), [&issue, idx, &c](const shard::RouteReply&) {
      if (c.sim().now() < seconds(9)) issue(idx);
    });
  };
  for (std::size_t i = 0; i < clients->size(); ++i) issue(i);

  // Deterministic churn schedule across all three shards.
  c.run_for(millis(700));
  c.partition_shard(0, {{0, 1}, {2}});
  c.run_for(millis(600));
  c.crash(1, 0);
  c.run_for(millis(500));
  c.heal_shard(0);
  c.partition_shard(2, {{0}, {1, 2}});
  c.run_for(millis(600));
  c.recover(1, 0);
  c.run_for(millis(400));
  c.crash(2, 1);
  c.heal_shard(2);
  c.run_for(millis(700));
  c.recover(2, 1);
  c.heal();
  c.run_for(seconds(6));  // drain and settle

  EXPECT_EQ(c.check_all(), std::nullopt);

  std::uint64_t h = 0x70bdb;
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 3; ++i) {
      const auto& n = c.node(s, i);
      h = mix(h, n.running() ? 1 : 0);
      if (n.running()) h = fold_engine(h, n.engine());
    }
  }
  return fold_net(h, c.net().stats(), c.sim().now());
}

// ---------------------------------------------------------------------------
// Scenario 2: single-group EVS churn — the paper's deployment shape, no
// router; partitions and crash/recovery against one group. The 7-replica
// group is a single gc clique; the 24-replica one has three, so stability
// runs through the leader tier while partitions cut across cliques (leaving
// two-clique components of 20 and 16) and crashes hit a clique leader (8)
// and the sequencer (0, clique 0's leader).
// ---------------------------------------------------------------------------

using ChurnStep = std::function<void(EngineCluster&, int step)>;

std::uint64_t single_group_churn_digest(int replicas, std::uint64_t seed, std::uint64_t h,
                                        const ChurnStep& churn) {
  ClusterOptions o;
  o.replicas = replicas;
  o.seed = seed;
  EngineCluster c(o);
  c.run_for(seconds(2));

  Rng rng(o.seed);
  for (int step = 0; step < 40; ++step) {
    const NodeId n = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(replicas)));
    if (c.node(n).running()) {
      c.engine(n).submit({}, db::Command::add("k" + std::to_string(step % 5), 1), n,
                         core::Semantics::kStrict, nullptr);
    }
    churn(c, step);
    c.run_for(millis(static_cast<std::int64_t>(rng.next_range(20, 150))));
  }
  c.run_for(seconds(6));

  EXPECT_EQ(c.check_all(), std::nullopt);

  for (NodeId i = 0; i < replicas; ++i) {
    h = mix(h, c.node(i).running() ? 1 : 0);
    if (c.node(i).running()) h = fold_engine(h, c.engine(i));
  }
  return fold_net(h, c.net().stats(), c.sim().now());
}

std::uint64_t single_group_churn_digest() {
  return single_group_churn_digest(7, 0xe5e5e5, 0x190, [](EngineCluster& c, int step) {
    if (step == 10) c.partition({{0, 1, 2, 3}, {4, 5, 6}});
    if (step == 18) c.heal();
    if (step == 24) c.crash(2);
    if (step == 30) c.partition({{0, 1, 3}, {2, 4, 5, 6}});
    if (step == 34) c.heal();
    if (step == 36) c.recover(2);
  });
}

std::uint64_t wide_group_churn_digest() {
  auto range = [](NodeId lo, NodeId hi) {
    std::vector<NodeId> v;
    for (NodeId i = lo; i < hi; ++i) v.push_back(i);
    return v;
  };
  return single_group_churn_digest(24, 0x24c11, 0x24, [&](EngineCluster& c, int step) {
    if (step == 8) c.partition({range(0, 20), range(20, 24)});  // splits clique 2
    if (step == 14) c.heal();
    if (step == 18) c.crash(8);
    if (step == 24) c.crash(0);
    if (step == 28) c.partition({range(0, 5), range(5, 21), range(21, 24)});
    if (step == 33) c.heal();
    if (step == 35) c.recover(0);
    if (step == 37) c.recover(8);
  });
}

// Golden digests pin the exact virtual-time trajectory; any change to
// message contents or timing shifts them. Regenerated deliberately when
// green lines moved onto the gc stability streams (DESIGN.md §14): ACK and
// STABLE carry an 8-byte knowledge word and the announcement multicasts are
// gone, both of which alter virtual time by design.
constexpr std::uint64_t kShardedChurnGolden = 13211854414094015073ULL;
constexpr std::uint64_t kSingleGroupChurnGolden = 18022610439948901203ULL;
// A 24-replica group: three cliques, so it also pins the leader streams'
// realignment (DESIGN.md §16).
constexpr std::uint64_t kWideGroupChurnGolden = 2208650153488996496ULL;

TEST(SimDigest, ShardedChurnMatchesGolden) {
  EXPECT_EQ(sharded_churn_digest(false), kShardedChurnGolden);
}

TEST(SimDigest, ShardedChurnRunToRunIdentical) {
  EXPECT_EQ(sharded_churn_digest(false), sharded_churn_digest(false));
}

TEST(SimDigest, CheckerDoesNotPerturbVirtualTime) {
  EXPECT_EQ(sharded_churn_digest(true), kShardedChurnGolden);
}

TEST(SimDigest, SingleGroupChurnMatchesGolden) {
  EXPECT_EQ(single_group_churn_digest(), kSingleGroupChurnGolden);
}

TEST(SimDigest, WideGroupChurnMatchesGolden) {
  EXPECT_EQ(wide_group_churn_digest(), kWideGroupChurnGolden);
}

// ---------------------------------------------------------------------------
// Harness contract: a 1-shard ShardedCluster is an EngineCluster of the same
// seed and size plus a router tier, so the two must schedule bit-identically.
// Closed-loop strict submits at every member; member 1 crashes mid-run.
// ---------------------------------------------------------------------------

core::ReplicaNode& member(EngineCluster& c, NodeId id) { return c.node(id); }
core::ReplicaNode& member(ShardedCluster& c, NodeId id) { return c.node(0, id); }
void crash_member(EngineCluster& c, NodeId id) { c.crash(id); }
void crash_member(ShardedCluster& c, NodeId id) { c.crash(0, id); }

template <typename Cluster>
std::uint64_t closed_loop_digest(Cluster& c, int replicas) {
  c.run_for(seconds(2));  // the primary forms
  std::function<void(NodeId)> issue = [&](NodeId id) {
    member(c, id).engine().submit({}, db::Command::add("k" + std::to_string(id % 4), 1), id,
                                  core::Semantics::kStrict, [&issue, &c, id](const core::Reply&) {
                                    if (member(c, id).running() && c.sim().now() < seconds(5)) {
                                      issue(id);
                                    }
                                  });
  };
  for (NodeId i = 0; i < replicas; ++i) issue(i);
  c.run_for(millis(1500));
  crash_member(c, 1);
  c.run_for(seconds(6));  // load stops at 5 s; drain and settle

  EXPECT_EQ(c.check_all(), std::nullopt);
  std::uint64_t h = 0x1c1a5;
  for (NodeId i = 0; i < replicas; ++i) {
    const core::ReplicaNode& n = member(c, i);
    h = mix(h, n.running() ? 1 : 0);
    if (n.running()) h = fold_engine(h, n.engine());
  }
  return fold_net(h, c.net().stats(), c.sim().now());
}

TEST(SimDigest, OneShardClusterSchedulesLikeEngineCluster) {
  for (const int n : {3, 5, 12}) {
    ClusterOptions eo;
    eo.replicas = n;
    eo.seed = 0x0e5a + static_cast<std::uint64_t>(n);
    EngineCluster engine(eo);
    ShardedClusterOptions so;
    so.shards = 1;
    so.replicas_per_shard = n;
    so.seed = eo.seed;
    so.sim_env = false;  // the classic loop, like the EngineCluster
    ShardedCluster sharded(so);
    EXPECT_EQ(closed_loop_digest(sharded, n), closed_loop_digest(engine, n)) << n << " replicas";
  }
}

// ---------------------------------------------------------------------------
// Lane-mode equivalence: the parallel simulator (DESIGN.md §15) must produce
// bit-identical results for ANY worker thread count. Each scenario runs a
// randomized churn + rebalance + cross-shard-txn schedule (same style as the
// cross-shard property test's generator) in lane mode and folds (a) the full
// cluster state digest, (b) every per-shard lane schedule digest, and (c) the
// final virtual clock; the triple must match across 1, 2 and 8 threads.
// ---------------------------------------------------------------------------

struct LaneRun {
  std::uint64_t state = 0;                 ///< folded engines + network + clock
  std::vector<std::uint64_t> lanes;        ///< per-shard lane schedule digests
  std::uint64_t windows = 0;               ///< conservative windows run
  std::uint64_t handoffs = 0;              ///< cross-lane handoffs committed
};

LaneRun lane_churn_run(int threads, std::uint64_t seed) {
  ShardedClusterOptions o;
  o.shards = 3;
  o.replicas_per_shard = 3;
  o.seed = seed;
  o.range_splits = {"g", "n"};  // rebalancing needs ranged directories
  o.sim_lanes = true;           // lane mode even at 1 thread (the baseline)
  o.sim_threads = threads;
  o.sim_env = false;  // this suite pins its own lane configuration
  // Sessions out-wait every partition the schedule produces, so no request
  // hits attempt exhaustion (which would still be deterministic, just
  // noisier to reason about on failure).
  o.session.max_attempts_per_request = 100000;
  ShardedCluster c(o);
  c.run_for(seconds(2));  // primaries form

  // Keys per owning shard under the fixed splits ["g", "n").
  const std::vector<std::vector<std::string>> pool = {{"aa", "bb", "cc", "dd"},
                                                      {"gg", "hh", "jj", "kk"},
                                                      {"nn", "pp", "rr", "ss"}};

  // 6 closed-loop clients, 2 per home shard. Every 5th action is a checked
  // cross-shard command (a trivially-true precondition plus one put per
  // shard), which the router hands to the prepared-check coordinator.
  struct Client {
    int id;
    int home;
    std::int64_t n = 0;
  };
  auto clients = std::make_shared<std::vector<Client>>();
  for (int i = 0; i < 6; ++i) clients->push_back({i, i % 3});
  auto rng = std::make_shared<Rng>(seed ^ 0x1a7e5);
  std::function<void(std::size_t)> issue = [&, clients, rng](std::size_t idx) {
    Client& cl = (*clients)[idx];
    ++cl.n;
    db::Command cmd;
    const auto& ph = pool[static_cast<std::size_t>(cl.home)];
    if (cl.n % 5 == 0) {
      const int other = (cl.home + 1) % 3;
      const auto& po = pool[static_cast<std::size_t>(other)];
      cmd.ops.push_back(db::Op{db::OpType::kCheck, ph[0], cl.n > 5 ? "c" : "", 0});
      cmd.ops.push_back(db::Op{db::OpType::kPut, ph[0], "c", 0});
      cmd.ops.push_back(
          db::Op{db::OpType::kPut, po[rng->next_below(po.size())], "x" + std::to_string(cl.n), 0});
    } else {
      cmd.ops.push_back(db::Op{db::OpType::kPut, ph[rng->next_below(ph.size())],
                               "v" + std::to_string(cl.n), 0});
    }
    c.router().submit(cl.id, std::move(cmd), [&issue, idx, &c](const shard::RouteReply&) {
      if (c.sim().now() < seconds(9)) issue(idx);
    });
  };
  for (std::size_t i = 0; i < clients->size(); ++i) issue(i);

  // Randomized churn + rebalance schedule: partitions, crashes, recoveries
  // and a range move, in seed-dependent order and spacing. Topology changes
  // go through the cluster wrappers so they land on the owning shard's lane.
  Rng churn(seed * 62233);
  int crashed_shard = -1, crashed_idx = -1;
  int parted = -1;
  bool moved = false;
  for (int step = 0; step < 24; ++step) {
    switch (churn.next_below(6)) {
      case 0:
        if (parted < 0) {
          parted = static_cast<int>(churn.next_below(3));
          c.partition_shard(parted, {{0, 1}, {2}});
        }
        break;
      case 1:
        if (parted >= 0) {
          c.heal_shard(parted);
          parted = -1;
        }
        break;
      case 2:
        if (crashed_shard < 0) {
          crashed_shard = static_cast<int>(churn.next_below(3));
          crashed_idx = static_cast<int>(churn.next_below(3));
          c.crash(crashed_shard, crashed_idx);
        }
        break;
      case 3:
        if (crashed_shard >= 0) {
          c.recover(crashed_shard, crashed_idx);
          crashed_shard = -1;
        }
        break;
      case 4:
        if (!moved) {
          moved = c.move_range("g", "j", 2);  // shard 1's low half -> shard 2
        }
        break;
      default:
        break;  // quiet step: just advance time
    }
    c.run_for(millis(static_cast<std::int64_t>(churn.next_range(150, 450))));
  }
  if (crashed_shard >= 0) c.recover(crashed_shard, crashed_idx);
  c.heal();
  c.run_for(seconds(8));  // drain and settle

  EXPECT_EQ(c.check_all(), std::nullopt);

  LaneRun out;
  std::uint64_t h = 0x1a9e5;
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 3; ++i) {
      const auto& n = c.node(s, i);
      h = mix(h, n.running() ? 1 : 0);
      if (n.running()) h = fold_engine(h, n.engine());
    }
  }
  out.state = fold_net(h, c.net().stats(), c.sim().now());
  for (int s = 0; s < 3; ++s) out.lanes.push_back(c.shard_digest(s));
  out.windows = c.sim().windows_run();
  out.handoffs = c.sim().handoffs_posted();
  return out;
}

TEST(SimLanes, SerialVsParallelBitIdentical) {
  for (const std::uint64_t seed : {0xb0b1ULL, 0x5eedULL, 0xcafe2026ULL}) {
    const LaneRun serial = lane_churn_run(1, seed);
    ASSERT_GT(serial.windows, 0u) << "lane mode did not engage";
    ASSERT_GT(serial.handoffs, 0u) << "no cross-lane traffic: scenario too weak";
    for (const int threads : {2, 8}) {
      const LaneRun parallel = lane_churn_run(threads, seed);
      EXPECT_EQ(parallel.state, serial.state) << "seed " << seed << " threads " << threads;
      EXPECT_EQ(parallel.lanes, serial.lanes) << "seed " << seed << " threads " << threads;
      EXPECT_EQ(parallel.windows, serial.windows) << "seed " << seed << " threads " << threads;
      EXPECT_EQ(parallel.handoffs, serial.handoffs)
          << "seed " << seed << " threads " << threads;
    }
  }
}

// Golden pin for the lane-mode schedule itself: guards cross-build
// determinism of the window/handoff machinery the equivalence test can't
// see (it compares runs within one build). Regenerate deliberately, like
// the classic goldens above, when the lane model changes.
constexpr std::uint64_t kLaneChurnGolden = 862955939420258791ULL;

TEST(SimLanes, LaneChurnMatchesGolden) {
  EXPECT_EQ(lane_churn_run(1, 0xb0b1ULL).state, kLaneChurnGolden);
}

}  // namespace
}  // namespace tordb
