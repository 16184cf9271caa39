// Randomized cross-shard property test: independent engine groups under
// partitions, merges, crashes and recoveries, with a mix of single- and
// cross-shard traffic through shard::Router.
//
// Invariants asserted throughout and at quiescence:
//  - per-group Theorem 1: each shard's members agree on their green prefix
//    (the online checker also verifies this per group, event by event);
//  - cross-shard all-or-nothing: every cross-shard action is applied at
//    EVERY involved shard (its marker key is present) or at none, and the
//    router never records a partial abort;
//  - liveness: after healing, every submitted action completes, every shard
//    converges to one primary, and per-key counters equal the number of
//    committed adds (exactly-once across fail-over).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs_enable.h"  // run every cluster under the online safety checker
#include "db/database.h"
#include "shard/router.h"
#include "txn/coordinator.h"
#include "util/rng.h"
#include "workload/sharded_cluster.h"

namespace tordb::shard {
namespace {

using db::Command;
using workload::ShardedCluster;
using workload::ShardedClusterOptions;

struct Scenario {
  std::uint64_t seed;
  int shards;
  int steps;
};

struct CrossRecord {
  std::string marker;
  std::vector<int> involved;
  bool replied = false;
  bool committed = false;
};

class CrossShardSchedule : public ::testing::TestWithParam<Scenario> {};

TEST_P(CrossShardSchedule, AllOrNothingAndPerGroupSafety) {
  const Scenario sc = GetParam();
  Rng rng(sc.seed * 62233);
  ShardedClusterOptions o;
  o.shards = sc.shards;
  o.replicas_per_shard = 3;
  o.seed = sc.seed;
  // Sessions must out-wait any partition the schedule can produce, so the
  // only abort path (attempt exhaustion) is unreachable and all-or-nothing
  // is strict.
  o.session.max_attempts_per_request = 100000;
  ShardedCluster c(o);
  c.run_for(seconds(2));

  // One key pool per shard for targeted traffic.
  std::vector<std::string> key_of(static_cast<std::size_t>(sc.shards));
  for (int i = 0;; ++i) {
    const std::string key = "k" + std::to_string(i);
    auto& slot = key_of[static_cast<std::size_t>(c.directory().shard_of(key))];
    if (slot.empty()) slot = key;
    bool full = true;
    for (const auto& k : key_of) full = full && !k.empty();
    if (full) break;
  }

  std::int64_t next_client = 0;
  std::vector<CrossRecord> crossed;
  // Expected per-shard counter value, counted at submit time: with the
  // abort path closed, every submitted add must eventually commit exactly
  // once.
  std::vector<std::int64_t> expected(static_cast<std::size_t>(sc.shards), 0);
  std::vector<std::vector<bool>> down(
      static_cast<std::size_t>(sc.shards), std::vector<bool>(3, false));
  std::uint64_t submitted = 0, committed_replies = 0;

  auto submit_single = [&](int shard) {
    const std::int64_t client = next_client++ % 8;
    Command cmd;
    cmd.ops.push_back(db::Op{db::OpType::kAdd, "cnt/" + key_of[static_cast<std::size_t>(shard)],
                             "", 1});
    ++expected[static_cast<std::size_t>(shard)];
    ++submitted;
    c.router().submit(client, cmd, [&committed_replies](const RouteReply& r) {
      if (r.committed) ++committed_replies;
    });
  };

  // Mirrors the router's per-client cross-sequence counter so the test
  // knows each cross action's marker key (cross clients use a dedicated id
  // range, so the counters track exactly).
  std::map<std::int64_t, std::int64_t> xseq;
  auto submit_cross = [&] {
    const int a = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(sc.shards)));
    const int b = (a + 1 + static_cast<int>(rng.next_below(
                               static_cast<std::uint64_t>(sc.shards - 1)))) %
                  sc.shards;
    const std::int64_t client = 100 + next_client++ % 8;
    Command cmd;
    cmd.ops.push_back(
        db::Op{db::OpType::kAdd, "cnt/" + key_of[static_cast<std::size_t>(a)], "", 1});
    cmd.ops.push_back(
        db::Op{db::OpType::kAdd, "cnt/" + key_of[static_cast<std::size_t>(b)], "", 1});
    ++expected[static_cast<std::size_t>(a)];
    ++expected[static_cast<std::size_t>(b)];
    ++submitted;
    const std::size_t slot = crossed.size();
    crossed.push_back(CrossRecord{});
    crossed[slot].involved = c.directory().shards_of(cmd);
    crossed[slot].marker = Router::cross_marker_key(client, ++xseq[client]);
    c.router().submit(client, cmd, [&crossed, slot, &committed_replies](const RouteReply& r) {
      crossed[slot].replied = true;
      crossed[slot].committed = r.committed;
      if (r.committed) ++committed_replies;
    });
  };

  for (int step = 0; step < sc.steps; ++step) {
    const int what = static_cast<int>(rng.next_below(10));
    if (what < 4) {
      const int burst = static_cast<int>(rng.next_range(1, 3));
      for (int i = 0; i < burst; ++i) {
        submit_single(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(sc.shards))));
      }
    } else if (what < 6 && sc.shards > 1) {
      submit_cross();
    } else if (what == 6) {
      // Partition a random shard: isolate one member from the other two.
      const int s = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(sc.shards)));
      const int lone = static_cast<int>(rng.next_below(3));
      std::vector<int> rest;
      for (int i = 0; i < 3; ++i) {
        if (i != lone) rest.push_back(i);
      }
      c.partition_shard(s, {{lone}, rest});
    } else if (what == 7) {
      c.heal();
    } else if (what == 8) {
      const int s = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(sc.shards)));
      const int i = static_cast<int>(rng.next_below(3));
      if (!down[static_cast<std::size_t>(s)][static_cast<std::size_t>(i)]) {
        down[static_cast<std::size_t>(s)][static_cast<std::size_t>(i)] = true;
        c.crash(s, i);
      }
    } else if (what == 9) {
      for (int s = 0; s < sc.shards; ++s) {
        for (int i = 0; i < 3; ++i) {
          if (down[static_cast<std::size_t>(s)][static_cast<std::size_t>(i)]) {
            down[static_cast<std::size_t>(s)][static_cast<std::size_t>(i)] = false;
            c.recover(s, i);
            break;
          }
        }
      }
    }
    c.run_for(millis(static_cast<std::int64_t>(rng.next_range(10, 200))));
    ASSERT_EQ(c.check_green_prefix_consistency(), std::nullopt) << "seed " << sc.seed;
  }

  // Quiesce: heal, recover everyone, drain the router.
  for (int s = 0; s < sc.shards; ++s) {
    for (int i = 0; i < 3; ++i) {
      if (down[static_cast<std::size_t>(s)][static_cast<std::size_t>(i)]) c.recover(s, i);
    }
  }
  c.heal();
  for (int rounds = 0; !c.router().idle() && rounds < 120; ++rounds) c.run_for(seconds(1));
  ASSERT_TRUE(c.router().idle()) << "router never drained, seed " << sc.seed;
  c.run_for(seconds(15));  // every shard converges to one primary

  // Liveness: with the abort path closed, everything committed.
  EXPECT_EQ(committed_replies, submitted) << "seed " << sc.seed;
  EXPECT_EQ(c.router().stats().cross_partial_aborts, 0u) << "seed " << sc.seed;

  // All-or-nothing: each cross action's marker is present at every involved
  // shard (committed) — never at a strict subset.
  for (const CrossRecord& rec : crossed) {
    ASSERT_TRUE(rec.replied) << rec.marker << " seed " << sc.seed;
    EXPECT_TRUE(rec.committed) << rec.marker << " seed " << sc.seed;
    int present = 0;
    for (int s : rec.involved) {
      if (!c.node(s, 0).engine().database().get(rec.marker).empty()) ++present;
    }
    const int want = rec.committed ? static_cast<int>(rec.involved.size()) : 0;
    EXPECT_EQ(present, want) << "partial cross-shard application of " << rec.marker
                             << ", seed " << sc.seed;
  }

  for (int s = 0; s < sc.shards; ++s) {
    ASSERT_TRUE(c.converged(s)) << "shard " << s << " not converged, seed " << sc.seed;
    // An absent key reads "" — a shard that saw no adds stays absent.
    const std::int64_t want = expected[static_cast<std::size_t>(s)];
    EXPECT_EQ(c.node(s, 0).engine().database().get(
                  "cnt/" + key_of[static_cast<std::size_t>(s)]),
              want ? std::to_string(want) : "")
        << "shard " << s << " seed " << sc.seed;
  }
  EXPECT_EQ(c.check_all(), std::nullopt) << "seed " << sc.seed;
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> v;
  for (std::uint64_t s = 1; s <= 30; ++s) v.push_back({s, 2, 24});
  for (std::uint64_t s = 31; s <= 56; ++s) v.push_back({s, 3, 20});
  return v;
}

INSTANTIATE_TEST_SUITE_P(CrossShard, CrossShardSchedule, ::testing::ValuesIn(scenarios()),
                         [](const ::testing::TestParamInfo<Scenario>& info) {
                           return "seed" + std::to_string(info.param.seed) + "_s" +
                                  std::to_string(info.param.shards);
                         });

// ---------------------------------------------------------------------------
// Ranged directories with online rebalancing: the same churn (partitions,
// crashes, recoveries, single- and cross-shard adds) interleaved with random
// range moves, splits and merges (DESIGN.md §9). Because keys move between
// green orders mid-run, the end-state oracle is per *key*: the counter at
// the key's FINAL owner equals the adds submitted for it, across every epoch
// bump — exactly-once survives rebalancing. The online checker's range-
// ownership invariant watches every fence/install as it happens.
// ---------------------------------------------------------------------------

class RangedMoveSchedule : public ::testing::TestWithParam<Scenario> {};

TEST_P(RangedMoveSchedule, ExactlyOnceUnderMovesAndChurn) {
  const Scenario sc = GetParam();
  Rng rng(sc.seed * 48271 + 17);
  ShardedClusterOptions o;
  o.shards = sc.shards;
  o.replicas_per_shard = 3;
  o.seed = sc.seed;
  o.session.max_attempts_per_request = 100000;
  // k0..k9 keys; initial split points give every shard a slice.
  o.range_splits = sc.shards == 2 ? std::vector<std::string>{"k5"}
                                  : std::vector<std::string>{"k3", "k7"};
  ShardedCluster c(o);
  c.run_for(seconds(2));

  const auto key = [](int i) { return "k" + std::to_string(i); };
  std::map<std::string, std::int64_t> expected;
  std::vector<std::vector<bool>> down(
      static_cast<std::size_t>(sc.shards), std::vector<bool>(3, false));
  std::uint64_t submitted = 0, committed_replies = 0;
  std::int64_t next_client = 0;
  std::uint64_t moves_attempted = 0;

  auto submit_add = [&](const std::vector<std::string>& keys) {
    const std::int64_t client = next_client++ % 8;
    Command cmd;
    for (const std::string& k : keys) {
      cmd.ops.push_back(db::Op{db::OpType::kAdd, k, "", 1});
      ++expected[k];
    }
    ++submitted;
    c.router().submit(client, cmd, [&committed_replies](const RouteReply& r) {
      if (r.committed) ++committed_replies;
    });
  };

  for (int step = 0; step < sc.steps; ++step) {
    const int what = static_cast<int>(rng.next_below(12));
    if (what < 4) {
      const int burst = static_cast<int>(rng.next_range(1, 3));
      for (int i = 0; i < burst; ++i) {
        submit_add({key(static_cast<int>(rng.next_below(10)))});
      }
    } else if (what < 6) {
      const int a = static_cast<int>(rng.next_below(10));
      const int b = (a + 1 + static_cast<int>(rng.next_below(9))) % 10;
      submit_add({key(a), key(b)});
    } else if (what == 6) {
      const int s = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(sc.shards)));
      const int lone = static_cast<int>(rng.next_below(3));
      std::vector<int> rest;
      for (int i = 0; i < 3; ++i) {
        if (i != lone) rest.push_back(i);
      }
      c.partition_shard(s, {{lone}, rest});
    } else if (what == 7) {
      c.heal();
    } else if (what == 8) {
      const int s = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(sc.shards)));
      const int i = static_cast<int>(rng.next_below(3));
      if (!down[static_cast<std::size_t>(s)][static_cast<std::size_t>(i)]) {
        down[static_cast<std::size_t>(s)][static_cast<std::size_t>(i)] = true;
        c.crash(s, i);
      }
    } else if (what == 9) {
      for (int s = 0; s < sc.shards; ++s) {
        for (int i = 0; i < 3; ++i) {
          if (down[static_cast<std::size_t>(s)][static_cast<std::size_t>(i)]) {
            down[static_cast<std::size_t>(s)][static_cast<std::size_t>(i)] = false;
            c.recover(s, i);
            break;
          }
        }
      }
    } else if (what == 10) {
      // Random move: any range to a different shard. Rejections (busy
      // range) are part of the schedule.
      const int r = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(c.directory().range_count())));
      const auto [lo, hi] = c.directory().range_bounds(r);
      const int owner = c.directory().range_owner(r);
      const int to = (owner + 1 +
                      static_cast<int>(rng.next_below(
                          static_cast<std::uint64_t>(sc.shards - 1)))) %
                     sc.shards;
      if (c.move_range(lo, hi, to)) ++moves_attempted;
    } else {
      // Refine or coarsen the map: split inside a random key's slot, or
      // merge away a random interior bound (rejected across owners).
      if (rng.next_below(2) == 0) {
        c.split_at(key(static_cast<int>(rng.next_below(10))) + "~");
      } else if (c.directory().range_count() > 1) {
        const int r = 1 + static_cast<int>(rng.next_below(
                              static_cast<std::uint64_t>(c.directory().range_count() - 1)));
        c.merge_at(c.directory().range_bounds(r).first);
      }
    }
    c.run_for(millis(static_cast<std::int64_t>(rng.next_range(10, 200))));
    ASSERT_EQ(c.check_green_prefix_consistency(), std::nullopt) << "seed " << sc.seed;
  }

  // Quiesce: heal, recover everyone, drain router and rebalancer.
  for (int s = 0; s < sc.shards; ++s) {
    for (int i = 0; i < 3; ++i) {
      if (down[static_cast<std::size_t>(s)][static_cast<std::size_t>(i)]) c.recover(s, i);
    }
  }
  c.heal();
  for (int rounds = 0; !(c.router().idle() && c.rebalancer().idle()) && rounds < 120;
       ++rounds) {
    c.run_for(seconds(1));
  }
  ASSERT_TRUE(c.router().idle()) << "router never drained, seed " << sc.seed;
  ASSERT_TRUE(c.rebalancer().idle()) << "rebalancer never drained, seed " << sc.seed;
  c.run_for(seconds(15));  // every shard converges to one primary

  EXPECT_EQ(committed_replies, submitted) << "seed " << sc.seed;
  EXPECT_EQ(c.router().stats().cross_partial_aborts, 0u) << "seed " << sc.seed;
  for (int s = 0; s < sc.shards; ++s) {
    ASSERT_TRUE(c.converged(s)) << "shard " << s << " not converged, seed " << sc.seed;
  }
  // Per-key oracle at the key's final owner: every add exactly once, no key
  // lost or duplicated by any move.
  for (const auto& [k, want] : expected) {
    const int owner = c.directory().shard_of(k);
    EXPECT_EQ(c.node(owner, 0).engine().database().get(k), std::to_string(want))
        << "key " << k << " owner " << owner << " seed " << sc.seed
        << " (moves attempted: " << moves_attempted << ")";
  }
  EXPECT_EQ(c.check_all(), std::nullopt) << "seed " << sc.seed;
}

std::vector<Scenario> move_scenarios() {
  std::vector<Scenario> v;
  for (std::uint64_t s = 1; s <= 16; ++s) v.push_back({s, 2, 26});
  for (std::uint64_t s = 17; s <= 28; ++s) v.push_back({s, 3, 22});
  return v;
}

INSTANTIATE_TEST_SUITE_P(RangedMoves, RangedMoveSchedule, ::testing::ValuesIn(move_scenarios()),
                         [](const ::testing::TestParamInfo<Scenario>& info) {
                           return "seed" + std::to_string(info.param.seed) + "_s" +
                                  std::to_string(info.param.shards);
                         });

// ---------------------------------------------------------------------------
// Prepared-check transactions under the same churn (partitions, crashes,
// recoveries, random range moves/splits/merges), interleaved with plain
// cross-shard adds and barrier-stamped snapshot reads. Checked transfers go
// through the router's coordinator handoff (DESIGN.md §13); moves can land
// BETWEEN a transaction's prepare and confirm, exercising the fenced-confirm
// reroute. Oracles at quiescence:
//  - checked atomicity: a transfer's two kAdds both applied (committed) or
//    neither (check-aborted) — per-key counters equal the committed tally;
//  - atomic visibility: every snapshot read of k0..k9 sums even (each
//    committed transfer or add bumps two keys), so none saw half of one;
//  - deterministic votes: a transfer checking the never-written flag against
//    "" always commits, against a bogus value always check-aborts;
//  - no residue: every reserved `__txn*` cell erased at every replica;
//  - checker invariant 9 (prepare before confirm/cancel, never both) holds
//    event-by-event throughout — the online checker runs on every schedule.
// ---------------------------------------------------------------------------

using Down = std::vector<std::vector<bool>>;  ///< [shard][replica] crashed by the schedule

/// One fault or rebalance step of the transaction schedules, by `what` in
/// 6..11: a lone-replica partition, heal, a replica crash, one recovery, a
/// random range move, or a split or merge of the range map. A move can land
/// between a prepare and its confirm, in which case the coordinator must
/// reroute the decided slice.
void txn_churn_step(ShardedCluster& c, Rng& rng, int shards, Down& down, int what) {
  const auto nshards = static_cast<std::uint64_t>(shards);
  if (what == 6) {
    const int s = static_cast<int>(rng.next_below(nshards));
    const int lone = static_cast<int>(rng.next_below(3));
    std::vector<int> rest;
    for (int i = 0; i < 3; ++i) {
      if (i != lone) rest.push_back(i);
    }
    c.partition_shard(s, {{lone}, rest});
  } else if (what == 7) {
    c.heal();
  } else if (what == 8) {
    const int s = static_cast<int>(rng.next_below(nshards));
    const int i = static_cast<int>(rng.next_below(3));
    if (!down[static_cast<std::size_t>(s)][static_cast<std::size_t>(i)]) {
      down[static_cast<std::size_t>(s)][static_cast<std::size_t>(i)] = true;
      c.crash(s, i);
    }
  } else if (what == 9) {
    for (int s = 0; s < shards; ++s) {
      for (int i = 0; i < 3; ++i) {
        if (down[static_cast<std::size_t>(s)][static_cast<std::size_t>(i)]) {
          down[static_cast<std::size_t>(s)][static_cast<std::size_t>(i)] = false;
          c.recover(s, i);
          break;
        }
      }
    }
  } else if (what == 10) {
    const int r = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(c.directory().range_count())));
    const auto [lo, hi] = c.directory().range_bounds(r);
    const int owner = c.directory().range_owner(r);
    const int to = (owner + 1 + static_cast<int>(rng.next_below(nshards - 1))) % shards;
    c.move_range(lo, hi, to);
  } else {
    if (rng.next_below(2) == 0) {
      c.split_at("k" + std::to_string(rng.next_below(10)) + "~");
    } else if (c.directory().range_count() > 1) {
      const int r = 1 + static_cast<int>(rng.next_below(
                            static_cast<std::uint64_t>(c.directory().range_count() - 1)));
      c.merge_at(c.directory().range_bounds(r).first);
    }
  }
}

/// Quiesce: recover everyone, heal, and drain the router, the rebalancer
/// and the live coordinator. False if they never drained.
bool quiesce_txn(ShardedCluster& c, int shards, const Down& down) {
  for (int s = 0; s < shards; ++s) {
    for (int i = 0; i < 3; ++i) {
      if (down[static_cast<std::size_t>(s)][static_cast<std::size_t>(i)]) c.recover(s, i);
    }
  }
  c.heal();
  for (int rounds = 0;
       !(c.router().idle() && c.rebalancer().idle() && c.txn().idle()) && rounds < 120;
       ++rounds) {
    c.run_for(seconds(1));
  }
  return c.router().idle() && c.rebalancer().idle() && c.txn().idle();
}

class TxnSchedule : public ::testing::TestWithParam<Scenario> {};

TEST_P(TxnSchedule, PreparedChecksStayAtomicUnderChurnAndMoves) {
  const Scenario sc = GetParam();
  Rng rng(sc.seed * 92821 + 5);
  ShardedClusterOptions o;
  o.shards = sc.shards;
  o.replicas_per_shard = 3;
  o.seed = sc.seed;
  o.session.max_attempts_per_request = 100000;
  o.range_splits = sc.shards == 2 ? std::vector<std::string>{"k5"}
                                  : std::vector<std::string>{"k3", "k7"};
  ShardedCluster c(o);
  c.run_for(seconds(2));

  const auto key = [](int i) { return "k" + std::to_string(i); };
  struct TxnOutcome {
    bool bogus = false;
    bool replied = false;
    bool committed = false;
    bool check_aborted = false;
  };
  struct SnapOutcome {
    bool replied = false;
    bool ok = false;
    std::int64_t sum = 0;  ///< k0..k9 at the pinned cut
  };
  std::map<std::string, std::int64_t> committed_adds;
  std::vector<std::unique_ptr<TxnOutcome>> transfers;
  std::vector<std::unique_ptr<SnapOutcome>> snaps;
  Down down(static_cast<std::size_t>(sc.shards), std::vector<bool>(3, false));
  std::int64_t next_client = 0;

  // A checked transfer: precondition on the never-written flag key (true
  // against "", deterministically false against "no"), one kAdd per key.
  auto submit_transfer = [&](bool bogus) {
    const int a = static_cast<int>(rng.next_below(10));
    const int b = (a + 1 + static_cast<int>(rng.next_below(9))) % 10;
    const std::int64_t client = 200 + next_client++ % 8;
    Command cmd;
    cmd.ops.push_back(db::Op{db::OpType::kCheck, "flag", bogus ? "no" : "", 0});
    cmd.ops.push_back(db::Op{db::OpType::kAdd, key(a), "", 1});
    cmd.ops.push_back(db::Op{db::OpType::kAdd, key(b), "", 1});
    transfers.push_back(std::make_unique<TxnOutcome>());
    TxnOutcome* out = transfers.back().get();
    out->bogus = bogus;
    c.router().submit(client, cmd,
                      [out, &committed_adds, ka = key(a), kb = key(b)](const RouteReply& r) {
                        out->replied = true;
                        out->committed = r.committed;
                        out->check_aborted = r.check_aborted;
                        if (r.committed) {
                          ++committed_adds[ka];
                          ++committed_adds[kb];
                        }
                      });
  };

  for (int step = 0; step < sc.steps; ++step) {
    const int what = static_cast<int>(rng.next_below(12));
    if (what < 4) {
      const int burst = static_cast<int>(rng.next_range(1, 3));
      for (int i = 0; i < burst; ++i) submit_transfer(rng.next_below(6) == 0);
    } else if (what == 4) {
      // Plain unchecked cross add: rides the router's commit barrier and
      // shares keys (and green positions) with the coordinator's markers.
      const int a = static_cast<int>(rng.next_below(10));
      const int b = (a + 1 + static_cast<int>(rng.next_below(9))) % 10;
      Command cmd;
      cmd.ops.push_back(db::Op{db::OpType::kAdd, key(a), "", 1});
      cmd.ops.push_back(db::Op{db::OpType::kAdd, key(b), "", 1});
      c.router().submit(next_client++ % 8, cmd,
                        [&committed_adds, ka = key(a), kb = key(b)](const RouteReply& r) {
                          if (r.committed) {
                            ++committed_adds[ka];
                            ++committed_adds[kb];
                          }
                        });
    } else if (what == 5) {
      // Barrier-stamped snapshot read of every key mid-churn. Each committed
      // transfer or unchecked add bumps two distinct keys by 1, so a read
      // that saw half of one sums odd. The two discarded draws keep every
      // seed's RNG stream, and so its schedule, stable.
      (void)rng.next_below(10);
      (void)rng.next_below(10);
      Command q;
      for (int i = 0; i < 10; ++i) q.ops.push_back(db::Op{db::OpType::kGet, key(i), "", 0});
      snaps.push_back(std::make_unique<SnapOutcome>());
      SnapOutcome* out = snaps.back().get();
      c.txn().snapshot_read(std::move(q), [out](const txn::SnapshotReadReply& r) {
        out->replied = true;
        out->ok = r.ok;
        for (const std::string& v : r.reads) out->sum += v.empty() ? 0 : std::stoll(v);
      });
    } else {
      txn_churn_step(c, rng, sc.shards, down, what);
    }
    c.run_for(millis(static_cast<std::int64_t>(rng.next_range(10, 200))));
    ASSERT_EQ(c.check_green_prefix_consistency(), std::nullopt) << "seed " << sc.seed;
  }

  ASSERT_TRUE(quiesce_txn(c, sc.shards, down)) << "never drained, seed " << sc.seed;
  c.run_for(seconds(15));  // every shard converges to one primary

  // Deterministic votes: the flag key is never written.
  for (const auto& t : transfers) {
    ASSERT_TRUE(t->replied) << "seed " << sc.seed;
    if (t->bogus) {
      EXPECT_FALSE(t->committed) << "seed " << sc.seed;
      EXPECT_TRUE(t->check_aborted) << "seed " << sc.seed;
    } else {
      EXPECT_TRUE(t->committed) << "seed " << sc.seed;
    }
  }
  for (const auto& s : snaps) {
    ASSERT_TRUE(s->replied) << "snapshot read never replied, seed " << sc.seed;
    EXPECT_TRUE(s->ok) << "seed " << sc.seed;
    // Atomic visibility: every cross action is wholly in or out of the cut.
    EXPECT_EQ(s->sum % 2, 0) << "snapshot sum " << s->sum << ", seed " << sc.seed;
  }

  for (int s = 0; s < sc.shards; ++s) {
    ASSERT_TRUE(c.converged(s)) << "shard " << s << " not converged, seed " << sc.seed;
  }
  // Checked atomicity: each key's counter equals the committed tally — an
  // aborted transfer that half-applied, or a lost/duplicated confirm across
  // a move, breaks this equality.
  for (const auto& [k, want] : committed_adds) {
    const int owner = c.directory().shard_of(k);
    EXPECT_EQ(c.node(owner, 0).engine().database().get(k),
              want ? std::to_string(want) : "")
        << "key " << k << " owner " << owner << " seed " << sc.seed;
  }
  // No reserved-key residue at any running replica.
  for (int s = 0; s < sc.shards; ++s) {
    for (int i = 0; i < 3; ++i) {
      if (!c.node(s, i).running()) continue;
      EXPECT_TRUE(c.node(s, i).engine().database().scan_prefix("__txn").empty())
          << "shard " << s << " replica " << i << " seed " << sc.seed;
    }
  }
  ASSERT_NE(c.checker(), nullptr);
  EXPECT_EQ(c.checker()->txn_unresolved(), 0) << "seed " << sc.seed;
  EXPECT_EQ(c.check_all(), std::nullopt) << "seed " << sc.seed;
}

std::vector<Scenario> txn_scenarios() {
  std::vector<Scenario> v;
  for (std::uint64_t s = 1; s <= 12; ++s) v.push_back({s, 2, 22});
  for (std::uint64_t s = 13; s <= 20; ++s) v.push_back({s, 3, 18});
  return v;
}

INSTANTIATE_TEST_SUITE_P(TxnChurn, TxnSchedule, ::testing::ValuesIn(txn_scenarios()),
                         [](const ::testing::TestParamInfo<Scenario>& info) {
                           return "seed" + std::to_string(info.param.seed) + "_s" +
                                  std::to_string(info.param.shards);
                         });

// ---------------------------------------------------------------------------
// Coordinator crashes under the same churn: restart_txn_coordinator() at a
// seeded virtual time, amid a staggered burst of transfers, cuts whatever the
// dead coordinator had in flight — prepares half voted, round 2 partly
// issued, a fenced confirm's reroute, post-commit cleanups — and the
// replacement keeps serving new transfers. adopt_orphans() then runs at
// quiescence. Every transfer moves one unit between two keys of its own, so
// the ledger judges each transaction alone:
//  - all-or-nothing: its debit and credit both applied or neither, so the
//    transfer sum over every ledger key is 0;
//  - a transfer the client saw commit applied, one it saw abort did not, and
//    a bogus-check transfer never applied;
//  - no `__txn*` residue, no unresolved prepare (invariant 9), and
//    check_all() clean.
// ---------------------------------------------------------------------------

class TxnCrashSchedule : public ::testing::TestWithParam<Scenario> {};

TEST_P(TxnCrashSchedule, AdoptionLeavesEveryCutTransferAllOrNothing) {
  const Scenario sc = GetParam();
  Rng rng(sc.seed * 48271 + 9);
  ShardedClusterOptions o;
  o.shards = sc.shards;
  o.replicas_per_shard = 3;
  o.seed = sc.seed;
  o.session.max_attempts_per_request = 100000;
  o.range_splits = sc.shards == 2 ? std::vector<std::string>{"k5"}
                                  : std::vector<std::string>{"k3", "k7"};
  ShardedCluster c(o);
  c.run_for(seconds(2));

  struct Transfer {
    std::string from, to;
    bool bogus = false;
    bool replied = false;
    bool committed = false;
  };
  std::vector<std::unique_ptr<Transfer>> transfers;
  Down down(static_cast<std::size_t>(sc.shards), std::vector<bool>(3, false));

  // `coordinated`: credit a key off the flag's shard, so the transfer
  // spans shards and goes through the coordinator.
  auto submit_transfer = [&](bool bogus, bool coordinated) {
    const int a = static_cast<int>(rng.next_below(10));
    int b = (a + 1 + static_cast<int>(rng.next_below(9))) % 10;
    const int flag_shard = c.directory().shard_of("flag");
    for (int i = 0; coordinated && i < 9; ++i) {
      if (c.directory().shard_of("k" + std::to_string(b) + "/") != flag_shard) break;
      b = (b + 1) % 10 == a ? (b + 2) % 10 : (b + 1) % 10;
    }
    const std::string id = "/" + std::to_string(transfers.size());
    transfers.push_back(std::make_unique<Transfer>());
    Transfer* t = transfers.back().get();
    t->from = "k" + std::to_string(a) + id;
    t->to = "k" + std::to_string(b) + id;
    t->bogus = bogus;
    Command cmd;
    cmd.ops.push_back(db::Op{db::OpType::kCheck, "flag", bogus ? "no" : "", 0});
    cmd.ops.push_back(db::Op{db::OpType::kAdd, t->from, "", -1});
    cmd.ops.push_back(db::Op{db::OpType::kAdd, t->to, "", 1});
    const auto client = static_cast<std::int64_t>(200 + transfers.size() % 8);
    c.router().submit(client, cmd, [t](const RouteReply& r) {
      t->replied = true;
      t->committed = r.committed;
    });
  };

  // Moves and merges may have gathered the flag and "k9" on one shard:
  // then split "k9" off and move it away, so a transfer can span shards.
  const auto spread = [&] {
    for (int tries = 0; tries < 50; ++tries) {
      const int flag_shard = c.directory().shard_of("flag");
      if (c.directory().shard_of("k9/") != flag_shard) return;
      c.split_at("k9");
      const int r = c.directory().range_count() - 1;  // ["k9", "") after the split
      const auto [lo, hi] = c.directory().range_bounds(r);
      c.move_range(lo, hi, (flag_shard + 1) % sc.shards);
      c.run_for(millis(200));
    }
  };
  const int crash_step = static_cast<int>(rng.next_range(sc.steps / 4, 3 * sc.steps / 4));
  for (int step = 0; step < sc.steps; ++step) {
    const int what = static_cast<int>(rng.next_below(12));
    if (step == crash_step) {
      spread();
      // Three coordinated transfers 12 ms apart, then the crash at most
      // 15 ms after the last: that one is still preparing (a commit takes
      // ~20 ms here), the earlier ones are in round 2 or their cleanups.
      for (int i = 0; i < 3; ++i) {
        if (i > 0) c.run_for(millis(12));
        submit_transfer(rng.next_below(6) == 0, true);
      }
      const auto at = millis(static_cast<std::int64_t>(rng.next_range(0, 15)));
      c.sim().after(at, [&c] { c.restart_txn_coordinator(); });
    } else if (what < 6) {
      const int burst = static_cast<int>(rng.next_range(1, 3));
      for (int i = 0; i < burst; ++i) submit_transfer(rng.next_below(6) == 0, false);
    } else {
      txn_churn_step(c, rng, sc.shards, down, what);
    }
    c.run_for(millis(static_cast<std::int64_t>(rng.next_range(10, 200))));
    ASSERT_EQ(c.check_green_prefix_consistency(), std::nullopt) << "seed " << sc.seed;
  }

  // The replacement's own transfers drain; the dead coordinator's last
  // actions reach their green positions. Then adopt what it left behind.
  ASSERT_TRUE(quiesce_txn(c, sc.shards, down)) << "never drained, seed " << sc.seed;
  c.run_for(seconds(5));
  int adopted = -1;
  c.txn().adopt_orphans([&](int n) { adopted = n; });
  for (int rounds = 0; !(adopted >= 0 && c.txn().idle() && c.router().idle()) && rounds < 120;
       ++rounds) {
    c.run_for(seconds(1));
  }
  ASSERT_GE(adopted, 0) << "adoption never finished, seed " << sc.seed;
  ASSERT_TRUE(c.txn().idle() && c.router().idle()) << "seed " << sc.seed;
  c.run_for(seconds(15));  // every shard converges to one primary
  for (int s = 0; s < sc.shards; ++s) {
    ASSERT_TRUE(c.converged(s)) << "shard " << s << " not converged, seed " << sc.seed;
  }

  const auto value = [&](const std::string& k) {
    const std::string v = c.node(c.directory().shard_of(k), 0).engine().database().get(k);
    return v.empty() ? std::int64_t{0} : std::stoll(v);
  };
  std::int64_t sum = 0;
  int cut = 0;
  for (const auto& t : transfers) {
    const std::int64_t from = value(t->from);
    const std::int64_t to = value(t->to);
    sum += from + to;
    EXPECT_TRUE((from == -1 && to == 1) || (from == 0 && to == 0))
        << t->from << "=" << from << " " << t->to << "=" << to << " seed " << sc.seed;
    const bool applied = to == 1;
    if (t->bogus) {
      EXPECT_FALSE(applied) << t->to << " seed " << sc.seed;
    }
    if (t->replied) {
      EXPECT_EQ(applied, t->committed) << t->to << " seed " << sc.seed;
      EXPECT_TRUE(t->committed || t->bogus) << t->to << " seed " << sc.seed;
    } else {
      ++cut;
    }
  }
  EXPECT_EQ(sum, 0) << "seed " << sc.seed;
  EXPECT_GE(cut, 1) << "the crash cut no transfer, seed " << sc.seed;
  for (int s = 0; s < sc.shards; ++s) {
    for (int i = 0; i < 3; ++i) {
      if (!c.node(s, i).running()) continue;
      EXPECT_TRUE(c.node(s, i).engine().database().scan_prefix("__txn").empty())
          << "shard " << s << " replica " << i << " seed " << sc.seed;
    }
  }
  ASSERT_NE(c.checker(), nullptr);
  EXPECT_EQ(c.checker()->txn_unresolved(), 0) << "seed " << sc.seed;
  EXPECT_EQ(c.check_all(), std::nullopt) << "seed " << sc.seed;
}

std::vector<Scenario> txn_crash_scenarios() {
  std::vector<Scenario> v;
  for (std::uint64_t s = 1; s <= 10; ++s) v.push_back({s, 2, 22});
  for (std::uint64_t s = 11; s <= 16; ++s) v.push_back({s, 3, 18});
  return v;
}

INSTANTIATE_TEST_SUITE_P(TxnCoordinatorCrash, TxnCrashSchedule,
                         ::testing::ValuesIn(txn_crash_scenarios()),
                         [](const ::testing::TestParamInfo<Scenario>& info) {
                           return "seed" + std::to_string(info.param.seed) + "_s" +
                                  std::to_string(info.param.shards);
                         });

}  // namespace
}  // namespace tordb::shard
