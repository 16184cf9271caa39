// The safety checker must actually catch corrupted histories — each
// negative test forges a trace stream violating one invariant and asserts
// the checker flags it with the right diagnosis. A positive run on a live
// cluster plus export/metrics smoke tests round out the coverage.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "db/database.h"
#include "obs/metrics.h"
#include "obs/safety_checker.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "util/log.h"
#include "workload/cluster.h"
#include "workload/sharded_cluster.h"

namespace tordb::obs {
namespace {

using core::Reply;
using core::Semantics;
using db::Command;

/// A bus + non-fatal checker, with per-node tracers for forging events.
struct Forge {
  Simulator sim{1};
  std::shared_ptr<TraceBus> bus = std::make_shared<TraceBus>(sim);
  SafetyChecker checker{*bus, CheckerOptions{.fail_fast = false}};

  Tracer node(NodeId id) { return Tracer(bus, id); }
  void green(NodeId node_id, ActionId action, std::int64_t pos) {
    Tracer(bus, node_id).emit_action(EventKind::kActionGreen, action, pos);
  }
};

TEST(ObsChecker, ConsistentForgedHistoryIsOk) {
  Forge f;
  // Two nodes mark the same actions green in the same order: no violation.
  f.green(0, {0, 1}, 1);
  f.green(0, {1, 1}, 2);
  f.green(1, {0, 1}, 1);
  f.green(1, {1, 1}, 2);
  EXPECT_TRUE(f.checker.ok()) << f.checker.report();
  EXPECT_EQ(f.checker.canonical_green_count(), 2);
  EXPECT_EQ(f.checker.events_checked(), 4u);
  EXPECT_NE(f.checker.verdict().find("ok"), std::string::npos);
}

TEST(ObsChecker, CatchesGreenOrderDivergence) {
  Forge f;
  f.green(0, {0, 1}, 1);
  f.green(1, {1, 1}, 1);  // node 1 puts a different action at position 1
  ASSERT_FALSE(f.checker.ok());
  EXPECT_NE(f.checker.violations()[0].find("GREEN ORDER DIVERGENCE"), std::string::npos);
  EXPECT_NE(f.checker.verdict().find("violation"), std::string::npos);
}

TEST(ObsChecker, CatchesNonSequentialGreen) {
  Forge f;
  f.green(0, {0, 1}, 2);  // first green at position 2: a gap
  ASSERT_FALSE(f.checker.ok());
  EXPECT_NE(f.checker.violations()[0].find("sequential"), std::string::npos);
}

TEST(ObsChecker, CatchesActionGreenAtTwoPositions) {
  Forge f;
  f.green(0, {0, 1}, 1);
  f.green(0, {0, 1}, 2);  // same action id extends the history again
  ASSERT_FALSE(f.checker.ok());
  EXPECT_NE(f.checker.violations()[0].find("already green at position"), std::string::npos);
}

TEST(ObsChecker, CatchesGreenFifoGap) {
  Forge f;
  f.green(0, {0, 1}, 1);
  f.green(0, {0, 3}, 2);  // creator 0 skips index 2
  ASSERT_FALSE(f.checker.ok());
  EXPECT_NE(f.checker.violations()[0].find("GREEN FIFO"), std::string::npos);
}

TEST(ObsChecker, CatchesDoublePrimary) {
  Forge f;
  // Two nodes install the same primary generation with different memberships.
  f.node(0).emit(EventKind::kPrimaryInstall, /*prim=*/3, /*attempt=*/1, /*count=*/2, 111);
  f.node(1).emit(EventKind::kPrimaryInstall, /*prim=*/3, /*attempt=*/1, /*count=*/2, 222);
  ASSERT_FALSE(f.checker.ok());
  EXPECT_NE(f.checker.violations()[0].find("TWO PRIMARY COMPONENTS"), std::string::npos);
}

TEST(ObsChecker, AgreeingPrimaryInstallsAreOk) {
  Forge f;
  f.node(0).emit(EventKind::kPrimaryInstall, 3, 1, 2, 111);
  f.node(1).emit(EventKind::kPrimaryInstall, 3, 1, 2, 111);
  EXPECT_TRUE(f.checker.ok()) << f.checker.report();
}

TEST(ObsChecker, CatchesWhiteTrimPastUnstableAction) {
  Forge f;
  // Node 0 believes its server set is {0, 1}; node 1 has zero greens.
  f.node(0).emit(EventKind::kEngineStart, 0, 0);
  f.node(0).emit(EventKind::kMemberAdd, 0);
  f.node(0).emit(EventKind::kMemberAdd, 1);
  f.node(1).emit(EventKind::kEngineStart, 0, 0);
  f.green(0, {0, 1}, 1);
  f.node(0).emit(EventKind::kWhiteTrim, /*line=*/1, /*trimmed=*/1);
  ASSERT_FALSE(f.checker.ok());
  EXPECT_NE(f.checker.violations()[0].find("WHITE TRIM PASSES UNSTABLE ACTION"),
            std::string::npos);
}

TEST(ObsChecker, WhiteTrimMayPassARecoveryRetreat) {
  Forge f;
  // Node 1 marks two greens, then crash-recovers with only one (greens are
  // logged asynchronously). Node 0 trimming to 2 leans on knowledge node 1
  // emitted before the crash — invariant 6 bounds trims by the member's
  // high-water mark, so this is legal (the next exchange state-transfers
  // node 1 past the trimmed bodies).
  f.node(0).emit(EventKind::kEngineStart, 0, 0);
  f.node(0).emit(EventKind::kMemberAdd, 0);
  f.node(0).emit(EventKind::kMemberAdd, 1);
  f.green(0, {0, 1}, 1);
  f.green(0, {0, 2}, 2);
  f.green(1, {0, 1}, 1);
  f.green(1, {0, 2}, 2);
  f.node(1).emit(EventKind::kEngineStart, /*green=*/1, /*how=*/1);  // recovery retreat
  f.node(0).emit(EventKind::kWhiteTrim, /*line=*/2, /*trimmed=*/2);
  EXPECT_TRUE(f.checker.ok()) << f.checker.report();
  // Past the high-water mark is still a violation: nobody ever held 3.
  f.green(0, {0, 3}, 3);
  f.node(0).emit(EventKind::kWhiteTrim, /*line=*/3, /*trimmed=*/1);
  ASSERT_FALSE(f.checker.ok());
  EXPECT_NE(f.checker.violations()[0].find("WHITE TRIM PASSES UNSTABLE ACTION"),
            std::string::npos);
}

TEST(ObsChecker, CatchesTrimBeyondOwnGreens) {
  Forge f;
  f.green(0, {0, 1}, 1);
  f.node(0).emit(EventKind::kWhiteTrim, /*line=*/5, /*trimmed=*/1);
  ASSERT_FALSE(f.checker.ok());
  EXPECT_NE(f.checker.violations()[0].find("beyond its own green count"), std::string::npos);
}

TEST(ObsChecker, CatchesLyingKnowledgeWord) {
  Forge f;
  // Invariant 10: a knowledge word beyond the sender's true green count
  // would let peers trim history the sender does not hold.
  f.green(0, {0, 1}, 1);
  f.node(0).emit(EventKind::kKnowledgeSend, /*word=*/3);
  ASSERT_FALSE(f.checker.ok());
  EXPECT_NE(f.checker.violations()[0].find("KNOWLEDGE WORD BEYOND TRUE GREEN COUNT"),
            std::string::npos);
}

TEST(ObsChecker, CatchesRetreatingKnowledgeWord) {
  Forge f;
  f.green(0, {0, 1}, 1);
  f.green(0, {0, 2}, 2);
  f.node(0).emit(EventKind::kKnowledgeSend, /*word=*/2);
  f.node(0).emit(EventKind::kKnowledgeSend, /*word=*/1);
  ASSERT_FALSE(f.checker.ok());
  EXPECT_NE(f.checker.violations()[0].find("NON-MONOTONE KNOWLEDGE WORD"), std::string::npos);
}

TEST(ObsChecker, KnowledgeWordMayRelowerAfterRecovery) {
  Forge f;
  // A recovered node legitimately sends a word below its pre-crash line:
  // kEngineStart resets the invariant-10 monotonicity baseline.
  f.green(0, {0, 1}, 1);
  f.green(0, {0, 2}, 2);
  f.node(0).emit(EventKind::kKnowledgeSend, /*word=*/2);
  f.node(0).emit(EventKind::kEngineStart, /*green=*/1, /*how=*/1);
  f.node(0).emit(EventKind::kKnowledgeSend, /*word=*/1);
  EXPECT_TRUE(f.checker.ok()) << f.checker.report();
}

TEST(ObsChecker, CatchesSafeDeliveryDivergence) {
  Forge f;
  f.node(0).emit(EventKind::kSafeDeliver, /*counter=*/1, /*coord=*/0, /*seq=*/7, 0xAA);
  f.node(1).emit(EventKind::kSafeDeliver, 1, 0, 7, 0xBB);
  ASSERT_FALSE(f.checker.ok());
  EXPECT_NE(f.checker.violations()[0].find("SAFE DELIVERY DIVERGENCE"), std::string::npos);
}

TEST(ObsChecker, CatchesAdoptionBeyondKnownHistory) {
  Forge f;
  f.green(0, {0, 1}, 1);
  f.node(1).emit(EventKind::kStateTransferApply, /*green=*/5);
  ASSERT_FALSE(f.checker.ok());
  EXPECT_NE(f.checker.violations()[0].find("adopted a green prefix"), std::string::npos);
}

TEST(ObsChecker, AdoptionWithinHistoryResetsNodeCount) {
  Forge f;
  f.green(0, {0, 1}, 1);
  f.green(0, {0, 2}, 2);
  f.node(1).emit(EventKind::kStateTransferApply, /*green=*/2);
  // Node 1 now continues from position 3 without re-marking 1 and 2.
  f.green(1, {0, 3}, 3);
  EXPECT_TRUE(f.checker.ok()) << f.checker.report();
  EXPECT_EQ(f.checker.canonical_green_count(), 3);
}

TEST(ObsChecker, CollectsMultipleViolationsWhenNotFailFast) {
  Forge f;
  f.green(0, {0, 1}, 1);
  f.green(1, {1, 1}, 1);
  f.node(0).emit(EventKind::kSafeDeliver, 1, 0, 7, 0xAA);
  f.node(1).emit(EventKind::kSafeDeliver, 1, 0, 7, 0xBB);
  EXPECT_EQ(f.checker.violations().size(), 2u);
  EXPECT_NE(f.checker.report().find("GREEN ORDER DIVERGENCE"), std::string::npos);
  EXPECT_NE(f.checker.report().find("SAFE DELIVERY DIVERGENCE"), std::string::npos);
}

// --- live-cluster positive run ----------------------------------------------

TEST(ObsChecker, LiveClusterPassesAllInvariants) {
  workload::ClusterOptions o;
  o.replicas = 3;
  o.obs.trace = true;
  o.obs.check = true;
  o.obs.metrics_window = millis(200);
  workload::EngineCluster c(o);
  c.run_for(seconds(1));
  bool replied = false;
  c.engine(0).submit({}, Command::put("k", "v"), 1, Semantics::kStrict,
                     [&](const Reply& r) {
                       replied = true;
                       EXPECT_FALSE(r.aborted);
                     });
  c.run_for(millis(300));
  EXPECT_TRUE(replied);

  ASSERT_NE(c.checker(), nullptr);
  EXPECT_TRUE(c.checker()->ok()) << c.checker()->report();
  EXPECT_GT(c.checker()->events_checked(), 0u);
  EXPECT_GE(c.checker()->canonical_green_count(), 1);

  // Export formats: JSONL has one object per retained event; the Chrome
  // trace is a JSON array with instant events and view-change slices.
  ASSERT_NE(c.trace_bus(), nullptr);
  const std::string jsonl = c.trace_bus()->to_jsonl();
  EXPECT_NE(jsonl.find("\"kind\":\"action_green\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"primary_install\""), std::string::npos);
  const std::string chrome = c.trace_bus()->to_chrome_trace();
  EXPECT_EQ(chrome.front(), '[');
  EXPECT_EQ(chrome[chrome.find_last_not_of('\n')], ']');
  EXPECT_NE(chrome.find("\"ph\""), std::string::npos);

  // Metrics windows rolled during the run and saw the green action.
  ASSERT_NE(c.metrics(), nullptr);
  c.sample_metrics();
  c.metrics()->roll(c.sim().now());
  EXPECT_GE(c.metrics()->windows().size(), 2u);
  EXPECT_GE(c.metrics()->counter("engine.actions_green").value(), 1u);
  EXPECT_NE(c.metrics()->totals().find("engine.actions_green"), std::string::npos);
}

TEST(ObsChecker, GreenCounterKeepsCountingThroughACrash) {
  // engine.actions_green is incremented where each action turns green, so a
  // crash only removes the dead replica's future greens. A total re-summed
  // over the running replicas at every roll would drop by the dead
  // replica's history, and since a counter total never moves down, it would
  // read 0 for windows while the survivors commit.
  workload::ClusterOptions o;
  o.replicas = 5;
  o.obs.check = true;
  o.obs.metrics_window = millis(250);
  workload::EngineCluster c(o);
  c.run_for(seconds(2));
  std::int64_t n = 0;
  std::uint64_t committed = 0;
  std::function<void()> issue = [&] {  // one closed-loop client at replica 0
    c.engine(0).submit({}, Command::put("k", std::to_string(++n)), 1, Semantics::kStrict,
                       [&](const Reply& r) {
                         if (!r.aborted) ++committed;
                         issue();
                       });
  };
  issue();
  c.run_for(seconds(2));

  ASSERT_NE(c.metrics(), nullptr);
  const std::size_t first = c.metrics()->windows().size();
  const std::uint64_t committed_before = committed;
  c.crash(4);
  c.run_for(seconds(2));
  EXPECT_GT(committed, committed_before + 100);  // the survivors keep committing
  const auto& windows = c.metrics()->windows();
  ASSERT_GE(windows.size(), first + 8);
  for (std::size_t i = first; i < windows.size(); ++i) {
    EXPECT_GT(windows[i].counter_deltas.at("engine.actions_green"), 0u) << "window " << i;
  }
  EXPECT_TRUE(c.checker()->ok()) << c.checker()->report();
}

TEST(ObsChecker, ShardCountersKeepCountingThroughACrash) {
  // shard.<id>.actions_green / actions_red / primaries_installed and
  // cluster.exchanges are incremented by the engines themselves (the
  // per-shard ones under the node's group scope), so at any instant each
  // moved by exactly what the replicas did. Re-summed over the running
  // replicas, a crash would drop the dead replica's history from the sum
  // and the counter would lag the survivors' work by that much.
  workload::ShardedClusterOptions o;
  o.shards = 2;
  o.replicas_per_shard = 3;
  o.range_splits = {"m"};  // "a*" -> shard 0
  o.obs.check = true;
  o.obs.metrics_window = millis(250);
  workload::ShardedCluster c(o);
  c.run_for(seconds(2));
  std::int64_t n = 0;
  std::function<void()> issue = [&] {  // one closed-loop client on shard 0
    c.router().submit(1, Command::put("a-key", std::to_string(++n)),
                      [&](const shard::RouteReply&) { issue(); });
  };
  issue();
  c.run_for(seconds(2));

  ASSERT_NE(c.metrics(), nullptr);
  struct Totals {
    std::uint64_t green = 0, red = 0, installs = 0, exchanges = 0;
  };
  // Counts of the replicas that survive: shard 0's first two, all of shard 1.
  const auto survivors = [&] {
    Totals t;
    for (int s = 0; s < 2; ++s) {
      for (int i = 0; i < 3; ++i) {
        if (s == 0 && i == 2) continue;
        const core::EngineStats& es = c.node(s, i).engine().stats();
        if (s == 0) {
          t.green += es.actions_green;
          t.red += es.actions_red;
          t.installs += es.primaries_installed;
        }
        t.exchanges += es.exchanges;
      }
    }
    return t;
  };
  const auto counters = [&] {
    MetricsRegistry& m = *c.metrics();
    return Totals{m.counter("shard.0.actions_green").value(),
                  m.counter("shard.0.actions_red").value(),
                  m.counter("shard.0.primaries_installed").value(),
                  m.counter("cluster.exchanges").value()};
  };
  const Totals work0 = survivors();
  const Totals seen0 = counters();
  ASSERT_GT(seen0.installs, 0u);
  c.crash(0, 2);
  c.run_for(seconds(2));
  const Totals work1 = survivors();
  const Totals seen1 = counters();
  EXPECT_GT(work1.installs, work0.installs);  // the survivors re-formed the primary
  EXPECT_GT(work1.green, work0.green + 50);   // and kept committing
  EXPECT_EQ(seen1.green - seen0.green, work1.green - work0.green);
  EXPECT_EQ(seen1.red - seen0.red, work1.red - work0.red);
  EXPECT_EQ(seen1.installs - seen0.installs, work1.installs - work0.installs);
  EXPECT_EQ(seen1.exchanges - seen0.exchanges, work1.exchanges - work0.exchanges);
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(ObsChecker, DbSizeGaugesFallWhenAReplicaCrashes) {
  // db.intern.{keys,bytes} and db.table.slots are sizes summed over the
  // running replicas: a crash takes the dead replica's share away. As
  // monotonic counter totals they would hold the old high forever.
  workload::ClusterOptions o;
  o.replicas = 3;
  o.obs.metrics_window = millis(250);
  workload::EngineCluster c(o);
  c.run_for(seconds(1));
  int committed = 0;
  for (int i = 0; i < 20; ++i) {
    c.engine(0).submit({}, Command::put("k" + std::to_string(i), "v"), 1, Semantics::kStrict,
                       [&](const Reply& r) { committed += r.aborted ? 0 : 1; });
  }
  c.run_for(seconds(1));
  ASSERT_EQ(committed, 20);

  ASSERT_NE(c.metrics(), nullptr);
  MetricsRegistry& m = *c.metrics();
  c.sample_metrics();
  const std::int64_t keys = m.gauge("db.intern.keys").value();
  const std::int64_t bytes = m.gauge("db.intern.bytes").value();
  const std::int64_t slots = m.gauge("db.table.slots").value();
  EXPECT_GE(keys, 3 * 20);
  c.crash(2);
  c.sample_metrics();
  EXPECT_LT(m.gauge("db.intern.keys").value(), keys);
  EXPECT_LT(m.gauge("db.intern.bytes").value(), bytes);
  EXPECT_LT(m.gauge("db.table.slots").value(), slots);
}

TEST(ObsChecker, CapturesLogLinesAsTraceEvents) {
  Simulator sim{1};
  auto bus = std::make_shared<TraceBus>(sim);
  bus->capture_logs();
  const LogLevel prev = Log::level();
  Log::level() = LogLevel::kInfo;
  LOG_INFO("obs_test") << "hello trace";
  Log::level() = prev;
  bool found = false;
  for (const TraceEvent& e : bus->ring_snapshot()) {
    if (e.kind != EventKind::kLogLine) continue;
    const std::string* line = bus->log_line(e.a);
    ASSERT_NE(line, nullptr);
    EXPECT_NE(line->find("hello trace"), std::string::npos);
    found = true;
  }
  EXPECT_TRUE(found);
}

// --- invariant 8: range ownership (shard rebalancing, DESIGN.md §9) --------

TEST(ObsChecker, RangeMoveLifecycleIsOk) {
  Forge f;
  f.checker.set_node_group(0, 0);
  f.checker.set_node_group(1, 1);
  const std::int64_t range = 42;
  // Pre-fence writes at the source, fence, install at the destination,
  // post-install writes there — the legal move shape.
  f.node(0).emit(EventKind::kRangeWrite, range, 4);
  f.node(0).emit_action(EventKind::kRangeFence, {0, 1}, range, 5);
  f.node(1).emit(EventKind::kRangeInstall, range, 3, /*rows=*/7);
  f.node(1).emit(EventKind::kRangeWrite, range, 4);
  // A lagging source replica replays the same green order at the same
  // positions: position-based dedup keeps these no-ops.
  f.node(0).emit(EventKind::kRangeWrite, range, 4);
  f.node(0).emit_action(EventKind::kRangeFence, {0, 1}, range, 5);
  EXPECT_TRUE(f.checker.ok()) << f.checker.report();
}

TEST(ObsChecker, CatchesWriteToFencedRange) {
  Forge f;
  f.checker.set_node_group(0, 0);
  const std::int64_t range = 42;
  f.node(0).emit_action(EventKind::kRangeFence, {0, 1}, range, 5);
  f.node(0).emit(EventKind::kRangeWrite, range, 6);  // past the fence
  ASSERT_FALSE(f.checker.ok());
  EXPECT_NE(f.checker.violations()[0].find("WRITE TO FENCED RANGE"), std::string::npos);
}

TEST(ObsChecker, CatchesInstallWithoutFence) {
  Forge f;
  f.checker.set_node_group(1, 1);
  f.node(1).emit(EventKind::kRangeInstall, 42, 3, 7);  // nobody fenced range 42
  ASSERT_FALSE(f.checker.ok());
  EXPECT_NE(f.checker.violations()[0].find("RANGE INSTALL WITHOUT FENCE"), std::string::npos);
}

TEST(ObsChecker, CatchesRangeDoubleOwnership) {
  Forge f;
  f.checker.set_node_group(0, 0);
  f.checker.set_node_group(1, 1);
  f.checker.set_node_group(2, 2);
  const std::int64_t range = 42;
  f.node(0).emit_action(EventKind::kRangeFence, {0, 1}, range, 5);
  f.node(1).emit(EventKind::kRangeInstall, range, 3, 7);  // group 1 owns it now
  f.node(2).emit(EventKind::kRangeInstall, range, 9, 7);  // group 2 grabs it too
  ASSERT_FALSE(f.checker.ok());
  EXPECT_NE(f.checker.violations()[0].find("RANGE DOUBLE OWNERSHIP"), std::string::npos);
}

TEST(ObsChecker, MetricsWindowTableHasHeaderAndRows) {
  MetricsRegistry reg;
  reg.counter("x").inc(3);
  reg.roll(millis(100));
  reg.counter("x").inc(2);
  reg.roll(millis(200));
  const std::string table = reg.window_table({"x"});
  EXPECT_NE(table.find("window"), std::string::npos);
  EXPECT_NE(table.find("x"), std::string::npos);
  EXPECT_EQ(reg.windows().size(), 2u);
  EXPECT_EQ(reg.windows()[0].counter_deltas.at("x"), 3);
  EXPECT_EQ(reg.windows()[1].counter_deltas.at("x"), 2);
}

TEST(ObsChecker, MetricsWindowTableKeepsSharedLastComponentsApart) {
  MetricsRegistry reg;
  reg.counter("tpcc.new_order.committed").inc(4);
  reg.counter("tpcc.payment.committed").inc(5);
  reg.counter("engine.actions_green").inc(6);
  reg.roll(millis(100));
  const std::string table = reg.window_table(
      {"tpcc.new_order.committed", "tpcc.payment.committed", "engine.actions_green"});
  const std::string header = table.substr(0, table.find('\n'));
  EXPECT_NE(header.find(" new_order.committed"), std::string::npos) << header;
  EXPECT_NE(header.find(" payment.committed"), std::string::npos) << header;
  EXPECT_NE(header.find(" actions_green"), std::string::npos) << header;
  EXPECT_EQ(header.find("tpcc."), std::string::npos) << header;
  EXPECT_EQ(header.find("engine."), std::string::npos) << header;
  // Every row lines up with the header.
  const std::string row = table.substr(header.size() + 1, table.find('\n', header.size() + 1) -
                                                              header.size() - 1);
  EXPECT_EQ(row.size(), header.size()) << table;
}

}  // namespace
}  // namespace tordb::obs
