// Microbenchmarks (google-benchmark) for the hot substrate paths: the
// event queue, serialization, database apply and snapshot, and the
// end-to-end simulated cost of one replicated action.
#include <benchmark/benchmark.h>

#include "core/action.h"
#include "core/action_log.h"
#include "core/messages.h"
#include "db/database.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/cluster.h"

namespace {

using namespace tordb;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.at(i, [] {});
    }
    benchmark::DoNotOptimize(sim.run());
  }
}
BENCHMARK(BM_EventQueueScheduleRun);

// The hold model: N events stay pending, and each popped event schedules
// one more after a random delay, so every pop sifts through a heap of N
// (BM_EventQueueScheduleRun's ascending times never sift deep). evs48 holds
// about 1,000 pending events. One iteration is one event.
void BM_EventQueueHold(benchmark::State& state) {
  const auto n = state.range(0);
  Simulator sim;
  Rng rng(7);
  struct Hold {
    Simulator* sim;
    Rng* rng;
    void operator()() const {
      sim->after(static_cast<SimDuration>(rng->next_below(1000000)), Hold{sim, rng});
    }
  };
  for (std::int64_t i = 0; i < n; ++i) Hold{&sim, &rng}();
  for (auto _ : state) benchmark::DoNotOptimize(sim.run(1));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueHold)->Arg(64)->Arg(1024)->Arg(16384);

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_RngNext);

void BM_ActionEncodeDecode(benchmark::State& state) {
  core::Action a;
  a.id = ActionId{3, 12345};
  a.update = db::Command::put("some-key", "some-value");
  a.padding = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    BufWriter w;
    a.encode(w);
    Bytes b = w.take();
    BufReader r(b);
    benchmark::DoNotOptimize(core::Action::decode(r));
  }
}
BENCHMARK(BM_ActionEncodeDecode)->Arg(0)->Arg(110)->Arg(1000);

void BM_DatabaseApply(benchmark::State& state) {
  db::Database d;
  std::int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.apply(db::Command::put("k" + std::to_string(i++ % 1000), "v")));
  }
}
BENCHMARK(BM_DatabaseApply);

void BM_DatabaseSnapshot(benchmark::State& state) {
  db::Database d;
  for (int i = 0; i < state.range(0); ++i) {
    d.apply(db::Command::put("key-" + std::to_string(i), "value-" + std::to_string(i)));
  }
  for (auto _ : state) benchmark::DoNotOptimize(d.snapshot());
}
BENCHMARK(BM_DatabaseSnapshot)->Arg(100)->Arg(10000);

core::ActionRef mk_action(NodeId creator, std::int64_t index) {
  core::Action a;
  a.id = ActionId{creator, index};
  a.update = db::Command::add("k" + std::to_string(index % 64), 1);
  return std::make_shared<const core::Action>(std::move(a));
}

void BM_ActionLogMarkGreen(benchmark::State& state) {
  // Throughput of the engine's hottest coloring path: admit an action red
  // and append it to the green sequence, round-robin over 8 creators.
  const int kCreators = 8;
  std::vector<std::int64_t> next(kCreators, 1);
  core::ActionLog log;
  std::int64_t i = 0;
  for (auto _ : state) {
    const NodeId c = static_cast<NodeId>(i++ % kCreators);
    benchmark::DoNotOptimize(log.mark_green(mk_action(c, next[c]++)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ActionLogMarkGreen);

void BM_ActionLogTrimWhite(benchmark::State& state) {
  // Cost of trimming the white prefix out of a log holding range(0) green
  // actions (body release + green-vector compaction), per trimmed action.
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    core::ActionLog log;
    for (std::int64_t i = 1; i <= n; ++i) log.mark_green(mk_action(0, i));
    state.ResumeTiming();
    benchmark::DoNotOptimize(log.trim_white_to(n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ActionLogTrimWhite)->Arg(10000)->Arg(100000);

void BM_ActionLogGreenPositionLookup(benchmark::State& state) {
  core::ActionLog log;
  const std::int64_t n = 100000;
  for (std::int64_t i = 1; i <= n; ++i) log.mark_green(mk_action(0, i));
  log.trim_white_to(n / 2);  // half the positions behind the trim offset
  std::int64_t pos = n / 2;
  for (auto _ : state) {
    if (++pos > n) pos = n / 2 + 1;
    benchmark::DoNotOptimize(log.green_body_at(pos));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ActionLogGreenPositionLookup);

void BM_SimulatedReplicatedAction(benchmark::State& state) {
  // Real-time cost of simulating one fully replicated action on a
  // 5-replica cluster (events, not simulated milliseconds).
  workload::ClusterOptions o;
  o.replicas = 5;
  workload::EngineCluster c(o);
  c.run_for(seconds(2));
  std::int64_t n = 0;
  for (auto _ : state) {
    bool done = false;
    c.engine(0).submit({}, db::Command::put("k", std::to_string(++n)), 1,
                       core::Semantics::kStrict, [&](const core::Reply&) { done = true; });
    while (!done) c.sim().run(64);
  }
}
BENCHMARK(BM_SimulatedReplicatedAction);

}  // namespace

BENCHMARK_MAIN();
