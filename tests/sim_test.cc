#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/network.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace tordb {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(millis(3), [&] { order.push_back(3); });
  sim.at(millis(1), [&] { order.push_back(1); });
  sim.at(millis(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), millis(3));
}

TEST(Simulator, SimultaneousEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sim.at(millis(1), [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.after(millis(1), [&] {
    times.push_back(sim.now());
    sim.after(millis(1), [&] { times.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], millis(1));
  EXPECT_EQ(times[1], millis(2));
}

TEST(Simulator, PastEventClampsToNow) {
  Simulator sim;
  sim.at(millis(5), [] {});
  sim.run();
  bool ran = false;
  sim.at(millis(1), [&] { ran = true; });  // in the past
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), millis(5));
}

TEST(Simulator, RunUntilAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.at(millis(2), [&] { ++fired; });
  sim.at(millis(10), [&] { ++fired; });
  sim.run_until(millis(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), millis(5));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelableDoesNotFire) {
  Simulator sim;
  bool fired = false;
  Cancelable c = sim.after_cancelable(millis(1), [&] { fired = true; });
  c.cancel();
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, RunWithLimit) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.at(millis(i), [] {});
  EXPECT_EQ(sim.run(3), 3u);
  EXPECT_EQ(sim.run(), 2u);
}

TEST(Simulator, CancelledPopsDoNotCountAsExecuted) {
  Simulator sim;
  int fired = 0;
  std::vector<Cancelable> tokens;
  for (int i = 0; i < 10; ++i) {
    tokens.push_back(sim.after_cancelable(millis(i + 1), [&] { ++fired; }));
  }
  for (int i = 0; i < 10; i += 2) tokens[i].cancel();
  sim.at(millis(20), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 6);
  EXPECT_EQ(sim.executed_events(), 6u);
  // Every cancelled event was either skipped at the top or purged en masse;
  // none executed and none inflated the executed count.
  EXPECT_EQ(sim.cancelled_pops() + sim.purged_events(), 5u);
}

TEST(Simulator, RunLimitCountsOnlyLiveEvents) {
  Simulator sim;
  int fired = 0;
  auto dead1 = sim.after_cancelable(millis(1), [&] { ++fired; });
  sim.at(millis(2), [&] { ++fired; });
  auto dead2 = sim.after_cancelable(millis(3), [&] { ++fired; });
  sim.at(millis(4), [&] { ++fired; });
  sim.at(millis(5), [&] { ++fired; });
  dead1.cancel();
  dead2.cancel();
  // The limit is a budget of *live* events: skipped cancellations are free.
  EXPECT_EQ(sim.run(3), 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, CancelledBacklogIsPurgedBeforeGrowth) {
  Simulator sim;
  std::vector<Cancelable> tokens;
  for (int i = 0; i < 200; ++i) {
    tokens.push_back(sim.after_cancelable(seconds(1) + millis(i), [] {}));
  }
  for (auto& t : tokens) t.cancel();
  EXPECT_EQ(sim.queue_depth(), 200u);  // lazily cancelled: still queued
  // The next schedule sees a queue dominated by dead entries and compacts
  // it in one pass instead of growing past it.
  sim.at(millis(1), [] {});
  EXPECT_EQ(sim.queue_depth(), 1u);
  EXPECT_EQ(sim.purged_events(), 200u);
  sim.run();
  EXPECT_EQ(sim.executed_events(), 1u);
  // Purged events never ran, so the clock stopped at the live event.
  EXPECT_EQ(sim.now(), millis(1));
}

TEST(Simulator, PurgePreservesFifoOrderOfSurvivors) {
  Simulator sim;
  std::vector<int> order;
  std::vector<Cancelable> tokens;
  for (int i = 0; i < 100; ++i) {
    tokens.push_back(sim.after_cancelable(millis(5), [] {}));
  }
  for (int i = 0; i < 10; ++i) sim.at(millis(5), [&order, i] { order.push_back(i); });
  for (auto& t : tokens) t.cancel();
  sim.at(millis(5), [&order] { order.push_back(10); });  // triggers the purge
  EXPECT_EQ(sim.peak_queue_depth(), 110u);
  sim.run();
  ASSERT_EQ(order.size(), 11u);
  // Same-time events keep exact schedule-order FIFO across the re-heapify.
  for (int i = 0; i <= 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// --- differential kernel test -----------------------------------------------

// A reference kernel: pending events in a plain vector, the earliest found by
// a linear scan over (time, schedule order). It models the kernel's
// bookkeeping too: a cancelled event still advances the clock when it
// reaches the top, cancelled entries are purged once more than 64 of them
// make up over half the queue (checked before each schedule), and the peak
// depth counts queued entries, dead ones included.
class RefSim {
 public:
  class Token {
   public:
    Token(RefSim* sim, std::shared_ptr<bool> alive) : sim_(sim), alive_(std::move(alive)) {}
    void cancel() {
      if (*alive_) {
        *alive_ = false;
        ++sim_->dead_;
      }
    }

   private:
    RefSim* sim_;
    std::shared_ptr<bool> alive_;
  };

  SimTime now() const { return now_; }
  void at(SimTime t, std::function<void()> fn) { push(t, std::move(fn), nullptr); }
  void after(SimDuration d, std::function<void()> fn) { push(now_ + d, std::move(fn), nullptr); }
  Token after_cancelable(SimDuration d, std::function<void()> fn) {
    auto alive = std::make_shared<bool>(true);
    push(now_ + d, std::move(fn), alive);
    return Token(this, alive);
  }

  std::size_t run(std::size_t limit = SIZE_MAX) {
    std::size_t n = 0;
    while (n < limit && !pending_.empty()) {
      if (pop_and_run()) ++n;
    }
    return n;
  }
  void run_until(SimTime t) {
    while (!pending_.empty() && earliest()->time <= t) pop_and_run();
    if (now_ < t) now_ = t;
  }

  bool idle() const { return pending_.empty(); }
  std::size_t executed_events() const { return executed_; }
  std::size_t peak_queue_depth() const { return peak_; }
  std::uint64_t cancelled_pops() const { return cancelled_pops_; }
  std::uint64_t purged_events() const { return purged_; }

 private:
  struct Ev {
    SimTime time;
    std::uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<bool> alive;  ///< null for plain events
    bool dead() const { return alive && !*alive; }
  };

  void push(SimTime t, std::function<void()> fn, std::shared_ptr<bool> alive) {
    if (dead_ > 64 && dead_ * 2 > pending_.size()) {
      const std::size_t before = pending_.size();
      std::erase_if(pending_, [](const Ev& e) { return e.dead(); });
      purged_ += before - pending_.size();
      dead_ = 0;
    }
    pending_.push_back(Ev{std::max(t, now_), seq_++, std::move(fn), std::move(alive)});
    peak_ = std::max(peak_, pending_.size());
  }
  std::vector<Ev>::iterator earliest() {
    return std::min_element(pending_.begin(), pending_.end(), [](const Ev& a, const Ev& b) {
      return a.time != b.time ? a.time < b.time : a.seq < b.seq;
    });
  }
  bool pop_and_run() {
    auto it = earliest();
    Ev e = std::move(*it);
    pending_.erase(it);
    now_ = e.time;
    if (e.dead()) {
      ++cancelled_pops_;
      --dead_;
      return false;
    }
    if (e.alive) *e.alive = false;
    e.fn();
    ++executed_;
    return true;
  }

  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::vector<Ev> pending_;
  std::size_t dead_ = 0;
  std::size_t executed_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t cancelled_pops_ = 0;
  std::uint64_t purged_ = 0;
};

// A seeded random program run against a kernel: each event logs (id, now),
// then schedules more events from inside its callback (zero delays, times
// in the past, times equal to earlier events' times, cancelable ones and
// bursts of them) and cancels tokens, sometimes all at once. The driver's
// choices follow its own RNG in callback order, so two kernels produce the
// same log exactly when they execute the same schedule.
template <typename Sim>
class KernelDriver {
 public:
  KernelDriver(Sim& sim, std::uint64_t seed, int budget) : sim_(sim), rng_(seed), budget_(budget) {}

  /// Alternate run_until horizons and run(limit) calls, seeding fresh
  /// events whenever the queue drains, until the event budget is spent.
  void drive() {
    while (budget_ > 0 || !sim_.idle()) {
      if (budget_ > 0 && sim_.idle()) {
        for (int i = 0; i < 3; ++i) spawn();
      }
      if (rng_.chance(0.5)) {
        sim_.run_until(sim_.now() + rng_.next_range(0, 200));
        log_.emplace_back(-1, sim_.now());
      } else {
        const std::size_t ran = sim_.run(static_cast<std::size_t>(rng_.next_range(1, 60)));
        log_.emplace_back(-2 - static_cast<int>(ran), sim_.now());
      }
    }
  }

  const std::vector<std::pair<int, SimTime>>& log() const { return log_; }

 private:
  using Token = decltype(std::declval<Sim&>().after_cancelable(0, [] {}));

  void fire(int id) {
    log_.emplace_back(id, sim_.now());
    if (--budget_ <= 0) return;
    const int children = static_cast<int>(rng_.next_below(3));
    for (int i = 0; i < children; ++i) spawn();
    if (rng_.chance(0.3)) {
      for (std::uint64_t k = rng_.next_below(8); k > 0 && !tokens_.empty(); --k) {
        tokens_[rng_.next_below(tokens_.size())].cancel();
      }
    }
    if (rng_.chance(0.02)) {
      for (Token& t : tokens_) t.cancel();
      tokens_.clear();
    }
  }

  void spawn() {
    const int id = next_id_++;
    auto ev = [this, id] { fire(id); };
    const SimTime now = sim_.now();
    SimTime t = now;
    if (rng_.chance(0.01)) {  // a burst of cancelable timers, some at equal times
      for (int i = 0; i < 100; ++i) {
        const int burst_id = next_id_++;
        t = now + rng_.next_range(200, 260);
        tokens_.push_back(sim_.after_cancelable(t - now, [this, burst_id] { fire(burst_id); }));
      }
    }
    switch (rng_.next_below(6)) {
      case 0:  // zero delay
        sim_.after(0, ev);
        break;
      case 1:  // in the past: clamps to now
        sim_.at(now - rng_.next_range(1, 100), ev);
        break;
      case 2:  // exactly another event's time (clamped if already past)
        t = std::max(now, times_[rng_.next_below(times_.size())]);
        sim_.at(t, ev);
        break;
      case 3:
      case 4:
        t = now + rng_.next_range(1, 50);
        sim_.after(t - now, ev);
        break;
      default:
        t = now + rng_.next_range(0, 80);
        tokens_.push_back(sim_.after_cancelable(t - now, ev));
        break;
    }
    times_[next_time_++ % times_.size()] = t;
  }

  Sim& sim_;
  Rng rng_;
  int budget_;
  int next_id_ = 0;
  std::vector<std::pair<int, SimTime>> log_;
  std::vector<Token> tokens_;
  std::array<SimTime, 32> times_{};
  std::size_t next_time_ = 0;
};

TEST(Simulator, ExecutionOrderMatchesReferenceKernel) {
  std::uint64_t purged = 0;
  std::uint64_t cancelled_pops = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    Simulator sim(seed);
    RefSim ref;
    KernelDriver<Simulator> under_test(sim, seed, 4000);
    KernelDriver<RefSim> reference(ref, seed, 4000);
    under_test.drive();
    reference.drive();
    ASSERT_EQ(under_test.log(), reference.log());
    EXPECT_EQ(sim.executed_events(), ref.executed_events());
    EXPECT_EQ(sim.cancelled_pops(), ref.cancelled_pops());
    EXPECT_EQ(sim.purged_events(), ref.purged_events());
    EXPECT_EQ(sim.peak_queue_depth(), ref.peak_queue_depth());
    EXPECT_EQ(sim.queue_depth(), 0u);
    purged += sim.purged_events();
    cancelled_pops += sim.cancelled_pops();
  }
  // The program must reach both cancellation paths to test them.
  EXPECT_GT(purged, 0u);
  EXPECT_GT(cancelled_pops, 0u);
}

// --- closures built and run in their slots -----------------------------------

// Scheduling accepts a SmallFn only as an rvalue, as before it took one by
// value: an lvalue would need the deleted copy.
template <typename F>
concept SchedulableAt = requires(Simulator& sim, F&& fn) { sim.at(SimTime{0}, std::forward<F>(fn)); };
template <typename F>
concept SchedulableAfter = requires(Simulator& sim, F&& fn) { sim.after(0, std::forward<F>(fn)); };
static_assert(SchedulableAt<SmallFn> && SchedulableAfter<SmallFn>);
static_assert(!SchedulableAt<SmallFn&> && !SchedulableAfter<SmallFn&>);
static_assert(!SchedulableAt<const SmallFn&> && !SchedulableAfter<const SmallFn&>);

/// A `void()` callable that counts its moves.
struct MoveCounter {
  explicit MoveCounter(int* moves) : moves(moves) {}
  MoveCounter(MoveCounter&& o) noexcept : moves(o.moves) { ++*moves; }
  MoveCounter(const MoveCounter&) = default;
  void operator()() const {}
  int* moves;
};

TEST(Simulator, ClosureMovesOnceIntoItsSlotAndRunsThere) {
  Simulator sim;
  int moves = 0;
  sim.after(1, MoveCounter(&moves));  // from the temporary into the slot
  sim.run();
  EXPECT_EQ(moves, 1);

  SmallFn fn{MoveCounter(&moves)};
  moves = 0;
  sim.after(1, std::move(fn));  // relocated once, not re-wrapped
  sim.run();
  EXPECT_EQ(moves, 1);
  EXPECT_FALSE(fn);  // NOLINT(bugprone-use-after-move): moved-from is empty
}

// A closure runs where it lies, so its slot must not move while it runs.
// Each event here schedules over three chunks' worth of events (for chunks
// of up to 1,024 slots) from inside its own callback, growing the slot pool
// under it, then reads its own captures. Under ASan a pool whose slots could move (one plain vector)
// reports a use-after-free here.
TEST(Simulator, ClosureCapturesSurviveSlotPoolGrowthInsideTheCallback) {
  constexpr int kBurst = 3 * 1024 + 1;
  Simulator sim;
  int checked = 0;
  auto burst = [&sim] {
    for (int i = 0; i < kBurst; ++i) sim.after(1, [] {});
  };
  const std::uint64_t a = 0x0123456789abcdefULL;
  const std::uint64_t b = 0xfedcba9876543210ULL;

  auto small = [&burst, &checked, a, b] {
    burst();
    EXPECT_EQ(a, 0x0123456789abcdefULL);
    EXPECT_EQ(b, 0xfedcba9876543210ULL);
    ++checked;
  };
  static_assert(sizeof(small) <= SmallFn::kInlineSize, "must take the inline path");
  sim.after(1, small);

  std::array<std::uint64_t, 8> words{};
  for (std::size_t i = 0; i < words.size(); ++i) words[i] = a + i;
  auto large = [&burst, &checked, words, b] {
    burst();
    for (std::size_t i = 0; i < words.size(); ++i) EXPECT_EQ(words[i], 0x0123456789abcdefULL + i);
    EXPECT_EQ(b, 0xfedcba9876543210ULL);
    ++checked;
  };
  static_assert(sizeof(large) > SmallFn::kInlineSize, "must take the heap fallback");
  sim.after(2, large);

  SmallFn passed(small);
  sim.after(3, std::move(passed));

  sim.run();
  EXPECT_EQ(checked, 3);
  EXPECT_EQ(sim.executed_events(), 3u + 3u * kBurst);
}

// ---------------------------------------------------------------------------

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : sim_(42), net_(sim_, quiet_params()) {
    for (NodeId n : {0, 1, 2, 3}) {
      net_.add_node(n);
      net_.set_packet_handler(n, [this, n](NodeId from, const Bytes& p) {
        received_.push_back({n, from, p});
      });
    }
  }

  static NetworkParams quiet_params() {
    NetworkParams p;
    p.jitter = 0;  // deterministic latencies for exact assertions
    return p;
  }

  struct Recv {
    NodeId at;
    NodeId from;
    Bytes payload;
  };

  Bytes payload(std::initializer_list<std::uint8_t> b) { return Bytes(b); }

  Simulator sim_;
  Network net_;
  std::vector<Recv> received_;
};

TEST_F(NetworkTest, DeliversBetweenConnectedNodes) {
  net_.send(0, 1, payload({1, 2, 3}));
  sim_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].at, 1);
  EXPECT_EQ(received_[0].from, 0);
  EXPECT_EQ(received_[0].payload, payload({1, 2, 3}));
}

TEST_F(NetworkTest, SelfSendDelivered) {
  net_.send(2, 2, payload({9}));
  sim_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].at, 2);
  EXPECT_EQ(received_[0].from, 2);
}

TEST_F(NetworkTest, LinkIsFifo) {
  for (std::uint8_t i = 0; i < 50; ++i) net_.send(0, 1, payload({i}));
  sim_.run();
  ASSERT_EQ(received_.size(), 50u);
  for (std::uint8_t i = 0; i < 50; ++i) EXPECT_EQ(received_[i].payload[0], i);
}

TEST_F(NetworkTest, PartitionBlocksTraffic) {
  net_.set_components({{0, 1}, {2, 3}});
  sim_.run();
  received_.clear();
  net_.send(0, 2, payload({1}));
  net_.send(0, 1, payload({2}));
  sim_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].payload[0], 2);
}

TEST_F(NetworkTest, InFlightMessageLostOnPartition) {
  net_.send(0, 2, payload({7}));  // in flight...
  net_.set_components({{0, 1}, {2, 3}});  // ...when the network splits
  sim_.run();
  EXPECT_TRUE(received_.empty());
}

TEST_F(NetworkTest, MergeRestoresTraffic) {
  net_.set_components({{0, 1}, {2, 3}});
  sim_.run();
  net_.heal();
  net_.send(0, 3, payload({4}));
  sim_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].at, 3);
}

TEST_F(NetworkTest, CrashedNodeReceivesNothing) {
  net_.crash(1);
  net_.send(0, 1, payload({1}));
  sim_.run();
  EXPECT_TRUE(received_.empty());
  EXPECT_FALSE(net_.alive(1));
}

TEST_F(NetworkTest, CrashedNodeSendsNothing) {
  net_.crash(0);
  net_.send(0, 1, payload({1}));
  sim_.run();
  EXPECT_TRUE(received_.empty());
}

TEST_F(NetworkTest, InFlightToCrashedNodeDropped) {
  net_.send(0, 1, payload({1}));
  net_.crash(1);  // crash while in flight
  sim_.run();
  EXPECT_TRUE(received_.empty());
}

TEST_F(NetworkTest, RecoveryAllowsTrafficAgain) {
  net_.crash(1);
  sim_.run();
  net_.recover(1);
  net_.send(0, 1, payload({1}));
  sim_.run();
  ASSERT_EQ(received_.size(), 1u);
}

TEST_F(NetworkTest, ReachableSetReflectsTopology) {
  net_.set_components({{0, 1, 2}, {3}});
  net_.crash(2);
  EXPECT_EQ(net_.reachable_set(0), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(net_.reachable_set(3), (std::vector<NodeId>{3}));
  EXPECT_TRUE(net_.reachable_set(2).empty());
}

TEST_F(NetworkTest, ReachabilityNotificationOnChange) {
  std::vector<std::vector<NodeId>> seen;
  net_.set_reachability_handler(0, [&](const std::vector<NodeId>& r) { seen.push_back(r); });
  sim_.run();
  ASSERT_EQ(seen.size(), 1u);  // initial notification
  EXPECT_EQ(seen[0], (std::vector<NodeId>{0, 1, 2, 3}));
  net_.set_components({{0, 1}, {2, 3}});
  sim_.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1], (std::vector<NodeId>{0, 1}));
}

TEST_F(NetworkTest, NotificationsCoalesce) {
  std::vector<std::vector<NodeId>> seen;
  net_.set_reachability_handler(0, [&](const std::vector<NodeId>& r) { seen.push_back(r); });
  sim_.run();
  seen.clear();
  // Two rapid changes within the detection delay produce one notification
  // with the final state.
  net_.set_components({{0, 1}, {2, 3}});
  net_.set_components({{0}, {1, 2, 3}});
  sim_.run();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], (std::vector<NodeId>{0}));
}

TEST_F(NetworkTest, ProcessingSerializesOnReceiver) {
  // Flood node 1; its busy horizon must extend beyond a single message cost.
  for (int i = 0; i < 100; ++i) net_.send(0, 1, Bytes(100));
  sim_.run();
  EXPECT_EQ(received_.size(), 100u);
  // 100 messages * (proc_per_message + 100 * proc_per_byte) of CPU.
  const SimDuration per = net_.params().proc_per_message + 100 * net_.params().proc_per_byte;
  EXPECT_GE(net_.busy_until(1), 100 * per);
}

TEST_F(NetworkTest, LatencyScalesWithSize) {
  SimTime t_small = 0, t_big = 0;
  net_.set_packet_handler(1, [&](NodeId, const Bytes& p) {
    if (p.size() < 100) {
      t_small = sim_.now();
    } else {
      t_big = sim_.now();
    }
  });
  const SimTime start_small = sim_.now();
  net_.send(0, 1, Bytes(10));
  sim_.run();
  const SimTime start_big = sim_.now();
  net_.send(0, 1, Bytes(10000));
  sim_.run();
  const SimDuration lat_small = t_small - start_small;
  const SimDuration lat_big = t_big - start_big;
  EXPECT_GT(lat_big - lat_small, net_.params().per_byte_latency * 9000);
}

TEST_F(NetworkTest, StatsCount) {
  net_.send(0, 1, payload({1}));
  net_.set_components({{0}, {1, 2, 3}});
  net_.send(0, 1, payload({2}));  // dropped
  sim_.run();
  EXPECT_EQ(net_.stats().messages_sent, 2u);
  EXPECT_GE(net_.stats().messages_dropped, 1u);
}

TEST(NetworkStandalone, MulticastReachesAllListed) {
  Simulator sim(1);
  Network net(sim);
  std::vector<NodeId> got;
  for (NodeId n : {0, 1, 2}) {
    net.add_node(n);
    net.set_packet_handler(n, [&got, n](NodeId, const Bytes&) { got.push_back(n); });
  }
  net.multicast(0, {0, 1, 2}, Bytes{1});
  sim.run();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<NodeId>{0, 1, 2}));
}

// ---------------------------------------------------------------------------
// Lane scheduler (DESIGN.md §15): conservative windows, handoffs, LaneScope.
// ---------------------------------------------------------------------------

TEST(SimulatorLanes, EnableLanesRejectsBadConfigs) {
  Simulator scheduled(1);
  scheduled.after(millis(1), [] {});
  EXPECT_THROW(scheduled.enable_lanes(2, 1, millis(1)), std::logic_error);

  Simulator sim(1);
  EXPECT_THROW(sim.enable_lanes(1, 1, millis(1)), std::invalid_argument);  // < 2 lanes
  EXPECT_THROW(sim.enable_lanes(2, 0, millis(1)), std::invalid_argument);  // < 1 thread
  EXPECT_THROW(sim.enable_lanes(2, 1, 0), std::invalid_argument);          // no lookahead
  sim.enable_lanes(2, 1, millis(1));
  EXPECT_THROW(sim.enable_lanes(2, 1, millis(1)), std::logic_error);  // twice
}

TEST(SimulatorLanes, PostExecutesInTargetLaneAtWindowBoundary) {
  Simulator sim(1);
  sim.enable_lanes(3, 1, millis(1));  // lanes 0,1 workers; lane 2 control
  int ran_in = -1;
  SimTime ran_at = -1;
  {
    Simulator::LaneScope scope(sim, 0);
    sim.after(micros(100), [&sim, &ran_in, &ran_at] {
      // Cross-lane effect from a running worker lane: must go via post()
      // with at least the handoff latency.
      sim.post(1, millis(1), [&sim, &ran_in, &ran_at] {
        ran_in = sim.current_lane();
        ran_at = sim.now();
      });
    });
  }
  sim.run();
  EXPECT_EQ(ran_in, 1);
  EXPECT_EQ(ran_at, micros(100) + millis(1));
}

TEST(SimulatorLanes, CrossLanePostBelowLookaheadThrows) {
  Simulator sim(1);
  sim.enable_lanes(3, 1, millis(1));
  bool threw = false;
  {
    Simulator::LaneScope scope(sim, 0);
    sim.after(micros(100), [&sim, &threw] {
      try {
        sim.post(1, micros(10), [] {});  // 10us < the 1ms lookahead
      } catch (const std::logic_error&) {
        threw = true;
      }
    });
  }
  sim.run();
  EXPECT_TRUE(threw);
}

TEST(SimulatorLanes, SameLanePostMayBeImmediate) {
  Simulator sim(1);
  sim.enable_lanes(3, 1, millis(1));
  bool ran = false;
  {
    Simulator::LaneScope scope(sim, 0);
    sim.after(micros(100), [&sim, &ran] {
      sim.post(0, 0, [&ran] { ran = true; });  // same lane: no lookahead needed
    });
  }
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(SimulatorLanes, CallInLaneDefersFromControlToWorker) {
  Simulator sim(1);
  sim.enable_lanes(3, 1, millis(1));
  std::vector<int> order;
  {
    Simulator::LaneScope scope(sim, 2);  // control lane
    sim.after(micros(100), [&sim, &order] {
      sim.call_in_lane(0, [&sim, &order] { order.push_back(sim.current_lane()); });
      order.push_back(100 + sim.current_lane());
    });
  }
  sim.run();
  // The hop runs after the control event finishes, on the worker lane.
  EXPECT_EQ(order, (std::vector<int>{102, 0}));
}

TEST(SimulatorLanes, DigestsIdenticalAcrossThreadCounts) {
  // A mesh of lanes pinging each other with seed-dependent payload work:
  // per-lane digests, executed counts and final clocks must not depend on
  // the worker thread count.
  auto run = [](int threads) {
    Simulator sim(7);
    sim.enable_lanes(5, threads, millis(1));  // 4 workers + control
    // tick outlives sim.run(): scheduled events capture it by reference.
    std::function<void(int, int)> tick = [&sim, &tick](int lane, int n) {
      if (n >= 25) return;
      sim.after(micros(10) * (lane + 1), [&sim, &tick, lane, n] {
        sim.post((lane + 1) % 4, millis(1) + micros(n), [] {});
        tick(lane, n + 1);
      });
    };
    for (int lane = 0; lane < 4; ++lane) {
      Simulator::LaneScope scope(sim, lane);
      tick(lane, 0);
    }
    sim.run();
    std::vector<std::uint64_t> out;
    for (int lane = 0; lane < 5; ++lane) {
      out.push_back(sim.lane_digest(lane));
      out.push_back(sim.lane_executed(lane));
      out.push_back(static_cast<std::uint64_t>(sim.lane_now(lane)));
    }
    out.push_back(sim.windows_run());
    out.push_back(sim.handoffs_posted());
    return out;
  };
  const auto serial = run(1);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(8), serial);
}

TEST(SimulatorLanes, ClassicModeKeepsPostAndCallInline) {
  // Without enable_lanes, post() behaves like after() and call_in_lane()
  // runs inline — the classic path stays byte-identical.
  Simulator sim(1);
  std::vector<int> order;
  sim.call_in_lane(0, [&order] { order.push_back(1); });
  order.push_back(2);
  sim.post(0, millis(1), [&order] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(NetworkStandalone, ChargeDelaysDelivery) {
  Simulator sim(1);
  NetworkParams p;
  p.jitter = 0;
  Network net(sim, p);
  net.add_node(0);
  net.add_node(1);
  SimTime delivered = -1;
  net.set_packet_handler(1, [&](NodeId, const Bytes&) { delivered = sim.now(); });
  net.charge(1, millis(50));
  net.send(0, 1, Bytes{1});
  sim.run();
  EXPECT_GE(delivered, millis(50));
}

}  // namespace
}  // namespace tordb
