#include "sim/simulator.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace tordb {

namespace {

constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

/// Stateless splitmix64-style scramble for the per-lane schedule digest.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One iteration of a busy-wait: tell the core we're spinning so the
/// sibling hyperthread (usually the lane worker we're waiting on) gets
/// the pipeline.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// Spin budget before falling back to a condvar sleep. Windows are
/// microseconds apart, so ~10-20us of spinning covers the common case; the
/// sleep path only triggers when the simulation goes quiet (between run()
/// calls, or a long control-lane phase).
constexpr int kSpinRounds = 1 << 14;

/// Phase-1 volume below which run_window executes the active lanes on the
/// coordinating thread instead of waking the pool: with only a handful of
/// events in the window, even a spin handoff costs more than the work.
constexpr std::uint64_t kParallelThreshold = 32;

}  // namespace

thread_local Simulator::ThreadCtx Simulator::tls_ctx_;

Simulator::Simulator(std::uint64_t seed) : seed_(seed) {
  lanes_.emplace_back(seed);  // classic mode: one lane, RNG seeded exactly as before
}

Simulator::~Simulator() {
  if (!workers_.empty()) {
    pool_stop_.store(true, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> lk(pool_mu_);
      pool_cv_.notify_all();
    }
    for (std::thread& w : workers_) w.join();
  }
}

int Simulator::current_lane() const {
  if (tls_ctx_.sim == this) return tls_ctx_.lane;
  return lane_mode_ ? control_lane() : 0;
}

Simulator::LaneScope::LaneScope(Simulator& sim, int lane)
    : prev_sim_(tls_ctx_.sim), prev_lane_(tls_ctx_.lane) {
  if (lane < 0 || lane >= sim.lane_count()) throw std::out_of_range("bad lane");
  tls_ctx_.sim = &sim;
  tls_ctx_.lane = lane;
}

Simulator::LaneScope::~LaneScope() {
  tls_ctx_.sim = prev_sim_;
  tls_ctx_.lane = prev_lane_;
}

void Simulator::enable_lanes(int lanes, int threads, SimDuration handoff_latency) {
  if (lane_mode_) throw std::logic_error("simulator: lanes already enabled");
  if (lanes < 2) throw std::invalid_argument("simulator: need >= 2 lanes");
  if (threads < 1) throw std::invalid_argument("simulator: need >= 1 thread");
  if (handoff_latency <= 0) throw std::invalid_argument("simulator: handoff latency must be > 0");
  const Lane& l0 = lanes_[0];
  if (!l0.heap.empty() || l0.next_seq != 0 || l0.now != 0) {
    throw std::logic_error("simulator: enable_lanes before scheduling anything");
  }
  lane_mode_ = true;
  threads_ = threads;
  handoff_ = handoff_latency;
  lanes_.clear();
  lanes_.reserve(static_cast<std::size_t>(lanes));
  for (int i = 0; i < lanes; ++i) {
    // Per-lane RNG streams: two splitmix steps over (seed, lane) so related
    // base seeds and adjacent lanes both land in uncorrelated streams.
    std::uint64_t x = seed_;
    (void)splitmix64(x);
    x ^= static_cast<std::uint64_t>(i + 1) * 0x9e3779b97f4a7c15ULL;
    lanes_.emplace_back(splitmix64(x));
  }
  // Spinning at the window rendezvous only pays when every pool thread can
  // hold a core; on smaller hosts (1-core CI containers included) a spinner
  // steals the timeslice from the thread doing the work, so both sides go
  // straight to the condvar.
  spin_rounds_ = std::thread::hardware_concurrency() >= static_cast<unsigned>(threads)
                     ? kSpinRounds
                     : 0;
  for (int w = 1; w < threads; ++w) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

std::uint32_t Simulator::claim_slot(Lane& l) {
  // Opportunistically drop dead weight before growing the heap: once cancelled
  // entries make up more than half the queue (and there are enough of them to
  // amortize the scan), compact in one pass.
  if (*l.cancel_tally > kMinDeadForPurge && *l.cancel_tally * 2 > l.heap.size()) purge(l);
  if (!l.free_slots.empty()) {
    const std::uint32_t slot = l.free_slots.back();
    l.free_slots.pop_back();
    return slot;
  }
  if (l.slot_chunks.empty() || l.slot_chunks.back().size() == kChunkSlots) {
    l.slot_chunks.emplace_back().reserve(kChunkSlots);
  }
  std::vector<Slot>& chunk = l.slot_chunks.back();
  const std::size_t slot = (l.slot_chunks.size() - 1) * kChunkSlots + chunk.size();
  if (slot >> kSlotBits) throw std::length_error("simulator: too many pending events");
  chunk.emplace_back();
  return static_cast<std::uint32_t>(slot);
}

void Simulator::enqueue(Lane& l, SimTime t, std::uint32_t slot) {
  if (t < l.now) t = l.now;
  l.heap.push_back(Entry{t, (l.next_seq++ << kSlotBits) | slot});
  sift_up(l, l.heap.size() - 1);
  if (l.heap.size() > l.peak_depth) l.peak_depth = l.heap.size();
}

void Simulator::release_slot(Lane& l, Slot& s, std::uint32_t slot) {
  s.fn.reset();
  s.cancel.reset();
  l.free_slots.push_back(slot);
}

// 4-ary heap: half the levels of a binary heap, so pops touch far fewer
// cache lines on the hundred-thousand-entry queues of 100-replica sweeps.
// (time, seq) keys are unique per lane, so the pop order — and therefore
// every simulation result — is identical to any other correct priority
// queue.

void Simulator::sift_up(Lane& l, std::size_t i) {
  const Entry e = l.heap[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!later(l.heap[parent], e)) break;
    l.heap[i] = l.heap[parent];
    i = parent;
  }
  l.heap[i] = e;
}

void Simulator::sift_down(Lane& l, std::size_t i) {
  const std::size_t n = l.heap.size();
  const Entry e = l.heap[i];
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (later(l.heap[best], l.heap[c])) best = c;
    }
    if (!later(e, l.heap[best])) break;
    l.heap[i] = l.heap[best];
    i = best;
  }
  l.heap[i] = e;
}

void Simulator::purge(Lane& l) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < l.heap.size(); ++i) {
    const Entry& e = l.heap[i];
    Slot& s = l.slot(e.slot());
    if (s.cancel && !s.cancel->alive) {
      release_slot(l, s, e.slot());
      ++l.purged;
      assert(*l.cancel_tally > 0);
      --*l.cancel_tally;
      continue;
    }
    l.heap[kept++] = e;
  }
  l.heap.resize(kept);
  // Rebuild heap order over the survivors; (time, seq) keys are unique, so
  // live events rank exactly as they did before the purge. (Bottom-up over
  // the non-leaf prefix of the 4-ary layout.)
  if (l.heap.size() > 1) {
    for (std::size_t i = (l.heap.size() - 2) / 4 + 1; i-- > 0;) sift_down(l, i);
  }
}

// Bottom-up pop: the root's hole walks down to a leaf along the smallest
// child, and the former last entry, which usually belongs near the bottom,
// then sifts up from that leaf. The textbook sift-down also compares the
// placed entry at every level and branches on each child compare; here a
// level is a branch-free tournament of the four children (two pairs, then
// their winners), and the short sift-up is the only data-dependent loop.
void Simulator::refill_root(Lane& l, Entry e) {
  Entry* h = l.heap.data();
  const std::size_t n = l.heap.size();
  std::size_t hole = 0;
  std::size_t first = 1;
  while (first + 4 <= n) {
    const std::size_t a = first + (rank(h[first + 1]) < rank(h[first]));
    const std::size_t b = first + 2 + (rank(h[first + 3]) < rank(h[first + 2]));
    // A mask select: compilers turn `cond ? b : a` here into a branch.
    const std::size_t take_b = 0 - static_cast<std::size_t>(rank(h[b]) < rank(h[a]));
    const std::size_t best = a ^ ((a ^ b) & take_b);
    h[hole] = h[best];
    hole = best;
    first = 4 * hole + 1;
  }
  // At most one node has one to three children, and they are leaves.
  if (first < n) {
    std::size_t best = first;
    for (std::size_t c = first + 1; c < n; ++c) {
      if (rank(h[c]) < rank(h[best])) best = c;
    }
    h[hole] = h[best];
    hole = best;
  }
  h[hole] = e;
  sift_up(l, hole);
}

bool Simulator::pop_and_run(Lane& l) {
  const Entry top = l.heap[0];
  const Entry last = l.heap.back();
  l.heap.pop_back();
  if (!l.heap.empty()) refill_root(l, last);
  assert(top.time >= l.now);

  const std::uint32_t slot = top.slot();
  Slot& s = l.slot(slot);
  // A cancelled event still advances the clock to its scheduled time (it held
  // its place in the time order), but never executes.
  if (s.cancel && !s.cancel->alive) {
    l.now = top.time;
    release_slot(l, s, slot);
    ++l.cancelled_pops;
    assert(*l.cancel_tally > 0);
    --*l.cancel_tally;
    return false;
  }
  if (s.cancel) s.cancel->alive = false;  // fired: token reports inactive, no tally
  l.now = top.time;
  if (lane_mode_) {
    // Fold the executed schedule so equivalence suites can compare runs
    // without replaying cluster state. Classic mode skips this (one
    // predictable branch) to keep the golden-pinned hot path untouched.
    l.digest = mix64(l.digest ^ (static_cast<std::uint64_t>(top.time) +
                                 0x9e3779b97f4a7c15ULL * (top.key >> kSlotBits)));
  }
  // Run the closure where it lies: slots never move (Lane::slot_chunks), and
  // this one stays claimed until the call returns, so events the callback
  // schedules take other slots. Release it afterwards.
  s.fn();
  release_slot(l, s, slot);
  ++l.executed;
  return true;
}

std::size_t Simulator::run(std::size_t limit) {
  if (!lane_mode_) {
    Lane& l = lanes_[0];
    std::size_t n = 0;
    while (n < limit && !l.heap.empty()) {
      if (pop_and_run(l)) ++n;
    }
    return n;
  }
  // Lane mode: drain window by window; the limit is honored at window
  // granularity (each window is at most handoff_ wide).
  const std::size_t before = executed_events();
  running_ = true;
  for (;;) {
    if (executed_events() - before >= limit) break;
    const SimTime s = earliest_event();
    if (s == kNever) break;
    run_window(s > kNever - handoff_ ? kNever : s + handoff_);
  }
  running_ = false;
  if (barrier_hook_) barrier_hook_();
  return executed_events() - before;
}

void Simulator::run_until(SimTime t) {
  if (!lane_mode_) {
    Lane& l = lanes_[0];
    while (!l.heap.empty() && l.heap[0].time <= t) pop_and_run(l);
    if (l.now < t) l.now = t;
    return;
  }
  run_lanes_until(t);
}

SimTime Simulator::earliest_event() const {
  SimTime s = kNever;
  for (const Lane& l : lanes_) {
    if (!l.heap.empty() && l.heap[0].time < s) s = l.heap[0].time;
  }
  return s;
}

void Simulator::run_lanes_until(SimTime t) {
  running_ = true;
  for (;;) {
    const SimTime s = earliest_event();
    if (s == kNever || s > t) break;
    // Window [s, end): `end` is exclusive, so `t + 1` makes the horizon
    // inclusive of events at exactly t (matching the classic run_until).
    const SimTime end = (t - s >= handoff_) ? s + handoff_ : t + 1;
    run_window(end);
  }
  running_ = false;
  for (Lane& l : lanes_) {
    if (l.now < t) l.now = t;
  }
  if (barrier_hook_) barrier_hook_();
}

void Simulator::run_window(SimTime end) {
  // Phase 1: every worker lane with events before the window end runs in
  // parallel. Worker lanes share no mutable state (network traffic is
  // intra-lane; cross-lane effects are outbox handoffs), so any
  // interleaving — including fully serial — produces the same result.
  active_.clear();
  const int workers_end = control_lane();  // lanes [0, workers_end) are worker lanes
  std::uint64_t executed_before = 0;
  for (int i = 0; i < workers_end; ++i) {
    const Lane& l = lanes_[static_cast<std::size_t>(i)];
    if (!l.heap.empty() && l.heap[0].time < end) {
      active_.push_back(i);
      executed_before += l.executed;
    }
  }
  if (!active_.empty()) {
    // Run serially when the previous window's phase-1 volume was tiny:
    // waking the pool for a handful of events costs more than the events.
    // The choice of execution strategy cannot change results — worker
    // lanes are disjoint, so serial and parallel interleavings commute.
    if (workers_.empty() || active_.size() == 1 ||
        window_worker_events_ < kParallelThreshold) {
      for (const int lane : active_) run_lane_window(lane, end);
    } else {
      dispatch_workers(end);
    }
    std::uint64_t executed_after = 0;
    for (const int lane : active_) executed_after += lanes_[static_cast<std::size_t>(lane)].executed;
    window_worker_events_ = executed_after - executed_before;
  }
  // Phase 2: the control lane runs exclusively on this thread. Its events
  // may read worker-lane state — frozen at the window end, identically for
  // every thread count — but must route mutations through call_in_lane().
  run_lane_window(control_lane(), end);
  ++windows_;
  merge_outboxes(end);
  if (barrier_hook_) barrier_hook_();
}

void Simulator::run_lane_window(int lane, SimTime end) {
  Lane& l = lanes_[static_cast<std::size_t>(lane)];
  if (l.heap.empty() || l.heap[0].time >= end) return;
  LaneScope scope(*this, lane);
  while (!l.heap.empty() && l.heap[0].time < end) pop_and_run(l);
}

void Simulator::dispatch_workers(SimTime end) {
  pool_end_ = end;
  pool_next_.store(0, std::memory_order_relaxed);
  pool_unfinished_.store(static_cast<int>(workers_.size()), std::memory_order_relaxed);
  pool_gen_.fetch_add(1, std::memory_order_seq_cst);
  // Dekker handshake with worker_main: the gen bump above and the
  // pool_sleepers_ increment there are both seq_cst, so either we see the
  // sleeper (and notify under the mutex) or the sleeper's predicate
  // recheck sees the new generation.
  if (pool_sleepers_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> lk(pool_mu_);
    pool_cv_.notify_all();
  }
  work_loop(end);  // the coordinating thread is one of the `threads_` executors
  // Spin for the stragglers: a worker-lane window is microseconds of work,
  // so a sleep here would usually outlive the wait.
  int spins = 0;
  while (pool_unfinished_.load(std::memory_order_acquire) != 0) {
    if (++spins < spin_rounds_) {
      cpu_relax();
      continue;
    }
    std::unique_lock<std::mutex> lk(pool_mu_);
    done_sleeping_.store(true, std::memory_order_seq_cst);
    done_cv_.wait(lk, [this] {
      return pool_unfinished_.load(std::memory_order_relaxed) == 0;
    });
    done_sleeping_.store(false, std::memory_order_seq_cst);
  }
}

void Simulator::work_loop(SimTime end) {
  for (;;) {
    const std::size_t i = pool_next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= active_.size()) return;
    run_lane_window(active_[i], end);
  }
}

void Simulator::worker_main() {
  std::uint64_t seen = 0;
  for (;;) {
    // Spin first: the next window usually dispatches within microseconds.
    int spins = 0;
    while (!pool_stop_.load(std::memory_order_acquire) &&
           pool_gen_.load(std::memory_order_acquire) == seen) {
      if (++spins < spin_rounds_) {
        cpu_relax();
        continue;
      }
      std::unique_lock<std::mutex> lk(pool_mu_);
      pool_sleepers_.fetch_add(1, std::memory_order_seq_cst);
      pool_cv_.wait(lk, [this, seen] {
        return pool_stop_.load(std::memory_order_relaxed) ||
               pool_gen_.load(std::memory_order_relaxed) != seen;
      });
      pool_sleepers_.fetch_sub(1, std::memory_order_seq_cst);
      break;
    }
    if (pool_stop_.load(std::memory_order_acquire)) return;
    seen = pool_gen_.load(std::memory_order_acquire);
    work_loop(pool_end_);  // pool_end_ published before the gen bump
    if (pool_unfinished_.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
        done_sleeping_.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lk(pool_mu_);
      done_cv_.notify_one();
    }
  }
}

void Simulator::merge_outboxes(SimTime end) {
  merge_buf_.clear();
  for (Lane& l : lanes_) {
    if (l.outbox.empty()) continue;
    for (Handoff& h : l.outbox) merge_buf_.push_back(std::move(h));
    l.outbox.clear();
  }
  if (merge_buf_.empty()) return;
  // (time, source lane, source seq): source lane is recoverable from seq
  // ordering only within a lane, so carry it via stable partition — the
  // outboxes were appended in lane order above, and std::stable_sort keeps
  // that order for equal (time, seq)... seqs are per-lane, so sort on
  // (time, then the append order), which stable_sort preserves exactly.
  std::stable_sort(merge_buf_.begin(), merge_buf_.end(),
                   [](const Handoff& a, const Handoff& b) { return a.time < b.time; });
  for (Handoff& h : merge_buf_) {
    if (h.time < end) throw std::logic_error("simulator: handoff inside a committed window");
    schedule(lanes_[static_cast<std::size_t>(h.target)], h.time, std::move(h.fn), nullptr);
  }
  merge_buf_.clear();
}

void Simulator::post(int lane, SimDuration delay, SmallFn fn) {
  if (!lane_mode_) {
    after(delay, std::move(fn));
    return;
  }
  if (lane < 0 || lane >= lane_count()) throw std::out_of_range("simulator: bad lane");
  const int cur = current_lane();
  if (!running_) {
    // Parked: all lane clocks are synchronized; land directly in the target.
    Lane& t = lanes_[static_cast<std::size_t>(lane)];
    schedule(t, t.now + delay, std::move(fn), nullptr);
    return;
  }
  if (lane == cur) {
    after(delay, std::move(fn));
    return;
  }
  if (delay < handoff_) {
    throw std::logic_error("simulator: cross-lane post below the handoff latency");
  }
  Lane& c = lanes_[static_cast<std::size_t>(cur)];
  ++c.handoffs;
  c.outbox.push_back(Handoff{c.now + delay, lane, c.handoff_seq++, std::move(fn)});
}

void Simulator::call_in_lane(int lane, SmallFn fn) {
  if (!lane_mode_ || lane == current_lane()) {
    fn();
    return;
  }
  post(lane, handoff_, std::move(fn));
}

bool Simulator::idle() const {
  for (const Lane& l : lanes_) {
    if (!l.heap.empty()) return false;
  }
  return true;
}

std::size_t Simulator::executed_events() const {
  std::size_t n = 0;
  for (const Lane& l : lanes_) n += l.executed;
  return n;
}

std::size_t Simulator::queue_depth() const {
  std::size_t n = 0;
  for (const Lane& l : lanes_) n += l.heap.size();
  return n;
}

std::size_t Simulator::peak_queue_depth() const {
  std::size_t n = 0;
  for (const Lane& l : lanes_) n += l.peak_depth;
  return n;
}

std::uint64_t Simulator::cancelled_pops() const {
  std::uint64_t n = 0;
  for (const Lane& l : lanes_) n += l.cancelled_pops;
  return n;
}

std::uint64_t Simulator::purged_events() const {
  std::uint64_t n = 0;
  for (const Lane& l : lanes_) n += l.purged;
  return n;
}

std::uint64_t Simulator::handoffs_posted() const {
  std::uint64_t n = 0;
  for (const Lane& l : lanes_) n += l.handoffs;
  return n;
}

}  // namespace tordb
