// Discrete-event simulation kernel.
//
// A deterministic event loop with a virtual nanosecond clock. All protocol
// stacks in this repository (network, storage, group communication,
// replication engines) run as callbacks scheduled here, which makes every
// experiment and property test exactly reproducible from a seed.
//
// Hot-path layout (this is the innermost loop of every experiment):
//  - The priority queue is a 4-ary heap of 16-byte plain-old-data entries
//    (time, packed seq|slot) over a reserve-ahead vector, so sift operations move
//    trivially-copyable keys instead of closures and touch half the cache
//    lines a binary heap would. Entries compare as one unsigned 128-bit
//    (time, key) rank, with no branch on equal times.
//  - A pop is bottom-up: the root's hole walks to a leaf along the smallest
//    child, picked by a branch-free tournament of the four children, and
//    the former last entry sifts up from there.
//  - Closures live in a recycled slot pool as `SmallFn`s — a move-only
//    function wrapper with 48 bytes of inline storage, enough for every
//    closure the network and protocol layers schedule, so steady-state
//    scheduling performs no heap allocation. at/after/after_cancelable are
//    forwarding templates that build the closure directly in its slot.
//  - Slots sit in fixed chunks that never move, so a closure runs in place
//    and its slot is freed after the call returns; the slot index is below
//    the seq in the key, so slot reuse never changes the order.
//  - Cancelled `Cancelable` events are removed lazily: a pop skips them
//    without counting toward executed_events(), and when cancelled entries
//    outnumber half the queue the heap is purged in one pass, so dead
//    timers cannot accumulate. Live ordering is exact (time, seq) FIFO
//    either way.
//
// Event lanes (DESIGN.md §15): enable_lanes() partitions the simulator into
// independent event lanes — one heap, clock, RNG and slot pool per lane —
// run with conservative virtual-time windows on a worker-thread pool.
// By default everything lives in one lane and the kernel behaves exactly as
// the classic single-threaded loop (bit-identical schedules, pinned by the
// sim_digest_test goldens). In lane mode:
//
//  - Lanes 0..L-2 are *worker lanes* (one per shard); lane L-1 is the
//    *control lane* (router, client sessions, txn coordinator, rebalancer,
//    drivers, metrics rolls).
//  - Each window [S, E) with S = min lane head time and
//    E = min(S + handoff_latency, horizon) runs in two phases:
//    phase 1 executes every worker lane's events with time < E in parallel
//    (worker lanes share no mutable state); phase 2 then runs the control
//    lane's events with time < E exclusively on the calling thread, so
//    control-tier code may read worker-lane state frozen at the window end.
//  - Cross-lane interaction goes through post()/call_in_lane(): the closure
//    is buffered in the posting lane's outbox and committed at the window
//    barrier, merged over all lanes in (arrive time, source lane, source
//    sequence) order. Because every cross-lane delay is >= the handoff
//    latency and windows are at most that wide, a handoff always lands at
//    or after the next window's start — events never appear in a window
//    that already executed, which is the conservative-PDES safety
//    invariant.
//  - Every per-lane input is deterministic: the lane's heap order, its own
//    RNG stream (seeded from the base seed and the lane index), and the
//    sorted handoff merge. The interleaving of worker lanes within a
//    window is therefore unobservable, and the full schedule — folded into
//    lane_digest() — is bit-identical for any worker-thread count,
//    including 1.
#pragma once

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/types.h"

namespace tordb {

/// Move-only type-erased `void()` callable with inline storage for small
/// closures (the simulator's event bodies). Falls back to the heap for
/// captures larger than kInlineSize.
class SmallFn {
 public:
  static constexpr std::size_t kInlineSize = 48;

  SmallFn() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, SmallFn> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& f) {  // NOLINT: implicit by design — call sites pass lambdas
    construct(std::forward<F>(f));
  }

  SmallFn(SmallFn&& other) noexcept { move_from(other); }
  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { reset(); }

  /// Replace the held closure with `f`, built directly in this object's
  /// storage: the simulator's scheduling entry points use it to construct an
  /// event's closure in its queue slot, with no intermediate SmallFn. A
  /// SmallFn argument is relocated once; it must be an rvalue, as for the
  /// move constructor.
  template <typename F>
    requires std::is_constructible_v<SmallFn, F>
  void emplace(F&& f) {
    reset();
    if constexpr (std::is_same_v<std::decay_t<F>, SmallFn>) {
      move_from(f);
    } else {
      construct(std::forward<F>(f));
    }
  }

  /// Destroy the held closure, leaving this empty.
  void reset() {
    if (ops_) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  void operator()() { ops_->call(storage_); }
  explicit operator bool() const { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*call)(void*);
    void (*relocate)(void* src, void* dst);  ///< move-construct dst, destroy src
    void (*destroy)(void*);
  };

  template <typename F, bool Inline>
  struct OpsImpl {
    static F* get(void* s) {
      if constexpr (Inline) {
        return std::launder(reinterpret_cast<F*>(s));
      } else {
        return *std::launder(reinterpret_cast<F**>(s));
      }
    }
    static void call(void* s) { (*get(s))(); }
    static void relocate(void* src, void* dst) {
      if constexpr (Inline) {
        ::new (dst) F(std::move(*get(src)));
        get(src)->~F();
      } else {
        ::new (dst) F*(get(src));
      }
    }
    static void destroy(void* s) {
      if constexpr (Inline) {
        get(s)->~F();
      } else {
        delete get(s);
      }
    }
    static constexpr Ops ops{call, relocate, destroy};
  };

  template <typename F>
  void construct(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineSize && alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &OpsImpl<D, true>::ops;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &OpsImpl<D, false>::ops;
    }
  }
  void move_from(SmallFn& other) noexcept {
    if (other.ops_) {
      other.ops_->relocate(other.storage_, storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
};

/// Token for a scheduled event that may be cancelled before it fires.
/// Cancellation is lazy: the queued event is skipped (and eventually purged)
/// rather than searched for. After the event fires, active() reports false.
/// Lane mode: cancel only from the lane that scheduled the event (the tally
/// it updates belongs to that lane's queue).
class Cancelable {
 public:
  Cancelable() : state_(std::make_shared<State>()) {}

  void cancel() {
    if (state_->alive) {
      state_->alive = false;
      // Tally so the owning lane knows how much of its queue is dead.
      if (state_->cancel_tally) ++*state_->cancel_tally;
    }
  }
  bool active() const { return state_->alive; }

 private:
  friend class Simulator;
  struct State {
    bool alive = true;
    std::shared_ptr<std::uint64_t> cancel_tally;  ///< owning lane's dead-in-queue count
  };
  std::shared_ptr<State> state_;
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// The current lane's clock (the single clock in classic mode). Outside a
  /// run all lane clocks are equal, so this is *the* virtual time.
  SimTime now() const {
    if (!lane_mode_) return lanes_[0].now;
    return lanes_[static_cast<std::size_t>(current_lane())].now;
  }
  /// The current lane's RNG stream (the single stream in classic mode).
  Rng& rng() {
    if (!lane_mode_) return lanes_[0].rng;
    return lanes_[static_cast<std::size_t>(current_lane())].rng;
  }
  std::uint64_t seed() const { return seed_; }

  // The scheduling entry points take any `void()` callable a SmallFn can
  // hold and build it directly in its queue slot. A SmallFn is accepted as
  // an rvalue only (it is move-only) and relocates into the slot once.

  /// Schedule `fn` on the current lane at absolute time `t` (clamped to now).
  template <typename F>
    requires std::is_constructible_v<SmallFn, F>
  void at(SimTime t, F&& fn) {
    schedule(current_mutable_lane(), t, std::forward<F>(fn), nullptr);
  }

  /// Schedule `fn` on the current lane after `delay`.
  template <typename F>
    requires std::is_constructible_v<SmallFn, F>
  void after(SimDuration delay, F&& fn) {
    Lane& l = current_mutable_lane();
    schedule(l, l.now + delay, std::forward<F>(fn), nullptr);
  }

  /// Schedule `fn` after `delay`; the returned token cancels it.
  template <typename F>
    requires std::is_constructible_v<SmallFn, F>
  Cancelable after_cancelable(SimDuration delay, F&& fn) {
    Lane& l = current_mutable_lane();
    Cancelable c;
    c.state_->cancel_tally = l.cancel_tally;
    schedule(l, l.now + delay, std::forward<F>(fn), c.state_);
    return c;
  }

  /// Run events until the queue is empty or `limit` events executed.
  /// Returns the number of (live) events executed; skipped cancelled events
  /// count toward neither the limit nor executed_events(). Lane mode: the
  /// limit is checked at window granularity.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Run all events with time <= t, then advance the clock(s) to t.
  void run_until(SimTime t);

  /// Run all events within the next `d` of simulated time.
  void run_for(SimDuration d) { run_until(now() + d); }

  bool idle() const;
  /// Aggregates over all lanes (identical to the classic counters when
  /// lanes are off).
  std::size_t executed_events() const;
  /// Events currently pending (cancelled-but-unpurged included).
  std::size_t queue_depth() const;
  /// Sum of each lane's high-water queue depth over the whole run.
  std::size_t peak_queue_depth() const;
  /// Cancelled events skipped at pop time (they never execute).
  std::uint64_t cancelled_pops() const;
  /// Cancelled events removed by queue purges before reaching the top.
  std::uint64_t purged_events() const;

  // --- event lanes (DESIGN.md §15) -----------------------------------------

  /// Partition the simulator into `lanes` event lanes (>= 2: worker lanes
  /// plus the control lane, which is always the last) executed by `threads`
  /// concurrent executors (1 = the calling thread only — the serial lane
  /// baseline; N spawns N-1 workers and the calling thread participates).
  /// `handoff_latency` (> 0) is both the conservative window width and the
  /// minimum cross-lane post() delay. Must be called before anything is
  /// scheduled; every lane is reseeded from (seed, lane index), so lane-mode
  /// schedules are a *model refinement*, not a replay of the classic run —
  /// but they are bit-identical across all values of `threads`.
  void enable_lanes(int lanes, int threads, SimDuration handoff_latency);
  bool lanes_enabled() const { return lane_mode_; }
  int lane_count() const { return static_cast<int>(lanes_.size()); }
  int worker_threads() const { return threads_; }
  SimDuration handoff_latency() const { return handoff_; }
  /// The exclusive phase-2 lane (the last one); 0 when lanes are off.
  int control_lane() const { return static_cast<int>(lanes_.size()) - 1; }
  /// The lane the calling thread is executing (or scoped to); the control
  /// lane for unscoped callers (harness code between runs).
  int current_lane() const;
  /// True while run()/run_until() is executing windows.
  bool running() const { return running_; }

  /// Schedule `fn` on `lane` after `delay`. Same-lane (and classic-mode)
  /// posts are ordinary schedules; cross-lane posts during a run must have
  /// delay >= handoff_latency() and commit at the next window barrier in
  /// deterministic (time, source lane, source seq) order. Outside a run the
  /// clocks are synchronized and the post lands directly in the target lane.
  void post(int lane, SimDuration delay, SmallFn fn);

  /// Run `fn` in `lane`'s context: immediately (synchronously) when the
  /// caller is already on that lane or lanes are off — the classic code
  /// path, byte-identical to a direct call — otherwise as a cross-lane
  /// handoff after handoff_latency(). The seam client-tier code uses to
  /// invoke engines that live on worker lanes.
  void call_in_lane(int lane, SmallFn fn);

  /// Scope the calling thread to `lane` so construction-time scheduling
  /// (node timers, reachability probes) lands on the right lane. Restores
  /// the previous scope on destruction.
  class LaneScope {
   public:
    LaneScope(Simulator& sim, int lane);
    ~LaneScope();
    LaneScope(const LaneScope&) = delete;
    LaneScope& operator=(const LaneScope&) = delete;

   private:
    const Simulator* prev_sim_;
    int prev_lane_;
  };

  // --- per-lane introspection ------------------------------------------------
  std::size_t lane_executed(int lane) const { return lanes_.at(static_cast<std::size_t>(lane)).executed; }
  std::size_t lane_queue_depth(int lane) const { return lanes_.at(static_cast<std::size_t>(lane)).heap.size(); }
  SimTime lane_now(int lane) const { return lanes_.at(static_cast<std::size_t>(lane)).now; }
  /// Running fold of the lane's executed schedule — every live event's
  /// (time, sequence) mixed in execution order. Maintained only in lane
  /// mode (zero classic-path cost); two lane-mode runs agree on every
  /// lane's digest iff they executed identical schedules, which is how the
  /// equivalence suite compares thread counts without replaying cluster
  /// state.
  std::uint64_t lane_digest(int lane) const { return lanes_.at(static_cast<std::size_t>(lane)).digest; }
  /// Conservative windows executed and cross-lane handoffs posted.
  std::uint64_t windows_run() const { return windows_; }
  std::uint64_t handoffs_posted() const;

  /// Invoked on the coordinating thread after every window barrier (and at
  /// the end of each run) — the TraceBus uses it to flush lane-buffered
  /// events in deterministic order. One slot; pass nullptr to clear.
  void set_barrier_hook(std::function<void()> hook) { barrier_hook_ = std::move(hook); }

 private:
  static constexpr std::size_t kReserve = 1024;
  /// Purge only pays off once a meaningful batch is dead.
  static constexpr std::uint64_t kMinDeadForPurge = 64;

  /// Low bits of Entry::key holding the slot index; the high bits hold the
  /// schedule sequence number. 2^20 concurrently queued events and 2^44
  /// total schedules are both orders of magnitude beyond any simulation
  /// here (claim_slot() checks the slot bound).
  static constexpr unsigned kSlotBits = 20;
  /// Slots per chunk of a lane's slot pool (see Lane::slot_chunks). Lane
  /// mode's lanes hold a few hundred events each, and a chunk is reserved
  /// whole, so 256 slots (20 KB) keeps a lane's pool near its use.
  static constexpr unsigned kChunkBits = 8;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkBits;

  /// Heap entry: 16-byte trivially copyable key; the closure stays in its
  /// slot. `key` packs (seq << kSlotBits) | slot — seqs are unique per
  /// lane, so comparing keys compares seqs, the FIFO tie-break is
  /// unchanged, and which slot an event happens to reuse never affects the
  /// order.
  struct Entry {
    SimTime time;
    std::uint64_t key;
    std::uint32_t slot() const { return static_cast<std::uint32_t>(key) & ((1u << kSlotBits) - 1); }
  };
  struct Slot {
    SmallFn fn;
    std::shared_ptr<Cancelable::State> cancel;  ///< null for plain events
  };
  /// A buffered cross-lane event, committed at the next window barrier.
  struct Handoff {
    SimTime time;
    int target;
    std::uint64_t seq;  ///< per-source-lane, for the deterministic merge
    SmallFn fn;
  };

  /// One event lane: heap, slot pool, clock and RNG. Cache-line aligned so
  /// concurrently executing lanes never share a line. Classic mode is
  /// exactly one Lane — the original single-queue kernel, field for field.
  struct alignas(64) Lane {
    explicit Lane(std::uint64_t rng_seed)
        : cancel_tally(std::make_shared<std::uint64_t>(0)), rng(rng_seed) {
      heap.reserve(kReserve);
      free_slots.reserve(kReserve);
    }
    Lane(Lane&&) = default;

    Slot& slot(std::uint32_t i) { return slot_chunks[i >> kChunkBits][i & (kChunkSlots - 1)]; }

    SimTime now = 0;
    std::uint64_t next_seq = 0;
    std::size_t executed = 0;
    std::size_t peak_depth = 0;
    std::uint64_t cancelled_pops = 0;
    std::uint64_t purged = 0;
    std::uint64_t digest = 0;
    std::vector<Entry> heap;
    /// The slot pool: chunks of kChunkSlots slots, each reserved up front
    /// and never grown past it, so a slot never moves once built. An event's
    /// closure runs where it lies even while that closure schedules enough
    /// events to add chunks.
    std::vector<std::vector<Slot>> slot_chunks;
    std::vector<std::uint32_t> free_slots;
    /// Cancelled-but-still-queued event count; shared with Cancelable
    /// tokens so they can tally cancellations without a back-pointer.
    std::shared_ptr<std::uint64_t> cancel_tally;
    Rng rng;
    /// Cross-lane events posted while this lane executed a window.
    std::vector<Handoff> outbox;
    std::uint64_t handoff_seq = 0;
    std::uint64_t handoffs = 0;
  };

  __extension__ using Rank = unsigned __int128;
  /// An entry's place in the pop order, (time, key) as one unsigned 128-bit
  /// value: times are never negative (schedule clamps to the lane clock), so
  /// one compare orders by time, then by seq, with no branch on equal times.
  static Rank rank(const Entry& e) {
    return (static_cast<Rank>(static_cast<std::uint64_t>(e.time)) << 64) | e.key;
  }
  static bool later(const Entry& a, const Entry& b) { return rank(a) > rank(b); }

  Lane& current_mutable_lane() {
    if (!lane_mode_) return lanes_[0];
    return lanes_[static_cast<std::size_t>(current_lane())];
  }

  /// Build `fn` in a fresh slot, then queue it at max(t, now). The
  /// closure is constructed before its entry is queued, so a throwing
  /// capture copy queues nothing.
  template <typename F>
  void schedule(Lane& l, SimTime t, F&& fn, std::shared_ptr<Cancelable::State> cancel) {
    const std::uint32_t slot = claim_slot(l);
    Slot& s = l.slot(slot);
    s.fn.emplace(std::forward<F>(fn));
    s.cancel = std::move(cancel);
    enqueue(l, t, slot);
  }
  /// Purge the lane if cancelled entries dominate, then take a free slot.
  std::uint32_t claim_slot(Lane& l);
  /// Push the entry for `slot` at max(t, now) with the lane's next seq.
  void enqueue(Lane& l, SimTime t, std::uint32_t slot);
  /// Pop the lane's earliest entry; returns true when a live event ran.
  bool pop_and_run(Lane& l);
  /// Refill the root after a pop with `e`, the former last entry.
  void refill_root(Lane& l, Entry e);
  void sift_up(Lane& l, std::size_t i);
  void sift_down(Lane& l, std::size_t i);
  void release_slot(Lane& l, Slot& s, std::uint32_t slot);
  /// Drop every cancelled entry from the lane's heap in one pass and
  /// re-heapify.
  void purge(Lane& l);

  // --- lane-mode machinery ---------------------------------------------------
  /// Earliest pending event time across all lanes, or -1 when idle.
  SimTime earliest_event() const;
  /// Execute one conservative window ending (exclusively) at `end`.
  void run_window(SimTime end);
  /// Run `lane`'s events with time < end under that lane's thread scope.
  void run_lane_window(int lane, SimTime end);
  /// Sort all outboxes by (time, source lane, seq) and commit into targets.
  void merge_outboxes(SimTime end);
  void dispatch_workers(SimTime end);
  void work_loop(SimTime end);
  void worker_main();
  void run_lanes_until(SimTime t);

  std::uint64_t seed_ = 1;
  bool lane_mode_ = false;
  int threads_ = 1;
  SimDuration handoff_ = 0;
  bool running_ = false;
  std::uint64_t windows_ = 0;
  std::vector<Lane> lanes_;  ///< exactly one in classic mode
  std::function<void()> barrier_hook_;

  // Worker pool (lane mode, threads >= 2). Window dispatch is generation-
  // counted: the coordinator publishes pool_gen_ (release), workers claim
  // active lanes via pool_next_ and the last decrement of pool_unfinished_
  // signals completion — the acquire/release pairs on pool_gen_ and
  // pool_unfinished_ provide the happens-before edges that make lane state
  // handover across windows race-free.
  //
  // Windows are microseconds apart, so both rendezvous points spin briefly
  // before sleeping: a condvar wake costs more than most whole windows.
  // The sleep fallbacks use the Dekker pattern (seq_cst publish, then check
  // the other side's announce flag) so a late sleeper is never missed.
  std::vector<std::thread> workers_;
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;        ///< workers sleep here between runs
  std::condition_variable done_cv_;        ///< coordinator sleeps here on a long tail
  std::atomic<std::uint64_t> pool_gen_{0};
  std::atomic<bool> pool_stop_{false};
  std::atomic<int> pool_unfinished_{0};
  std::atomic<int> pool_sleepers_{0};      ///< workers parked on pool_cv_
  std::atomic<bool> done_sleeping_{false};  ///< coordinator parked on done_cv_
  SimTime pool_end_ = 0;                    ///< published before pool_gen_
  std::atomic<std::size_t> pool_next_{0};
  int spin_rounds_ = 0;  ///< 0 when the host lacks a core per pool thread
  std::vector<int> active_;               ///< worker lanes with events this window
  std::uint64_t window_worker_events_ = 64;  ///< last window's phase-1 volume (EMA-ish)
  std::vector<Handoff> merge_buf_;        ///< scratch for the barrier merge

  struct ThreadCtx {
    const Simulator* sim = nullptr;
    int lane = 0;
  };
  static thread_local ThreadCtx tls_ctx_;
};

}  // namespace tordb
