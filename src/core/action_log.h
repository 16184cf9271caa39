// The ordered-action log: the engine's colored-action history (paper
// Figures 1 & 3) behind one typed interface.
//
// The replication engine colors every action it knows — red (ordered
// locally, global order unknown), yellow (delivered in a primary's
// transitional configuration), green (global order known), white (known
// green at every replica, discardable). This module owns all of the
// bookkeeping that coloring needs:
//
//   - action body storage (red + untrimmed green bodies),
//   - the green sequence with O(1) position indexing (contiguous vector
//     with a trim offset — positions white+1..green),
//   - per-creator cuts: `red_cut` (contiguous locally-ordered prefix,
//     Appendix A's redCut) and `green_red_cut` (prefix covered by the
//     green order), from which the set of *pending* reds — red but not
//     yet green — is derived in O(1) per creator instead of rescanning a
//     global red-order list,
//   - the out-of-creator-order retransmission buffer (exchange-phase red
//     and green retransmissions may interleave across senders),
//   - the white trim line (bodies below it are discarded).
//
// ActionLog is a pure data structure: it performs no disk or network I/O.
// The engine persists records, multicasts, applies actions to the
// database and answers clients from the values this module returns —
// that boundary is what lets the log be unit-tested and benchmarked in
// isolation, and later sharded or swapped without touching the protocol.
//
// Invariants (checked by tests/action_log_test.cc):
//   - white_count() <= green_count(): the white prefix is a prefix of the
//     green prefix.
//   - green positions white+1..green resolve to ids/bodies; positions at
//     or below the white line, or beyond the green count, resolve to
//     kNoNode / nullptr (never an out-of-range access).
//   - for every creator, indices (green_red_cut, red_cut] are exactly the
//     pending reds: each has a stored body and is not green.
//   - no pending red is trimmed: trimming only ever erases green bodies.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/action.h"
#include "util/flat_map.h"
#include "util/types.h"

namespace tordb::core {

class ActionLog {
 public:
  ActionLog() {
    // Pre-size the hot hash table: it grows to thousands of entries
    // between white trims, and the rehash ladder from empty showed up in
    // scale-sweep profiles. (Bucket count never affects behavior — the
    // table is only probed by key or erase-filtered.)
    store_.reserve(1024);
  }

  struct GreenResult {
    /// Actions newly admitted to the local red order by this call (the
    /// argument and any unparked successors), in admission order. Views the
    /// log's scratch buffer: valid until the next mark_red/mark_green.
    std::span<const Action* const> newly_red;
    /// Assigned global green position; 0 if the action was already green.
    std::int64_t position = 0;
    /// Stored body of the newly-green action (nullptr when position == 0 or
    /// the body is unknown) — saves callers the store re-probe.
    const Action* body = nullptr;
  };

  // --- coloring ------------------------------------------------------------

  /// Admit `a` to the local red order (A.14). Ignores duplicates; parks
  /// actions arriving ahead of their creator-FIFO predecessors in the
  /// retransmission buffer; admitting a gap-filler drains the parked
  /// chain. Returns every action newly ordered red, in order; body pointers
  /// are stable until the action is trimmed, but the returned view itself
  /// reuses a scratch buffer valid only until the next mark_red/mark_green
  /// (consume-immediately, like the hot path does). The rvalue overload
  /// moves the body into storage (one deep copy per delivery saved on the
  /// hot path); the lvalue overload copies.
  std::span<const Action* const> mark_red(Action&& a);
  std::span<const Action* const> mark_red(const Action& a) { return mark_red(Action(a)); }

  /// Append `a` to the green sequence (A.14 mark-green), admitting it red
  /// first if needed. Duplicates (already green) return position 0.
  GreenResult mark_green(Action&& a);
  GreenResult mark_green(const Action& a) { return mark_green(Action(a)); }

  // --- queries -------------------------------------------------------------

  bool is_green(const ActionId& id) const {
    const CreatorState* cs = creators_.find(id.server_id);
    return cs != nullptr && id.index <= cs->green_red_cut;
  }
  /// Stored body, or nullptr if unknown or trimmed.
  const Action* body_of(const ActionId& id) const;
  /// Body at green `position` (1-based); nullptr if trimmed/out of range.
  const Action* green_body_at(std::int64_t position) const;
  /// Id at green `position` (1-based); kNoNode id if trimmed/out of range.
  ActionId green_action_at(std::int64_t position) const;
  /// Green position of `id`, or 0 if not green here / already trimmed.
  std::int64_t position_of(const ActionId& id) const;

  std::int64_t green_count() const { return green_count_; }
  std::int64_t white_count() const { return white_count_; }
  /// Number of pending reds (red, not yet green). O(#creators).
  std::size_t red_count() const;
  /// Actions parked waiting for creator-FIFO predecessors.
  std::size_t waiting_count() const { return red_waiting_.size(); }
  /// Bodies currently stored (pending reds + untrimmed greens).
  std::size_t stored_bodies() const { return store_.size(); }
  /// Logical bytes of the stored bodies (sum of wire sizes) — the memory
  /// curve bench_memory plots and the gc.bodies.bytes gauge samples.
  /// Maintained incrementally at every store insert/overwrite/erase.
  std::int64_t body_bytes() const { return body_bytes_; }

  std::int64_t red_cut(NodeId creator) const;
  std::int64_t green_red_cut(NodeId creator) const;
  /// Register `creator` so its (zero) cuts appear in the exported pairs.
  void ensure_creator(NodeId creator) { creators_[creator]; }

  /// Per-creator cuts sorted by creator — deterministic wire encoding.
  std::vector<std::pair<NodeId, std::int64_t>> red_cut_pairs() const;
  std::vector<std::pair<NodeId, std::int64_t>> green_red_cut_pairs() const;

  /// Pending reds in ActionId order (creator-major, index ascending) —
  /// the deterministic order Install (A.10) promotes them in.
  std::vector<ActionId> pending_red_ids() const;
  void for_each_pending_red(const std::function<void(const Action&)>& fn) const;

  // --- white trim ----------------------------------------------------------

  /// Discard bodies of green positions up to `white_line` (Figure 1:
  /// white actions are known green everywhere). Returns how many green
  /// entries were trimmed.
  std::size_t trim_white_to(std::int64_t white_line);

  // --- bulk transitions (recovery / state transfer) ------------------------

  /// Recovery from a compaction record: forget everything and restart
  /// from a green prefix of `green_count` (all trimmed) with the given
  /// per-creator green coverage (red cuts start equal to it).
  void reset(std::int64_t green_count,
             const std::vector<std::pair<NodeId, std::int64_t>>& green_red_cut);

  /// Adopt a transferred green prefix wholesale (§5.2 join snapshot /
  /// exchange catch-up): the green count jumps to `green_count`, the
  /// adopted prefix is entirely white (no bodies), per-creator cuts are
  /// raised, and bodies the prefix covers are released. Pending reds the
  /// prefix does not cover survive. Raising the cuts may fill creator-FIFO
  /// gaps that parked retransmissions were waiting on (an exchange's red
  /// retransmissions from one member can be delivered before the catch-up
  /// transfer from another); those chains are drained and returned exactly
  /// like mark_red's admissions — same scratch-buffer lifetime.
  std::span<const Action* const> adopt_green_prefix(
      std::int64_t green_count,
      const std::vector<std::pair<NodeId, std::int64_t>>& green_red_cut);

  /// Recovery replay of a persisted green record: append iff `position`
  /// extends the green sequence. Returns false on duplicates / gaps.
  bool replay_green(std::int64_t position, const Action& a);

 private:
  struct CreatorState {
    std::int64_t red_cut = 0;        ///< A: redCut — contiguous local prefix
    std::int64_t green_red_cut = 0;  ///< prefix covered by the green order
  };
  /// Body plus its green position (0 while only red), one entry per stored
  /// action instead of parallel body/position tables. Heap-allocated behind
  /// the flat table so body pointers stay stable across table growth (the
  /// mark_red contract: pointers live until the action is trimmed).
  struct StoredAction {
    Action body;
    std::int64_t green_pos = 0;
    std::int64_t bytes = 0;  ///< body.wire_size(), computed once at store time
  };
  /// Store `a` in `slot`, allocating it when empty (a filled slot keeps its
  /// green position), and keep body_bytes_ in step.
  void put_body(std::unique_ptr<StoredAction>& slot, Action&& a);

  void compact_green_seq();

  std::int64_t green_count_ = 0;
  std::int64_t white_count_ = 0;  ///< greens trimmed as white
  std::int64_t body_bytes_ = 0;   ///< wire bytes of the bodies in store_
  /// Positions white+1..green live at indexes [green_head_, size).
  std::vector<ActionId> green_seq_;
  std::size_t green_head_ = 0;
  /// Tiny (group-sized) and iterated for wire encodings: the sorted vector
  /// gives creator-ordered iteration for free.
  util::VecMap<NodeId, CreatorState> creators_;
  /// Recycle StoredAction blocks between trim (which frees one per white
  /// action) and admit (which allocates one per red action): the two rates
  /// match in steady state, so the pool turns a malloc/free pair per action
  /// per replica into a pop/push on this vector. Entries keep their last
  /// body until reuse (the move-assign there releases it); the pool is
  /// capped so a burst can't pin memory.
  std::unique_ptr<StoredAction> alloc_stored();
  void recycle(std::unique_ptr<StoredAction> p);
  std::vector<std::unique_ptr<StoredAction>> pool_;

  /// Scratch for mark_red's return view — reused across calls so the hot
  /// path (one mark_red per delivered action per member) allocates nothing.
  std::vector<const Action*> admitted_;

  /// Keyed by pack_action_id; probed per retransmission, never iterated in
  /// a determinism-relevant order.
  util::FlatMap64<Action> red_waiting_;
  /// Bodies (red + untrimmed green), keyed by pack_action_id.
  util::FlatMap64<std::unique_ptr<StoredAction>> store_;
};

}  // namespace tordb::core
