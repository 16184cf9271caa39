// The ordered-action log: the engine's colored-action history (paper
// Figures 1 & 3) behind one typed interface.
//
// The replication engine colors every action it knows — red (ordered
// locally, global order unknown), yellow (delivered in a primary's
// transitional configuration), green (global order known), white (known
// green at every replica, discardable). This module owns all of the
// bookkeeping that coloring needs:
//
//   - action body storage: shared ActionRefs, never deep copies. A green
//     body lives in the green sequence beside its id, indexed by position
//     (a contiguous vector with a trim offset — positions white+1..green);
//     only bodies outside it (pending reds) sit in a hash table keyed by
//     id. An action that turns red and green in one step, the regular
//     primary's path, goes straight into the green sequence, and the white
//     trim pops it from the front: that path probes no hash table,
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
//   - no pending red is trimmed: trimming only ever drops green bodies.
//   - stored_bodies() / body_bytes() count each stored body once, wherever
//     it lives (core.peak_body_kb is read from them).
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
  struct GreenResult {
    /// Actions newly admitted to the local red order by this call (the
    /// argument and any unparked successors), in admission order. Views the
    /// log's scratch buffer: valid until the next mark_red/mark_green.
    std::span<const Action* const> newly_red;
    /// Assigned global green position; 0 if the action was already green.
    std::int64_t position = 0;
    /// Stored body of the newly-green action (nullptr when position == 0).
    const Action* body = nullptr;
  };

  // --- coloring ------------------------------------------------------------

  /// Admit `a` to the local red order (A.14). Ignores duplicates; parks
  /// actions arriving ahead of their creator-FIFO predecessors in the
  /// retransmission buffer; admitting a gap-filler drains the parked
  /// chain. Returns every action newly ordered red, in order; the bodies
  /// live until the action is trimmed, but the returned view itself reuses
  /// a scratch buffer valid only until the next mark_red/mark_green
  /// (consume-immediately, like the hot path does).
  std::span<const Action* const> mark_red(ActionRef a);

  /// Append `a` to the green sequence (A.14 mark-green), admitting it red
  /// first if needed. Duplicates (already green) return position 0.
  GreenResult mark_green(ActionRef a);

  // --- queries -------------------------------------------------------------

  bool is_green(const ActionId& id) const {
    const CreatorState* cs = creators_.find(id.server_id);
    return cs != nullptr && id.index <= cs->green_red_cut;
  }
  /// Stored body, or null if unknown or trimmed. A pending red is one
  /// probe; a green id scans the untrimmed green sequence (the engine asks
  /// only for reds).
  ActionRef body_of(const ActionId& id) const;
  /// Body at green `position` (1-based); nullptr if trimmed/out of range.
  const Action* green_body_at(std::int64_t position) const {
    const GreenEntry* g = green_entry(position);
    return g == nullptr ? nullptr : g->body.action.get();
  }
  /// Id at green `position` (1-based); kNoNode id if trimmed/out of range.
  ActionId green_action_at(std::int64_t position) const {
    const GreenEntry* g = green_entry(position);
    return g == nullptr ? ActionId{} : g->id;
  }
  /// Green position of `id`, or 0 if not green here / already trimmed.
  std::int64_t position_of(const ActionId& id) const;

  std::int64_t green_count() const { return green_count_; }
  std::int64_t white_count() const { return white_count_; }
  /// Number of pending reds (red, not yet green). O(#creators).
  std::size_t red_count() const;
  /// Actions parked waiting for creator-FIFO predecessors.
  std::size_t waiting_count() const { return red_waiting_.size(); }
  /// Bodies currently stored (pending reds + untrimmed greens).
  std::size_t stored_bodies() const { return store_.size() + (green_seq_.size() - green_head_); }
  /// Logical bytes of the stored bodies (sum of wire sizes) — the memory
  /// curve bench_memory plots and the gc.bodies.bytes gauge samples.
  /// Maintained incrementally wherever a body is stored, moved or dropped.
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
  bool replay_green(std::int64_t position, ActionRef a);

 private:
  struct CreatorState {
    std::int64_t red_cut = 0;        ///< A: redCut — contiguous local prefix
    std::int64_t green_red_cut = 0;  ///< prefix covered by the green order
  };
  /// A stored body and its wire size, computed once when stored.
  struct Body {
    ActionRef action;
    std::int64_t bytes = 0;
  };
  struct GreenEntry {
    ActionId id;
    Body body;  ///< released (null) once trimmed
  };
  static Body body(ActionRef a) {
    const auto bytes = static_cast<std::int64_t>(a->wire_size());
    return Body{std::move(a), bytes};
  }

  const GreenEntry* green_entry(std::int64_t position) const;
  /// The untrimmed green entry for `id`, or nullptr. Linear: only the rare
  /// paths (green-while-parked admission, body_of/position_of of a green)
  /// look a green body up by id.
  const GreenEntry* find_green(const ActionId& id) const;
  /// Admit red, in index order, every parked action of `creator` that its
  /// red cut now reaches, appending each to admitted_.
  void admit_parked(CreatorState& cs, NodeId creator);
  /// Keep the body of a newly red action and return the stored object.
  const Action* store_red(ActionRef a);
  void push_green(const ActionId& id, Body b);
  void compact_green_seq();

  std::int64_t green_count_ = 0;
  std::int64_t white_count_ = 0;  ///< greens trimmed as white
  std::int64_t body_bytes_ = 0;   ///< wire bytes of the stored bodies
  /// Positions white+1..green live at indexes [green_head_, size).
  std::vector<GreenEntry> green_seq_;
  std::size_t green_head_ = 0;
  /// Tiny (group-sized) and iterated for wire encodings: the sorted vector
  /// gives creator-ordered iteration for free.
  util::VecMap<NodeId, CreatorState> creators_;

  /// Scratch for mark_red's return view — reused across calls so the hot
  /// path (one admission per delivered action per member) allocates nothing.
  std::vector<const Action*> admitted_;

  /// Keyed by pack_action_id; probed per retransmission, never iterated in
  /// a determinism-relevant order.
  util::FlatMap64<ActionRef> red_waiting_;
  /// Bodies outside the green sequence, keyed by pack_action_id: pending
  /// reds, plus the rare action admitted red after green coverage of its
  /// creator already passed it without it entering the green order (a
  /// successor turned green while parked).
  util::FlatMap64<Body> store_;
};

}  // namespace tordb::core
