// Online safety checker — continuously verifies the paper's global
// invariants from the trace stream, across every simulated node at once
// (DESIGN.md §7).
//
// Subscribes to a TraceBus and checks, on every event:
//
//   1. Green-order prefix consistency (Theorem 1): the checker maintains
//      the canonical green sequence (first writer per position wins); any
//      node marking position p green with a different action id diverges.
//   2. Uniqueness of green positions: no action id may become green at two
//      different positions, at any node.
//   3. Sequential greens: a node marks greens at exactly count+1; prefix
//      adoptions (state transfer, recovery) may only move a node to a
//      count the canonical history already covers.
//   4. Green FIFO (Theorem 2): within the canonical sequence each
//      creator's actions appear in creation-index order without gaps.
//   5. At most one primary component per generation: two installs of the
//      same prim_index must agree on attempt and membership.
//   6. White-trim stability: a node may only trim up to a line that every
//      member of its current server-set view has already marked green at
//      some point (its high-water green count). The high-water mark — not
//      the current count — is the bound because green knowledge is logged
//      asynchronously: a member can crash and recover *below* its pre-crash
//      green line, while peers legitimately still hold (and re-propagate)
//      the knowledge it emitted before the crash. Trimming past such a
//      retreated member stays safe — the next exchange detects the member
//      below the white line and falls back to a catch-up state transfer
//      instead of per-position body retransmission (DESIGN.md §14).
//      Trimming past a line no member ever reached is still a violation:
//      that knowledge could only be fabricated.
//   7. Safe-delivery agreement (EVS): all nodes delivering (config, seq)
//      as safe saw the same payload.
//   8. Range ownership (shard rebalancing, DESIGN.md §9): per key range,
//      no group green-applies a user write past its own fence position, a
//      range is never installed while another group still owns it, and an
//      install is always preceded by a fence somewhere — i.e. no key is
//      green-applied by two shards for overlapping post-fence indices.
//   9. Transaction resolution (cross-shard prepared checks, DESIGN.md §13):
//      per transaction and per group, a confirm or cancel is only ever
//      green after a prepare, and the two decisions are mutually exclusive
//      — a group that confirmed never cancels and vice versa, so every
//      replica of a shard resolves each prepare the same single way.
//  10. Honest knowledge words (DESIGN.md §14): the green count a node's gc
//      stability stream carries is a lower-bound claim, so per node it must
//      be monotone non-decreasing and must never exceed the sender's true
//      green count — a "lying" word would let peers trim white past history
//      the sender does not actually hold. Crash recovery and snapshot
//      adoption reset the baseline (a recovered node may legitimately send
//      a lower word).
//
// Violations fail fast: the checker prints a report — including a diff of
// the divergent histories around the offending position — and aborts the
// process (tests die loudly at the first bad event, not at the end-state
// assertion). Set `fail_fast = false` to collect violations instead (used
// by the checker's own negative tests and by the scenario runner, which
// prints a verdict).
//
// Multi-group deployments (src/shard): the paper's invariants hold *per
// replication group* — each shard runs its own total order, so there is one
// canonical green history, one primary lineage, and one safe-delivery space
// per group, not per deployment. Call set_node_group() before a node emits
// its first event to scope it; unassigned nodes land in group 0, which
// keeps single-group behaviour identical.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"

namespace tordb::obs {

struct CheckerOptions {
  bool fail_fast = true;  ///< print + abort on the first violation
};

class SafetyChecker {
 public:
  /// Subscribes to `bus`; the bus must outlive the checker's use (the
  /// harness owns both, checker after bus).
  SafetyChecker(TraceBus& bus, CheckerOptions options = {});

  /// Scope `node` to a replication group (shard). Must be called before
  /// the node's first event; events from unassigned nodes check against
  /// group 0.
  void set_node_group(NodeId node, std::int64_t group);

  bool ok() const { return violations_.empty(); }
  const std::vector<std::string>& violations() const { return violations_; }
  std::uint64_t events_checked() const { return events_checked_; }
  /// Canonical green length of one group (default: group 0).
  std::int64_t canonical_green_count(std::int64_t group = 0) const;
  /// Canonical green length summed over every group.
  std::int64_t total_green_count() const;
  /// Invariant 9 quiescence accounting: (transaction, group) pairs that
  /// prepared but were neither confirmed nor cancelled yet. Tests assert 0
  /// once the coordinator drains — nonzero mid-run is normal in-flight
  /// state, so this is NOT folded into ok().
  std::int64_t txn_unresolved() const;
  /// Distinct (transaction, group) prepares observed — a sanity floor for
  /// tests that must prove the prepared-check protocol actually ran.
  std::int64_t txn_prepared() const;

  /// "checker: ok (N events)" or "checker: K violation(s): first..."
  std::string verdict() const;
  /// Full multi-line report of every recorded violation.
  std::string report() const;

  /// Feed one event directly (the bus subscription calls this; negative
  /// tests inject forged events through the bus instead).
  void on_event(const TraceEvent& e);

 private:
  struct NodeView {
    bool seen = false;
    std::int64_t green_count = 0;
    /// Highest green count the node ever reached — never lowered by crash
    /// recovery. Invariant 6 bounds peers' white trims by this, because
    /// pre-crash knowledge legitimately outlives a recovery retreat.
    std::int64_t green_highwater = 0;
    std::set<NodeId> members;
    std::vector<ActionId> recent;  ///< trailing green ids, for diffs
    std::int64_t last_word = -1;  ///< invariant 10; -1 = no word sent yet
  };
  struct PrimInfo {
    std::int64_t attempt = 0;
    std::uint64_t member_hash = 0;
    std::int64_t member_count = 0;
    std::vector<NodeId> members;
    NodeId installer = kNoNode;
  };

  /// Invariant 8 state, per range fingerprint. Positions are green
  /// positions within each group's own history; comparisons only ever
  /// happen within one group, so the two independent total orders are
  /// never confused. Highest-position-wins makes lagging replica replays
  /// (which re-apply the same green order at the same positions) no-ops.
  struct RangeState {
    std::map<std::int64_t, std::int64_t> fence_pos;    ///< group -> fence green pos
    std::map<std::int64_t, std::int64_t> unfence_pos;  ///< group -> unfence green pos
    std::map<std::int64_t, std::int64_t> install_pos;  ///< group -> install green pos
    std::map<std::int64_t, std::int64_t> write_pos;    ///< group -> last write green pos
  };

  /// Invariant 9 state, per transaction fingerprint (the reserved pending
  /// key). Same position-dedup discipline as RangeState: replicas of a
  /// group replay the same transitions at the same green positions, so only
  /// a strictly higher position is a new transition.
  struct TxnState {
    std::map<std::int64_t, std::int64_t> prepare_pos;  ///< group -> prepare green pos
    std::map<std::int64_t, std::int64_t> confirm_pos;  ///< group -> confirm green pos
    std::map<std::int64_t, std::int64_t> cancel_pos;   ///< group -> cancel green pos
  };

  struct SafeKey {
    std::int64_t counter;
    NodeId coordinator;
    std::int64_t seq;
    auto operator<=>(const SafeKey&) const = default;
  };

  /// Per-group invariant state: one canonical history, primary lineage and
  /// safe-delivery space per replication group.
  struct GroupState {
    // Canonical green history (position -> action, 0-based internally).
    std::vector<ActionId> canon;
    std::unordered_map<ActionId, std::int64_t> position_of;
    std::map<NodeId, std::int64_t> last_green_index;  ///< FIFO per creator
    std::map<std::int64_t, PrimInfo> primaries;
    std::int64_t pending_prim_index = -1;  ///< collecting kPrimaryMember events
    NodeId pending_prim_node = kNoNode;
    std::map<SafeKey, std::uint64_t> safe_payload;
  };

  void violation(const std::string& what);
  std::string green_diff(const GroupState& g, NodeId node, std::int64_t position,
                         const ActionId& claimed) const;
  NodeView& view(NodeId n);
  GroupState& group_of(NodeId n);
  std::int64_t group_id(NodeId n) const;

  void on_green(const TraceEvent& e);
  void on_adopt(NodeId node, std::int64_t green_count, const char* how);
  void on_primary_install(const TraceEvent& e);
  void on_white_trim(const TraceEvent& e);
  void on_safe_deliver(const TraceEvent& e);
  void on_range_event(const TraceEvent& e);
  void on_txn_event(const TraceEvent& e);
  void on_knowledge_send(const TraceEvent& e);

  static constexpr std::size_t kMaxViolations = 64;  ///< retained when not failing fast
  static constexpr std::size_t kDiffContext = 4;     ///< green positions shown around a divergence

  CheckerOptions options_;
  std::uint64_t events_checked_ = 0;
  std::vector<std::string> violations_;

  std::map<std::int64_t, GroupState> groups_;
  std::map<NodeId, std::int64_t> node_group_;  ///< absent = group 0
  std::map<std::int64_t, RangeState> ranges_;  ///< range fingerprint -> state
  std::map<std::int64_t, TxnState> txns_;      ///< txn fingerprint -> state

  std::map<NodeId, NodeView> nodes_;
};

}  // namespace tordb::obs
