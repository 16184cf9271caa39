// Deterministic in-memory database (paper §2.2 service model).
//
// "An action defines a transition from the current state of the database to
// the next state; the next state is completely determined by the current
// state and the action." Commands are small programs over a key-value
// state: writes, numeric adds, appends, timestamp-max writes, and checked
// (active/interactive) updates that apply only when a precondition holds —
// the mechanism the paper uses to mimic interactive transactions (§6).
//
// The database supports snapshot/restore (used for state transfer to a
// joining replica, §5.1) and a content digest used by tests to assert
// replica-state convergence.
//
// Layout (DESIGN.md §11): keys are interned to dense per-node ids
// (util::KeyInterner) and rows live in a flat id-indexed cell table, so the
// apply hot path pays one hash probe per op instead of a red-black-tree
// walk with string compares. Sorted iteration — needed only by the cold
// range ops, snapshot/restore and digest() — comes from a lazily-merged
// ordered index of ids; digest() and snapshot() stay byte-identical to the
// old std::map implementation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/key_interner.h"
#include "util/serde.h"

namespace tordb::db {

enum class OpType : std::uint8_t {
  kPut = 0,          ///< key := value
  kAdd = 1,          ///< key := num(key) + delta
  kAppend = 2,       ///< key := key . value
  kGet = 3,          ///< read key into the result
  kCheck = 4,        ///< abort the whole command unless key == value
  kTimestampPut = 5, ///< key := value only if ts > stored ts (last-writer-wins)
  kDelete = 6,       ///< erase key (absent key reads as "")
  // Shard rebalancing (src/shard rebalancer; DESIGN.md §9). Both ride the
  // green order like any other op, so every replica of a group fences and
  // installs at exactly the same position in its history.
  kFenceRange = 7,   ///< fence [key, value): subsequent updates there abort
  kInstallRange = 8, ///< install a RangeSnapshot (value = encoded blob); clears the fence
  kUnfenceRange = 9, ///< lift the fence on [key, value): an abandoned move's rollback
  // Cross-shard prepared-check transactions (src/txn; DESIGN.md §13). All
  // three ride a shard's green order like any other op, so every replica of
  // the group takes the same prepare/confirm/cancel transition at the same
  // green position. The pending update lives in an ordinary reserved-key
  // cell, so snapshot/restore, state transfer and digest carry it for free.
  kTxnPrepare = 10,  ///< key = reserved pending cell, value = encoded TxnPending
  kTxnConfirm = 11,  ///< apply the pending's buffered update, erase the cell
  kTxnCancel = 12,   ///< erase the pending cell without applying
};

struct Op {
  OpType type = OpType::kPut;
  std::string key;
  std::string value;
  std::int64_t num = 0;  ///< delta for kAdd, timestamp for kTimestampPut

  friend bool operator==(const Op&, const Op&) = default;
};

struct RangeSnapshot;  // defined below
struct TxnPending;     // defined below

/// One action's update and/or query program. Empty `ops` is a pure no-op.
struct Command {
  std::vector<Op> ops;

  void encode(BufWriter& w) const;
  static Command decode(BufReader& r);
  /// Bytes encode() writes, computed without encoding.
  std::size_t wire_size() const;

  static Command put(std::string key, std::string value);
  static Command add(std::string key, std::int64_t delta);
  static Command append(std::string key, std::string value);
  static Command get(std::string key);
  static Command checked_put(std::string key, std::string expected, std::string value);
  static Command timestamp_put(std::string key, std::string value, std::int64_t ts);
  static Command del(std::string key);
  static Command fence_range(std::string lo, std::string hi);
  static Command install_range(const RangeSnapshot& snap);
  static Command unfence_range(std::string lo, std::string hi);
  static Command txn_prepare(std::string pending_key, const TxnPending& pending);
  static Command txn_confirm(std::string pending_key);
  static Command txn_cancel(std::string pending_key);
};

/// One shard's slice of a cross-shard prepared-check transaction, buffered
/// at a reserved `__txnp/` cell between the prepare and the decision
/// (DESIGN.md §13). The header (client, seq, home) is enough for a recovery
/// pass to find the coordinator's intent record and drive the transaction
/// to the same confirm-xor-cancel outcome on every shard.
struct TxnPending {
  std::int64_t client = 0;
  std::int64_t seq = 0;
  int home = 0;     ///< shard holding the coordinator's `__txn/` intent record
  Command update;   ///< the buffered non-check ops owned by this shard

  Bytes encode() const;
  static TxnPending decode(const Bytes& b);
};

/// Half-open key range [lo, hi); hi == "" means +infinity (lo == "" already
/// means -infinity since "" compares below every key). Keys starting with
/// the reserved "__" prefix (session guards, cross-shard markers) are
/// infrastructure pinned to their group and are never fenced or moved.
inline bool key_in_range(std::string_view key, std::string_view lo, std::string_view hi) {
  return key >= lo && (hi.empty() || key < hi);
}

/// Stable fingerprint of a key range, shared by the database (trace events),
/// the rebalancer, and the safety checker's cross-shard ownership tracking.
std::uint64_t range_fingerprint(std::string_view lo, std::string_view hi);

/// One row of a range extraction: the full cell, timestamp included, so an
/// install reproduces the source's state bit-for-bit.
struct RangeRow {
  std::string key;
  std::string value;
  std::int64_t ts = -1;
};

/// The unit of shard rebalancing state transfer: every row of [lo, hi) at
/// the source's fence point, serialized into a kInstallRange op.
struct RangeSnapshot {
  std::string lo;
  std::string hi;
  std::vector<RangeRow> rows;

  Bytes encode() const;
  static RangeSnapshot decode(const Bytes& b);
};

/// Range bookkeeping change observed while applying a command — the engine
/// turns these into kRangeFence / kRangeInstall / kRangeWrite trace events
/// stamped with the green position. Empty unless rebalancing is in play.
struct RangeEvent {
  enum class Kind : std::uint8_t { kFence, kInstall, kWrite, kUnfence };
  Kind kind = Kind::kWrite;
  std::uint64_t range = 0;  ///< range_fingerprint(lo, hi)
  std::int64_t rows = 0;    ///< rows installed (kInstall only)
};

/// Transaction-state transition observed while applying a command — the
/// engine turns these into kTxnPrepare / kTxnConfirm / kTxnCancel trace
/// events stamped with the green position, which invariant 9 consumes.
/// Emitted only on real transitions: a confirm or cancel of an
/// already-resolved pending is an idempotent no-op with no event.
struct TxnEvent {
  enum class Kind : std::uint8_t { kPrepare, kConfirm, kCancel };
  Kind kind = Kind::kPrepare;
  std::uint64_t txn = 0;  ///< range_fingerprint(pending key, "")
};

struct ApplyResult {
  bool aborted = false;            ///< a kCheck precondition failed, or fenced
  bool fenced = false;             ///< aborted because an update hit a fenced range
  std::vector<std::string> reads;  ///< one entry per kGet, in program order
  std::vector<RangeEvent> range_events;  ///< only populated once ranges are tracked
  std::vector<TxnEvent> txn_events;      ///< only populated by kTxn* ops
};

/// Flat-table accounting, sampled into the metrics registry by the cluster
/// harnesses (`db.intern.{keys,bytes}`, `db.table.{slots,rehashes}`).
struct DbStats {
  std::uint64_t interned_keys = 0;   ///< distinct keys ever seen
  std::uint64_t interned_bytes = 0;  ///< bytes held by the interner
  std::uint64_t table_slots = 0;     ///< open-addressing slots allocated
  std::uint64_t table_rehashes = 0;  ///< table growth events
};

class Database {
 public:
  /// Apply a command deterministically. A failed kCheck aborts the whole
  /// command (no partial effects), mirroring a rolled-back transaction;
  /// every replica aborts identically (§6).
  ApplyResult apply(const Command& cmd);

  /// Apply two commands as one atomic action — an interactive action's query
  /// program followed by its update program — without materializing their
  /// concatenation. Exactly equivalent to applying a command holding
  /// query.ops + update.ops: every kCheck across both programs is evaluated
  /// first, then fence guards, then the ops run in program order.
  ApplyResult apply(const Command& query, const Command& update);

  /// Read a single key ("" when absent) without counting as an action.
  std::string get(const std::string& key) const;

  /// Evaluate a command's reads and checks against the current state
  /// without mutating it (used for the §6 query-only fast path).
  ApplyResult peek(const Command& cmd) const;

  std::int64_t version() const { return version_; }
  std::size_t size() const { return live_; }
  DbStats stats() const;

  /// Serialize full state (used for state transfer to joining replicas).
  Bytes snapshot() const;
  void restore(const Bytes& snap);

  /// Order-independent content hash; equal digests <=> equal contents.
  /// Tracked ranges (fences/installs) are folded in, so replicas of a group
  /// agree on fence state exactly as they agree on rows.
  std::uint64_t digest() const;

  Database clone() const { return *this; }

  // --- shard rebalancing (DESIGN.md §9) --------------------------------------

  /// True when [lo, hi) is currently fenced (a green kFenceRange with no
  /// later kInstallRange for the same bounds).
  bool range_fenced(const std::string& lo, const std::string& hi) const;

  /// Extract every row of [lo, hi) — the range snapshot a move transfers.
  /// Reserved "__" keys are infrastructure and are skipped.
  RangeSnapshot extract_range(const std::string& lo, const std::string& hi) const;

  /// Every live (key, value) whose key starts with `prefix`, in key order.
  /// Unlike extract_range this INCLUDES reserved "__" keys — it is the
  /// recovery scan a replacement transaction coordinator runs over `__txn/`
  /// intent records and `__txnp/` pending cells (DESIGN.md §13).
  std::vector<std::pair<std::string, std::string>> scan_prefix(const std::string& prefix) const;

  /// Number of ranges this database tracks (fenced or installed).
  std::size_t tracked_ranges() const { return ranges_.size(); }

 private:
  /// One row, indexed by the key's dense id. Ids are assigned by the
  /// per-database interner in first-touch order, so `cells_` is a flat
  /// array — no hashing or string compares past the one intern per op.
  /// Deletion marks the cell dead (the id, like the interned key, is
  /// permanent); a dead cell reads as absent everywhere.
  struct Cell {
    std::string value;
    std::int64_t ts = -1;  ///< for kTimestampPut cells
    bool live = false;
  };
  /// A range this replica has seen a fence or install for, keyed by bounds.
  /// Kept tiny (one entry per rebalanced range), scanned only on updates
  /// while non-empty — the common no-rebalance case pays one empty() test.
  /// Entries are pairwise disjoint: every fence/install/unfence first carves
  /// its bounds out of any overlapping entry (carve_tracked), so range_of
  /// is unambiguous even after splits re-draw directory bounds mid-history.
  struct TrackedRange {
    std::string lo;
    std::string hi;
    bool fenced = false;
  };
  const TrackedRange* range_of(std::string_view key) const;
  void carve_tracked(std::string_view lo, std::string_view hi);
  /// True when any mutating non-reserved op of `cmd` lands in a fenced
  /// range — the fence pre-scan for a buffered transaction update, whose
  /// ops are hidden inside a kTxnPrepare blob / pending cell.
  bool update_hits_fence(const Command& cmd) const;
  /// The one row-write path, shared by apply's main loop and a confirmed
  /// transaction's buffered update: applies a kPut/kAdd/kAppend/
  /// kTimestampPut/kDelete to cell `id` (any other op type is a no-op), and
  /// surfaces a non-reserved write into a tracked range as one kWrite
  /// event per range and command.
  void write_row(const Op& op, util::KeyId id, ApplyResult& res);
  void erase_cell(util::KeyId id);
  /// get() without the return-by-value copy, for the apply hot path.
  const std::string& value_of(std::string_view key) const;
  const std::string& value_at(util::KeyId id) const;
  /// The live cell for `id`, reviving a dead/new cell to the default state
  /// (empty value, ts = -1) exactly as std::map::operator[] used to.
  Cell& upsert(util::KeyId id);
  /// Bring `ordered_` up to date: every interned id, sorted by key. New ids
  /// since the last call are sorted and merged in; deletes never invalidate
  /// it (iteration skips dead cells), so steady-state workloads over a
  /// fixed key pool keep it valid indefinitely. Cold ops only — the hot
  /// apply path never orders.
  void ensure_ordered() const;
  /// First position in `ordered_` whose key is >= `lo`.
  std::size_t ordered_lower_bound(std::string_view lo) const;

  util::KeyInterner keys_;
  std::vector<Cell> cells_;  ///< indexed by KeyId; dense, never shrinks
  std::size_t live_ = 0;     ///< cells with live == true
  /// Lazily-maintained ordered index of (key, id) — the replacement for the
  /// old std::map's sorted iteration, consulted only by the cold range ops
  /// (fence/install/unfence erase scans, extract_range), snapshot/restore
  /// and digest() (which must iterate in sorted key order byte-identically).
  mutable std::vector<util::KeyId> ordered_;
  std::vector<TrackedRange> ranges_;
  std::int64_t version_ = 0;
};

}  // namespace tordb::db
