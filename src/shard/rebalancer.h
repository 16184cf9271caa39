// Online shard rebalancing: fenced key-range moves plus range split/merge
// over the versioned Directory (DESIGN.md §9).
//
// A move of range [lo, hi) from its owner S to shard D is three steps, each
// riding the machinery that already exists:
//
//   1. FENCE    — a kFenceRange action is submitted through an exactly-once
//                 session to group S. Once green, every replica of S aborts
//                 further user updates to the range deterministically (the
//                 fence occupies one position in S's total order, so the
//                 range's content is frozen at exactly that green index).
//   2. SNAPSHOT — the rebalancer extracts the range's rows from any running
//                 S replica that has applied the fence (polling until one
//                 is reachable — crashes and partitions only delay this),
//                 then waits out a size-proportional simulated transfer.
//   3. INSTALL  — a kInstallRange action carrying the snapshot is submitted
//                 through a session to group D; it lands in *D's* green
//                 order, inserting the rows and clearing any fence there.
//                 On commit the directory's owner entry flips and the epoch
//                 bumps (kDirectoryEpoch) — the Router's next consult sees
//                 the new map, and commands bounced by S's fence re-route
//                 to D. Exactly-once client sessions are per (client,
//                 shard), so a bounced command is a fresh first attempt at
//                 D; nothing is double-applied.
//
// Failure matrix (see DESIGN.md §9 for the full argument): the fence and
// install are ordinary green actions, so partitions/crashes at either group
// delay but never corrupt a move; the move is idempotent before cutover
// (nothing references D's copy until the directory flips), and cutover is a
// single in-memory epoch bump at the rebalancer. A move that gives up after
// its fence committed (session budget exhausted against a dead group) rolls
// back with a kUnfenceRange action at S: the directory still routes the
// range to S, so lifting the fence restores writability there. Counted in
// stats().moves_failed, distinct from up-front rejections.
//
// Splits and merges are directory-only (both halves keep the owner; a merge
// requires one owner), so they are instant epoch bumps with no data motion.
//
// Members, sessions (Router::make_session), tracer and metrics come from
// the router; the rebalancer is the directory's only mutator.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "core/client_session.h"
#include "obs/metrics.h"
#include "shard/directory.h"
#include "shard/router.h"

namespace tordb::shard {

/// What a deployment tunes; the wiring is the router's.
struct RebalancerOptions {
  SimDuration transfer_base = millis(5);  ///< per-move transfer latency floor
};

struct MoveReport {
  bool ok = false;
  std::string lo, hi;
  int from = -1;
  int to = -1;
  std::int64_t rows = 0;
  std::int64_t bytes = 0;
  SimDuration duration = 0;  ///< fence submit -> cutover
  std::int64_t epoch = 0;    ///< directory epoch after cutover
};
using MoveDoneFn = std::function<void(const MoveReport&)>;

struct RebalancerStats {
  std::uint64_t moves_started = 0;
  std::uint64_t moves_completed = 0;
  std::uint64_t moves_rejected = 0;  ///< bad range, busy range, hashed mode...
  std::uint64_t moves_failed = 0;    ///< gave up mid-protocol; source unfenced
  std::uint64_t splits = 0;
  std::uint64_t merges = 0;
  std::int64_t rows_moved = 0;
  std::int64_t bytes_moved = 0;
};

class Rebalancer {
 public:
  /// `directory` must be the object `router` reads (mutating it IS the
  /// cutover); both must outlive the rebalancer.
  Rebalancer(Simulator& sim, const Router& router, Directory& directory,
             RebalancerOptions options = {});
  ~Rebalancer();

  Rebalancer(const Rebalancer&) = delete;
  Rebalancer& operator=(const Rebalancer&) = delete;

  /// Split the range containing `key` at `key` (directory-only, instant).
  bool split_at(const std::string& key);

  /// Merge away the split point `key` (directory-only; one owner required).
  bool merge_at(const std::string& key);

  /// Move the range exactly bounded by [lo, hi) to shard `to` via
  /// fence -> snapshot -> install -> cutover. `done` fires with the report
  /// (ok = false for an immediate rejection: unknown range, range already
  /// moving, to == current owner, hashed directory).
  bool move_range(const std::string& lo, const std::string& hi, int to,
                  MoveDoneFn done = nullptr);

  /// True when no move is in flight.
  bool idle() const { return busy_.empty(); }
  const RebalancerStats& stats() const { return stats_; }

 private:
  struct Move {
    std::string lo, hi;
    int from = -1;
    int to = -1;
    SimTime started = 0;
    bool fence_committed = false;  ///< a failed move must unfence the source
    MoveDoneFn done;
  };

  core::ClientSession& session(int shard);
  void await_fenced_snapshot(std::shared_ptr<Move> mv);
  void install(std::shared_ptr<Move> mv, db::RangeSnapshot snap);
  void cutover(std::shared_ptr<Move> mv, std::int64_t rows, std::int64_t bytes);
  void fail(std::shared_ptr<Move> mv);
  void finish_failed(std::shared_ptr<Move> mv);
  void bump_epoch_trace(std::int64_t owner, std::uint64_t range);

  Simulator& sim_;
  const Router& router_;
  Directory& directory_;
  RebalancerOptions options_;
  std::shared_ptr<bool> alive_;

  std::map<int, std::unique_ptr<core::ClientSession>> sessions_;  ///< per shard
  std::set<std::pair<std::string, std::string>> busy_;  ///< ranges mid-move
  RebalancerStats stats_;
  obs::Histogram* move_ms_hist_ = nullptr;
};

}  // namespace tordb::shard
