// Shard directory: the authoritative map from the key space to replication
// groups (partial replication, Sutra & Shapiro / PAPERS.md).
//
// The paper replicates the whole database in one group, so aggregate update
// throughput is capped by one total order. The shard tier splits the key
// space into disjoint shards, each replicated by its own engine group with
// its own green order; the directory is the pure, deterministic mapping both
// the router and every test agree on. Routing is uncached: every query
// answers from the current mapping alone, so a read sees the latest epoch
// and the directory holds no state besides the map itself (DESIGN.md §11).
//
// Two mappings are supported:
//   hashed(n)  — FNV-1a over the key, mod n. Uniform, stateless, what the
//                benches use. Immutable: hashed keys never move.
//   ranged(s)  — lexicographic split points, yugabyte-tablet style: range i
//                is [s[i-1], s[i]) with the first range everything below
//                s[0] and the last everything at or above s.back(). Each
//                range carries an *owner* shard (initially range i -> shard
//                i), and the map is versioned: split_at / merge_at refine
//                the ranges, set_range_owner moves one (the rebalancer's
//                cutover step, DESIGN.md §9), and every mutation bumps
//                `epoch`. The Router re-consults the directory when
//                a fenced abort bounces a command, so an epoch bump
//                retargets in-flight traffic without restarting anything.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "db/database.h"

namespace tordb::shard {

class Directory {
 public:
  /// Hash sharding over `shards` groups (shards >= 1).
  static Directory hashed(int shards);

  /// Range sharding with ascending `split_points` (shards = splits + 1,
  /// range i owned by shard i).
  static Directory ranged(std::vector<std::string> split_points);

  int shards() const { return shards_; }
  bool is_ranged() const { return ranged_; }

  /// Bumped by every successful split/merge/ownership mutation. Starts 0.
  std::int64_t epoch() const { return epoch_; }

  /// The shard owning `key`. Deterministic and total: one FNV-1a hash mod
  /// the shard count, or an upper_bound over the split points.
  int shard_of(std::string_view key) const;

  /// Sorted, de-duplicated shards touched by the command's ops. Empty for a
  /// command with no ops (the router pins those to shard 0).
  std::vector<int> shards_of(const db::Command& cmd) const;

  /// One shard's part of a command.
  struct Slice {
    int shard = 0;
    db::Command cmd;
  };

  /// The command divided by owning shard: one slice per shard in
  /// shards_of(cmd), in ascending shard order, each holding its ops in
  /// program order. Empty for a command with no ops. Both orders are part
  /// of the contract: callers submit slices in this order, so it fixes the
  /// order in which per-shard sessions send, and with it every virtual-time
  /// golden; within a slice, program order is what the owning group applies.
  std::vector<Slice> split(const db::Command& cmd) const;

  /// Always zero: routing is uncached. Kept only because the benchmark
  /// driver still reads it for `shard.route_cache_hit_ratio`.
  struct RouteCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  RouteCacheStats route_cache_stats() const { return {}; }

  // --- online rebalancing (ranged mode only; DESIGN.md §9) -------------------

  /// Split the range containing `key` at `key`: both halves keep the owner.
  /// False (no epoch bump) in hashed mode or when `key` is already a bound.
  bool split_at(const std::string& key);

  /// Remove the split point `key`, merging the two adjacent ranges. Both
  /// sides must have the same owner (a merge never moves data). False in
  /// hashed mode, when `key` is not a split point, or across owners.
  bool merge_at(const std::string& key);

  /// Reassign the range exactly bounded by [lo, hi) to `shard` — the
  /// rebalancer's cutover. False unless [lo, hi) is a current range and
  /// `shard` is valid.
  bool set_range_owner(const std::string& lo, const std::string& hi, int shard);

  /// Number of ranges (1 for a fresh un-split map; 0 in hashed mode).
  int range_count() const { return ranged_ ? static_cast<int>(owners_.size()) : 0; }

  /// Bounds of range `i` as [lo, hi); "" means the open end on either side.
  std::pair<std::string, std::string> range_bounds(int i) const;

  /// Owner shard of range `i`.
  int range_owner(int i) const { return owners_[static_cast<std::size_t>(i)]; }

  /// Index of the range exactly bounded by [lo, hi), or -1.
  int range_index(const std::string& lo, const std::string& hi) const;

 private:
  Directory() = default;

  int shards_ = 1;
  bool ranged_ = false;
  std::int64_t epoch_ = 0;
  std::vector<std::string> splits_;  ///< ascending; ranges = splits + 1
  std::vector<int> owners_;          ///< owners_[i] = shard owning range i
};

}  // namespace tordb::shard
