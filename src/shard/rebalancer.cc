#include "shard/rebalancer.h"

#include <utility>

namespace tordb::shard {

namespace {
/// Pause before re-polling for a source replica that applied the fence.
constexpr SimDuration kFencedPollInterval = millis(50);
/// Simulated snapshot transfer cost per byte (~10 MB/s).
constexpr SimDuration kTransferPerByte = 100;
}  // namespace

Rebalancer::Rebalancer(Simulator& sim, const Router& router, Directory& directory,
                       RebalancerOptions options)
    : sim_(sim),
      router_(router),
      directory_(directory),
      options_(options),
      alive_(std::make_shared<bool>(true)) {
  if (const auto& metrics = router_.metrics()) {
    move_ms_hist_ = &metrics->histogram("shard.rebalance.move_ms");
  }
}

Rebalancer::~Rebalancer() { *alive_ = false; }

core::ClientSession& Rebalancer::session(int shard) {
  auto& slot = sessions_[shard];
  // Negative session ids: router sessions are client * shards + shard with
  // non-negative client ids, so the rebalancer's guard keys can never alias
  // a workload session's. The sessions wait out whole-group outages.
  if (!slot) slot = router_.make_session(-(1 + static_cast<std::int64_t>(shard)), shard);
  return *slot;
}

void Rebalancer::bump_epoch_trace(std::int64_t owner, std::uint64_t range) {
  router_.tracer().emit(obs::EventKind::kDirectoryEpoch, directory_.epoch(), owner,
                        static_cast<std::int64_t>(range));
}

bool Rebalancer::split_at(const std::string& key) {
  // Splitting a range that is mid-move would orphan the move's cutover
  // (set_range_owner matches exact bounds), so reject while busy.
  for (const auto& [lo, hi] : busy_) {
    if (db::key_in_range(key, lo, hi)) {
      ++stats_.moves_rejected;
      return false;
    }
  }
  if (!directory_.split_at(key)) {
    ++stats_.moves_rejected;
    return false;
  }
  ++stats_.splits;
  bump_epoch_trace(directory_.shard_of(key), db::range_fingerprint(key, key));
  return true;
}

bool Rebalancer::merge_at(const std::string& key) {
  for (const auto& [lo, hi] : busy_) {
    if (lo == key || hi == key) {
      ++stats_.moves_rejected;
      return false;
    }
  }
  if (!directory_.merge_at(key)) {
    ++stats_.moves_rejected;
    return false;
  }
  ++stats_.merges;
  bump_epoch_trace(directory_.shard_of(key), db::range_fingerprint(key, key));
  return true;
}

bool Rebalancer::move_range(const std::string& lo, const std::string& hi, int to,
                            MoveDoneFn done) {
  const int idx = directory_.range_index(lo, hi);
  const bool busy = busy_.count({lo, hi}) > 0;
  if (idx < 0 || busy || to < 0 || to >= directory_.shards() ||
      directory_.range_owner(idx) == to) {
    ++stats_.moves_rejected;
    if (done) {
      MoveReport rep;
      rep.lo = lo;
      rep.hi = hi;
      rep.to = to;
      rep.from = idx >= 0 ? directory_.range_owner(idx) : -1;
      done(rep);
    }
    return false;
  }

  auto mv = std::make_shared<Move>();
  mv->lo = lo;
  mv->hi = hi;
  mv->from = directory_.range_owner(idx);
  mv->to = to;
  mv->started = sim_.now();
  mv->done = std::move(done);
  busy_.insert({lo, hi});
  ++stats_.moves_started;

  // Step 1: fence the range in the source group's green order.
  session(mv->from).submit(
      db::Command::fence_range(lo, hi),
      [this, alive = alive_, mv](const core::SessionReply& r) {
        if (!*alive) return;
        if (!r.committed) {
          // The fence is unconditional; a non-commit means the session's
          // attempt budget ran out against a dead group. Give up cleanly.
          fail(mv);
          return;
        }
        mv->fence_committed = true;
        await_fenced_snapshot(mv);
      });
  return true;
}

void Rebalancer::await_fenced_snapshot(std::shared_ptr<Move> mv) {
  // Step 2: extract from any running source replica that has applied the
  // fence. The submitting session saw the fence green, so at least one
  // replica had it; crashes since then only delay until a replica recovers
  // (recovery replays the log, so the fence survives restarts).
  for (core::ReplicaNode* node : router_.members(mv->from)) {
    if (node->running() && !node->has_left() &&
        node->engine().range_fenced(mv->lo, mv->hi)) {
      db::RangeSnapshot snap = node->engine().extract_range(mv->lo, mv->hi);
      const std::int64_t bytes = static_cast<std::int64_t>(snap.encode().size());
      const SimDuration transfer =
          options_.transfer_base + kTransferPerByte * bytes;
      sim_.after(transfer, [this, alive = alive_, mv, snap = std::move(snap)]() mutable {
        if (!*alive) return;
        install(mv, std::move(snap));
      });
      return;
    }
  }
  sim_.after(kFencedPollInterval, [this, alive = alive_, mv] {
    if (!*alive) return;
    await_fenced_snapshot(mv);
  });
}

void Rebalancer::install(std::shared_ptr<Move> mv, db::RangeSnapshot snap) {
  // Step 3: install in the destination group's green order.
  const std::int64_t rows = static_cast<std::int64_t>(snap.rows.size());
  const std::int64_t bytes = static_cast<std::int64_t>(snap.encode().size());
  session(mv->to).submit(db::Command::install_range(snap),
                         [this, alive = alive_, mv, rows, bytes](const core::SessionReply& r) {
                           if (!*alive) return;
                           if (!r.committed) {
                             fail(mv);
                             return;
                           }
                           cutover(mv, rows, bytes);
                         });
}

void Rebalancer::cutover(std::shared_ptr<Move> mv, std::int64_t rows, std::int64_t bytes) {
  // The busy-set guards keep [lo, hi) a current directory range for the
  // move's whole lifetime, but verify the flip anyway: reporting ok for a
  // cutover that did not apply would strand the range fenced at the source
  // while the directory keeps routing to it.
  if (!directory_.set_range_owner(mv->lo, mv->hi, mv->to)) {
    fail(mv);
    return;
  }
  bump_epoch_trace(mv->to, db::range_fingerprint(mv->lo, mv->hi));
  busy_.erase({mv->lo, mv->hi});
  ++stats_.moves_completed;
  stats_.rows_moved += rows;
  stats_.bytes_moved += bytes;
  const SimDuration took = sim_.now() - mv->started;
  if (move_ms_hist_ != nullptr) move_ms_hist_->record(took / 1'000'000);  // ns -> ms

  if (mv->done) {
    MoveReport rep;
    rep.ok = true;
    rep.lo = mv->lo;
    rep.hi = mv->hi;
    rep.from = mv->from;
    rep.to = mv->to;
    rep.rows = rows;
    rep.bytes = bytes;
    rep.duration = took;
    rep.epoch = directory_.epoch();
    mv->done(rep);
  }
}

void Rebalancer::fail(std::shared_ptr<Move> mv) {
  ++stats_.moves_failed;
  if (!mv->fence_committed) {
    finish_failed(mv);
    return;
  }
  // The fence committed but the move cannot finish: roll back. The
  // directory never flipped, so the source is still the range's owner —
  // lift its fence so routed writes commit again instead of bouncing until
  // the router's budget exhausts. The range stays busy until the rollback
  // lands, keeping a new move off the same bounds meanwhile.
  session(mv->from).submit(db::Command::unfence_range(mv->lo, mv->hi),
                           [this, alive = alive_, mv](const core::SessionReply&) {
                             if (!*alive) return;
                             finish_failed(mv);
                           });
}

void Rebalancer::finish_failed(std::shared_ptr<Move> mv) {
  busy_.erase({mv->lo, mv->hi});
  if (mv->done) {
    MoveReport rep;
    rep.lo = mv->lo;
    rep.hi = mv->hi;
    rep.from = mv->from;
    rep.to = mv->to;
    rep.duration = sim_.now() - mv->started;
    mv->done(rep);
  }
}

}  // namespace tordb::shard
