#include "shard/router.h"

#include <stdexcept>
#include <utility>

namespace tordb::shard {

Router::Router(Simulator& sim, std::shared_ptr<Directory> directory,
               std::vector<std::vector<core::ReplicaNode*>> replicas, RouterOptions options)
    : sim_(sim),
      directory_(std::move(directory)),
      replicas_(std::move(replicas)),
      options_(std::move(options)),
      alive_(std::make_shared<bool>(true)) {
  if (!directory_) throw std::invalid_argument("router needs a directory");
  if (static_cast<int>(replicas_.size()) != directory_->shards()) {
    throw std::invalid_argument("replica groups must match the directory's shard count");
  }
  if (options_.metrics) {
    barrier_hist_ = &options_.metrics->histogram("shard.cross.barrier_wait_us");
  }
}

Router::~Router() { *alive_ = false; }

std::string Router::cross_marker_key(std::int64_t client, std::int64_t cross_seq) {
  return "__xs/" + std::to_string(client) + "/" + std::to_string(cross_seq);
}

core::ClientSession& Router::session(std::int64_t client, int shard) {
  auto& slot = sessions_[session_key(client, shard)];
  if (!slot) {
    // One engine-level session per (client, shard): the guard key is scoped
    // to the session's group, and sequence numbers stay dense per shard.
    // In a lane-partitioned simulation (DESIGN.md §15) this is the router's
    // cross-lane handoff point: the session lives on the router's (control)
    // lane and hops each submit to the target replica's lane itself.
    const std::int64_t session_id = client * directory_->shards() + shard;
    slot = std::make_unique<core::ClientSession>(sim_, replicas_[shard], session_id,
                                                 options_.session);
  }
  return *slot;
}

bool Router::idle() const {
  bool all_idle = true;
  sessions_.for_each([&](std::uint64_t, const std::unique_ptr<core::ClientSession>& s) {
    if (!s->idle()) all_idle = false;
  });
  return all_idle && cross_inflight_.empty() && pending_bounces_ == 0 &&
         deferred_cross_.empty();
}

void Router::hold_cross() { ++cross_hold_; }

void Router::release_cross() {
  if (--cross_hold_ > 0) return;
  // Flush in FIFO order. Each re-entry re-consults the directory (it may
  // have changed while the gate was held); a concurrent re-hold during the
  // flush re-defers the remainder into the fresh queue.
  std::deque<Deferred> q;
  q.swap(deferred_cross_);
  for (Deferred& d : q) route(d.client, std::move(d.update), std::move(d.reply), d.bounces);
}

std::int64_t Router::green_watermark(int shard) const {
  // Read-only engine access: safe from the control lane in lane mode (the
  // control phase runs exclusively, over worker state frozen at the window
  // end), so the watermark needs no handoff.
  std::int64_t best = 0;
  for (const core::ReplicaNode* node : replicas_.at(shard)) {
    if (node->running() && node->engine().green_count() > best) {
      best = node->engine().green_count();
    }
  }
  return best;
}

void Router::submit(std::int64_t client, db::Command update, RouteReplyFn reply) {
  route(client, std::move(update), std::move(reply), /*bounces=*/0);
}

void Router::route(std::int64_t client, db::Command update, RouteReplyFn reply, int bounces) {
  std::vector<Directory::Slice> slices = directory_->split(update);

  if (slices.size() <= 1) {
    // A pure no-op command has no slice and pins to shard 0.
    const int shard = slices.empty() ? 0 : slices.front().shard;
    if (bounces == 0) ++stats_.routed_single;
    options_.tracer.emit(obs::EventKind::kShardRoute, shard, client, /*xid=*/0);
    // Keep the command for a potential fenced re-route: a fenced abort had
    // no effects, so resubmitting it is a fresh first attempt. The lone
    // slice holds the same ops, so it is what goes out.
    auto retained = std::make_shared<db::Command>(std::move(update));
    session(client, shard).submit(
        slices.empty() ? db::Command{} : std::move(slices.front().cmd),
        [this, alive = alive_, shard, client, bounces, retained,
         reply = std::move(reply)](const core::SessionReply& r) mutable {
          if (!*alive) return;
          if (r.failed_over) {
            ++stats_.failovers;
            options_.tracer.emit(obs::EventKind::kShardFailover, shard, client, r.attempts);
          }
          if (!r.committed && r.fenced && bounces < options_.max_fence_bounces) {
            ++stats_.fenced_bounces;
            ++pending_bounces_;
            sim_.after(options_.fence_retry_delay,
                       [this, alive, client, retained, bounces,
                        reply = std::move(reply)]() mutable {
                         if (!*alive) return;
                         route(client, std::move(*retained), std::move(reply), bounces + 1);
                         --pending_bounces_;
                       });
            return;
          }
          r.committed ? ++stats_.committed : ++stats_.aborted;
          if (!r.committed && r.check_aborted) ++stats_.aborted_checks;
          if (reply) {
            RouteReply out;
            out.committed = r.committed;
            out.fenced = !r.committed && r.fenced;
            out.check_aborted = !r.committed && r.check_aborted;
            out.shards_involved = 1;
            out.attempts = r.attempts;
            out.fenced_bounces = bounces;
            reply(out);
          }
        });
    return;
  }

  // Cross-shard path. Classify the op mix first: range administration and
  // raw txn markers are pinned to one group by construction and can never
  // span a barrier — a precise unsupported_mix rejection, applied at no
  // shard. User kCheck preconditions span groups only through the
  // prepared-check coordinator (DESIGN.md §13), which evaluates each check
  // at its owning shard and decides through durable markers; without a
  // wired coordinator they keep the legacy up-front rejection.
  bool has_check = false;
  for (const db::Op& op : update.ops) {
    switch (op.type) {
      case db::OpType::kCheck:
        has_check = true;
        break;
      case db::OpType::kFenceRange:
      case db::OpType::kInstallRange:
      case db::OpType::kUnfenceRange:
      case db::OpType::kTxnPrepare:
      case db::OpType::kTxnConfirm:
      case db::OpType::kTxnCancel: {
        ++stats_.rejected_unsupported;
        ++stats_.aborted;
        if (reply) {
          RouteReply out;
          out.committed = false;
          out.unsupported_mix = true;
          out.shards_involved = static_cast<int>(slices.size());
          reply(out);
        }
        return;
      }
      default:
        break;
    }
  }
  if (has_check) {
    ++stats_.txn_handoffs;
    cross_check_handler_(client, std::move(update), std::move(reply));
    return;
  }
  if (cross_hold_ > 0) {
    // A snapshot read is pinning its watermark vector: defer the submission
    // (FIFO) until the gate releases. The command is not in flight yet, so
    // the drain the reader waits for cannot deadlock on it.
    deferred_cross_.push_back(Deferred{client, std::move(update), std::move(reply), bounces});
    return;
  }

  ++stats_.routed_cross;
  const std::int64_t cross_seq = ++next_cross_seq_[static_cast<std::uint64_t>(client)];
  // Deterministic id: unique per (client, cross_seq), stable across runs.
  const std::int64_t xid = client * 1'000'000 + cross_seq;
  const std::int64_t token = ++next_cross_token_;
  CrossState& cs = cross_inflight_[static_cast<std::uint64_t>(token)];
  cs.xid = xid;
  cs.client = client;
  cs.marker = cross_marker_key(client, cross_seq);
  cs.involved = static_cast<int>(slices.size());
  cs.outstanding = cs.involved;
  cs.bounces = bounces;
  cs.reply = std::move(reply);
  options_.tracer.emit(obs::EventKind::kShardCrossSubmit, xid, client,
                       static_cast<std::int64_t>(slices.size()));

  // Each slice rides the marker write so the action's presence at a shard
  // is observable state, not just a reply.
  for (Directory::Slice& slice : slices) submit_cross_slice(token, slice.shard, std::move(slice.cmd));
}

void Router::submit_cross_slice(std::int64_t token, int shard, db::Command user_slice) {
  CrossState& cs = *cross_inflight_.find(static_cast<std::uint64_t>(token));
  db::Command sub = user_slice;
  sub.ops.push_back(db::Op{db::OpType::kPut, cs.marker, std::to_string(cs.xid), 0});
  options_.tracer.emit(obs::EventKind::kShardRoute, shard, cs.client, cs.xid);
  // Retained for a fenced re-route into the same commit barrier.
  auto retained = std::make_shared<db::Command>(std::move(user_slice));
  session(cs.client, shard)
      .submit(std::move(sub), [this, alive = alive_, token, shard,
                               retained](const core::SessionReply& r) {
        if (!*alive) return;
        CrossState& cs = *cross_inflight_.find(static_cast<std::uint64_t>(token));
        if (r.failed_over) {
          ++stats_.failovers;
          options_.tracer.emit(obs::EventKind::kShardFailover, shard, cs.client, r.attempts);
        }
        cs.attempts += r.attempts;
        if (!r.committed && r.fenced && cs.bounces < options_.max_fence_bounces) {
          ++cs.bounces;
          ++stats_.fenced_bounces;
          sim_.after(options_.fence_retry_delay, [this, alive, token, retained] {
            if (!*alive) return;
            rebounce_cross_slice(token, *retained);
          });
          return;  // the slice is still in flight: outstanding is unchanged
        }
        if (r.committed) {
          cs.any_committed = true;
          const SimTime now = sim_.now();
          if (cs.first_green < 0) cs.first_green = now;
          cs.last_green = now;
        } else {
          cs.all_committed = false;
          if (r.fenced) cs.fenced_exhausted = true;
          if (r.check_aborted) cs.check_aborted = true;
        }
        if (--cs.outstanding == 0) finish_cross(token);
      });
}

void Router::rebounce_cross_slice(std::int64_t token, const db::Command& user_slice) {
  CrossState& cs = *cross_inflight_.find(static_cast<std::uint64_t>(token));
  // Re-split by the *current* directory — the range may have moved, or even
  // split, since the slice was first routed. Every part re-enters the same
  // commit barrier.
  std::vector<Directory::Slice> parts = directory_->split(user_slice);
  cs.outstanding += static_cast<int>(parts.size()) - 1;
  for (Directory::Slice& part : parts) submit_cross_slice(token, part.shard, std::move(part.cmd));
}

void Router::finish_cross(std::int64_t token) {
  // The commit barrier: every involved group has reported its sub-action
  // green (or aborted). With unconditional sub-commands and sessions that
  // wait out whole-group outages, a mixed outcome means a sub-session
  // exhausted its attempt budget — surfaced as a distinct stat because it
  // breaks all-or-nothing and the property test must never observe it.
  CrossState cs = cross_inflight_.extract(static_cast<std::uint64_t>(token));
  const bool committed = cs.all_committed;
  if (cs.any_committed && !cs.all_committed) ++stats_.cross_partial_aborts;
  committed ? ++stats_.committed : ++stats_.aborted;
  if (!committed && cs.check_aborted) ++stats_.aborted_checks;

  RouteReply out;
  out.committed = committed;
  out.fenced = cs.fenced_exhausted;
  out.check_aborted = !committed && cs.check_aborted;
  out.shards_involved = cs.involved;
  out.attempts = cs.attempts;
  out.fenced_bounces = cs.bounces;
  if (committed) out.barrier_wait = cs.last_green - cs.first_green;
  options_.tracer.emit(obs::EventKind::kShardCrossCommit, cs.xid, committed ? 1 : 0,
                       out.barrier_wait);
  if (committed && barrier_hist_ != nullptr) {
    barrier_hist_->record(out.barrier_wait / 1000);  // ns -> us
  }
  if (cs.reply) cs.reply(out);
}

}  // namespace tordb::shard
