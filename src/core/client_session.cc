#include "core/client_session.h"

#include <charconv>

namespace tordb::core {

namespace {

/// std::to_string without the temporary: reuses `out`'s capacity.
void assign_num(std::string& out, std::int64_t v) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  out.assign(buf, end);
}

bool usable(const ReplicaNode& n) { return n.running() && !n.has_left(); }

/// Usable and not in a non-primary component: it can order an action now,
/// or will once the exchange it is in installs a primary.
bool serving(const ReplicaNode& n) {
  return usable(n) && n.engine().state() != EngineState::kNonPrim;
}

}  // namespace

ClientSession::ClientSession(Simulator& sim, std::vector<ReplicaNode*> replicas,
                             std::int64_t client_id, SessionOptions options)
    : sim_(sim),
      replicas_(std::move(replicas)),
      home_lane_(sim.current_lane()),
      client_id_(client_id),
      guard_key_(guard_key(client_id)),
      options_(options),
      alive_(std::make_shared<bool>(true)) {}

ClientSession::~ClientSession() {
  *alive_ = false;
  unwatch_all();
}

std::string ClientSession::guard_key(std::int64_t client_id) {
  return "__session/" + std::to_string(client_id);
}

void ClientSession::submit(db::Command update, SessionReplyFn reply) {
  Request r;
  r.seq = ++next_seq_;
  r.update = std::move(update);
  r.reply = std::move(reply);
  queue_.push_back(std::move(r));
  ++stats_.submitted;
  pump();
}

void ClientSession::pump() {
  if (in_flight_ || queue_.empty()) return;
  current_ = std::move(queue_.front());
  queue_.pop_front();
  in_flight_ = true;
  assign_num(seq_str_, current_.seq);  // every attempt reuses the one string
  issue();
}

std::size_t ClientSession::find_replica(std::size_t from, std::size_t count,
                                        bool (*ok)(const ReplicaNode&)) const {
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t idx = (from + i) % replicas_.size();
    if (ok(*replicas_[idx])) return idx;
  }
  return replicas_.size();
}

ReplicaNode* ClientSession::pick_replica(bool move_on) {
  const std::size_t from = replica_idx_ + (move_on ? 1 : 0);
  std::size_t idx = find_replica(from, replicas_.size(), serving);
  if (idx == replicas_.size()) idx = find_replica(from, replicas_.size(), usable);
  if (idx == replicas_.size()) return nullptr;
  if (idx != replica_idx_) {
    replica_idx_ = idx;
    ++stats_.failovers;
    current_.failed_over = true;
  }
  return replicas_[idx];
}

void ClientSession::watch(ReplicaNode& node, std::int64_t seq, std::uint64_t epoch,
                          bool waiting) {
  const std::uint64_t id = node.watch(home_lane_, [this, alive = alive_, seq, epoch, waiting] {
    if (!*alive) return;
    on_signal(seq, epoch, waiting);
  });
  watches_.emplace_back(&node, id);
}

void ClientSession::unwatch_all() {
  for (const auto& [node, id] : watches_) node->unwatch(id);
  watches_.clear();
}

void ClientSession::issue(bool move_on) {
  ++current_.attempts;
  ++attempt_epoch_;
  const std::uint64_t epoch = attempt_epoch_;
  const std::int64_t seq = current_.seq;
  unwatch_all();

  if (current_.expired >= options_.max_attempts_per_request) {
    finish(false);  // gave up: report a deterministic abort
    return;
  }
  ReplicaNode* node = pick_replica(move_on);
  if (node == nullptr) {
    if (!options_.retry_when_unavailable) {
      finish(false);  // no reachable replica
      return;
    }
    // Every replica is down right now: retry when one recovers, or after
    // one retry_timeout.
    ++stats_.retries;
    for (ReplicaNode* r : replicas_) {
      if (r->crashed()) watch(*r, seq, epoch, /*waiting=*/true);
    }
    sim_.after(options_.retry_timeout, [this, alive = alive_, seq, epoch] {
      if (!*alive || stale(seq, epoch)) return;
      ++current_.expired;
      issue();
    });
    return;
  }
  watch(*node, seq, epoch, /*waiting=*/false);

  // Fence the user's ops with the session guard. Evaluated at ordering
  // time at every replica identically, so a duplicate of an already
  // committed attempt aborts everywhere.
  db::Command fenced;
  fenced.ops.reserve(2 + current_.update.ops.size());
  fenced.ops.push_back(db::Op{db::OpType::kCheck, guard_key_, last_committed_guard_, 0});
  fenced.ops.push_back(db::Op{db::OpType::kPut, guard_key_, seq_str_, 0});
  fenced.ops.insert(fenced.ops.end(), current_.update.ops.begin(), current_.update.ops.end());

  // The submit itself runs on the replica's lane (inline in classic mode);
  // the reply hops back to the session's home lane. If the node dies while
  // the handoff is in flight, drop it — the crash fires the watch.
  sim_.call_in_lane(
      node->sim_lane(),
      [this, alive = alive_, node, seq, epoch, fenced = std::move(fenced)]() mutable {
        if (!*alive) return;
        if (!usable(*node)) return;
        node->engine().submit(
            {}, std::move(fenced), client_id_, Semantics::kStrict,
            [this, alive, seq, epoch](const Reply& r) {
              if (!*alive) return;
              const bool aborted = r.aborted;
              const bool rfenced = r.fenced;
              sim_.call_in_lane(home_lane_, [this, alive, seq, epoch, aborted, rfenced] {
                if (!*alive) return;
                on_reply(seq, epoch, aborted, rfenced);
              });
            });
      });
  sim_.after(options_.retry_timeout, [this, alive = alive_, seq, epoch] {
    if (!*alive) return;
    on_timeout(seq, epoch);
  });
}

void ClientSession::on_reply(std::int64_t seq, std::uint64_t attempt_epoch, bool aborted,
                             bool fenced) {
  if (stale(seq, attempt_epoch)) return;
  unwatch_all();
  if (!aborted) {
    last_committed_guard_ = seq_str_;  // assignment reuses capacity
    finish(true);
    return;
  }
  if (fenced) {
    // A fenced abort means the guard check passed this attempt (checks are
    // evaluated before fences), so no earlier attempt committed — the abort
    // is unambiguous even after retries. The router bounces it to the
    // range's new owner (DESIGN.md §9).
    finish(false, /*fenced=*/true);
    return;
  }
  if (current_.attempts == 1) {
    // Single attempt: the guard cannot have failed (nobody else writes this
    // key), so the user's own check aborted — a genuine deterministic abort.
    finish(false, /*fenced=*/false, /*check_aborted=*/true);
    return;
  }
  // After retries an abort is ambiguous: the guard may have tripped because
  // an earlier attempt committed. Read the guard back to find out.
  resolve_ambiguous_abort(seq, attempt_epoch);
}

void ClientSession::resolve_ambiguous_abort(std::int64_t seq, std::uint64_t attempt_epoch) {
  ReplicaNode* node = pick_replica();
  if (node == nullptr) {
    finish(false);
    return;
  }
  // The strict guard read-back may enqueue engine work, so it runs on the
  // replica's lane; the read value is carried back to the home lane and
  // compared there (session state must not be read from a worker lane). A
  // node that died mid-handoff re-dispatches against the next replica.
  sim_.call_in_lane(node->sim_lane(), [this, alive = alive_, node, seq, attempt_epoch] {
    if (!*alive) return;
    if (!usable(*node)) {
      sim_.call_in_lane(home_lane_, [this, alive, seq, attempt_epoch] {
        if (!*alive || stale(seq, attempt_epoch)) return;
        resolve_ambiguous_abort(seq, attempt_epoch);  // picks past the dead node
      });
      return;
    }
    node->engine().submit_query(
        db::Command::get(guard_key_), QueryMode::kStrict,
        [this, alive, seq, attempt_epoch](const Reply& r) {
          if (!*alive) return;
          std::string got = r.reads.empty() ? std::string() : r.reads[0];
          const bool have = !r.reads.empty();
          sim_.call_in_lane(
              home_lane_, [this, alive, seq, attempt_epoch, have, got = std::move(got)] {
                if (!*alive || stale(seq, attempt_epoch)) return;
                if (have && got == seq_str_) {
                  // An earlier attempt committed; the retry was the duplicate.
                  ++stats_.duplicates_suppressed;
                  last_committed_guard_ = seq_str_;
                  finish(true);
                } else {
                  // No attempt committed, so the guard check held everywhere
                  // the command was evaluated — the user's own precondition
                  // aborted it.
                  finish(false, /*fenced=*/false, /*check_aborted=*/true);
                }
              });
        });
  });
}

void ClientSession::on_timeout(std::int64_t seq, std::uint64_t attempt_epoch) {
  if (stale(seq, attempt_epoch)) return;
  ++stats_.retries;
  ++stats_.timeouts;
  ++current_.expired;
  issue(/*move_on=*/true);
}

void ClientSession::on_signal(std::int64_t seq, std::uint64_t attempt_epoch, bool waiting) {
  if (stale(seq, attempt_epoch)) return;
  if (waiting) {
    issue();  // every replica was down and one recovered
    return;
  }
  // The attempt's replica crashed or left the primary. Move toward a
  // replica that can order the request, or off a replica that is gone;
  // otherwise stay put under the backstop timer, so a flapping minority
  // cannot spin the session round the group.
  ReplicaNode& at = *replicas_[replica_idx_];
  const std::size_t n = replicas_.size();
  const bool gone = !usable(at);
  if (find_replica(replica_idx_ + 1, n - 1, gone ? usable : serving) < n ||
      (gone && options_.retry_when_unavailable)) {
    ++stats_.retries;
    issue(/*move_on=*/true);
    return;
  }
  watch(at, seq, attempt_epoch, /*waiting=*/false);  // crashed: fires on recovery
}

void ClientSession::finish(bool committed, bool fenced, bool check_aborted) {
  in_flight_ = false;
  unwatch_all();
  if (committed) {
    ++stats_.committed;
  } else {
    ++stats_.aborted;
    if (check_aborted) ++stats_.aborted_checks;
    if (fenced) ++stats_.aborted_fenced;
  }
  SessionReply rep;
  rep.committed = committed;
  rep.fenced = fenced;
  rep.check_aborted = check_aborted;
  rep.attempts = current_.attempts;
  rep.failed_over = current_.failed_over;
  auto fn = std::move(current_.reply);
  current_ = Request{};
  if (fn) fn(rep);
  pump();
}

}  // namespace tordb::core
