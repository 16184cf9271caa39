#include "txn/coordinator.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/replica_node.h"
#include "db/database.h"

namespace tordb::txn {

namespace {

// Session-id spaces. The coordinator's engine-level sessions must never
// collide with the router's (session_id = client * shards + shard, small)
// nor with each other across coordinator incarnations (guards are consumed
// per id — see TxnOptions::session_epoch). Bases are spaced far above any
// realistic workload client id.
constexpr std::int64_t kTxnSessionBase = 1'000'000'000;
constexpr std::int64_t kEpochStride = 10'000'000;
constexpr std::int64_t kAdopterSessionBase = 2'000'000'000;
// Router client ids for re-driven slices (a confirm that bounced off a
// moved range). Unique per (transaction, slot) and deterministic.
constexpr std::int64_t kRerouteClientBase = 3'000'000'000;
// xid = client * stride + seq — same scheme the router uses for cross ids.
constexpr std::int64_t kXidStride = 1'000'000;
// Transaction seqs of coordinator incarnation e start above e * stride (and
// stay below kXidStride), so a replacement never reuses the reserved keys
// of a predecessor's transaction that adoption has yet to resolve.
constexpr std::int64_t kSeqEpochStride = 100'000;

std::string encode_intent(std::int64_t client, std::int64_t seq, const std::vector<int>& shards) {
  std::string blob = std::to_string(client) + "/" + std::to_string(seq);
  for (const int s : shards) blob += "/" + std::to_string(s);
  return blob;
}

struct Intent {
  std::int64_t client = 0;
  std::int64_t seq = 0;
  std::vector<int> shards;
};

Intent decode_intent(const std::string& blob) {
  Intent in;
  std::vector<std::int64_t> fields;
  std::size_t pos = 0;
  while (pos <= blob.size()) {
    const std::size_t slash = blob.find('/', pos);
    const std::string part = blob.substr(pos, slash == std::string::npos ? slash : slash - pos);
    fields.push_back(std::stoll(part));
    if (slash == std::string::npos) break;
    pos = slash + 1;
  }
  if (fields.size() < 3) throw std::runtime_error("corrupt txn intent record: " + blob);
  in.client = fields[0];
  in.seq = fields[1];
  for (std::size_t i = 2; i < fields.size(); ++i) in.shards.push_back(static_cast<int>(fields[i]));
  return in;
}

/// The shard's canonical state for a recovery scan: the database of its
/// greenest running replica, nullptr when none runs.
const db::Database* greenest_db(const shard::Router& router, int shard) {
  const core::ReplicaNode* node = router.greenest(shard);
  return node == nullptr ? nullptr : &node->engine().database();
}

}  // namespace

TxnStats& TxnStats::operator+=(const TxnStats& o) {
  begun += o.begun;
  committed += o.committed;
  aborted_check += o.aborted_check;
  aborted_fenced += o.aborted_fenced;
  aborted_other += o.aborted_other;
  prepares += o.prepares;
  confirms += o.confirms;
  cancels += o.cancels;
  restarts += o.restarts;
  confirm_rerouted += o.confirm_rerouted;
  snapshot_reads += o.snapshot_reads;
  adopted_confirmed += o.adopted_confirmed;
  adopted_cancelled += o.adopted_cancelled;
  return *this;
}

TxnCoordinator::TxnCoordinator(Simulator& sim, shard::Router& router, TxnOptions options)
    : sim_(sim), router_(router), options_(options), alive_(std::make_shared<bool>(true)) {
  if (const auto& metrics = router_.metrics()) {
    prepare_decide_hist_ = &metrics->histogram("txn.prepare_decide_us");
    barrier_hist_ = &metrics->histogram("txn.barrier_wait_us");
  }
}

TxnCoordinator::~TxnCoordinator() { *alive_ = false; }

std::string TxnCoordinator::intent_key(std::int64_t client, std::int64_t seq) {
  return "__txn/" + std::to_string(client) + "/" + std::to_string(seq);
}

std::string TxnCoordinator::pending_key(std::int64_t client, std::int64_t seq) {
  return "__txnp/" + std::to_string(client) + "/" + std::to_string(seq);
}

std::string TxnCoordinator::decision_key(std::int64_t client, std::int64_t seq) {
  return "__txnd/" + std::to_string(client) + "/" + std::to_string(seq);
}

core::ClientSession& TxnCoordinator::session(std::int64_t session_id, int shard) {
  // Kept here, not at the router: they die with the coordinator.
  auto& slot = sessions_[(static_cast<std::uint64_t>(session_id) << 16) |
                         static_cast<std::uint64_t>(shard & 0xffff)];
  if (!slot) slot = router_.make_session(session_id, shard);
  return *slot;
}

bool TxnCoordinator::idle() const {
  for (const auto& [token, t] : inflight_) {
    if (!t->halted) return false;
  }
  bool sessions_idle = true;
  sessions_.for_each([&](std::uint64_t, const std::unique_ptr<core::ClientSession>& s) {
    if (!s->idle()) sessions_idle = false;
  });
  return sessions_idle && snapshots_.empty() && pending_restarts_ == 0 && cleanups_ == 0;
}

void TxnCoordinator::begin(std::int64_t client, db::Command update, shard::RouteReplyFn reply,
                           int bounces) {
  std::vector<shard::Directory::Slice> slices = router_.directory().split(update);
  if (slices.size() <= 1) {
    // Degenerate (or a restart whose keys now co-locate after a merge):
    // one shard's green order already gives atomic checked updates.
    router_.submit(client, std::move(update), std::move(reply));
    return;
  }

  if (bounces == 0) ++stats_.begun;
  std::int64_t& last_seq = next_seq_[static_cast<std::uint64_t>(client)];
  if (last_seq == 0) last_seq = options_.session_epoch * kSeqEpochStride;
  const std::int64_t seq = ++last_seq;
  auto txn = std::make_unique<Txn>();
  Txn& t = *txn;
  t.client = client;
  t.seq = seq;
  t.xid = client * kXidStride + seq;
  t.sid = kTxnSessionBase + options_.session_epoch * kEpochStride + client;
  t.fp = db::range_fingerprint(pending_key(client, seq), "");
  t.original = std::move(update);
  t.reply = std::move(reply);
  t.bounces = bounces;
  t.t0 = sim_.now();

  // Slot i is the i-th slice (ascending shard); each slice's ops divide
  // into its checks and its buffered updates, each in program order.
  const std::size_t n = slices.size();
  t.shards.resize(n);
  t.checks.resize(n);
  t.buffered.resize(n);
  t.prepared.assign(n, 0);
  for (std::size_t slot = 0; slot < n; ++slot) {
    t.shards[slot] = slices[slot].shard;
    for (db::Op& op : slices[slot].cmd.ops) {
      (op.type == db::OpType::kCheck ? t.checks : t.buffered)[slot].ops.push_back(std::move(op));
    }
  }
  t.home = t.shards.front();
  t.outstanding = static_cast<int>(n);
  router_.tracer().emit(obs::EventKind::kTxnBegin, static_cast<std::int64_t>(t.fp),
                        static_cast<std::int64_t>(n));

  const std::int64_t token = ++next_token_;
  inflight_[token] = std::move(txn);
  const std::string pend = pending_key(client, seq);

  // Round 1: one prepare action per involved shard — the slice's checks,
  // then the kTxnPrepare buffering its updates. The home shard's prepare
  // additionally carries the intent record a recovery pass scans for. A
  // failed check (or a fence) aborts the whole slice atomically: no pending,
  // no intent — the shard's deterministic "no" vote.
  for (std::size_t slot = 0; slot < n; ++slot) {
    Txn& tr = *inflight_[token];
    db::Command prep;
    if (tr.shards[slot] == tr.home) {
      prep.ops.push_back(db::Op{db::OpType::kPut, intent_key(client, seq),
                                encode_intent(client, seq, tr.shards), 0});
    }
    for (const db::Op& op : tr.checks[slot].ops) prep.ops.push_back(op);
    db::TxnPending pending;
    pending.client = client;
    pending.seq = seq;
    pending.home = tr.home;
    pending.update = tr.buffered[slot];
    prep.ops.push_back(db::Command::txn_prepare(pend, pending).ops[0]);
    ++stats_.prepares;
    session(tr.sid, tr.shards[slot])
        .submit(std::move(prep),
                [this, alive = alive_, token, slot](const core::SessionReply& r) {
                  if (!*alive) return;
                  auto it = inflight_.find(token);
                  if (it == inflight_.end()) return;
                  Txn& t = *it->second;
                  t.attempts += r.attempts;
                  if (r.committed) {
                    t.prepared[slot] = 1;
                  } else if (r.check_aborted) {
                    t.check_fail = true;
                  } else if (r.fenced) {
                    t.fence_fail = true;
                  } else {
                    t.other_fail = true;
                  }
                  if (--t.outstanding == 0) on_prepared(token);
                });
  }
}

void TxnCoordinator::on_prepared(std::int64_t token) {
  Txn& t = *inflight_[token];
  if (options_.halt_at_stage == 1) {
    // Crash model: every vote collected, nothing decided, no reply. The
    // pendings and the intent survive in replica state for adopt_orphans.
    t.halted = true;
    return;
  }
  const bool all_yes =
      std::all_of(t.prepared.begin(), t.prepared.end(), [](char p) { return p != 0; });
  if (!all_yes && t.fence_fail && !t.check_fail && !t.other_fail &&
      t.bounces < shard::kMaxFenceBounces) {
    // Pure rebalance interference: cancel what prepared and restart the
    // whole transaction against the fresh directory after a pause.
    ++stats_.restarts;
    t.restarting = true;
  }
  round2(token, /*commit=*/all_yes);
}

void TxnCoordinator::round2(std::int64_t token, bool commit) {
  Txn& t = *inflight_[token];
  t.committing = commit;
  t.outstanding = 0;
  if (commit) {
    // The verdict is known: every involved shard voted yes. Each confirm
    // stamps the commit on its own shard, so the first one green is the
    // durable decision.
    const SimDuration lat = sim_.now() - t.t0;
    router_.tracer().emit(obs::EventKind::kTxnDecide, static_cast<std::int64_t>(t.fp), 1, lat);
    if (prepare_decide_hist_ != nullptr) prepare_decide_hist_->record(lat / 1000);  // ns -> us
  }
  std::vector<std::size_t> slots;
  for (std::size_t slot = 0; slot < t.shards.size(); ++slot) {
    if (commit || t.prepared[slot] != 0) slots.push_back(slot);
  }
  if (commit && options_.halt_at_stage == 2) {
    // Crash model: the commit is partly issued — only the home slot's
    // confirm goes out, and the transaction freezes once it is green.
    slots.resize(1);
  }
  if (slots.empty()) {
    // Abort with nothing prepared anywhere: no markers, no state to undo.
    finish(token);
    return;
  }
  t.outstanding = static_cast<int>(slots.size());
  for (const std::size_t slot : slots) {
    commit ? submit_confirm(token, slot) : submit_cancel(token, slot);
  }
}

db::Op TxnCoordinator::decision_stamp(const Txn& t) {
  return db::Op{db::OpType::kPut, decision_key(t.client, t.seq), "C", 0};
}

void TxnCoordinator::submit_confirm(std::int64_t token, std::size_t slot) {
  Txn& t = *inflight_[token];
  ++stats_.confirms;
  // The confirm carries the commit decision: the stamp lands in the same
  // action, so a shard that applied its slice also records the verdict.
  db::Command cmd = db::Command::txn_confirm(pending_key(t.client, t.seq));
  cmd.ops.push_back(decision_stamp(t));
  session(t.sid, t.shards[slot])
      .submit(std::move(cmd),
              [this, alive = alive_, token, slot](const core::SessionReply& r) {
                if (!*alive) return;
                auto it = inflight_.find(token);
                if (it == inflight_.end()) return;
                Txn& t = *it->second;
                t.attempts += r.attempts;
                if (r.committed) {
                  if (options_.halt_at_stage == 2) {
                    t.halted = true;  // crash model: see round2
                    return;
                  }
                  mark_marker(t);
                  --t.outstanding;
                  maybe_finish(token);
                  return;
                }
                if (r.fenced) {
                  // The slot's data range moved between prepare and confirm
                  // (the reserved pending cell never travels with a move).
                  // Cancel the stranded prepare and re-drive the decided
                  // slice through the router, which re-splits it for the
                  // new owner. The one confirm becomes two operations.
                  ++stats_.confirm_rerouted;
                  const bool has_payload = !t.buffered[slot].ops.empty();
                  if (has_payload) ++t.outstanding;
                  submit_cancel(token, slot);
                  if (has_payload) reroute_slice(token, slot);
                  return;
                }
                // Attempt budget exhausted against a churning group: the
                // marker is idempotent, keep driving it.
                submit_confirm(token, slot);
              });
}

void TxnCoordinator::submit_cancel(std::int64_t token, std::size_t slot) {
  Txn& t = *inflight_[token];
  ++stats_.cancels;
  db::Command cmd = db::Command::txn_cancel(pending_key(t.client, t.seq));
  if (t.committing) {
    // A committed slice stranded by a move: its cancel stands in for the
    // fenced confirm, so it carries the same decision stamp.
    cmd.ops.push_back(decision_stamp(t));
  } else if (t.shards[slot] == t.home) {
    // The abort path's intent cleanup rides the home cancel: one action,
    // so a recovery scan never sees a cancelled home with a live intent.
    cmd.ops.push_back(db::Op{db::OpType::kDelete, intent_key(t.client, t.seq), "", 0});
  }
  session(t.sid, t.shards[slot])
      .submit(std::move(cmd),
              [this, alive = alive_, token, slot](const core::SessionReply& r) {
                if (!*alive) return;
                auto it = inflight_.find(token);
                if (it == inflight_.end()) return;
                Txn& t = *it->second;
                t.attempts += r.attempts;
                if (!r.committed) {
                  submit_cancel(token, slot);
                  return;
                }
                mark_marker(t);
                --t.outstanding;
                maybe_finish(token);
              });
}

void TxnCoordinator::reroute_slice(std::int64_t token, std::size_t slot) {
  Txn& t = *inflight_[token];
  // The slice is already decided (checks consumed at prepare) and purely
  // mutating, so the router's unconditional path applies it exactly once —
  // possibly across several shards if the range split. It passes the
  // snapshot-read gate: a reader holding it waits for this transaction.
  const std::int64_t rclient = kRerouteClientBase + t.xid * 64 + static_cast<std::int64_t>(slot);
  router_.submit_decided(rclient, t.buffered[slot],
                         [this, alive = alive_, token, slot](const shard::RouteReply& r) {
                           if (!*alive) return;
                           auto it = inflight_.find(token);
                           if (it == inflight_.end()) return;
                           Txn& t = *it->second;
                           t.attempts += r.attempts;
                           if (!r.committed) {
                             reroute_slice(token, slot);
                             return;
                           }
                           mark_marker(t);
                           --t.outstanding;
                           maybe_finish(token);
                         });
}

void TxnCoordinator::mark_marker(Txn& t) {
  const SimTime now = sim_.now();
  if (t.first_marker < 0) t.first_marker = now;
  t.last_marker = now;
}

void TxnCoordinator::maybe_finish(std::int64_t token) {
  auto it = inflight_.find(token);
  if (it != inflight_.end() && it->second->outstanding == 0) finish(token);
}

void TxnCoordinator::finish(std::int64_t token) {
  auto it = inflight_.find(token);
  std::unique_ptr<Txn> t = std::move(it->second);
  inflight_.erase(it);

  if (t->restarting) {
    schedule_restart(std::move(t));
    return;
  }

  shard::RouteReply out;
  out.shards_involved = static_cast<int>(t->shards.size());
  out.attempts = t->attempts;
  out.fenced_bounces = t->bounces;
  if (t->committing) {
    ++(t->adopted ? stats_.adopted_confirmed : stats_.committed);
    out.committed = true;
    if (t->first_marker >= 0) {
      out.barrier_wait = t->last_marker - t->first_marker;
      if (barrier_hist_ != nullptr) barrier_hist_->record(out.barrier_wait / 1000);  // ns -> us
    }
    // Retire the decision stamps and the intent off the critical path; the
    // reply does not wait for it. The intent leaves with the home stamp, so
    // a crash before that cleanup makes adopt_orphans re-confirm
    // (idempotently), and one after it leaves at most stamps without an
    // intent, which adoption retires.
    for (const int shard : t->shards) {
      db::Command cmd;
      if (shard == t->home) {
        cmd.ops.push_back(db::Op{db::OpType::kDelete, intent_key(t->client, t->seq), "", 0});
      }
      cmd.ops.push_back(db::Op{db::OpType::kDelete, decision_key(t->client, t->seq), "", 0});
      submit_cleanup(t->sid, shard, std::move(cmd));
    }
  } else {
    out.committed = false;
    out.check_aborted = t->check_fail;
    out.fenced = !t->check_fail && t->fence_fail;
    if (t->adopted) {
      ++stats_.adopted_cancelled;
    } else if (t->check_fail) {
      ++stats_.aborted_check;
    } else if (t->fence_fail) {
      ++stats_.aborted_fenced;
    } else {
      ++stats_.aborted_other;
    }
    router_.tracer().emit(obs::EventKind::kTxnDecide, static_cast<std::int64_t>(t->fp), 0,
                          sim_.now() - t->t0);
  }
  if (t->reply) t->reply(out);
  if (t->adopted && --adopting_ == 0 && adoption_done_) std::exchange(adoption_done_, nullptr)();
}

void TxnCoordinator::schedule_restart(std::unique_ptr<Txn> t) {
  ++pending_restarts_;
  auto original = std::make_shared<db::Command>(std::move(t->original));
  sim_.after(shard::kFenceRetryDelay,
             [this, alive = alive_, original, client = t->client, bounces = t->bounces,
              reply = std::move(t->reply)]() mutable {
               if (!*alive) return;
               --pending_restarts_;
               // Deliberately bypasses the router's snapshot-read gate: the
               // transaction was admitted before the hold, and its restart
               // leg has zero applied effects, so the reader just waits for
               // it like any other in-flight transaction.
               begin(client, std::move(*original), std::move(reply), bounces + 1);
             });
}

void TxnCoordinator::submit_cleanup(std::int64_t sid, int shard, db::Command cmd) {
  ++cleanups_;
  session(sid, shard).submit(cmd, [this, alive = alive_, sid, shard,
                                   cmd](const core::SessionReply& r) mutable {
    if (!*alive) return;
    --cleanups_;
    if (!r.committed) submit_cleanup(sid, shard, std::move(cmd));
  });
}

// --- barrier-stamped snapshot reads ----------------------------------------

void TxnCoordinator::snapshot_read(db::Command query, SnapshotReadFn reply) {
  for (const db::Op& op : query.ops) {
    if (op.type != db::OpType::kGet) {
      if (reply) reply(SnapshotReadReply{});  // ok = false
      return;
    }
  }
  ++stats_.snapshot_reads;
  const std::int64_t token = ++next_token_;
  Snapshot& s = snapshots_[token];
  s.query = std::move(query);
  s.reply = std::move(reply);
  s.t0 = sim_.now();
  // Close the router's gate at once: no new cross-shard work, checked or
  // not, starts until the reads are answered. What is already in flight
  // drains; a transaction's re-driven slice passes the gate.
  router_.hold_cross();
  drain_for_snapshot(token);
}

void TxnCoordinator::drain_for_snapshot(std::int64_t token) {
  bool busy = pending_restarts_ > 0 || router_.cross_in_flight() > 0;
  for (const auto& [tok, t] : inflight_) busy = busy || !t->halted;
  if (busy) {
    sim_.after(millis(1), [this, alive = alive_, token] {
      if (*alive) drain_for_snapshot(token);
    });
    return;
  }
  // Drained: every cross action is fully green at every involved shard, and
  // nothing new can start. Pin the watermark vector — any cross action is
  // now entirely at-or-below it, or entirely after the release. The query
  // is split by the directory as of now: a move that cut over during the
  // drain leaves a stale copy at the old owner.
  Snapshot& s = snapshots_.find(token)->second;
  const shard::Directory& dir = router_.directory();
  s.slices = dir.split(s.query);
  if (s.slices.empty()) s.slices.emplace_back();  // an empty query pins shard 0
  const std::size_t slots = s.slices.size();
  std::vector<std::size_t> slot_of(static_cast<std::size_t>(dir.shards()));
  for (std::size_t slot = 0; slot < slots; ++slot) {
    slot_of[static_cast<std::size_t>(s.slices[slot].shard)] = slot;
  }
  // Each slice holds its kGets in program order: number them per slot.
  std::vector<std::size_t> next(slots, 0);
  for (const db::Op& op : s.query.ops) {
    const std::size_t slot = slot_of[static_cast<std::size_t>(dir.shard_of(op.key))];
    s.slots.emplace_back(slot, next[slot]++);
  }
  s.out.resize(slots);
  s.stamped = sim_.now();
  s.watermarks.resize(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    s.watermarks[i] = router_.green_watermark(s.slices[i].shard);
  }
  router_.tracer().emit(obs::EventKind::kTxnSnapshotRead, static_cast<std::int64_t>(slots),
                        s.stamped - s.t0);
  if (s.query.ops.empty()) {
    finish_snapshot(token);
    return;
  }
  // A weak query can answer inline: the last slot's reply erases the
  // Snapshot, so `s` must not be touched once the reads start.
  s.outstanding = static_cast<int>(slots);
  for (std::size_t slot = 0; slot < slots; ++slot) read_snapshot_shard(token, slot);
}

void TxnCoordinator::read_snapshot_shard(std::int64_t token, std::size_t slot) {
  Snapshot& s = snapshots_.find(token)->second;
  // Any replica whose green count reached the pinned watermark serves: its
  // green prefix is the canonical one (invariant 1), so the answer is the
  // same at every qualifying replica. Later single-shard greens may be
  // included — they cannot straddle shards, so atomicity is unaffected.
  core::ReplicaNode* pick = nullptr;
  for (core::ReplicaNode* node : router_.members(s.slices[slot].shard)) {
    if (node->running() && node->engine().green_count() >= s.watermarks[slot]) {
      pick = node;
      break;
    }
  }
  if (pick == nullptr) {
    // Every caught-up replica just crashed; wait for a recovery or a
    // lagging member to replay up to the watermark.
    sim_.after(millis(1), [this, alive = alive_, token, slot] {
      if (*alive) read_snapshot_shard(token, slot);
    });
    return;
  }
  // kWeak is a synchronous pure read (no engine mutation), so in lane mode
  // it may run inline from the control phase against worker state frozen at
  // the window end — the snapshot semantics are unchanged.
  pick->engine().submit_query(
      s.slices[slot].cmd, core::QueryMode::kWeak,
      [this, alive = alive_, token, slot](const core::Reply& r) {
        if (!*alive) return;
        auto it = snapshots_.find(token);
        if (it == snapshots_.end()) return;
        Snapshot& s = it->second;
        s.out[slot] = r.reads;
        if (--s.outstanding == 0) finish_snapshot(token);
      });
}

void TxnCoordinator::finish_snapshot(std::int64_t token) {
  auto it = snapshots_.find(token);
  Snapshot s = std::move(it->second);
  snapshots_.erase(it);

  SnapshotReadReply out;
  out.ok = true;
  out.watermarks = std::move(s.watermarks);
  out.drain_wait = s.stamped - s.t0;
  out.reads.resize(s.slots.size());
  for (std::size_t i = 0; i < s.slots.size(); ++i) {
    out.reads[i] = std::move(s.out[s.slots[i].first][s.slots[i].second]);
  }
  router_.release_cross();
  if (s.reply) s.reply(out);
}

// --- coordinator crash recovery --------------------------------------------

std::unique_ptr<TxnCoordinator::Txn> TxnCoordinator::recovered_txn(
    std::int64_t client, std::int64_t seq, int home, std::vector<int> shards) const {
  auto t = std::make_unique<Txn>();
  t->client = client;
  t->seq = seq;
  t->xid = client * kXidStride + seq;
  t->sid = kAdopterSessionBase + t->xid;
  t->fp = db::range_fingerprint(pending_key(client, seq), "");
  t->shards = std::move(shards);
  t->home = home;
  t->adopted = true;
  t->t0 = sim_.now();
  const std::size_t n = t->shards.size();
  t->buffered.resize(n);
  t->prepared.assign(n, 0);
  // A surviving pending is that shard's green "yes" vote, and its cell holds
  // the buffered slice a confirm (or a fenced confirm's reroute) applies.
  const std::string pend = pending_key(client, seq);
  for (std::size_t slot = 0; slot < n; ++slot) {
    const db::Database* d = greenest_db(router_, t->shards[slot]);
    const std::string cell = d == nullptr ? std::string() : d->get(pend);
    if (cell.empty()) continue;
    t->prepared[slot] = 1;
    t->buffered[slot] = db::TxnPending::decode(Bytes(cell.begin(), cell.end())).update;
  }
  return t;
}

void TxnCoordinator::adopt_orphans(std::function<void(int adopted)> done) {
  // Synchronous scan of every shard's best green state. Assumes the dead
  // coordinator's traffic has drained (run at quiescence): the scan must
  // see the final green marker set, not race half-delivered prepares.
  const int nshards = router_.directory().shards();
  const auto stamped = [this](int shard, const std::string& dec) {
    const db::Database* d = greenest_db(router_, shard);
    return d != nullptr && d->get(dec) == "C";
  };
  std::set<std::string> known;  // decision keys of the surviving intents
  std::vector<std::unique_ptr<Txn>> work;
  for (int sh = 0; sh < nshards; ++sh) {
    const db::Database* d = greenest_db(router_, sh);
    if (d == nullptr) continue;
    for (const auto& [key, value] : d->scan_prefix("__txn/")) {
      Intent in = decode_intent(value);
      const std::string dec = decision_key(in.client, in.seq);
      known.insert(dec);
      auto t = recovered_txn(in.client, in.seq, sh, std::move(in.shards));
      // Commit iff some involved shard holds the decision stamp, or every
      // involved shard still holds its pending. A stamp only exists once
      // every shard voted yes (it rides the confirms). With every pending
      // intact, all voted yes and no confirm or cancel landed anywhere.
      // Otherwise some shard voted no or cancelled, and no stamp exists
      // (a stamp would have been seen), so cancel. The home pending rides
      // the same action as the intent and is only cancelled together with
      // it, so the cancel leg's home marker retires the intent.
      t->committing =
          std::all_of(t->prepared.begin(), t->prepared.end(), [](char p) { return p != 0; }) ||
          std::any_of(t->shards.begin(), t->shards.end(),
                      [&](int s) { return stamped(s, dec); });
      work.push_back(std::move(t));
    }
  }
  // Pendings whose intent never went green: the home prepare aborted, so no
  // stamp can ever exist — cancel them. Grouped per transaction.
  std::map<std::pair<std::int64_t, std::int64_t>, std::pair<int, std::vector<int>>> orphans;
  for (int sh = 0; sh < nshards; ++sh) {
    const db::Database* d = greenest_db(router_, sh);
    if (d == nullptr) continue;
    for (const auto& [key, value] : d->scan_prefix("__txnp/")) {
      const db::TxnPending p = db::TxnPending::decode(Bytes(value.begin(), value.end()));
      if (known.count(decision_key(p.client, p.seq)) != 0) continue;
      auto& [home, shards] = orphans[{p.client, p.seq}];
      home = p.home;
      shards.push_back(sh);
    }
  }
  for (auto& [cs, hs] : orphans) {
    work.push_back(recovered_txn(cs.first, cs.second, hs.first, std::move(hs.second)));
  }
  // Stamps whose intent is gone: the transaction committed everywhere and
  // the dead coordinator's cleanup retired the intent but not every stamp.
  for (int sh = 0; sh < nshards; ++sh) {
    const db::Database* d = greenest_db(router_, sh);
    if (d == nullptr) continue;
    for (const auto& [key, value] : d->scan_prefix("__txnd/")) {
      if (known.count(key) != 0) continue;
      // "__txnd/<client>/<seq>": retire it through the transaction's adopter session.
      const std::string ids = key.substr(key.find('/') + 1);
      const std::int64_t xid =
          std::stoll(ids) * kXidStride + std::stoll(ids.substr(ids.find('/') + 1));
      db::Command cmd;
      cmd.ops.push_back(db::Op{db::OpType::kDelete, key, "", 0});
      submit_cleanup(kAdopterSessionBase + xid, sh, std::move(cmd));
    }
  }

  // Each recovered transaction re-enters the live round 2 where the dead
  // coordinator left it: a commit re-sends every confirm with its stamp
  // (idempotent), an abort runs the cancel leg.
  adopting_ = static_cast<int>(work.size());
  adoption_done_ = [done = std::move(done), n = adopting_] {
    if (done) done(n);
  };
  if (work.empty()) std::exchange(adoption_done_, nullptr)();
  for (std::unique_ptr<Txn>& t : work) {
    const std::int64_t token = ++next_token_;
    const bool commit = t->committing;
    inflight_[token] = std::move(t);
    round2(token, commit);
  }
}

}  // namespace tordb::txn
