#include "core/action_log.h"

#include <algorithm>

namespace tordb::core {

std::unique_ptr<ActionLog::StoredAction> ActionLog::alloc_stored() {
  if (pool_.empty()) return std::make_unique<StoredAction>();
  std::unique_ptr<StoredAction> p = std::move(pool_.back());
  pool_.pop_back();
  p->green_pos = 0;
  return p;
}

void ActionLog::recycle(std::unique_ptr<StoredAction> p) {
  if (pool_.size() < 4096) pool_.push_back(std::move(p));
}

void ActionLog::put_body(std::unique_ptr<StoredAction>& slot, Action&& a) {
  if (!slot) {
    slot = alloc_stored();
  } else {
    body_bytes_ -= slot->bytes;
  }
  slot->bytes = static_cast<std::int64_t>(a.wire_size());
  body_bytes_ += slot->bytes;
  slot->body = std::move(a);
}

std::span<const Action* const> ActionLog::mark_red(Action&& a) {
  admitted_.clear();
  const ActionId aid = a.id;
  CreatorState& cs = creators_[aid.server_id];
  if (cs.red_cut >= aid.index) return admitted_;  // duplicate
  if (cs.red_cut < aid.index - 1) {
    // Creator-FIFO gap: exchange-phase red and green retransmissions come
    // from different members and may interleave out of creator order;
    // park the action until its predecessors arrive.
    red_waiting_[pack_action_id(aid)] = std::move(a);
    return admitted_;
  }
  Action current = std::move(a);
  for (;;) {
    const ActionId cid = current.id;
    cs.red_cut = cid.index;
    // Fetch-or-create (not overwrite) so a body re-admitted after a
    // green-during-gap keeps the green position it already earned.
    auto& slot = store_[pack_action_id(cid)];
    put_body(slot, std::move(current));
    admitted_.push_back(&slot->body);
    const std::uint64_t next_key = pack_action_id(ActionId{aid.server_id, cs.red_cut + 1});
    Action* next = red_waiting_.find(next_key);
    if (next == nullptr) break;
    current = std::move(*next);
    red_waiting_.erase(next_key);
  }
  return admitted_;
}

ActionLog::GreenResult ActionLog::mark_green(Action&& a) {
  GreenResult res;
  const ActionId aid = a.id;
  res.newly_red = mark_red(std::move(a));
  if (is_green(aid)) return res;  // duplicate: position stays 0
  ++green_count_;
  green_seq_.push_back(aid);
  CreatorState& cs = creators_[aid.server_id];
  cs.green_red_cut = std::max(cs.green_red_cut, aid.index);
  // The action may have been parked (gap) rather than admitted red; the
  // green order still needs its body in the store, so mirror the parked
  // copy there (mark_red consumed the argument).
  const std::uint64_t key = pack_action_id(aid);
  StoredAction* cell = nullptr;
  if (auto* slot = store_.find(key)) {
    cell = slot->get();
  } else if (const Action* parked = red_waiting_.find(key)) {
    auto& fresh = store_[key];
    put_body(fresh, Action(*parked));
    cell = fresh.get();
  }
  if (cell != nullptr) {
    cell->green_pos = green_count_;
    res.body = &cell->body;
  }
  res.position = green_count_;
  return res;
}

const Action* ActionLog::body_of(const ActionId& id) const {
  const auto* slot = store_.find(pack_action_id(id));
  return slot == nullptr ? nullptr : &(*slot)->body;
}

const Action* ActionLog::green_body_at(std::int64_t position) const {
  const ActionId id = green_action_at(position);
  return id.server_id == kNoNode ? nullptr : body_of(id);
}

ActionId ActionLog::green_action_at(std::int64_t position) const {
  if (position <= white_count_ || position > green_count_) return ActionId{};
  const std::size_t idx =
      green_head_ + static_cast<std::size_t>(position - white_count_ - 1);
  // An adopted prefix has no per-position ids; never index out of range.
  if (idx >= green_seq_.size()) return ActionId{};
  return green_seq_[idx];
}

std::int64_t ActionLog::position_of(const ActionId& id) const {
  const auto* slot = store_.find(pack_action_id(id));
  return slot == nullptr ? 0 : (*slot)->green_pos;
}

std::size_t ActionLog::red_count() const {
  std::size_t n = 0;
  for (const auto& [c, cs] : creators_) {
    if (cs.red_cut > cs.green_red_cut) {
      n += static_cast<std::size_t>(cs.red_cut - cs.green_red_cut);
    }
  }
  return n;
}

std::int64_t ActionLog::red_cut(NodeId creator) const {
  const CreatorState* cs = creators_.find(creator);
  return cs == nullptr ? 0 : cs->red_cut;
}

std::int64_t ActionLog::green_red_cut(NodeId creator) const {
  const CreatorState* cs = creators_.find(creator);
  return cs == nullptr ? 0 : cs->green_red_cut;
}

std::vector<std::pair<NodeId, std::int64_t>> ActionLog::red_cut_pairs() const {
  std::vector<std::pair<NodeId, std::int64_t>> v;
  v.reserve(creators_.size());
  for (const auto& [c, cs] : creators_) v.emplace_back(c, cs.red_cut);
  return v;
}

std::vector<std::pair<NodeId, std::int64_t>> ActionLog::green_red_cut_pairs() const {
  std::vector<std::pair<NodeId, std::int64_t>> v;
  v.reserve(creators_.size());
  for (const auto& [c, cs] : creators_) v.emplace_back(c, cs.green_red_cut);
  return v;
}

std::vector<ActionId> ActionLog::pending_red_ids() const {
  std::vector<ActionId> ids;
  for (const auto& [c, cs] : creators_) {
    for (std::int64_t i = cs.green_red_cut + 1; i <= cs.red_cut; ++i) {
      ids.push_back(ActionId{c, i});
    }
  }
  return ids;
}

void ActionLog::for_each_pending_red(const std::function<void(const Action&)>& fn) const {
  for (const auto& [c, cs] : creators_) {
    for (std::int64_t i = cs.green_red_cut + 1; i <= cs.red_cut; ++i) {
      if (const Action* b = body_of(ActionId{c, i})) fn(*b);
    }
  }
}

std::size_t ActionLog::trim_white_to(std::int64_t white_line) {
  std::size_t trimmed = 0;
  while (white_count_ < white_line && green_head_ < green_seq_.size()) {
    const ActionId aid = green_seq_[green_head_++];
    ++white_count_;
    const std::uint64_t key = pack_action_id(aid);
    if (auto* slot = store_.find(key)) {
      body_bytes_ -= (*slot)->bytes;
      recycle(std::move(*slot));
      store_.erase(key);
    }
    ++trimmed;
  }
  compact_green_seq();
  return trimmed;
}

void ActionLog::compact_green_seq() {
  // Amortized O(1): release the trimmed prefix once it dominates the
  // vector, keeping position lookup a plain offset index in between.
  if (green_head_ >= 64 && green_head_ * 2 >= green_seq_.size()) {
    green_seq_.erase(green_seq_.begin(),
                     green_seq_.begin() + static_cast<std::ptrdiff_t>(green_head_));
    green_head_ = 0;
  }
}

void ActionLog::reset(std::int64_t green_count,
                      const std::vector<std::pair<NodeId, std::int64_t>>& green_red_cut) {
  green_count_ = white_count_ = green_count;
  green_seq_.clear();
  green_head_ = 0;
  store_.clear();
  body_bytes_ = 0;
  red_waiting_.clear();
  creators_.clear();
  for (const auto& [c, v] : green_red_cut) creators_[c] = CreatorState{v, v};
}

std::span<const Action* const> ActionLog::adopt_green_prefix(
    std::int64_t green_count,
    const std::vector<std::pair<NodeId, std::int64_t>>& green_red_cut) {
  green_count_ = green_count;
  white_count_ = green_count;
  green_seq_.clear();
  green_head_ = 0;
  for (const auto& [c, v] : green_red_cut) {
    CreatorState& cs = creators_[c];
    cs.green_red_cut = std::max(cs.green_red_cut, v);
    cs.red_cut = std::max(cs.red_cut, v);
  }
  // Bodies and parked retransmissions the adopted prefix covers are dead:
  // green-by-position retransmission below our white line is impossible
  // (the exchange falls back to a catch-up transfer), and covered indices
  // can never be pending reds again. Collect first, then erase — the flat
  // tables must not shrink under their own iteration.
  std::vector<std::uint64_t> dead;
  store_.for_each([&](std::uint64_t key, const std::unique_ptr<StoredAction>& s) {
    if (is_green(unpack_action_id(key))) {
      body_bytes_ -= s->bytes;
      dead.push_back(key);
    }
  });
  for (const std::uint64_t key : dead) store_.erase(key);
  dead.clear();
  red_waiting_.for_each([&](std::uint64_t key, const Action&) {
    if (is_green(unpack_action_id(key))) dead.push_back(key);
  });
  for (const std::uint64_t key : dead) red_waiting_.erase(key);

  // The raised cuts may have filled the creator-FIFO gaps that surviving
  // parked retransmissions were waiting on; admit the now-contiguous
  // chains, or they stay stranded (never pending, never promoted) and
  // members that received them directly diverge at the next Install.
  admitted_.clear();
  std::vector<NodeId> ids;
  ids.reserve(creators_.size());
  for (const auto& [c, cs] : creators_) ids.push_back(c);
  for (const NodeId c : ids) {
    CreatorState& cs = creators_[c];
    for (;;) {
      const std::uint64_t key = pack_action_id(ActionId{c, cs.red_cut + 1});
      Action* w = red_waiting_.find(key);
      if (w == nullptr) break;
      ++cs.red_cut;
      auto& slot = store_[key];
      put_body(slot, std::move(*w));
      red_waiting_.erase(key);
      admitted_.push_back(&slot->body);
    }
  }
  return admitted_;
}

bool ActionLog::replay_green(std::int64_t position, const Action& a) {
  if (position != green_count_ + 1) return false;  // duplicate / out of order
  ++green_count_;
  green_seq_.push_back(a.id);
  CreatorState& cs = creators_[a.id.server_id];
  cs.green_red_cut = std::max(cs.green_red_cut, a.id.index);
  cs.red_cut = std::max(cs.red_cut, a.id.index);
  auto& slot = store_[pack_action_id(a.id)];
  put_body(slot, Action(a));
  slot->green_pos = green_count_;
  return true;
}

}  // namespace tordb::core
