#include "core/action_log.h"

#include <algorithm>

namespace tordb::core {

std::span<const Action* const> ActionLog::mark_red(ActionRef a) {
  admitted_.clear();
  const ActionId aid = a->id;
  CreatorState& cs = creators_[aid.server_id];
  if (cs.red_cut >= aid.index) return admitted_;  // duplicate
  if (cs.red_cut < aid.index - 1) {
    // Creator-FIFO gap: exchange-phase red and green retransmissions come
    // from different members and may interleave out of creator order;
    // park the action until its predecessors arrive.
    red_waiting_[pack_action_id(aid)] = std::move(a);
    return admitted_;
  }
  cs.red_cut = aid.index;
  admitted_.push_back(store_red(std::move(a)));
  admit_parked(cs, aid.server_id);
  return admitted_;
}

void ActionLog::admit_parked(CreatorState& cs, NodeId creator) {
  // Parked actions exist only around exchanges; skip the probe otherwise.
  while (!red_waiting_.empty()) {
    const std::uint64_t key = pack_action_id(ActionId{creator, cs.red_cut + 1});
    if (red_waiting_.find(key) == nullptr) break;
    ++cs.red_cut;
    admitted_.push_back(store_red(red_waiting_.extract(key)));
  }
}

const Action* ActionLog::store_red(ActionRef a) {
  // An action that turned green while parked is already in the green
  // sequence (with this very body, or one equal to it: an ActionId names
  // one immutable action); it is admitted red without a second copy.
  if (is_green(a->id)) {
    if (const GreenEntry* g = find_green(a->id)) return g->body.action.get();
  }
  Body& slot = store_[pack_action_id(a->id)];
  body_bytes_ -= slot.bytes;
  slot = body(std::move(a));
  body_bytes_ += slot.bytes;
  return slot.action.get();
}

void ActionLog::push_green(const ActionId& id, Body b) {
  ++green_count_;
  body_bytes_ += b.bytes;
  green_seq_.push_back(GreenEntry{id, std::move(b)});
}

ActionLog::GreenResult ActionLog::mark_green(ActionRef a) {
  GreenResult res;
  const ActionId aid = a->id;
  CreatorState& cs = creators_[aid.server_id];
  if (aid.index <= cs.green_red_cut) {  // duplicate: position stays 0
    res.newly_red = mark_red(std::move(a));
    return res;
  }
  admitted_.clear();
  Body b;
  if (cs.red_cut == aid.index - 1) {
    // Red and green in one step (the regular primary's path): the body
    // goes straight into the green sequence; only successors it unparks
    // are stored as reds.
    cs.red_cut = aid.index;
    admitted_.push_back(a.get());
    b = body(std::move(a));
    admit_parked(cs, aid.server_id);
  } else if (cs.red_cut >= aid.index) {
    // A pending red turns green: its stored body moves to the green order.
    const std::uint64_t key = pack_action_id(aid);
    if (store_.find(key) != nullptr) {
      b = store_.extract(key);
      body_bytes_ -= b.bytes;
    } else {
      b = body(std::move(a));
    }
  } else {
    // Green ahead of its creator-FIFO predecessors: park it for the red
    // order, and share the parked body with the green order.
    b = body(a);
    red_waiting_[pack_action_id(aid)] = std::move(a);
  }
  cs.green_red_cut = std::max(cs.green_red_cut, aid.index);
  res.body = b.action.get();
  push_green(aid, std::move(b));
  res.newly_red = admitted_;
  res.position = green_count_;
  return res;
}

ActionRef ActionLog::body_of(const ActionId& id) const {
  if (const Body* b = store_.find(pack_action_id(id))) return b->action;
  if (!is_green(id)) return nullptr;
  const GreenEntry* g = find_green(id);
  return g == nullptr ? nullptr : g->body.action;
}

const ActionLog::GreenEntry* ActionLog::green_entry(std::int64_t position) const {
  if (position <= white_count_ || position > green_count_) return nullptr;
  const std::size_t idx =
      green_head_ + static_cast<std::size_t>(position - white_count_ - 1);
  // An adopted prefix has no per-position entries; never index out of range.
  return idx < green_seq_.size() ? &green_seq_[idx] : nullptr;
}

const ActionLog::GreenEntry* ActionLog::find_green(const ActionId& id) const {
  for (std::size_t i = green_seq_.size(); i > green_head_; --i) {
    if (green_seq_[i - 1].id == id) return &green_seq_[i - 1];
  }
  return nullptr;
}

std::int64_t ActionLog::position_of(const ActionId& id) const {
  if (!is_green(id)) return 0;
  const GreenEntry* g = find_green(id);
  if (g == nullptr) return 0;
  return white_count_ + static_cast<std::int64_t>(g - green_seq_.data()) -
         static_cast<std::int64_t>(green_head_) + 1;
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
      if (const Body* b = store_.find(pack_action_id(ActionId{c, i}))) fn(*b->action);
    }
  }
}

std::size_t ActionLog::trim_white_to(std::int64_t white_line) {
  std::size_t trimmed = 0;
  while (white_count_ < white_line && green_head_ < green_seq_.size()) {
    Body& b = green_seq_[green_head_++].body;
    ++white_count_;
    body_bytes_ -= b.bytes;
    b = Body{};
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
  for (std::size_t i = green_head_; i < green_seq_.size(); ++i) {
    body_bytes_ -= green_seq_[i].body.bytes;
  }
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
  store_.for_each([&](std::uint64_t key, const Body& b) {
    if (is_green(unpack_action_id(key))) {
      body_bytes_ -= b.bytes;
      dead.push_back(key);
    }
  });
  for (const std::uint64_t key : dead) store_.erase(key);
  dead.clear();
  red_waiting_.for_each([&](std::uint64_t key, const ActionRef&) {
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
  for (const NodeId c : ids) admit_parked(creators_[c], c);
  return admitted_;
}

bool ActionLog::replay_green(std::int64_t position, ActionRef a) {
  if (position != green_count_ + 1) return false;  // duplicate / out of order
  const ActionId aid = a->id;
  CreatorState& cs = creators_[aid.server_id];
  cs.green_red_cut = std::max(cs.green_red_cut, aid.index);
  cs.red_cut = std::max(cs.red_cut, aid.index);
  // A red record replayed earlier stored the same action as a pending red.
  const std::uint64_t key = pack_action_id(aid);
  if (store_.find(key) != nullptr) body_bytes_ -= store_.extract(key).bytes;
  push_green(aid, body(std::move(a)));
  return true;
}

}  // namespace tordb::core
