// Open-addressing hash map from 64-bit keys to values.
//
// The router's per-request state (`sessions_` keyed by (client, shard),
// per-client cross sequence counters, in-flight cross actions by token)
// used to live in `std::map`s, paying a red-black-tree walk per request.
// Those keys all pack into one integer, so a flat power-of-two table with
// linear probing serves each lookup in ~one cache line.
//
// Deletion is backward-shift (no tombstones): erasing a key moves later
// members of its probe run back into the hole, so a probe run never holds
// dead slots and lookups stay as short as the live load allows, however
// many keys come and go. Values must be movable; value references are
// invalidated by any insert or erase (callers re-fetch after calls that
// may insert or erase — the same discipline the simulator's flat tables
// use). Iteration order is the table's slot order, i.e. unspecified:
// callers that need determinism-relevant ordering must sort.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace tordb::util {

template <typename T>
class FlatMap64 {
 public:
  /// Pointer to the value for `key`, or nullptr. Never allocates.
  T* find(std::uint64_t key) {
    const std::size_t i = find_slot(key);
    return i == kNpos ? nullptr : &slots_[i].value;
  }
  const T* find(std::uint64_t key) const {
    const std::size_t i = find_slot(key);
    return i == kNpos ? nullptr : &slots_[i].value;
  }

  /// Value for `key`, default-constructed on first touch.
  T& operator[](std::uint64_t key) {
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) {
      rehash(slots_.empty() ? kInitialSlots : slots_.size() * 2);
    }
    std::size_t i = probe_start(key);
    while (slots_[i].full) {
      if (slots_[i].key == key) return slots_[i].value;
      i = next(i);
    }
    slots_[i].key = key;
    slots_[i].full = true;
    ++size_;
    return slots_[i].value;
  }

  /// Pre-size the table so `n` entries fit without growth rehashes.
  void reserve(std::size_t n) {
    std::size_t target = kInitialSlots;
    while (n * 4 > target * 3) target *= 2;
    if (target > slots_.size()) rehash(target);
  }

  /// Drop every entry, keeping the allocated table.
  void clear() {
    for (Slot& s : slots_) {
      if (s.full) s.value = T{};
      s.full = false;
    }
    size_ = 0;
  }

  /// Remove `key`; returns whether it was present.
  bool erase(std::uint64_t key) {
    const std::size_t i = find_slot(key);
    if (i == kNpos) return false;
    remove_at(i);
    return true;
  }

  /// Move the value for `key` out and erase it (the flat analogue of
  /// std::map::extract). Precondition: the key is present.
  T extract(std::uint64_t key) {
    const std::size_t i = find_slot(key);
    T out = std::move(slots_[i].value);
    remove_at(i);
    return out;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Visit every (key, value) pair, slot order (unspecified).
  template <typename F>
  void for_each(F&& fn) const {
    for (const Slot& s : slots_) {
      if (s.full) fn(s.key, s.value);
    }
  }
  template <typename F>
  void for_each(F&& fn) {
    for (Slot& s : slots_) {
      if (s.full) fn(s.key, s.value);
    }
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    T value{};
    bool full = false;
  };
  static constexpr std::size_t kInitialSlots = 16;
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  std::size_t probe_start(std::uint64_t key) const {
    return static_cast<std::size_t>(mix(key)) & (slots_.size() - 1);
  }
  std::size_t next(std::size_t i) const { return (i + 1) & (slots_.size() - 1); }

  std::size_t find_slot(std::uint64_t key) const {
    if (slots_.empty()) return kNpos;
    std::size_t i = probe_start(key);
    while (slots_[i].full) {
      if (slots_[i].key == key) return i;
      i = next(i);
    }
    return kNpos;
  }

  /// Empty slot `hole`, then walk its probe run: an entry whose home slot
  /// is not cyclically within (hole, j] can move back into the hole, which
  /// then advances to j. The run ends at the first empty slot.
  void remove_at(std::size_t hole) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = next(hole); slots_[j].full; j = next(j)) {
      const std::size_t home = probe_start(slots_[j].key);
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole].key = slots_[j].key;
        slots_[hole].value = std::move(slots_[j].value);
        hole = j;
      }
    }
    slots_[hole].value = T{};
    slots_[hole].full = false;
    --size_;
  }

  void rehash(std::size_t new_slots) {
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(new_slots);  // value-initialized: works for move-only T
    for (Slot& s : old) {
      if (!s.full) continue;
      std::size_t i = probe_start(s.key);
      while (slots_[i].full) i = next(i);
      slots_[i].key = s.key;
      slots_[i].value = std::move(s.value);
      slots_[i].full = true;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// Sorted-vector map for tiny key sets (per-creator cuts, green lines —
/// bounded by the replication group size): a binary search over one or two
/// cache lines beats any hash or tree at this size, and iteration runs in
/// ascending key order, so deterministic wire encodings come for free.
/// Like FlatMap64, value references are invalidated by inserts.
template <typename K, typename V>
class VecMap {
 public:
  /// Value for `key`, default-constructed on first touch.
  V& operator[](K key) {
    auto it = lower_bound(key);
    if (it == entries_.end() || it->first != key) {
      it = entries_.insert(it, {key, V{}});
    }
    return it->second;
  }

  V* find(K key) {
    auto it = lower_bound(key);
    return it == entries_.end() || it->first != key ? nullptr : &it->second;
  }
  const V* find(K key) const {
    auto it = lower_bound(key);
    return it == entries_.end() || it->first != key ? nullptr : &it->second;
  }

  bool erase(K key) {
    auto it = lower_bound(key);
    if (it == entries_.end() || it->first != key) return false;
    entries_.erase(it);
    return true;
  }

  void clear() { entries_.clear(); }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Entries in ascending key order (the backing vector itself).
  const std::vector<std::pair<K, V>>& entries() const { return entries_; }
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

 private:
  auto lower_bound(K key) {
    return std::lower_bound(entries_.begin(), entries_.end(), key,
                            [](const std::pair<K, V>& e, K k) { return e.first < k; });
  }
  auto lower_bound(K key) const {
    return std::lower_bound(entries_.begin(), entries_.end(), key,
                            [](const std::pair<K, V>& e, K k) { return e.first < k; });
  }

  std::vector<std::pair<K, V>> entries_;
};

}  // namespace tordb::util
