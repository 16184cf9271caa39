// Dense key interning: string -> small dense id, id -> string_view.
//
// The db's apply path used to re-hash or re-compare full `std::string`
// keys on every op. Production
// replicated stores run per-key machinery on dense ids instead (LARK /
// Aerospike shape, PAPERS.md): intern each distinct key once, then index
// flat arrays by the id everywhere downstream.
//
// Ids are assigned in first-intern order, so they are deterministic per
// node: every replica of a group applies the same green sequence and thus
// interns the same keys in the same order. Nothing on the wire or in the
// digest depends on ids — they are a per-node acceleration structure.
//
// The index is a power-of-two open-addressing table (FNV-1a, linear
// probing) holding id+1; key bodies live in a deque so `key(id)` views stay
// stable across growth. Interned keys are never freed — the table is
// bounded by the key universe, not the live row count.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace tordb::util {

/// Dense per-node key id (first-intern order).
using KeyId = std::uint32_t;

/// Sentinel: key not interned.
inline constexpr KeyId kNoKeyId = 0xffffffffu;

class KeyInterner {
 public:
  /// Id for `key`, assigning the next dense id on first sight.
  KeyId intern(std::string_view key) {
    if (slots_.empty()) grow(kInitialSlots);
    std::size_t i = probe_start(key);
    while (slots_[i] != 0) {
      const KeyId id = slots_[i] - 1;
      if (keys_[id] == key) return id;
      i = (i + 1) & (slots_.size() - 1);
    }
    const KeyId id = static_cast<KeyId>(keys_.size());
    keys_.emplace_back(key);
    bytes_ += key.size();
    slots_[i] = id + 1;
    // Grow at 3/4 load so probe chains stay short.
    if ((keys_.size() + 1) * 4 > slots_.size() * 3) grow(slots_.size() * 2);
    return id;
  }

  /// Id for `key` if already interned, else kNoKeyId. Never allocates.
  KeyId find(std::string_view key) const {
    if (slots_.empty()) return kNoKeyId;
    std::size_t i = probe_start(key);
    while (slots_[i] != 0) {
      const KeyId id = slots_[i] - 1;
      if (keys_[id] == key) return id;
      i = (i + 1) & (slots_.size() - 1);
    }
    return kNoKeyId;
  }

  /// The interned string for a valid id. Stable across later interns.
  std::string_view key(KeyId id) const { return keys_[id]; }

  std::size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }
  /// Total interned key bytes (the `db.intern.bytes` metric).
  std::uint64_t bytes() const { return bytes_; }
  /// Open-addressing slots currently allocated and rehashes performed
  /// (the `db.table.{slots,rehashes}` metrics).
  std::size_t slots() const { return slots_.size(); }
  std::uint64_t rehashes() const { return rehashes_; }

  void clear() {
    keys_.clear();
    slots_.clear();
    bytes_ = 0;
  }

 private:
  static constexpr std::size_t kInitialSlots = 64;

  static std::uint64_t hash(std::string_view s) {
    std::uint64_t h = 1469598103934665603ull;
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    return h;
  }

  std::size_t probe_start(std::string_view key) const {
    return static_cast<std::size_t>(hash(key)) & (slots_.size() - 1);
  }

  void grow(std::size_t new_slots) {
    slots_.assign(new_slots, 0);
    if (!keys_.empty()) ++rehashes_;
    for (KeyId id = 0; id < keys_.size(); ++id) {
      std::size_t i = probe_start(keys_[id]);
      while (slots_[i] != 0) i = (i + 1) & (new_slots - 1);
      slots_[i] = id + 1;
    }
  }

  std::deque<std::string> keys_;      ///< id -> key; deque keeps views stable
  std::vector<std::uint32_t> slots_;  ///< id + 1; 0 = empty; power-of-two size
  std::uint64_t bytes_ = 0;
  std::uint64_t rehashes_ = 0;
};

}  // namespace tordb::util
