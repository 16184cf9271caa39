// Fundamental identifier and time types shared by every module.
//
// All simulated time is integral nanoseconds (`SimTime`) so that event
// ordering is exact and runs are bit-for-bit reproducible across platforms.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

namespace tordb {

/// Identifier of a replication server / simulated node. Stable across
/// crashes and recoveries (paper §2.1: "Upon recovery, a server retains its
/// old identifier and stable storage").
using NodeId = std::int32_t;

/// Sentinel for "no node".
inline constexpr NodeId kNoNode = -1;

/// Simulated time in nanoseconds since simulation start.
using SimTime = std::int64_t;

/// Simulated duration in nanoseconds.
using SimDuration = std::int64_t;

constexpr SimDuration nanos(std::int64_t n) { return n; }
constexpr SimDuration micros(std::int64_t u) { return u * 1'000; }
constexpr SimDuration millis(std::int64_t m) { return m * 1'000'000; }
constexpr SimDuration seconds(std::int64_t s) { return s * 1'000'000'000; }

constexpr double to_seconds(SimDuration d) { return static_cast<double>(d) / 1e9; }
constexpr double to_millis(SimDuration d) { return static_cast<double>(d) / 1e6; }

/// Identifier of one action, as defined by the paper's Appendix A:
/// the creating server plus a per-server monotonically increasing index.
struct ActionId {
  NodeId server_id = kNoNode;
  std::int64_t index = 0;

  friend auto operator<=>(const ActionId&, const ActionId&) = default;
  template <class S, class Io>
  static void layout(S& s, Io& io) {
    io(s.server_id, s.index);
  }
};

/// Order-preserving 64-bit packing of an ActionId: creator in bits 40..63,
/// per-creator index in bits 0..39. For the ids the protocol generates
/// (non-negative server ids far below 2^24, indices far below 2^40) packed
/// keys compare exactly like ActionId's lexicographic order, so flat tables
/// keyed by the packed form recover deterministic ActionId-ordered
/// iteration by sorting their keys.
inline std::uint64_t pack_action_id(const ActionId& id) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(id.server_id)) << 40) |
         static_cast<std::uint64_t>(id.index);
}

inline ActionId unpack_action_id(std::uint64_t key) {
  return ActionId{static_cast<NodeId>(key >> 40),
                  static_cast<std::int64_t>(key & ((std::uint64_t{1} << 40) - 1))};
}

/// Identifier of a group-communication configuration (view). Totally
/// ordered: later configurations compare greater.
struct ConfigId {
  std::int64_t counter = 0;     ///< monotonically increasing epoch
  NodeId coordinator = kNoNode; ///< tie-breaker; the node that installed it

  friend auto operator<=>(const ConfigId&, const ConfigId&) = default;
  template <class S, class Io>
  static void layout(S& s, Io& io) {
    io(s.counter, s.coordinator);
  }
};

std::string to_string(const ActionId& id);
std::string to_string(const ConfigId& id);

}  // namespace tordb

template <>
struct std::hash<tordb::ActionId> {
  std::size_t operator()(const tordb::ActionId& a) const noexcept {
    return std::hash<std::int64_t>()((static_cast<std::int64_t>(a.server_id) << 40) ^ a.index);
  }
};
