// Engine-level records and wire messages (paper Appendix A message
// structure, plus the retransmission messages of the exchange phase and the
// direct-channel join protocol of §5.1/5.2).
//
// Engine messages travel as opaque payloads inside group-communication
// multicasts; the join protocol uses the network's direct channel.
#pragma once

#include <cstdint>
#include <vector>

#include "core/action.h"
#include "util/serde.h"
#include "util/types.h"

namespace tordb::core {

/// The last primary component known to a server (Appendix A).
struct PrimComponent {
  std::int64_t prim_index = 0;     ///< index of the last installed primary
  std::int64_t attempt_index = 0;  ///< attempt by which it was installed
  std::vector<NodeId> servers;     ///< its membership

  friend bool operator==(const PrimComponent&, const PrimComponent&) = default;
  template <class S, class Io>
  static void layout(S& s, Io& io) {
    io(s.prim_index, s.attempt_index, s.servers);
  }
};

/// Status of the last installation attempt this server joined (Appendix A).
/// A server is "vulnerable" from the moment it agrees to form a new primary
/// component (sends its CPC) until it has, on stable storage, complete
/// knowledge of how that attempt ended (paper §5).
struct VulnerableRecord {
  bool valid = false;
  std::int64_t prim_index = 0;
  std::int64_t attempt_index = 0;
  std::vector<NodeId> set;  ///< servers trying to install
  std::vector<bool> bits;   ///< aligned with `set`: CPC messages received

  friend bool operator==(const VulnerableRecord&, const VulnerableRecord&) = default;
  template <class S, class Io>
  static void layout(S& s, Io& io) {
    io(s.valid, s.prim_index, s.attempt_index, s.set, s.bits);
  }

  bool all_bits_set() const;
  void set_bit(NodeId server);
};

/// The yellow action set: actions delivered in a transitional configuration
/// of a primary component (paper §5, Figure 3).
struct YellowRecord {
  bool valid = false;
  std::vector<ActionId> set;  ///< in transitional delivery order

  friend bool operator==(const YellowRecord&, const YellowRecord&) = default;
  template <class S, class Io>
  static void layout(S& s, Io& io) {
    io(s.valid, s.set);
  }
};

/// State message exchanged at the start of every new configuration
/// (Appendix A message structure). Green knowledge is communicated as a
/// *count*: by Global Total Order, any two green sequences are prefixes of
/// one another, so a single integer identifies the prefix.
struct StateMessage {
  NodeId server_id = kNoNode;
  ConfigId conf_id;
  std::int64_t green_count = 0;
  std::int64_t white_count = 0;  ///< green positions whose bodies were discarded
  NodePairs red_cut;  ///< per-creator contiguous index
  /// Per-creator index covered by the green prefix (lets the exchange plan
  /// retransmit an action as green XOR red, never pointlessly both).
  NodePairs green_red_cut;
  std::vector<NodeId> server_set;  ///< known replica universe (§5.1)
  std::int64_t attempt_index = 0;
  PrimComponent prim;
  VulnerableRecord vulnerable;
  YellowRecord yellow;

  template <class S, class Io>
  static void layout(S& s, Io& io) {
    io(s.server_id, s.conf_id, s.green_count, s.white_count, s.red_cut, s.green_red_cut,
       s.server_set, s.attempt_index, s.prim, s.vulnerable, s.yellow);
  }
};

/// CPC (Create Primary Component) message (paper §3.1 Construct state).
struct CpcMessage {
  NodeId server_id = kNoNode;
  ConfigId conf_id;

  template <class S, class Io>
  static void layout(S& s, Io& io) {
    io(s.server_id, s.conf_id);
  }
};

/// A green action and its position in the global order: the body of a
/// kGreenRetrans message and of a kGreen record. `Body` is an Action, a
/// `const Action&` to encode one in place, or the action's encoding as a
/// Rest, which the engine's hot paths frame and slice without re-encoding.
template <class Body>
struct GreenAction {
  std::int64_t position = 0;
  Body action;

  template <class S, class Io>
  static void layout(S& s, Io& io) {
    io(s.position, s.action);
  }
};

enum class EngineMsgType : std::uint8_t {
  kAction = 1,
  kState = 2,
  kCpc = 3,
  kGreenRetrans = 4,  ///< exchange phase: a green action with its position
  kRedRetrans = 5,    ///< exchange phase: a red action
  kCatchup = 6,       ///< exchange phase: full green-state transfer, used
                      ///  when the most updated member inherited its prefix
                      ///  as a snapshot and holds no action bodies (§5.1;
                      ///  the database-transfer technique of Kemme et al.
                      ///  the paper says it can leverage)
  kActionBatch = 7,   ///< several client actions in one multicast; members
                      ///  process them in batch order (used when buffered
                      ///  requests flush together)
};
constexpr WireRange<EngineMsgType> wire_range(EngineMsgType) {
  return {EngineMsgType::kAction, EngineMsgType::kActionBatch};
}

// --- direct-channel join protocol (§5.2) -----------------------------------

enum class DirectMsgType : std::uint8_t {
  kJoinRequest = 1,   ///< joiner -> member: announce/continue my join
  kSnapshot = 2,      ///< member -> joiner: database state transfer
};
constexpr WireRange<DirectMsgType> wire_range(DirectMsgType) {
  return {DirectMsgType::kJoinRequest, DirectMsgType::kSnapshot};
}

struct JoinRequest {
  NodeId joiner = kNoNode;

  template <class S, class Io>
  static void layout(S& s, Io& io) {
    io(s.joiner);
  }
};

/// Database transfer to a joining replica. The joiner adopts this green
/// prefix wholesale (Theorem 2's "inherited a database state").
struct SnapshotMessage {
  Bytes db_snapshot;
  std::int64_t green_count = 0;
  NodePairs green_red_cut;  ///< redCut of the green prefix
  std::vector<NodeId> server_set;
  NodePairs green_lines;
  PrimComponent prim;

  template <class S, class Io>
  static void layout(S& s, Io& io) {
    io(s.db_snapshot, s.green_count, s.green_red_cut, s.server_set, s.green_lines, s.prim);
  }
};

// --- stable-storage log records ---------------------------------------------

enum class LogRecordType : std::uint8_t {
  kOngoing = 1,   ///< own client action, forced before multicast
  kRed = 2,       ///< action marked red (async)
  kGreen = 3,     ///< action marked green with its global position (async)
  kMeta = 4,      ///< metadata snapshot, forced at the `** sync` points
  kDbSnapshot = 5,///< compaction record: database + green count + metadata
  kOngoingBatch = 6  ///< several own client actions framed as one record,
                     ///  forced (and multicast) together
};
constexpr WireRange<LogRecordType> wire_range(LogRecordType) {
  return {LogRecordType::kOngoing, LogRecordType::kOngoingBatch};
}

struct MetaRecord {
  std::vector<NodeId> server_set;
  PrimComponent prim;
  std::int64_t attempt_index = 0;
  VulnerableRecord vulnerable;
  YellowRecord yellow;
  NodePairs green_lines;
  std::int64_t gc_counter = 0;  ///< group-communication config counter floor

  template <class S, class Io>
  static void layout(S& s, Io& io) {
    io(s.server_set, s.prim, s.attempt_index, s.vulnerable, s.yellow, s.green_lines, s.gc_counter);
  }
};

/// Full-engine-state compaction record: everything needed to recover
/// without the replaced log prefix.
struct DbSnapshotRecord {
  Bytes db_snapshot;
  std::int64_t green_count = 0;
  NodePairs green_red_cut;
  MetaRecord meta;
  std::vector<Action> red_actions;      ///< red, not yet green, in local order
  std::vector<Action> ongoing_actions;  ///< own created, not yet ordered

  template <class S, class Io>
  static void layout(S& s, Io& io) {
    io(s.db_snapshot, s.green_count, s.green_red_cut, s.meta, s.red_actions, s.ongoing_actions);
  }
};

// --- encoders: each pairs a type byte with the layout it frames ------------
//
// The decoders are the type-byte switches of the engine (on_deliver,
// recover_from_log) and the replica node (on_direct), which read the type
// with BufReader::read and the rest with the same layouts.

/// The canonical encoding of an action: the kOngoing/kRed/kAction frames
/// carry exactly these bytes after their type byte, and the engine caches
/// them per action so a body is encoded once.
inline Bytes encode_action_body(const Action& a) { return frame(a); }

inline Bytes encode_action_batch(const std::vector<Action>& actions) {
  return frame(EngineMsgType::kActionBatch, actions);
}
inline Bytes encode_state_msg(const StateMessage& s) { return frame(EngineMsgType::kState, s); }
inline Bytes encode_cpc_msg(const CpcMessage& c) { return frame(EngineMsgType::kCpc, c); }
inline Bytes encode_green_retrans(std::int64_t position, const Action& a) {
  return frame(EngineMsgType::kGreenRetrans, GreenAction<const Action&>{position, a});
}
inline Bytes encode_red_retrans(const Action& a) { return frame(EngineMsgType::kRedRetrans, a); }
inline Bytes encode_catchup(const SnapshotMessage& s) { return frame(EngineMsgType::kCatchup, s); }

inline Bytes encode_join_request(const JoinRequest& j) {
  return frame(DirectMsgType::kJoinRequest, j);
}
inline Bytes encode_snapshot(const SnapshotMessage& s) {
  return frame(DirectMsgType::kSnapshot, s);
}

inline Bytes encode_log_ongoing(const Action& a) { return frame(LogRecordType::kOngoing, a); }
inline Bytes encode_log_ongoing_batch(const std::vector<Action>& actions) {
  return frame(LogRecordType::kOngoingBatch, actions);
}
inline Bytes encode_log_red(const Action& a) { return frame(LogRecordType::kRed, a); }
inline Bytes encode_log_green(std::int64_t position, const Action& a) {
  return frame(LogRecordType::kGreen, GreenAction<const Action&>{position, a});
}
inline Bytes encode_log_meta(const MetaRecord& m) { return frame(LogRecordType::kMeta, m); }
inline Bytes encode_log_db_snapshot(const DbSnapshotRecord& s) {
  return frame(LogRecordType::kDbSnapshot, s);
}

}  // namespace tordb::core
