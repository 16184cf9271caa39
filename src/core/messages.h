// Engine-level records and wire messages (paper Appendix A message
// structure, plus the retransmission messages of the exchange phase and the
// direct-channel join protocol of §5.1/5.2).
//
// Engine messages travel as opaque payloads inside group-communication
// multicasts; the join protocol uses the network's direct channel.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
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
  void encode(BufWriter& w) const;
  static PrimComponent decode(BufReader& r);
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
  void encode(BufWriter& w) const;
  static VulnerableRecord decode(BufReader& r);

  bool all_bits_set() const;
  void set_bit(NodeId server);
};

/// The yellow action set: actions delivered in a transitional configuration
/// of a primary component (paper §5, Figure 3).
struct YellowRecord {
  bool valid = false;
  std::vector<ActionId> set;  ///< in transitional delivery order

  friend bool operator==(const YellowRecord&, const YellowRecord&) = default;
  void encode(BufWriter& w) const;
  static YellowRecord decode(BufReader& r);
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
  std::vector<std::pair<NodeId, std::int64_t>> red_cut;  ///< per-creator contiguous index
  /// Per-creator index covered by the green prefix (lets the exchange plan
  /// retransmit an action as green XOR red, never pointlessly both).
  std::vector<std::pair<NodeId, std::int64_t>> green_red_cut;
  std::vector<NodeId> server_set;  ///< known replica universe (§5.1)
  std::int64_t attempt_index = 0;
  PrimComponent prim;
  VulnerableRecord vulnerable;
  YellowRecord yellow;

  void encode(BufWriter& w) const;
  static StateMessage decode(BufReader& r);
};

/// CPC (Create Primary Component) message (paper §3.1 Construct state).
struct CpcMessage {
  NodeId server_id = kNoNode;
  ConfigId conf_id;
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

Bytes encode_action_msg(const Action& a);
Bytes encode_action_batch(const std::vector<Action>& actions);
std::vector<Action> decode_action_batch(BufReader& r);
Bytes encode_state_msg(const StateMessage& s);
Bytes encode_cpc_msg(const CpcMessage& c);
Bytes encode_green_retrans(std::int64_t position, const Action& a);
Bytes encode_red_retrans(const Action& a);
Bytes encode_catchup(const struct SnapshotMessage& s);

EngineMsgType peek_engine_type(const Bytes& wire);

// --- direct-channel join protocol (§5.2) -----------------------------------

enum class DirectMsgType : std::uint8_t {
  kJoinRequest = 1,   ///< joiner -> member: announce/continue my join
  kSnapshot = 2,      ///< member -> joiner: database state transfer
};

struct JoinRequest {
  NodeId joiner = kNoNode;
};

/// Database transfer to a joining replica. The joiner adopts this green
/// prefix wholesale (Theorem 2's "inherited a database state").
struct SnapshotMessage {
  Bytes db_snapshot;
  std::int64_t green_count = 0;
  std::vector<std::pair<NodeId, std::int64_t>> green_red_cut;  ///< redCut of the green prefix
  std::vector<NodeId> server_set;
  std::vector<std::pair<NodeId, std::int64_t>> green_lines;
  PrimComponent prim;
};

Bytes encode_join_request(const JoinRequest& j);
Bytes encode_snapshot(const SnapshotMessage& s);
DirectMsgType peek_direct_type(const Bytes& wire);
JoinRequest decode_join_request(BufReader& r);
SnapshotMessage decode_snapshot(BufReader& r);

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

struct MetaRecord {
  std::vector<NodeId> server_set;
  PrimComponent prim;
  std::int64_t attempt_index = 0;
  VulnerableRecord vulnerable;
  YellowRecord yellow;
  std::vector<std::pair<NodeId, std::int64_t>> green_lines;
  std::int64_t gc_counter = 0;  ///< group-communication config counter floor
};

/// Full-engine-state compaction record: everything needed to recover
/// without the replaced log prefix.
struct DbSnapshotRecord {
  Bytes db_snapshot;
  std::int64_t green_count = 0;
  std::vector<std::pair<NodeId, std::int64_t>> green_red_cut;
  MetaRecord meta;
  std::vector<Action> red_actions;      ///< red, not yet green, in local order
  std::vector<Action> ongoing_actions;  ///< own created, not yet ordered
};

Bytes encode_log_ongoing(const Action& a);
Bytes encode_log_ongoing_batch(const std::vector<Action>& actions);
Bytes encode_log_red(const Action& a);
Bytes encode_log_green(std::int64_t position, const Action& a);
/// Pre-encoded-body variants producing byte-identical records. The engine
/// persists a red and a green record for the same action back to back on
/// the hot path; encoding the action once and splicing it into both
/// records halves the serialization work.
Bytes encode_action_body(const Action& a);
Bytes encode_log_red(const Bytes& body);
Bytes encode_log_green(std::int64_t position, const Bytes& body);
Bytes encode_log_meta(const MetaRecord& m);
Bytes encode_log_db_snapshot(const DbSnapshotRecord& s);
DbSnapshotRecord decode_db_snapshot(BufReader& r);

LogRecordType peek_log_type(const Bytes& record);
MetaRecord decode_meta(BufReader& r);

void encode_pairs(BufWriter& w, const std::vector<std::pair<NodeId, std::int64_t>>& v);
std::vector<std::pair<NodeId, std::int64_t>> decode_pairs(BufReader& r);

}  // namespace tordb::core
