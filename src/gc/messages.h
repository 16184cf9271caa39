// Wire messages of the group-communication protocol.
//
// Data path: DATA (sender -> sequencer), ORDERED (sequencer -> members),
// ACK (member -> its clique mates, and clique leader -> the other leaders),
// STABLE (clique leader -> its clique mates).
//
// Membership path (flush protocol): INQUIRE (coordinator -> members),
// JOIN_INFO (member -> coordinator), PLAN (coordinator -> members),
// RETRANS (designated holder -> members missing messages), PLAN_ACK
// (member -> coordinator), INSTALL (coordinator -> members).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "gc/types.h"
#include "util/serde.h"
#include "util/types.h"

namespace tordb::gc {

enum class MsgType : std::uint8_t {
  kData = 1,
  kOrdered = 2,
  kAck = 3,
  kStable = 4,
  kInquire = 5,
  kJoinInfo = 6,
  kPlan = 7,
  kRetrans = 8,
  kPlanAck = 9,
  kInstall = 10,
};

/// Identifies one membership-gathering attempt: (coordinator, attempt seq).
/// Smaller coordinator id wins contention; larger seq supersedes for the
/// same coordinator.
struct GatherToken {
  NodeId coordinator = kNoNode;
  std::int64_t seq = 0;

  friend bool operator==(const GatherToken&, const GatherToken&) = default;
};

struct DataMsg {
  ConfigId config;
  NodeId origin = kNoNode;
  std::int64_t local_seq = 0;  ///< per-sender FIFO sequence (diagnostic)
  Service service = Service::kAgreed;
  Bytes payload;
};

struct OrderedMsg {
  ConfigId config;
  std::int64_t seq = 0;  ///< global total-order position within config
  NodeId origin = kNoNode;
  std::int64_t origin_local_seq = 0;  ///< sender's FIFO seq, for resend dedup
  Service service = Service::kAgreed;
  Bytes payload;
};

struct AckMsg {
  ConfigId config;
  /// From a clique mate: the highest contiguous seq it received. From
  /// another clique's leader: the minimum of that over its clique.
  std::int64_t recv_contig = 0;
  /// Knowledge word (DESIGN.md §14), with the same two readings: a clique
  /// mate's own word, or the minimum word over the leader's clique.
  std::int64_t knowledge = 0;
};

struct StableMsg {
  ConfigId config;
  std::int64_t safe_line = 0;  ///< every member of the group received up to here
  std::int64_t knowledge = 0;  ///< minimum knowledge word over the whole group
};

struct InquireMsg {
  GatherToken token;
  std::vector<NodeId> proposed;  ///< reachable set the coordinator saw
};

struct JoinInfoMsg {
  GatherToken token;
  ConfigId old_config;
  std::vector<NodeId> old_members;
  std::int64_t recv_contig = 0;
  std::int64_t delivered_upto = 0;
  /// Highest contiguous seq this node knows each old member received
  /// (aligned with old_members). Used to compute the flush safe line.
  std::vector<std::int64_t> known_contig;
  std::int64_t max_config_counter = 0;  ///< for new-config id uniqueness
};

/// Flush plan for one old regular configuration.
struct PlanEntry {
  ConfigId old_config;
  std::vector<NodeId> old_members;
  std::vector<NodeId> participants;             ///< old members continuing together
  std::vector<std::int64_t> participant_contig; ///< aligned with participants
  std::int64_t safe_line = 0;   ///< known received by ALL old members
  std::int64_t target_seq = 0;  ///< max held by any participant
  NodeId retransmitter = kNoNode;
};

struct PlanMsg {
  GatherToken token;
  ConfigId new_config;
  std::vector<NodeId> new_members;
  std::vector<PlanEntry> entries;
};

struct RetransMsg {
  GatherToken token;
  OrderedMsg message;
};

struct PlanAckMsg {
  GatherToken token;
};

struct InstallMsg {
  GatherToken token;
};

/// Encode/decode a tagged union of all message types.
Bytes encode_message(MsgType type, const std::function<void(BufWriter&)>& body);

Bytes encode(const DataMsg&);
Bytes encode(const OrderedMsg&);
Bytes encode(const AckMsg&);
Bytes encode(const StableMsg&);
Bytes encode(const InquireMsg&);
Bytes encode(const JoinInfoMsg&);
Bytes encode(const PlanMsg&);
Bytes encode(const RetransMsg&);
Bytes encode(const PlanAckMsg&);
Bytes encode(const InstallMsg&);

MsgType peek_type(const Bytes& wire);

DataMsg decode_data(BufReader&);
OrderedMsg decode_ordered(BufReader&);
AckMsg decode_ack(BufReader&);
StableMsg decode_stable(BufReader&);
InquireMsg decode_inquire(BufReader&);
JoinInfoMsg decode_join_info(BufReader&);
PlanMsg decode_plan(BufReader&);
RetransMsg decode_retrans(BufReader&);
PlanAckMsg decode_plan_ack(BufReader&);
InstallMsg decode_install(BufReader&);

}  // namespace tordb::gc
