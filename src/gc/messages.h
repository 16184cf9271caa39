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
constexpr WireRange<MsgType> wire_range(MsgType) { return {MsgType::kData, MsgType::kInstall}; }

/// Identifies one membership-gathering attempt: (coordinator, attempt seq).
/// Smaller coordinator id wins contention; larger seq supersedes for the
/// same coordinator.
struct GatherToken {
  NodeId coordinator = kNoNode;
  std::int64_t seq = 0;

  friend bool operator==(const GatherToken&, const GatherToken&) = default;
  template <class S, class Io>
  static void layout(S& s, Io& io) {
    io(s.coordinator, s.seq);
  }
};

// Every message is its type byte, kType, followed by its layout; encode()
// below frames any of them. A payload is a ByteView: the sender frames the
// bytes it holds and a receiver slices the wire it received, no copy.

struct DataMsg {
  static constexpr MsgType kType = MsgType::kData;
  ConfigId config;
  NodeId origin = kNoNode;
  std::int64_t local_seq = 0;  ///< per-sender FIFO sequence (diagnostic)
  Service service = Service::kAgreed;
  ByteView payload;

  template <class S, class Io>
  static void layout(S& s, Io& io) {
    io(s.config, s.origin, s.local_seq, s.service, s.payload);
  }
};

struct OrderedMsg {
  static constexpr MsgType kType = MsgType::kOrdered;
  ConfigId config;
  std::int64_t seq = 0;  ///< global total-order position within config
  NodeId origin = kNoNode;
  std::int64_t origin_local_seq = 0;  ///< sender's FIFO seq, for resend dedup
  Service service = Service::kAgreed;
  ByteView payload;

  template <class S, class Io>
  static void layout(S& s, Io& io) {
    io(s.config, s.seq, s.origin, s.origin_local_seq, s.service, s.payload);
  }
};

struct AckMsg {
  static constexpr MsgType kType = MsgType::kAck;
  ConfigId config;
  /// From a clique mate: the highest contiguous seq it received. From
  /// another clique's leader: the minimum of that over its clique.
  std::int64_t recv_contig = 0;
  /// Knowledge word (DESIGN.md §14), with the same two readings: a clique
  /// mate's own word, or the minimum word over the leader's clique.
  std::int64_t knowledge = 0;

  template <class S, class Io>
  static void layout(S& s, Io& io) {
    io(s.config, s.recv_contig, s.knowledge);
  }
};

struct StableMsg {
  static constexpr MsgType kType = MsgType::kStable;
  ConfigId config;
  std::int64_t safe_line = 0;  ///< every member of the group received up to here
  std::int64_t knowledge = 0;  ///< minimum knowledge word over the whole group

  template <class S, class Io>
  static void layout(S& s, Io& io) {
    io(s.config, s.safe_line, s.knowledge);
  }
};

struct InquireMsg {
  static constexpr MsgType kType = MsgType::kInquire;
  GatherToken token;
  std::vector<NodeId> proposed;  ///< reachable set the coordinator saw

  template <class S, class Io>
  static void layout(S& s, Io& io) {
    io(s.token, s.proposed);
  }
};

struct JoinInfoMsg {
  static constexpr MsgType kType = MsgType::kJoinInfo;
  GatherToken token;
  ConfigId old_config;
  std::vector<NodeId> old_members;
  std::int64_t recv_contig = 0;
  std::int64_t delivered_upto = 0;
  /// Highest contiguous seq this node knows each old member received
  /// (aligned with old_members). Used to compute the flush safe line.
  std::vector<std::int64_t> known_contig;
  std::int64_t max_config_counter = 0;  ///< for new-config id uniqueness

  template <class S, class Io>
  static void layout(S& s, Io& io) {
    io(s.token, s.old_config, s.old_members, s.recv_contig, s.delivered_upto, s.known_contig,
       s.max_config_counter);
  }
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

  template <class S, class Io>
  static void layout(S& s, Io& io) {
    io(s.old_config, s.old_members, s.participants, s.participant_contig, s.safe_line,
       s.target_seq, s.retransmitter);
  }
};

struct PlanMsg {
  static constexpr MsgType kType = MsgType::kPlan;
  GatherToken token;
  ConfigId new_config;
  std::vector<NodeId> new_members;
  std::vector<PlanEntry> entries;

  template <class S, class Io>
  static void layout(S& s, Io& io) {
    io(s.token, s.new_config, s.new_members, s.entries);
  }
};

struct RetransMsg {
  static constexpr MsgType kType = MsgType::kRetrans;
  GatherToken token;
  OrderedMsg message;

  template <class S, class Io>
  static void layout(S& s, Io& io) {
    io(s.token, s.message);
  }
};

struct PlanAckMsg {
  static constexpr MsgType kType = MsgType::kPlanAck;
  GatherToken token;

  template <class S, class Io>
  static void layout(S& s, Io& io) {
    io(s.token);
  }
};

struct InstallMsg {
  static constexpr MsgType kType = MsgType::kInstall;
  GatherToken token;

  template <class S, class Io>
  static void layout(S& s, Io& io) {
    io(s.token);
  }
};

/// [M::kType][M's layout]. GroupCommunication::on_packet is the decoder: it
/// reads the type byte and then the same layout.
template <class M>
Bytes encode(const M& m) {
  return frame(M::kType, m);
}

}  // namespace tordb::gc
