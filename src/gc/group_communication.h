// Extended Virtual Synchrony group communication over the simulated
// partitionable network — the role the Spread toolkit plays in the paper.
//
// Architecture (one instance per node):
//
//   data path     : senders forward payloads to the configuration's
//                   *sequencer* (lowest member id), which assigns the global
//                   sequence and multicasts ORDERED messages. A message is
//                   delivered *safe* once every member is known to hold it.
//   stability     : two levels. The sorted members form *cliques* of
//                   kClique consecutive ids, the last one also taking the
//                   remainder; members multicast coalesced ACKs of their
//                   contiguous prefix to their clique mates only. Each
//                   clique's first member, its *leader*, sends the clique
//                   minimum to the other leaders (as an ACK) and the
//                   resulting group-wide safe line to its clique mates
//                   (STABLE); the whole clique, leader included, delivers up
//                   to the line so published. A group of fewer than
//                   2 * kClique members is one clique: plain all-to-all
//                   ACKs, no leader tier. At 48 members a member receives 8
//                   stability messages per ack interval (a leader 12)
//                   instead of 47. The flush works on lower bounds:
//                   JOIN_INFO reports, per old member, the best of its
//                   direct ACK, its leader's clique minimum and the stable
//                   line (DESIGN.md §16).
//   knowledge     : every stability message also carries a monotone
//     words         per-member *knowledge word* the application sets (the
//                   engine's green count): a member ACK its own word, a
//                   leader's ACK its clique's minimum word, STABLE the
//                   group's minimum word. Words ride sends the prefixes
//                   cause anyway; one a send has not carried goes out alone
//                   only after a lazy flush period (DESIGN.md §14).
//   membership    : on any reachability change a flush protocol runs: the
//     (flush)       lowest reachable node INQUIREs, members reply JOIN_INFO
//                   (what they hold and what they know others received), the
//                   coordinator computes a PLAN (per old configuration: who
//                   continues together, the safe line, the retransmission
//                   target), holders RETRANSmit so all continuing members
//                   hold the same prefix, and after PLAN_ACKs the
//                   coordinator INSTALLs. Each member then delivers, in EVS
//                   order: remaining safe messages (safe-in-regular, up to
//                   the safe line), the transitional configuration, the
//                   left-over messages (transitional delivery), and the new
//                   regular configuration.
//
// Guarantees provided (property-tested in tests/gc_*):
//   self delivery, FIFO per sender, agreed (total) order per configuration,
//   virtual synchrony, and EVS safe-delivery trichotomy: for any safe
//   message it is impossible that one member delivered it safe-in-regular
//   while another member of the same configuration never delivers it
//   (unless that member crashes).
//
// Undelivered local multicasts are retained and automatically re-sent in
// the next configuration, so a payload handed to `multicast` is eventually
// ordered somewhere as long as its node stays up (the replication engine's
// redCut de-duplicates cross-component reorderings).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "gc/messages.h"
#include "gc/types.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace tordb::gc {

// Stability pacing (DESIGN.md §16) and flush timers.
inline constexpr SimDuration kAckCoalesce = micros(150);   ///< delay before sending an ack
inline constexpr SimDuration kAckMinInterval = millis(3);  ///< ack rate limit under load
inline constexpr SimDuration kGatherRetry = millis(12);    ///< coordinator re-INQUIRE period
inline constexpr SimDuration kStuckTimeout = millis(60);   ///< member watchdog during flush

struct GcParams {
  /// Observability handle (disconnected by default — zero cost). Emits
  /// kSafeDeliver, kViewRegular, and kViewTransitional events.
  obs::Tracer tracer;
};

struct GcStats {
  std::uint64_t messages_ordered = 0;    ///< ORDERED assigned (sequencer role)
  std::uint64_t deliveries = 0;
  std::uint64_t safe_deliveries = 0;
  std::uint64_t transitional_deliveries = 0;
  std::uint64_t regular_configs = 0;
  std::uint64_t transitional_configs = 0;
  std::uint64_t gathers_started = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t resent_after_install = 0;
  std::uint64_t stability_received = 0;  ///< ACK and STABLE messages received
  std::uint64_t word_only_sends = 0;     ///< lazy flushes of a knowledge word alone
};

class GroupCommunication {
 public:
  /// `initial_config_counter` seeds configuration-id uniqueness across
  /// recoveries of the same node (the node harness persists it).
  GroupCommunication(Network& net, NodeId id, Listener listener,
                     std::int64_t initial_config_counter = 0, GcParams params = {});
  ~GroupCommunication();

  GroupCommunication(const GroupCommunication&) = delete;
  GroupCommunication& operator=(const GroupCommunication&) = delete;

  /// Multicast `payload` to the current configuration with the requested
  /// service. May be called at any time; while the membership protocol runs
  /// the message is queued and sent in the next configuration.
  void multicast(Bytes payload, Service service);

  NodeId id() const { return id_; }
  const Configuration& config() const { return config_; }
  bool operational() const { return state_ == GcState::kOperational; }
  /// Highest configuration counter this instance has seen (persist across
  /// recoveries and feed back as initial_config_counter).
  std::int64_t max_counter_seen() const { return counter_floor_; }
  const GcStats& stats() const { return stats_; }

  /// Knowledge words (DESIGN.md §14). Raise this member's word; a lower
  /// value is ignored. No send is armed: the word rides the next stability
  /// send, or a lazy flush if none comes.
  void set_knowledge(std::int64_t word);
  /// A lower bound on the word of every member of the current configuration.
  std::int64_t knowledge_floor() const { return word_floor_; }
  /// The best lower bound on member `m`'s word; 0 for a non-member.
  std::int64_t knowledge_of(NodeId m) const;

 private:
  enum class GcState { kOperational, kGathering };

  /// One slot of the ORDERED delivery buffer. The payload is held as a
  /// (shared wire buffer, offset, length) slice: all members of a multicast
  /// share one refcounted wire, so buffering a message costs a refcount
  /// bump instead of a per-member deep copy of the payload.
  struct BufferedMsg {
    NodeId origin = kNoNode;
    std::int64_t origin_local_seq = 0;
    Service service = Service::kAgreed;
    std::shared_ptr<const SharedWire> buf;
    std::uint32_t payload_off = 0;
    std::uint32_t payload_len = 0;

    const std::uint8_t* payload_data() const { return buf->data() + payload_off; }
    std::size_t payload_size() const { return payload_len; }
  };

  struct OutEntry {
    std::int64_t local_seq = 0;
    Service service = Service::kAgreed;
    Bytes payload;
  };

  // --- wiring ---------------------------------------------------------
  void on_packet(NodeId from, const std::shared_ptr<const SharedWire>& wire);
  void on_reachability(const std::vector<NodeId>& reachable);
  /// Schedule `fn` guarded by this instance's liveness. A forwarding
  /// template so the closure lands inline in the simulator's SmallFn slot
  /// instead of bouncing through a heap-allocated std::function.
  template <typename F>
  void schedule(SimDuration delay, F&& fn) {
    sim_.after(delay, [alive = alive_, fn = std::forward<F>(fn)]() mutable {
      if (*alive) fn();
    });
  }
  void send_to(NodeId to, Bytes wire);
  void send_all(const std::vector<NodeId>& to, Bytes wire);

  // --- data path ------------------------------------------------------
  void handle_data(NodeId from, BufReader& r);
  void handle_ordered(BufReader& r, const std::shared_ptr<const SharedWire>& wire);
  void handle_ack(NodeId from, const AckMsg& msg);
  void handle_stable(const StableMsg& msg);
  void store_ordered(OrderedMsg&& msg);
  void store_buffered(std::int64_t seq, BufferedMsg&& m);
  void try_deliver();
  void deliver_one(std::int64_t seq, DeliveryKind kind);
  void emit_config(const Configuration& c);
  /// One member's (or clique's) stability report: prefix and knowledge word.
  struct Line {
    std::int64_t contig = 0;
    std::int64_t word = 0;
  };
  Line clique_min() const;
  /// Leaders: min of the own clique's minimum and the other leaders' reports.
  Line group_line() const;
  std::int64_t safe_line() const;
  void after_contig_advance();
  /// The three stability streams a member may send, each paced on its own.
  enum class Stream : std::uint8_t {
    kAck,        ///< own contiguous prefix to the clique mates
    kCliqueMin,  ///< leader: clique minimum to the other leaders
    kStable,     ///< leader: group-wide safe line to the clique mates
  };
  void schedule_stream(Stream stream);
  /// Send `stream`'s value if it moved since its last send, or, for a
  /// `word_only` flush, if its word did; false if nothing was sent.
  bool send_stream(Stream stream, bool word_only = false);
  /// The knowledge word `stream` carries.
  std::int64_t stream_word(Stream stream) const;
  /// Arm `stream`'s lazy flush if its word moved past what it last carried.
  void note_word(Stream stream);
  /// A received word rose: refresh the floor and tell the listener.
  void on_word_rise();
  void refresh_floor();
  /// Multi-clique leaders: arm the clique-minimum and stable streams.
  void schedule_leader();
  /// A leader stream's value moved past what it last sent.
  bool leader_value_moved(Stream stream) const;
  void reset_stability();
  /// Clique index of config member `m`, or -1 when `m` is not a member.
  int clique_of(NodeId m) const;
  /// Clique index of the member at sorted position `pos`.
  std::size_t clique_at(std::size_t pos) const { return std::min(pos / kClique, cliques() - 1); }
  bool is_leader() const { return config_.members[clique_lo_] == id_; }
  /// floor(n / kClique) cliques, at least one; the last also takes the
  /// remainder, so every clique has kClique to 2 * kClique - 1 members.
  std::size_t cliques() const {
    return std::max<std::size_t>(1, config_.members.size() / kClique);
  }
  bool multi_clique() const { return cliques() > 1; }
  void send_data(const OutEntry& entry);
  bool is_sequencer() const { return !config_.members.empty() && config_.members.front() == id_; }

  // --- membership (flush) ----------------------------------------------
  void start_gather(const std::vector<NodeId>& reachable);
  void handle_inquire(NodeId from, const InquireMsg& msg);
  void handle_join_info(NodeId from, const JoinInfoMsg& msg);
  void handle_plan(const PlanMsg& msg);
  void handle_retrans(const RetransMsg& msg);
  void handle_plan_ack(NodeId from, const PlanAckMsg& msg);
  void handle_install(const InstallMsg& msg);
  void coordinator_maybe_plan();
  void coordinator_maybe_install();
  void member_check_plan_ack();
  void run_install();
  void touch_progress();
  void arm_stuck_timer();
  void arm_retry_timer();
  JoinInfoMsg make_join_info(const GatherToken& token) const;
  const PlanEntry* my_plan_entry() const;

  Network& net_;
  Simulator& sim_;
  NodeId id_;
  Listener listener_;
  GcParams params_;
  std::shared_ptr<bool> alive_;

  // Current regular configuration and data-path state.
  Configuration config_;
  GcState state_ = GcState::kOperational;
  std::int64_t global_seq_ = 0;    ///< sequencer: last assigned
  std::int64_t recv_contig_ = 0;   ///< highest contiguous ORDERED received
  std::int64_t delivered_upto_ = 0;
  /// Seq-indexed ring over the ORDERED stream: slot i holds sequence
  /// `buffer_base_ + i`, gaps flagged by origin == kNoNode. Sequences are
  /// assigned densely by the sequencer, so O(1) indexing replaces the
  /// per-message node allocation and rebalancing a std::map paid on every
  /// store, lookup and prune of the data path.
  std::deque<BufferedMsg> buffer_;
  std::int64_t buffer_base_ = 0;  ///< seq of buffer_[0]; meaningless when empty
  BufferedMsg* buffered(std::int64_t seq);  ///< slot for seq, or nullptr
  void buffer_put(std::int64_t seq, BufferedMsg m);
  /// Clique size of the stability tier. K + n/K receipts per member are
  /// fewest near K = sqrt(n), which is 8 for groups of up to 64 members.
  /// Groups below 2K stay one clique: a second, smaller clique would save
  /// few receipts and cost every safe delivery two more paced hops.
  static constexpr std::size_t kClique = 8;
  /// A word no send has carried goes out alone after this many
  /// kAckMinInterval periods, unless the stream sent a prefix meanwhile.
  static constexpr int kWordFlushIntervals = 16;
  /// Own clique: config_.members[clique_lo_, clique_lo_ + known_.size()).
  std::size_t clique_lo_ = 0;
  /// Direct ack knowledge of the own clique's members, sorted by member id.
  /// Flat storage: probed on every ack and scanned by clique_min().
  std::vector<std::pair<NodeId, Line>> known_;
  const Line* known_slot(NodeId m) const;  ///< report of m, or nullptr
  Line* known_slot(NodeId m) {
    return const_cast<Line*>(std::as_const(*this).known_slot(m));
  }
  /// Leaders only: the clique minimum each other clique's leader reported,
  /// by clique index (the own clique's slot is pinned to the maximum).
  std::vector<Line> leader_mins_;
  /// Multi-clique groups: the group-wide safe line as the own leader last
  /// published it on the stable stream (a leader records its own sends),
  /// and at its clique mates the group-wide minimum word.
  Line stable_;
  std::int64_t counter_floor_ = 0;
  std::int64_t word_ = 0;        ///< own knowledge word
  std::int64_t word_floor_ = 0;  ///< knowledge_floor()

  // Stability pacing: a stream fires kAckCoalesce after the change that
  // armed it, and at most once per kAckMinInterval — except that a leader
  // stream realigns once behind an input that just missed its send.
  struct Pacer {
    bool scheduled = false;
    bool flush_armed = false;  ///< lazy word flush pending
    bool realigned = false;    ///< the last send was a realignment
    SimTime due = 0;           ///< fire time of the pending send
    SimTime last_sent = -1'000'000'000;
    std::int64_t word_sent = 0;  ///< word the stream last carried
  };
  std::array<Pacer, 3> pacers_;  ///< indexed by Stream
  std::int64_t last_acked_value_ = -1;
  std::int64_t last_min_sent_ = 0;     ///< leader: clique minimum to leaders

  // Local multicasts not yet self-delivered (resent on config change).
  std::deque<OutEntry> outbox_;
  std::int64_t next_local_seq_ = 0;

  // Gather (flush) state.
  std::vector<NodeId> last_reachable_;
  std::int64_t gather_seq_ = 0;
  std::optional<GatherToken> committed_;
  // coordinator side
  std::optional<GatherToken> my_token_;
  std::vector<NodeId> my_proposed_;
  std::map<NodeId, JoinInfoMsg> infos_;
  std::map<NodeId, bool> plan_acks_;
  std::optional<PlanMsg> built_plan_;
  bool install_sent_ = false;
  // member side
  std::optional<PlanMsg> plan_;
  bool plan_acked_ = false;
  SimTime last_progress_ = 0;

  GcStats stats_;
};

}  // namespace tordb::gc
