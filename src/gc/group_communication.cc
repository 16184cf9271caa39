#include "gc/group_communication.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "util/log.h"

namespace tordb::gc {

namespace {
bool contains(const std::vector<NodeId>& v, NodeId n) {
  return std::find(v.begin(), v.end(), n) != v.end();
}
}  // namespace

bool Configuration::contains(NodeId n) const { return tordb::gc::contains(members, n); }

std::string Configuration::to_string() const {
  std::string s = (transitional ? "trans" : "reg") + std::string("{") + tordb::to_string(id) + " [";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(members[i]);
  }
  return s + "]}";
}

GroupCommunication::GroupCommunication(Network& net, NodeId id, Listener listener,
                                       std::int64_t initial_config_counter, obs::Tracer tracer)
    : net_(net),
      sim_(net.sim()),
      id_(id),
      listener_(std::move(listener)),
      tracer_(std::move(tracer)),
      alive_(std::make_shared<bool>(true)),
      counter_floor_(initial_config_counter) {
  config_.id = ConfigId{initial_config_counter, id_};
  config_.members = {id_};
  reset_stability();

  // The shared handler hands over the refcounted wire buffer, letting the
  // delivery buffer retain ORDERED payloads without a per-member deep copy.
  net_.set_shared_packet_handler(
      id_, [this](NodeId from, const std::shared_ptr<const SharedWire>& wire) {
        on_packet(from, wire);
      });
  // Deliver the initial singleton configuration before anything else runs.
  schedule(0, [this] {
    ++stats_.regular_configs;
    emit_config(config_);
    if (listener_.on_regular_config) listener_.on_regular_config(config_);
  });
  net_.set_reachability_handler(
      id_, [this](const std::vector<NodeId>& reachable) { on_reachability(reachable); });
}

GroupCommunication::~GroupCommunication() {
  *alive_ = false;
  net_.clear_packet_handler(id_, Channel::kGc);
  net_.clear_reachability_handler(id_);
}

void GroupCommunication::send_to(NodeId to, Bytes wire) {
  net_.send(id_, to, std::move(wire));
}

void GroupCommunication::send_all(const std::vector<NodeId>& to, Bytes wire) {
  net_.multicast(id_, to, std::move(wire));
}

void GroupCommunication::multicast(Bytes payload, Service service) {
  outbox_.push_back(OutEntry{++next_local_seq_, service, std::move(payload)});
  if (state_ == GcState::kOperational) send_data(outbox_.back());
}

void GroupCommunication::send_data(const OutEntry& entry) {
  // Frame the DATA wire directly from the outbox entry — byte-identical to
  // encode(DataMsg{...}) without staging the payload in a message struct.
  BufWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kData));
  w.config_id(config_.id);
  w.i32(id_);
  w.i64(entry.local_seq);
  w.u8(static_cast<std::uint8_t>(entry.service));
  w.bytes(entry.payload);
  send_to(config_.members.front(), w.take());
}

void GroupCommunication::on_packet(NodeId from, const std::shared_ptr<const SharedWire>& wire) {
  BufReader r(wire->bytes());
  const auto type = static_cast<MsgType>(r.u8());
  switch (type) {
    case MsgType::kData: handle_data(from, r); break;
    case MsgType::kOrdered: handle_ordered(r, wire); break;
    case MsgType::kAck: handle_ack(from, decode_ack(r)); break;
    case MsgType::kStable: handle_stable(decode_stable(r)); break;
    case MsgType::kInquire: handle_inquire(from, decode_inquire(r)); break;
    case MsgType::kJoinInfo: handle_join_info(from, decode_join_info(r)); break;
    case MsgType::kPlan: handle_plan(decode_plan(r)); break;
    case MsgType::kRetrans: handle_retrans(decode_retrans(r)); break;
    case MsgType::kPlanAck: handle_plan_ack(from, decode_plan_ack(r)); break;
    case MsgType::kInstall: handle_install(decode_install(r)); break;
  }
}

// --------------------------------------------------------------------------
// Data path
// --------------------------------------------------------------------------

void GroupCommunication::handle_data(NodeId from, BufReader& r) {
  (void)from;
  // Decode the DATA header in place and, when sequencing, re-frame the
  // payload bytes straight from the incoming wire into the ORDERED wire
  // (same layout as encode(OrderedMsg{...})) — the payload is never
  // materialized as a standalone buffer on this path.
  const ConfigId config = r.config_id();
  const NodeId origin = r.i32();
  const std::int64_t local_seq = r.i64();
  const auto service = static_cast<Service>(r.u8());
  if (state_ != GcState::kOperational || config != config_.id) return;  // sender resends
  if (!is_sequencer()) return;
  const auto [payload, payload_len] = r.bytes_view();
  BufWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kOrdered));
  w.config_id(config_.id);
  w.i64(++global_seq_);
  w.i32(origin);
  w.i64(local_seq);
  w.u8(static_cast<std::uint8_t>(service));
  w.bytes_view(payload, payload_len);
  ++stats_.messages_ordered;
  send_all(config_.members, w.take());
}

void GroupCommunication::handle_ordered(BufReader& r,
                                        const std::shared_ptr<const SharedWire>& wire) {
  // Decode the ORDERED header in place (same layout as decode_ordered) and
  // buffer the payload as a slice of the shared wire — every recipient of
  // the multicast holds the same refcounted buffer, zero deep copies.
  const ConfigId config = r.config_id();
  const std::int64_t seq = r.i64();
  const NodeId origin = r.i32();
  const std::int64_t origin_local_seq = r.i64();
  const auto service = static_cast<Service>(r.u8());
  if (state_ != GcState::kOperational || config != config_.id) return;
  const auto [payload, payload_len] = r.bytes_view();
  const auto off = static_cast<std::uint32_t>(payload - wire->data());
  store_buffered(seq, BufferedMsg{origin, origin_local_seq, service, wire, off,
                                  static_cast<std::uint32_t>(payload_len)});
}

GroupCommunication::BufferedMsg* GroupCommunication::buffered(std::int64_t seq) {
  if (buffer_.empty() || seq < buffer_base_ ||
      seq >= buffer_base_ + static_cast<std::int64_t>(buffer_.size())) {
    return nullptr;
  }
  BufferedMsg& m = buffer_[static_cast<std::size_t>(seq - buffer_base_)];
  return m.origin == kNoNode ? nullptr : &m;
}

void GroupCommunication::buffer_put(std::int64_t seq, BufferedMsg m) {
  if (buffer_.empty()) {
    buffer_base_ = seq;
    buffer_.push_back(std::move(m));
    return;
  }
  while (seq < buffer_base_) {
    buffer_.push_front(BufferedMsg{});
    --buffer_base_;
  }
  while (seq >= buffer_base_ + static_cast<std::int64_t>(buffer_.size())) {
    buffer_.emplace_back();
  }
  buffer_[static_cast<std::size_t>(seq - buffer_base_)] = std::move(m);
}

void GroupCommunication::store_ordered(OrderedMsg&& msg) {
  // Retransmission path: the payload arrives as an owned Bytes; wrap it so
  // it fits the shared-buffer slot format (offset 0, full length).
  auto buf = std::make_shared<const SharedWire>(std::move(msg.payload));
  const auto len = static_cast<std::uint32_t>(buf->size());
  store_buffered(msg.seq, BufferedMsg{msg.origin, msg.origin_local_seq, msg.service,
                                      std::move(buf), 0, len});
}

void GroupCommunication::store_buffered(std::int64_t seq, BufferedMsg&& m) {
  if (seq <= delivered_upto_ || buffered(seq)) return;
  if (seq <= recv_contig_) {
    // Already pruned as stable; duplicate retransmission.
    return;
  }
  buffer_put(seq, std::move(m));
  bool advanced = false;
  while (buffered(recv_contig_ + 1)) {
    ++recv_contig_;
    advanced = true;
  }
  if (advanced) after_contig_advance();
}

const GroupCommunication::Line* GroupCommunication::known_slot(NodeId m) const {
  auto it = std::lower_bound(known_.begin(), known_.end(), m,
                             [](const std::pair<NodeId, Line>& p, NodeId n) { return p.first < n; });
  return (it != known_.end() && it->first == m) ? &it->second : nullptr;
}

int GroupCommunication::clique_of(NodeId m) const {
  const auto it = std::lower_bound(config_.members.begin(), config_.members.end(), m);
  if (it == config_.members.end() || *it != m) return -1;
  return static_cast<int>(clique_at(static_cast<std::size_t>(it - config_.members.begin())));
}

GroupCommunication::Line GroupCommunication::clique_min() const {
  Line line{recv_contig_, word_};
  for (const auto& [m, v] : known_) {
    line.contig = std::min(line.contig, v.contig);
    line.word = std::min(line.word, v.word);
  }
  return line;
}

GroupCommunication::Line GroupCommunication::group_line() const {
  Line line = clique_min();
  for (const Line& v : leader_mins_) {
    line.contig = std::min(line.contig, v.contig);
    line.word = std::min(line.word, v.word);
  }
  return line;
}

std::int64_t GroupCommunication::safe_line() const {
  return multi_clique() ? stable_.contig : clique_min().contig;
}

void GroupCommunication::reset_stability() {
  const std::size_t n = config_.members.size();
  const auto pos = static_cast<std::size_t>(
      std::lower_bound(config_.members.begin(), config_.members.end(), id_) -
      config_.members.begin());
  const std::size_t clique = clique_at(pos);
  clique_lo_ = clique * kClique;
  const std::size_t hi = clique + 1 == cliques() ? n : clique_lo_ + kClique;
  known_.clear();
  for (std::size_t i = clique_lo_; i < hi; ++i) known_.emplace_back(config_.members[i], Line{});
  // Words are per-member facts, not per-configuration: the own one stays.
  if (Line* self = known_slot(id_)) self->word = word_;
  leader_mins_.clear();
  if (multi_clique() && is_leader()) {
    leader_mins_.assign(cliques(), Line{});
    // The own clique's minimum comes from direct acks; its slot never binds.
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    leader_mins_[clique] = Line{kMax, kMax};
  }
  stable_ = Line{};
  last_acked_value_ = -1;
  last_min_sent_ = 0;
  for (Pacer& p : pacers_) p.word_sent = 0;
  word_floor_ = 0;
  refresh_floor();
}

void GroupCommunication::set_knowledge(std::int64_t word) {
  if (word <= word_) return;
  word_ = word;
  if (Line* self = known_slot(id_)) self->word = word;
  refresh_floor();
  note_word(Stream::kAck);
  if (multi_clique() && is_leader()) {
    note_word(Stream::kCliqueMin);
    note_word(Stream::kStable);
  }
}

std::int64_t GroupCommunication::knowledge_of(NodeId m) const {
  if (m == id_) return word_;
  const int c = clique_of(m);
  if (c < 0) return 0;
  std::int64_t v = word_floor_;
  if (const Line* mate = known_slot(m)) {
    v = std::max(v, mate->word);
  } else if (!leader_mins_.empty()) {
    v = std::max(v, leader_mins_[static_cast<std::size_t>(c)].word);
  }
  return v;
}

void GroupCommunication::refresh_floor() {
  // A single clique sees every word directly; a multi-clique leader folds
  // in the other leaders' clique minimums; its clique mates learn the
  // group minimum from the stable stream.
  const std::int64_t floor = !multi_clique() ? clique_min().word
                             : is_leader()   ? group_line().word
                                             : stable_.word;
  word_floor_ = std::max(word_floor_, floor);
}

std::int64_t GroupCommunication::stream_word(Stream stream) const {
  switch (stream) {
    case Stream::kAck: return word_;
    case Stream::kCliqueMin: return clique_min().word;
    case Stream::kStable: return group_line().word;
  }
  return 0;
}

void GroupCommunication::note_word(Stream stream) {
  Pacer& p = pacers_[static_cast<std::size_t>(stream)];
  if (p.flush_armed || state_ != GcState::kOperational || config_.members.size() < 2) return;
  if (stream_word(stream) <= p.word_sent) return;
  p.flush_armed = true;
  const ConfigId cfg = config_.id;
  const SimTime armed_at = sim_.now();
  schedule(kWordFlushIntervals * kAckMinInterval, [this, cfg, stream, armed_at] {
    Pacer& q = pacers_[static_cast<std::size_t>(stream)];
    q.flush_armed = false;
    if (state_ != GcState::kOperational || !(config_.id == cfg)) return;
    if (stream_word(stream) <= q.word_sent) return;  // a prefix send carried it
    if (q.scheduled || q.last_sent > armed_at) {
      note_word(stream);  // the stream is busy: the next prefix send carries it
      return;
    }
    // Quiescent: send the word alone. It does not take the stream's
    // ack_min_interval slot, so a prefix that moves next is not delayed.
    if (send_stream(stream, /*word_only=*/true)) ++stats_.word_only_sends;
  });
}

void GroupCommunication::after_contig_advance() {
  if (Line* self = known_slot(id_)) self->contig = recv_contig_;
  if (config_.members.size() > 1) schedule_stream(Stream::kAck);
  schedule_leader();
  try_deliver();
}

void GroupCommunication::try_deliver() {
  if (state_ != GcState::kOperational) return;
  const std::int64_t safe = safe_line();
  while (true) {
    const std::int64_t next = delivered_upto_ + 1;
    BufferedMsg* m = buffered(next);
    if (m == nullptr || next > recv_contig_) break;
    if (m->service == Service::kSafe && next > safe) break;
    deliver_one(next, m->service == Service::kSafe ? DeliveryKind::kSafeInRegular
                                                   : DeliveryKind::kAgreed);
  }
  // Prune messages that are both delivered here and received by everyone:
  // no member can ever need them retransmitted.
  const std::int64_t prune = std::min(safe, delivered_upto_);
  while (!buffer_.empty() && buffer_base_ <= prune) {
    buffer_.pop_front();
    ++buffer_base_;
  }
}

void GroupCommunication::deliver_one(std::int64_t seq, DeliveryKind kind) {
  BufferedMsg* slot = buffered(seq);
  assert(slot != nullptr);
  BufferedMsg& m = *slot;
  delivered_upto_ = seq;
  if (m.origin == id_) {
    while (!outbox_.empty() && outbox_.front().local_seq <= m.origin_local_seq) {
      outbox_.pop_front();
    }
  }
  ++stats_.deliveries;
  if (kind == DeliveryKind::kSafeInRegular) ++stats_.safe_deliveries;
  if (kind == DeliveryKind::kTransitional) ++stats_.transitional_deliveries;
  if (tracer_ && kind == DeliveryKind::kSafeInRegular) {
    // Safe delivery is the point the paper's trichotomy hinges on: every
    // member of the configuration delivers the same payload at (config, seq).
    tracer_.emit(
        obs::EventKind::kSafeDeliver, config_.id.counter,
        static_cast<std::int64_t>(config_.id.coordinator), seq,
        static_cast<std::int64_t>(obs::fingerprint(m.payload_data(), m.payload_size())));
  }
  if (listener_.on_deliver) {
    Delivery d{m.origin, config_.id, seq, kind,
               std::span<const std::uint8_t>(m.payload_data(), m.payload_size()), m.buf};
    listener_.on_deliver(d);
  }
}

void GroupCommunication::schedule_stream(Stream stream) {
  Pacer& p = pacers_[static_cast<std::size_t>(stream)];
  if (state_ != GcState::kOperational) return;
  // A leader stream whose value moved within a quarter interval after a
  // paced send fires at once instead of a whole interval later: its input
  // just missed that send, and firing behind the input moves the stream's
  // phase after its inputs. The next send is paced again, so a stream sends
  // at most twice per interval.
  const bool realign = stream != Stream::kAck && !p.realigned &&
                       sim_.now() - p.last_sent < kAckMinInterval / 4 &&
                       leader_value_moved(stream);
  const SimTime fire =
      realign ? sim_.now() + kAckCoalesce
              : std::max(p.last_sent + kAckMinInterval, sim_.now() + kAckCoalesce);
  if (p.scheduled && fire >= p.due) return;
  p.scheduled = true;
  p.due = fire;
  const ConfigId cfg = config_.id;
  schedule(fire - sim_.now(), [this, cfg, stream, fire, realign] {
    Pacer& q = pacers_[static_cast<std::size_t>(stream)];
    // Superseded by an earlier fire, or armed in an older configuration.
    if (!q.scheduled || q.due != fire || !(config_.id == cfg)) return;
    q.scheduled = false;
    if (state_ != GcState::kOperational) return;
    if (send_stream(stream)) {
      q.last_sent = sim_.now();
      q.realigned = realign;
    }
  });
}

bool GroupCommunication::leader_value_moved(Stream stream) const {
  return stream == Stream::kCliqueMin ? clique_min().contig > last_min_sent_
                                      : group_line().contig > stable_.contig;
}

bool GroupCommunication::send_stream(Stream stream, bool word_only) {
  std::int64_t value = 0;
  std::int64_t* last = nullptr;
  switch (stream) {
    case Stream::kAck: value = recv_contig_; last = &last_acked_value_; break;
    case Stream::kCliqueMin: value = clique_min().contig; last = &last_min_sent_; break;
    case Stream::kStable: value = group_line().contig; last = &stable_.contig; break;
  }
  Pacer& p = pacers_[static_cast<std::size_t>(stream)];
  const std::int64_t word = stream_word(stream);
  if (value == *last && (!word_only || word <= p.word_sent)) return false;
  *last = value;
  if (stream == Stream::kAck && word > p.word_sent && tracer_) {
    // Invariant 10 watches each new own word as it leaves this member.
    tracer_.emit(obs::EventKind::kKnowledgeSend, word);
  }
  p.word_sent = word;
  std::vector<NodeId> to;
  if (stream == Stream::kCliqueMin) {
    for (std::size_t c = 0; c < cliques(); ++c) {
      if (c * kClique != clique_lo_) to.push_back(config_.members[c * kClique]);
    }
  } else {
    // Acknowledgements go to the clique mates directly (one hardware
    // multicast), so safe delivery in a single-clique group costs three
    // one-way hops (DATA, ORDERED, ACK) rather than four — the difference
    // matters on wide-area links.
    for (const auto& [m, v] : known_) {
      if (m != id_) to.push_back(m);
    }
  }
  send_all(to, stream == Stream::kStable ? encode(StableMsg{config_.id, value, word})
                                         : encode(AckMsg{config_.id, value, word}));
  // A leader delivers up to the line it has published, no further, so its
  // clique mates deliver in step with it even if it leaves right after.
  if (stream == Stream::kStable) try_deliver();
  return true;
}

void GroupCommunication::schedule_leader() {
  if (!multi_clique() || !is_leader()) return;
  schedule_stream(Stream::kCliqueMin);
  schedule_stream(Stream::kStable);
}

void GroupCommunication::handle_ack(NodeId from, const AckMsg& msg) {
  ++stats_.stability_received;
  if (state_ != GcState::kOperational || msg.config != config_.id) return;
  // A clique mate reports its own prefix and word. Only another clique's
  // leader acks across cliques, with its clique's minimums; leader_mins_ is
  // non-empty exactly at the leaders of a multi-clique group.
  Line* reported = known_slot(from);
  const bool from_mate = reported != nullptr;
  if (!from_mate) {
    const int c = clique_of(from);
    if (leader_mins_.empty() || c < 0) return;
    reported = &leader_mins_[static_cast<std::size_t>(c)];
  }
  if (msg.knowledge > reported->word) {
    reported->word = msg.knowledge;
    if (multi_clique() && is_leader()) {  // the word moves up the tier
      if (from_mate) note_word(Stream::kCliqueMin);
      note_word(Stream::kStable);
    }
    on_word_rise();
  }
  if (msg.recv_contig <= reported->contig) return;
  reported->contig = msg.recv_contig;
  // A leader forwards a moved clique minimum or group line.
  schedule_leader();
  try_deliver();
}

void GroupCommunication::on_word_rise() {
  refresh_floor();
  if (listener_.on_knowledge) listener_.on_knowledge();
}

void GroupCommunication::handle_stable(const StableMsg& msg) {
  ++stats_.stability_received;
  if (state_ != GcState::kOperational || msg.config != config_.id) return;
  if (msg.knowledge > stable_.word) {
    stable_.word = msg.knowledge;
    on_word_rise();
  }
  if (msg.safe_line <= stable_.contig) return;
  stable_.contig = msg.safe_line;
  try_deliver();
}

// --------------------------------------------------------------------------
// Membership (flush) protocol
// --------------------------------------------------------------------------

void GroupCommunication::on_reachability(const std::vector<NodeId>& reachable) {
  last_reachable_ = reachable;
  if (state_ == GcState::kOperational && reachable == config_.members) return;
  start_gather(reachable);
}

void GroupCommunication::start_gather(const std::vector<NodeId>& reachable) {
  ++stats_.gathers_started;
  state_ = GcState::kGathering;
  committed_.reset();
  plan_.reset();
  plan_acked_ = false;
  my_token_.reset();
  my_proposed_.clear();
  infos_.clear();
  plan_acks_.clear();
  built_plan_.reset();
  install_sent_ = false;
  touch_progress();

  if (!reachable.empty() && reachable.front() == id_) {
    my_token_ = GatherToken{id_, ++gather_seq_};
    my_proposed_ = reachable;
    Bytes wire = encode(InquireMsg{*my_token_, my_proposed_});
    send_all(my_proposed_, std::move(wire));
    arm_retry_timer();
  }
  arm_stuck_timer();
}

void GroupCommunication::touch_progress() { last_progress_ = sim_.now(); }

void GroupCommunication::arm_stuck_timer() {
  schedule(kStuckTimeout, [this] {
    if (state_ != GcState::kGathering) return;
    if (sim_.now() - last_progress_ >= kStuckTimeout) {
      start_gather(last_reachable_);
    } else {
      arm_stuck_timer();
    }
  });
}

void GroupCommunication::arm_retry_timer() {
  if (!my_token_) return;
  const GatherToken token = *my_token_;
  schedule(kGatherRetry, [this, token] {
    if (!my_token_ || !(*my_token_ == token)) return;
    if (!built_plan_) {
      // Re-inquire members whose JOIN_INFO is missing.
      const Bytes wire = encode(InquireMsg{token, my_proposed_});
      for (NodeId m : my_proposed_) {
        if (!infos_.count(m)) send_to(m, wire);
      }
    } else if (!install_sent_) {
      // Re-send the plan to members whose PLAN_ACK is missing.
      const Bytes wire = encode(*built_plan_);
      for (NodeId m : my_proposed_) {
        if (!plan_acks_.count(m)) send_to(m, wire);
      }
    }
    arm_retry_timer();
  });
}

JoinInfoMsg GroupCommunication::make_join_info(const GatherToken& token) const {
  JoinInfoMsg info;
  info.token = token;
  info.old_config = config_.id;
  info.old_members = config_.members;
  info.recv_contig = recv_contig_;
  info.delivered_upto = delivered_upto_;
  // Per old member, the best lower bound on its contiguous prefix: its
  // direct ack (clique mates), its leader's reported clique minimum (other
  // cliques, leaders only) or the group-wide stable line. Each bounds the
  // member's real prefix from below, and together they cover this node's
  // safe line, so the plan's safe line covers every safe-in-regular
  // delivery of every participant.
  info.known_contig.reserve(config_.members.size());
  for (NodeId m : config_.members) {
    if (m == id_) {
      info.known_contig.push_back(recv_contig_);
      continue;
    }
    std::int64_t v = stable_.contig;
    if (const Line* direct = known_slot(m)) {
      v = std::max(v, direct->contig);
    } else if (!leader_mins_.empty()) {
      v = std::max(v, leader_mins_[static_cast<std::size_t>(clique_of(m))].contig);
    }
    info.known_contig.push_back(v);
  }
  info.max_config_counter = counter_floor_;
  return info;
}

void GroupCommunication::handle_inquire(NodeId from, const InquireMsg& msg) {
  if (msg.token.coordinator != from) return;
  if (!contains(last_reachable_, from)) return;  // can no longer complete

  if (committed_ && *committed_ == msg.token) {
    // Coordinator retry: re-send our info.
    send_to(from, encode(make_join_info(msg.token)));
    touch_progress();
    return;
  }

  bool accept = false;
  if (!committed_) {
    accept = true;
  } else if (msg.token.coordinator < committed_->coordinator) {
    accept = true;
  } else if (msg.token.coordinator == committed_->coordinator &&
             msg.token.seq > committed_->seq) {
    accept = true;
  } else if (!contains(last_reachable_, committed_->coordinator)) {
    accept = true;
  }
  if (!accept) return;

  if (state_ == GcState::kOperational) {
    state_ = GcState::kGathering;
    arm_stuck_timer();
  }
  committed_ = msg.token;
  plan_.reset();
  plan_acked_ = false;
  if (my_token_ && msg.token.coordinator < id_) {
    // A smaller coordinator supersedes our own attempt.
    my_token_.reset();
    my_proposed_.clear();
    infos_.clear();
    plan_acks_.clear();
    built_plan_.reset();
    install_sent_ = false;
  }
  touch_progress();
  send_to(from, encode(make_join_info(msg.token)));
}

void GroupCommunication::handle_join_info(NodeId from, const JoinInfoMsg& msg) {
  if (!my_token_ || !(msg.token == *my_token_)) return;
  infos_[from] = msg;
  touch_progress();
  coordinator_maybe_plan();
}

void GroupCommunication::coordinator_maybe_plan() {
  if (built_plan_) return;
  for (NodeId m : my_proposed_) {
    if (!infos_.count(m)) return;
  }
  std::int64_t max_counter = counter_floor_;
  for (const auto& [n, info] : infos_) {
    max_counter = std::max({max_counter, info.max_config_counter, info.old_config.counter});
  }

  PlanMsg plan;
  plan.token = *my_token_;
  plan.new_config = ConfigId{max_counter + 1, id_};
  plan.new_members = my_proposed_;

  // Group participants by the regular configuration they come from.
  std::map<ConfigId, std::vector<NodeId>> groups;
  for (const auto& [n, info] : infos_) groups[info.old_config].push_back(n);

  for (auto& [old_id, participants] : groups) {
    std::sort(participants.begin(), participants.end());
    PlanEntry e;
    e.old_config = old_id;
    e.old_members = infos_.at(participants.front()).old_members;
    e.participants = participants;
    std::int64_t target = 0;
    NodeId holder = participants.front();
    for (NodeId p : participants) {
      const std::int64_t c = infos_.at(p).recv_contig;
      e.participant_contig.push_back(c);
      if (c > target) {
        target = c;
        holder = p;
      }
    }
    e.target_seq = target;
    e.retransmitter = holder;
    // Safe line: a message is known received by ALL old members if, for
    // every old member m, some participant saw an ack from m covering it.
    std::int64_t safe = target;
    for (std::size_t mi = 0; mi < e.old_members.size(); ++mi) {
      const NodeId m = e.old_members[mi];
      std::int64_t best = 0;
      for (NodeId p : participants) {
        const JoinInfoMsg& info = infos_.at(p);
        // Find m's slot in p's old_members (configs match, so aligned).
        for (std::size_t j = 0; j < info.old_members.size(); ++j) {
          if (info.old_members[j] == m) {
            best = std::max(best, info.known_contig[j]);
            break;
          }
        }
      }
      safe = std::min(safe, best);
    }
    e.safe_line = safe;
    plan.entries.push_back(std::move(e));
  }

  built_plan_ = plan;
  send_all(my_proposed_, encode(plan));
}

const PlanEntry* GroupCommunication::my_plan_entry() const {
  if (!plan_) return nullptr;
  for (const PlanEntry& e : plan_->entries) {
    if (e.old_config == config_.id) return &e;
  }
  return nullptr;
}

void GroupCommunication::handle_plan(const PlanMsg& msg) {
  if (!committed_ || !(msg.token == *committed_)) return;
  plan_ = msg;
  touch_progress();
  const PlanEntry* e = my_plan_entry();
  if (!e) return;
  if (e->retransmitter == id_) {
    for (std::size_t i = 0; i < e->participants.size(); ++i) {
      const NodeId q = e->participants[i];
      if (q == id_) continue;
      for (std::int64_t seq = e->participant_contig[i] + 1; seq <= e->target_seq; ++seq) {
        const BufferedMsg* m = buffered(seq);
        if (m == nullptr) continue;  // pruned as globally stable: q has it
        RetransMsg rm;
        rm.token = msg.token;
        rm.message =
            OrderedMsg{config_.id, seq, m->origin, m->origin_local_seq, m->service,
                       Bytes(m->payload_data(), m->payload_data() + m->payload_size())};
        ++stats_.retransmissions;
        send_to(q, encode(rm));
      }
    }
  }
  member_check_plan_ack();
}

void GroupCommunication::handle_retrans(const RetransMsg& msg) {
  if (msg.message.config != config_.id) return;
  store_ordered(std::move(const_cast<RetransMsg&>(msg).message));
  touch_progress();
  member_check_plan_ack();
}

void GroupCommunication::member_check_plan_ack() {
  if (!plan_ || plan_acked_ || !committed_) return;
  const PlanEntry* e = my_plan_entry();
  if (!e || recv_contig_ < e->target_seq) return;
  plan_acked_ = true;
  send_to(committed_->coordinator, encode(PlanAckMsg{*committed_}));
}

void GroupCommunication::handle_plan_ack(NodeId from, const PlanAckMsg& msg) {
  if (!my_token_ || !(msg.token == *my_token_)) return;
  plan_acks_[from] = true;
  touch_progress();
  coordinator_maybe_install();
}

void GroupCommunication::coordinator_maybe_install() {
  if (!built_plan_ || install_sent_) return;
  for (NodeId m : my_proposed_) {
    if (!plan_acks_.count(m)) return;
  }
  install_sent_ = true;
  send_all(my_proposed_, encode(InstallMsg{*my_token_}));
}

void GroupCommunication::handle_install(const InstallMsg& msg) {
  if (!committed_ || !(msg.token == *committed_) || !plan_) return;
  run_install();
}

void GroupCommunication::run_install() {
  const PlanMsg plan = *plan_;
  const PlanEntry* entry = my_plan_entry();
  assert(entry != nullptr);
  const PlanEntry e = *entry;  // copy: we mutate state below

  // 1. Deliver the remaining messages known to be received by every member
  //    of the old configuration: these still meet the safe guarantee.
  while (delivered_upto_ < e.safe_line) {
    const std::int64_t next = delivered_upto_ + 1;
    const BufferedMsg* m = buffered(next);
    if (m == nullptr) break;  // was pruned => already delivered
    deliver_one(next, m->service == Service::kSafe ? DeliveryKind::kSafeInRegular
                                                   : DeliveryKind::kAgreed);
  }

  // 2. Transitional configuration: members of the old regular configuration
  //    moving together into the new one.
  Configuration trans;
  trans.id = config_.id;
  trans.members = e.participants;
  trans.transitional = true;
  ++stats_.transitional_configs;
  emit_config(trans);
  if (listener_.on_transitional_config) listener_.on_transitional_config(trans);

  // 3. Left-over messages, delivered in the transitional configuration.
  while (delivered_upto_ < e.target_seq) {
    const std::int64_t next = delivered_upto_ + 1;
    const BufferedMsg* m = buffered(next);
    if (m == nullptr) break;
    deliver_one(next, m->service == Service::kSafe ? DeliveryKind::kTransitional
                                                   : DeliveryKind::kAgreed);
  }

  // 4. Install the new regular configuration and reset the data path.
  config_.id = plan.new_config;
  config_.members = plan.new_members;
  config_.transitional = false;
  counter_floor_ = std::max(counter_floor_, plan.new_config.counter);
  global_seq_ = 0;
  recv_contig_ = 0;
  delivered_upto_ = 0;
  buffer_.clear();
  reset_stability();
  // Pacing timers armed in the old configuration will no-op on config
  // mismatch; clear the flags so the new configuration can arm its own.
  for (Pacer& p : pacers_) p.scheduled = p.flush_armed = false;
  state_ = GcState::kOperational;
  note_word(Stream::kAck);  // in case the new configuration stays silent
  committed_.reset();
  plan_.reset();
  plan_acked_ = false;
  my_token_.reset();
  my_proposed_.clear();
  infos_.clear();
  plan_acks_.clear();
  built_plan_.reset();
  install_sent_ = false;

  // 5. Re-send local multicasts that were never self-delivered, preserving
  //    FIFO order, before the application reacts to the new configuration.
  stats_.resent_after_install += outbox_.size();
  for (const OutEntry& out : outbox_) send_data(out);

  ++stats_.regular_configs;
  emit_config(config_);
  if (listener_.on_regular_config) listener_.on_regular_config(config_);
}

void GroupCommunication::emit_config(const Configuration& c) {
  if (!tracer_) return;
  tracer_.emit(c.transitional ? obs::EventKind::kViewTransitional : obs::EventKind::kViewRegular,
               c.id.counter, static_cast<std::int64_t>(c.id.coordinator),
               static_cast<std::int64_t>(c.members.size()));
}

}  // namespace tordb::gc
