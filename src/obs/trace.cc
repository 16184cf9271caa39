#include "obs/trace.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/log.h"

namespace tordb::obs {

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kEngineStart: return "engine_start";
    case EventKind::kStateTransition: return "state_transition";
    case EventKind::kActionSubmitted: return "action_submitted";
    case EventKind::kActionRed: return "action_red";
    case EventKind::kActionGreen: return "action_green";
    case EventKind::kWhiteTrim: return "white_trim";
    case EventKind::kSafeDeliver: return "safe_deliver";
    case EventKind::kViewRegular: return "view_regular";
    case EventKind::kViewTransitional: return "view_transitional";
    case EventKind::kExchangeStart: return "exchange_start";
    case EventKind::kQuorumVote: return "quorum_vote";
    case EventKind::kPrimaryInstall: return "primary_install";
    case EventKind::kPrimaryMember: return "primary_member";
    case EventKind::kMemberReset: return "member_reset";
    case EventKind::kMemberAdd: return "member_add";
    case EventKind::kMemberRemove: return "member_remove";
    case EventKind::kForcedSync: return "forced_sync";
    case EventKind::kStateTransferSend: return "state_transfer_send";
    case EventKind::kStateTransferApply: return "state_transfer_apply";
    case EventKind::kLogLine: return "log_line";
    case EventKind::kShardRoute: return "shard_route";
    case EventKind::kShardFailover: return "shard_failover";
    case EventKind::kShardCrossSubmit: return "shard_cross_submit";
    case EventKind::kShardCrossCommit: return "shard_cross_commit";
    case EventKind::kRangeFence: return "range_fence";
    case EventKind::kRangeInstall: return "range_install";
    case EventKind::kRangeWrite: return "range_write";
    case EventKind::kRangeUnfence: return "range_unfence";
    case EventKind::kDirectoryEpoch: return "directory_epoch";
    case EventKind::kTxnPrepare: return "txn_prepare";
    case EventKind::kTxnConfirm: return "txn_confirm";
    case EventKind::kTxnCancel: return "txn_cancel";
    case EventKind::kTxnBegin: return "txn_begin";
    case EventKind::kTxnDecide: return "txn_decide";
    case EventKind::kTxnSnapshotRead: return "txn_snapshot_read";
    case EventKind::kKnowledgeSend: return "knowledge_send";
  }
  return "?";
}

std::uint64_t fingerprint(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

TraceBus::TraceBus(Simulator& sim) : sim_(sim) {
  ring_.reserve(kRingCapacity);
  if (sim_.lanes_enabled()) {
    lane_buf_.resize(static_cast<std::size_t>(sim_.lane_count()));
    sim_.set_barrier_hook([this] { flush_lanes(); });
    hook_installed_ = true;
  }
}

TraceBus::~TraceBus() {
  flush_lanes();
  if (hook_installed_) sim_.set_barrier_hook({});
  if (log_capture_installed_) Log::sink() = nullptr;
}

void TraceBus::emit(TraceEvent e) {
  e.time = sim_.now();
  if (!lane_buf_.empty() && sim_.running()) {
    // Defer to the barrier; per-lane buffers make this thread-safe without
    // any locking (each lane only ever appends to its own buffer).
    lane_buf_[static_cast<std::size_t>(sim_.current_lane())].push_back(e);
    return;
  }
  dispatch(e);
}

void TraceBus::flush_lanes() {
  flush_buf_.clear();
  for (auto& buf : lane_buf_) {
    flush_buf_.insert(flush_buf_.end(), buf.begin(), buf.end());
    buf.clear();
  }
  // Stable sort on time alone: the lane-order append above breaks ties by
  // lane, and per-lane emission order is already chronological — the same
  // total order every run, whatever the worker count.
  std::stable_sort(flush_buf_.begin(), flush_buf_.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.time < b.time; });
  for (const TraceEvent& e : flush_buf_) dispatch(e);
}

void TraceBus::dispatch(const TraceEvent& e) {
  ++emitted_;
  if (ring_.size() < kRingCapacity) {
    ring_.push_back(e);
  } else {
    ring_[ring_next_] = e;
    ring_next_ = (ring_next_ + 1) % kRingCapacity;
    ring_wrapped_ = true;
  }
  for (const auto& fn : subscribers_) fn(e);
}

void TraceBus::subscribe(std::function<void(const TraceEvent&)> fn) {
  subscribers_.push_back(std::move(fn));
}

std::vector<TraceEvent> TraceBus::ring_snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (ring_wrapped_) {
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(ring_next_), ring_.end());
    out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(ring_next_));
  } else {
    out = ring_;
  }
  return out;
}

void TraceBus::capture_logs() {
  if (log_capture_installed_) return;
  log_capture_installed_ = true;
  Log::sink() = [this](LogLevel lvl, const std::string& tag, const std::string& msg) {
    std::int64_t idx;
    {
      // Worker-lane components log too; the string ring is the one piece
      // of bus state written at emit time rather than at the barrier.
      std::lock_guard<std::mutex> lock(log_mu_);
      idx = next_string_++;
      const std::size_t slot = static_cast<std::size_t>(idx) % kStringRingCapacity;
      if (strings_.size() <= slot) strings_.resize(slot + 1);
      strings_[slot] = tag + ": " + msg;
    }
    TraceEvent e;
    e.node = kNoNode;
    e.kind = EventKind::kLogLine;
    e.a = idx;
    e.b = static_cast<std::int64_t>(lvl);
    emit(e);
    Log::write_default(lvl, tag, msg);
  };
}

const std::string* TraceBus::log_line(std::int64_t index) const {
  if (index < 0 || index < next_string_ - static_cast<std::int64_t>(strings_.size())) {
    return nullptr;  // evicted from the ring
  }
  const std::size_t slot = static_cast<std::size_t>(index) % kStringRingCapacity;
  if (slot >= strings_.size()) return nullptr;
  return &strings_[slot];
}

namespace {

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

bool has_action(EventKind k) {
  return k == EventKind::kActionSubmitted || k == EventKind::kActionRed ||
         k == EventKind::kActionGreen;
}

}  // namespace

std::string TraceBus::to_jsonl() const {
  std::string out;
  for (const TraceEvent& e : ring_snapshot()) {
    out += "{\"t\":" + std::to_string(e.time) + ",\"node\":" + std::to_string(e.node) +
           ",\"kind\":\"" + to_string(e.kind) + "\"";
    if (has_action(e.kind)) {
      out += ",\"action\":\"" + std::to_string(e.action.server_id) + ":" +
             std::to_string(e.action.index) + "\"";
    }
    out += ",\"a\":" + std::to_string(e.a) + ",\"b\":" + std::to_string(e.b) +
           ",\"c\":" + std::to_string(e.c) + ",\"d\":" + std::to_string(e.d);
    if (e.kind == EventKind::kLogLine) {
      if (const std::string* line = log_line(e.a)) {
        out += ",\"line\":";
        append_json_string(out, *line);
      }
    }
    out += "}\n";
  }
  return out;
}

std::string TraceBus::to_chrome_trace() const {
  // Chrome trace-event JSON array format: pid = node, instant events for
  // every kind, plus "X" duration slices spanning ExchangeStart →
  // PrimaryInstall (a view change as seen by each node). ts is in
  // microseconds of simulated time.
  std::string out = "[\n";
  bool first = true;
  auto emit_obj = [&](const std::string& body) {
    if (!first) out += ",\n";
    first = false;
    out += body;
  };
  std::vector<TraceEvent> events = ring_snapshot();
  // Pair exchange starts with the next primary install (or state settle)
  // per node to build duration slices.
  std::vector<std::pair<NodeId, SimTime>> open_exchanges;
  for (const TraceEvent& e : events) {
    const double ts = static_cast<double>(e.time) / 1000.0;  // ns -> us
    if (e.kind == EventKind::kExchangeStart) {
      bool already_open = false;
      for (auto& [n, t0] : open_exchanges) already_open |= (n == e.node);
      if (!already_open) open_exchanges.emplace_back(e.node, e.time);
    } else if (e.kind == EventKind::kPrimaryInstall) {
      for (std::size_t i = 0; i < open_exchanges.size(); ++i) {
        if (open_exchanges[i].first != e.node) continue;
        const double t0 = static_cast<double>(open_exchanges[i].second) / 1000.0;
        emit_obj("{\"name\":\"view_change\",\"ph\":\"X\",\"pid\":" + std::to_string(e.node) +
                 ",\"tid\":0,\"ts\":" + std::to_string(t0) +
                 ",\"dur\":" + std::to_string(ts - t0) + ",\"args\":{\"prim_index\":" +
                 std::to_string(e.a) + "}}");
        open_exchanges.erase(open_exchanges.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    std::string args = "{\"a\":" + std::to_string(e.a) + ",\"b\":" + std::to_string(e.b) +
                       ",\"c\":" + std::to_string(e.c);
    if (has_action(e.kind)) {
      args += ",\"action\":\"" + std::to_string(e.action.server_id) + ":" +
              std::to_string(e.action.index) + "\"";
    }
    args += "}";
    emit_obj("{\"name\":\"" + std::string(to_string(e.kind)) + "\",\"ph\":\"i\",\"s\":\"t\"" +
             ",\"pid\":" + std::to_string(e.node) + ",\"tid\":1,\"ts\":" + std::to_string(ts) +
             ",\"args\":" + args + "}");
  }
  out += "\n]\n";
  return out;
}

bool TraceBus::write_file(const std::string& path, const std::string& contents) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f << contents;
  return static_cast<bool>(f);
}

namespace {
bool g_forced_for_tests = false;
}

bool check_forced() {
  static const bool env = [] {
    const char* v = std::getenv("TORDB_OBS_CHECK");
    return v != nullptr && std::strcmp(v, "0") != 0;
  }();
  return env || g_forced_for_tests;
}

void force_check_for_tests() { g_forced_for_tests = true; }

}  // namespace tordb::obs
