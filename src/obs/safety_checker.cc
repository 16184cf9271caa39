#include "obs/safety_checker.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace tordb::obs {

SafetyChecker::SafetyChecker(TraceBus& bus, CheckerOptions options) : options_(options) {
  bus.subscribe([this](const TraceEvent& e) { on_event(e); });
}

void SafetyChecker::set_node_group(NodeId node, std::int64_t group) {
  node_group_[node] = group;
}

SafetyChecker::NodeView& SafetyChecker::view(NodeId n) {
  NodeView& v = nodes_[n];
  v.seen = true;
  return v;
}

SafetyChecker::GroupState& SafetyChecker::group_of(NodeId n) {
  return groups_[group_id(n)];
}

std::int64_t SafetyChecker::group_id(NodeId n) const {
  auto it = node_group_.find(n);
  return it == node_group_.end() ? 0 : it->second;
}

std::int64_t SafetyChecker::canonical_green_count(std::int64_t group) const {
  auto it = groups_.find(group);
  return it == groups_.end() ? 0 : static_cast<std::int64_t>(it->second.canon.size());
}

std::int64_t SafetyChecker::total_green_count() const {
  std::int64_t total = 0;
  for (const auto& [id, g] : groups_) total += static_cast<std::int64_t>(g.canon.size());
  return total;
}

void SafetyChecker::violation(const std::string& what) {
  if (violations_.size() < kMaxViolations) violations_.push_back(what);
  if (options_.fail_fast) {
    std::fprintf(stderr, "\n=== obs::SafetyChecker: invariant violated ===\n%s\n", what.c_str());
    std::abort();
  }
}

std::string SafetyChecker::verdict() const {
  if (ok()) {
    return "checker: ok (" + std::to_string(events_checked_) + " events, green=" +
           std::to_string(total_green_count()) + ")";
  }
  return "checker: " + std::to_string(violations_.size()) +
         " violation(s): " + violations_.front();
}

std::string SafetyChecker::report() const {
  std::string out = verdict() + "\n";
  for (const std::string& v : violations_) out += "  - " + v + "\n";
  return out;
}

std::string SafetyChecker::green_diff(const GroupState& g, NodeId node, std::int64_t position,
                                      const ActionId& claimed) const {
  // The paper's histories diverge at one position; show the canonical
  // neighbourhood against the claim plus the node's own recent tail.
  std::ostringstream os;
  const std::int64_t ctx = static_cast<std::int64_t>(kDiffContext);
  const std::int64_t lo = std::max<std::int64_t>(1, position - ctx);
  const std::int64_t hi =
      std::min<std::int64_t>(static_cast<std::int64_t>(g.canon.size()), position + ctx);
  os << "\n  canonical history around position " << position << ":";
  for (std::int64_t p = lo; p <= hi; ++p) {
    os << "\n    [" << p << "] " << to_string(g.canon[static_cast<std::size_t>(p - 1)]);
    if (p == position) os << "   <-- node " << node << " claims " << to_string(claimed);
  }
  auto it = nodes_.find(node);
  if (it != nodes_.end() && !it->second.recent.empty()) {
    os << "\n  node " << node << " recent greens (oldest first):";
    for (const ActionId& a : it->second.recent) os << " " << to_string(a);
  }
  return os.str();
}

void SafetyChecker::on_event(const TraceEvent& e) {
  ++events_checked_;
  switch (e.kind) {
    case EventKind::kActionGreen:
      on_green(e);
      break;
    case EventKind::kEngineStart:
      on_adopt(e.node, e.a, e.b == 1 ? "recovery" : e.b == 2 ? "join snapshot" : "fresh start");
      break;
    case EventKind::kStateTransferApply:
      on_adopt(e.node, e.a, "state transfer");
      break;
    case EventKind::kPrimaryInstall:
      on_primary_install(e);
      break;
    case EventKind::kPrimaryMember: {
      GroupState& g = group_of(e.node);
      if (e.a == g.pending_prim_index && e.node == g.pending_prim_node) {
        g.primaries[e.a].members.push_back(static_cast<NodeId>(e.b));
      }
      break;
    }
    case EventKind::kWhiteTrim:
      on_white_trim(e);
      break;
    case EventKind::kSafeDeliver:
      on_safe_deliver(e);
      break;
    case EventKind::kMemberReset:
      view(e.node).members.clear();
      break;
    case EventKind::kMemberAdd:
      view(e.node).members.insert(static_cast<NodeId>(e.a));
      break;
    case EventKind::kMemberRemove:
      view(e.node).members.erase(static_cast<NodeId>(e.a));
      break;
    case EventKind::kRangeFence:
    case EventKind::kRangeInstall:
    case EventKind::kRangeWrite:
    case EventKind::kRangeUnfence:
      on_range_event(e);
      break;
    case EventKind::kTxnPrepare:
    case EventKind::kTxnConfirm:
    case EventKind::kTxnCancel:
      on_txn_event(e);
      break;
    case EventKind::kKnowledgeSend:
      on_knowledge_send(e);
      break;
    default:
      break;  // observed for export/metrics only
  }
}

void SafetyChecker::on_green(const TraceEvent& e) {
  GroupState& g = group_of(e.node);
  NodeView& v = view(e.node);
  const std::int64_t pos = e.a;
  std::ostringstream os;
  if (pos != v.green_count + 1) {
    os << "t=" << e.time << " node " << e.node << " marked " << to_string(e.action)
       << " green at position " << pos << " but its green count is " << v.green_count
       << " (greens must be sequential)";
    violation(os.str());
    return;
  }
  v.green_count = pos;
  v.green_highwater = std::max(v.green_highwater, pos);
  v.recent.push_back(e.action);
  if (v.recent.size() > 2 * kDiffContext) v.recent.erase(v.recent.begin());

  const std::int64_t canon_len = static_cast<std::int64_t>(g.canon.size());
  if (pos <= canon_len) {
    const ActionId& expect = g.canon[static_cast<std::size_t>(pos - 1)];
    if (!(expect == e.action)) {
      os << "t=" << e.time << " GREEN ORDER DIVERGENCE: node " << e.node << " marked "
         << to_string(e.action) << " green at position " << pos << " but the canonical action is "
         << to_string(expect) << green_diff(g, e.node, pos, e.action);
      violation(os.str());
    }
    return;
  }
  if (pos > canon_len + 1) {
    os << "t=" << e.time << " node " << e.node << " marked position " << pos
       << " green but only " << canon_len << " positions are known anywhere";
    violation(os.str());
    return;
  }
  // This node extends the canonical history.
  auto [it, inserted] = g.position_of.emplace(e.action, pos);
  if (!inserted && it->second != pos) {
    os << "t=" << e.time << " action " << to_string(e.action) << " became green at position "
       << pos << " (node " << e.node << ") but was already green at position " << it->second;
    violation(os.str());
    return;
  }
  auto [fit, finserted] = g.last_green_index.emplace(e.action.server_id, 0);
  (void)finserted;
  if (e.action.index != fit->second + 1) {
    os << "t=" << e.time << " GREEN FIFO violation: creator " << e.action.server_id
       << " appears at index " << e.action.index << " after index " << fit->second
       << " (position " << pos << ", node " << e.node << ")";
    violation(os.str());
    return;
  }
  fit->second = e.action.index;
  g.canon.push_back(e.action);
}

void SafetyChecker::on_adopt(NodeId node, std::int64_t green_count, const char* how) {
  GroupState& g = group_of(node);
  NodeView& v = view(node);
  if (green_count > static_cast<std::int64_t>(g.canon.size())) {
    std::ostringstream os;
    os << "node " << node << " adopted a green prefix of " << green_count << " via " << how
       << " but only " << g.canon.size() << " positions are known anywhere";
    violation(os.str());
  }
  v.green_count = green_count;
  v.green_highwater = std::max(v.green_highwater, green_count);
  v.recent.clear();
  // Invariant 10 baseline resets: a recovered or snapshot-adopting node may
  // legitimately send a word below its pre-crash maximum.
  v.last_word = -1;
}

void SafetyChecker::on_knowledge_send(const TraceEvent& e) {
  // Invariant 10: knowledge words (a = the sender's green count as its
  // stability stream first carries it) are lower-bound claims, so they must
  // be honest (<= true green count) and monotone per node between adoption
  // resets.
  NodeView& v = view(e.node);
  const std::int64_t word = e.a;
  std::ostringstream os;
  if (word > v.green_count) {
    os << "t=" << e.time << " KNOWLEDGE WORD BEYOND TRUE GREEN COUNT: node " << e.node
       << " sent word " << word << " but has only " << v.green_count
       << " greens (peers would trim history the sender does not hold)";
    violation(os.str());
    return;
  }
  if (word < v.last_word) {
    os << "t=" << e.time << " NON-MONOTONE KNOWLEDGE WORD: node " << e.node << " sent word "
       << word << " after sending " << v.last_word;
    violation(os.str());
    return;
  }
  v.last_word = word;
}

void SafetyChecker::on_primary_install(const TraceEvent& e) {
  GroupState& g = group_of(e.node);
  g.pending_prim_index = e.a;
  g.pending_prim_node = e.node;
  auto [it, inserted] = g.primaries.emplace(e.a, PrimInfo{});
  PrimInfo& info = it->second;
  if (inserted) {
    info.attempt = e.b;
    info.member_count = e.c;
    info.member_hash = static_cast<std::uint64_t>(e.d);
    info.installer = e.node;
    return;
  }
  g.pending_prim_node = kNoNode;  // members already collected from the first installer
  if (info.attempt != e.b || info.member_count != e.c ||
      info.member_hash != static_cast<std::uint64_t>(e.d)) {
    std::ostringstream os;
    os << "t=" << e.time << " TWO PRIMARY COMPONENTS with generation " << e.a << ": node "
       << info.installer << " installed attempt " << info.attempt << " ("
       << info.member_count << " members";
    for (NodeId m : info.members) os << " " << m;
    os << ") but node " << e.node << " installed attempt " << e.b << " (" << e.c
       << " members, membership hash " << static_cast<std::uint64_t>(e.d) << " vs "
       << info.member_hash << ")";
    violation(os.str());
  }
}

void SafetyChecker::on_white_trim(const TraceEvent& e) {
  NodeView& v = view(e.node);
  const std::int64_t line = e.a;
  std::ostringstream os;
  if (line > v.green_count) {
    os << "t=" << e.time << " node " << e.node << " white-trimmed to " << line
       << " beyond its own green count " << v.green_count;
    violation(os.str());
    return;
  }
  for (NodeId m : v.members) {
    auto it = nodes_.find(m);
    if (it == nodes_.end() || !it->second.seen) continue;  // engine not started yet
    // Compare against the member's high-water green count, not its current
    // one: a crash-recovered member may sit below knowledge it emitted
    // before the crash (see invariant 6 notes in the header).
    if (line > it->second.green_highwater) {
      os << "t=" << e.time << " WHITE TRIM PASSES UNSTABLE ACTION: node " << e.node
         << " trimmed to line " << line << " but member " << m << " never marked more than "
         << it->second.green_highwater << " greens (position "
         << it->second.green_highwater + 1 << ".." << line << " not yet stable)";
      violation(os.str());
      return;
    }
  }
}

void SafetyChecker::on_range_event(const TraceEvent& e) {
  // Invariant 8. Events carry (a = range fingerprint, b = green position in
  // the emitting group's history). Every replica of a group applies the same
  // green order, so replays from lagging replicas land at positions <= the
  // recorded maximum and are skipped.
  const std::int64_t grp = group_id(e.node);
  RangeState& r = ranges_[e.a];
  const std::int64_t pos = e.b;
  const auto at = [](const std::map<std::int64_t, std::int64_t>& m, std::int64_t k) {
    auto it = m.find(k);
    return it == m.end() ? 0 : it->second;
  };
  std::ostringstream os;
  switch (e.kind) {
    case EventKind::kRangeFence: {
      auto [it, inserted] = r.fence_pos.emplace(grp, pos);
      if (!inserted && pos > it->second) it->second = pos;
      break;
    }
    case EventKind::kRangeUnfence: {
      // Abandoned-move rollback: the group's fence is lifted as of `pos`.
      // A fence is "active" only while fence_pos > unfence_pos, so a later
      // install elsewhere cannot lean on a fence this rollback cancelled.
      auto [it, inserted] = r.unfence_pos.emplace(grp, pos);
      if (!inserted && pos > it->second) it->second = pos;
      break;
    }
    case EventKind::kRangeInstall: {
      if (pos <= at(r.install_pos, grp)) break;  // replica replay
      bool fenced_somewhere = false;
      for (const auto& [g2, fp] : r.fence_pos) {
        fenced_somewhere = fenced_somewhere || fp > at(r.unfence_pos, g2);
      }
      if (!fenced_somewhere) {
        os << "t=" << e.time << " RANGE INSTALL WITHOUT FENCE: group " << grp
           << " (node " << e.node << ") installed range " << static_cast<std::uint64_t>(e.a)
           << " at green position " << pos << " but no group ever fenced it";
        violation(os.str());
        break;
      }
      for (const auto& [g2, ip] : r.install_pos) {
        if (g2 == grp) continue;
        if (ip > at(r.fence_pos, g2)) {
          os << "t=" << e.time << " RANGE DOUBLE OWNERSHIP: group " << grp << " (node "
             << e.node << ") installed range " << static_cast<std::uint64_t>(e.a)
             << " at green position " << pos << " while group " << g2
             << " still owns it (install at " << ip << " with no later fence)";
          violation(os.str());
          break;
        }
      }
      r.install_pos[grp] = pos;
      break;
    }
    case EventKind::kRangeWrite: {
      if (pos <= at(r.write_pos, grp)) break;  // replica replay
      r.write_pos[grp] = pos;
      const std::int64_t fp = at(r.fence_pos, grp);
      if (fp > at(r.install_pos, grp) && fp > at(r.unfence_pos, grp) && pos > fp) {
        os << "t=" << e.time << " WRITE TO FENCED RANGE: group " << grp << " (node " << e.node
           << ") green-applied a user write to range " << static_cast<std::uint64_t>(e.a)
           << " at position " << pos << " past its fence at position " << fp
           << " (the range's keys belong to another shard now)";
        violation(os.str());
      }
      break;
    }
    default:
      break;
  }
}

void SafetyChecker::on_txn_event(const TraceEvent& e) {
  // Invariant 9. Events carry (a = txn fingerprint, b = green position in
  // the emitting group's history). Like invariant 8, lagging replicas
  // replay the same green order, so transitions at positions <= the
  // recorded maximum are no-ops; a fresh transition must obey
  // prepare-before-decision and confirm-xor-cancel within the group.
  const std::int64_t grp = group_id(e.node);
  TxnState& t = txns_[e.a];
  const std::int64_t pos = e.b;
  const auto at = [](const std::map<std::int64_t, std::int64_t>& m, std::int64_t k) {
    auto it = m.find(k);
    return it == m.end() ? 0 : it->second;
  };
  std::ostringstream os;
  switch (e.kind) {
    case EventKind::kTxnPrepare: {
      auto [it, inserted] = t.prepare_pos.emplace(grp, pos);
      if (!inserted && pos > it->second) it->second = pos;
      break;
    }
    case EventKind::kTxnConfirm: {
      if (pos <= at(t.confirm_pos, grp)) break;  // replica replay
      const std::int64_t pp = at(t.prepare_pos, grp);
      if (pp == 0 || pp >= pos) {
        os << "t=" << e.time << " TXN CONFIRM WITHOUT PREPARE: group " << grp << " (node "
           << e.node << ") confirmed transaction " << static_cast<std::uint64_t>(e.a)
           << " at green position " << pos << " with no earlier prepare (prepare pos " << pp
           << ")";
        violation(os.str());
        break;
      }
      if (at(t.cancel_pos, grp) != 0) {
        os << "t=" << e.time << " TXN DOUBLE DECISION: group " << grp << " (node " << e.node
           << ") confirmed transaction " << static_cast<std::uint64_t>(e.a)
           << " at green position " << pos << " after cancelling it at position "
           << at(t.cancel_pos, grp);
        violation(os.str());
        break;
      }
      t.confirm_pos[grp] = pos;
      break;
    }
    case EventKind::kTxnCancel: {
      if (pos <= at(t.cancel_pos, grp)) break;  // replica replay
      const std::int64_t pp = at(t.prepare_pos, grp);
      if (pp == 0 || pp >= pos) {
        os << "t=" << e.time << " TXN CANCEL WITHOUT PREPARE: group " << grp << " (node "
           << e.node << ") cancelled transaction " << static_cast<std::uint64_t>(e.a)
           << " at green position " << pos << " with no earlier prepare (prepare pos " << pp
           << ")";
        violation(os.str());
        break;
      }
      if (at(t.confirm_pos, grp) != 0) {
        os << "t=" << e.time << " TXN DOUBLE DECISION: group " << grp << " (node " << e.node
           << ") cancelled transaction " << static_cast<std::uint64_t>(e.a)
           << " at green position " << pos << " after confirming it at position "
           << at(t.confirm_pos, grp);
        violation(os.str());
        break;
      }
      t.cancel_pos[grp] = pos;
      break;
    }
    default:
      break;
  }
}

std::int64_t SafetyChecker::txn_unresolved() const {
  std::int64_t open = 0;
  for (const auto& [fp, t] : txns_) {
    for (const auto& [grp, pp] : t.prepare_pos) {
      const bool confirmed = t.confirm_pos.find(grp) != t.confirm_pos.end();
      const bool cancelled = t.cancel_pos.find(grp) != t.cancel_pos.end();
      if (!confirmed && !cancelled) ++open;
    }
  }
  return open;
}

std::int64_t SafetyChecker::txn_prepared() const {
  std::int64_t n = 0;
  for (const auto& [fp, t] : txns_) n += static_cast<std::int64_t>(t.prepare_pos.size());
  return n;
}

void SafetyChecker::on_safe_deliver(const TraceEvent& e) {
  GroupState& g = group_of(e.node);
  const SafeKey key{e.a, static_cast<NodeId>(e.b), e.c};
  auto [it, inserted] = g.safe_payload.emplace(key, static_cast<std::uint64_t>(e.d));
  if (!inserted && it->second != static_cast<std::uint64_t>(e.d)) {
    std::ostringstream os;
    os << "t=" << e.time << " SAFE DELIVERY DIVERGENCE: config (" << e.a << "," << e.b
       << ") seq " << e.c << " delivered with payload hash " << static_cast<std::uint64_t>(e.d)
       << " at node " << e.node << " but hash " << it->second << " elsewhere";
    violation(os.str());
  }
}

}  // namespace tordb::obs
