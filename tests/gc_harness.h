// Test harness for the group-communication layer: a cluster of GC nodes on
// one simulated network, with per-node recording of every configuration and
// delivery, plus reusable checkers for the EVS correctness properties.
#pragma once

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "gc/group_communication.h"
#include "obs/safety_checker.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace tordb::gc::testing {

/// Owning copy of a Delivery. The layer's Delivery borrows its payload from
/// the delivery buffer (valid only during the callback), so the recorder
/// snapshots it here. Converts back to Delivery so existing checks that
/// iterate `const Delivery&` keep working.
struct StoredDelivery {
  NodeId sender = kNoNode;
  ConfigId config;
  std::int64_t seq = 0;
  DeliveryKind kind = DeliveryKind::kAgreed;
  Bytes payload;

  StoredDelivery() = default;
  StoredDelivery(const Delivery& d)  // NOLINT: implicit by design
      : sender(d.sender),
        config(d.config),
        seq(d.seq),
        kind(d.kind),
        payload(d.payload.begin(), d.payload.end()) {}
  operator Delivery() const {  // NOLINT: implicit by design
    return Delivery{sender, config, seq, kind, payload, nullptr};
  }
};

struct RecordedEvent {
  enum class Kind { kRegular, kTransitional, kDelivery };
  Kind kind;
  Configuration config;      // for config events
  StoredDelivery delivery;   // for deliveries
};

struct NodeRecord {
  std::vector<RecordedEvent> events;
  std::vector<StoredDelivery> deliveries;
  std::vector<Configuration> regulars;
  std::vector<Configuration> transitionals;
  bool crashed = false;
};

/// Encodes "sender s's k-th payload" so tests can check FIFO and identity.
inline Bytes test_payload(NodeId sender, std::int64_t k) {
  BufWriter w;
  w.i32(sender);
  w.i64(k);
  return w.take();
}

inline std::pair<NodeId, std::int64_t> parse_payload(std::span<const std::uint8_t> b) {
  BufReader r(b.data(), b.size());
  NodeId s = r.i32();
  std::int64_t k = r.i64();
  return {s, k};
}

class GcCluster {
 public:
  explicit GcCluster(int n, std::uint64_t seed = 7, NetworkParams net_params = NetworkParams{})
      : sim_(seed), net_(sim_, net_params) {
    if (obs::check_forced()) {
      // TORDB_OBS_CHECK=1: route safe deliveries and configs through the
      // trace bus so the online checker verifies safe-delivery agreement
      // live across the whole gc suite.
      trace_bus_ = std::make_shared<obs::TraceBus>(sim_);
      checker_ = std::make_unique<obs::SafetyChecker>(*trace_bus_);
    }
    for (NodeId i = 0; i < n; ++i) {
      net_.add_node(i);
      records_[i];  // create record
    }
    for (NodeId i = 0; i < n; ++i) start_gc(i, /*initial_counter=*/0);
  }

  Simulator& sim() { return sim_; }
  Network& net() { return net_; }
  GroupCommunication& gc(NodeId id) { return *gcs_.at(id); }
  NodeRecord& record(NodeId id) { return records_.at(id); }
  bool has_gc(NodeId id) const { return gcs_.count(id) && gcs_.at(id) != nullptr; }

  void run_for(SimDuration d) { sim_.run_for(d); }

  void crash(NodeId id) {
    ever_crashed_.insert(id);
    net_.crash(id);
    counters_[id] = gcs_.at(id)->max_counter_seen();  // "persisted" by harness
    gcs_.at(id).reset();
    records_.at(id).crashed = true;
  }

  void recover(NodeId id) {
    net_.recover(id);
    records_.at(id).crashed = false;
    start_gc(id, counters_[id] + 1);
  }

  void multicast(NodeId id, std::int64_t k, Service service = Service::kSafe) {
    gcs_.at(id)->multicast(test_payload(id, k), service);
  }

  /// True when every listed node is operational in one identical config.
  bool converged(const std::vector<NodeId>& ids) const {
    const Configuration* first = nullptr;
    for (NodeId id : ids) {
      const auto& g = gcs_.at(id);
      if (!g || !g->operational()) return false;
      if (!first) {
        first = &g->config();
      } else if (!(*first == g->config())) {
        return false;
      }
    }
    if (!first) return false;
    std::vector<NodeId> sorted = ids;
    std::sort(sorted.begin(), sorted.end());
    return first->members == sorted;
  }

  // ---- property checkers -------------------------------------------------

  /// Total order: within any one configuration, any two nodes that both
  /// delivered position `seq` delivered the same payload there.
  void check_total_order() const {
    std::map<ConfigId, std::map<std::int64_t, Bytes>> by_config;
    for (const auto& [id, rec] : records_) {
      for (const StoredDelivery& d : rec.deliveries) {
        Bytes payload(d.payload.begin(), d.payload.end());
        auto [it, inserted] = by_config[d.config].emplace(d.seq, std::move(payload));
        if (!inserted) {
          ASSERT_EQ(it->second, Bytes(d.payload.begin(), d.payload.end()))
              << "total order violated in config " << to_string(d.config) << " at seq " << d.seq
              << " (node " << id << ")";
        }
      }
    }
  }

  /// Per-node, per-config: delivered seqs strictly increase (a node never
  /// delivers out of order or twice).
  void check_local_order() const {
    for (const auto& [id, rec] : records_) {
      std::map<ConfigId, std::int64_t> last;
      for (const StoredDelivery& d : rec.deliveries) {
        auto [it, inserted] = last.emplace(d.config, d.seq);
        if (!inserted) {
          ASSERT_GT(d.seq, it->second) << "node " << id << " delivered out of order";
          it->second = d.seq;
        }
      }
    }
  }

  /// FIFO per sender at every node: the k-counters of each sender's
  /// delivered payloads never decrease (resends may duplicate, the engine
  /// de-duplicates; but reordering is forbidden).
  void check_fifo() const {
    for (const auto& [id, rec] : records_) {
      std::map<NodeId, std::int64_t> last_k;
      for (const StoredDelivery& d : rec.deliveries) {
        auto [s, k] = parse_payload(d.payload);
        auto it = last_k.find(s);
        if (it != last_k.end()) {
          ASSERT_GE(k, it->second)
              << "FIFO violated at node " << id << " for sender " << s;
        }
        last_k[s] = k;
      }
    }
  }

  /// EVS safe-delivery trichotomy: if any node delivered message (config,
  /// seq) as kSafeInRegular, every member of that configuration delivers it
  /// (any kind) unless it crashed at some point in the run.
  void check_safe_trichotomy() const {
    struct Key {
      ConfigId config;
      std::int64_t seq;
      auto operator<=>(const Key&) const = default;
    };
    std::map<Key, std::vector<NodeId>> safe_deliverers;
    std::map<ConfigId, std::vector<NodeId>> config_members;
    for (const auto& [id, rec] : records_) {
      for (const Configuration& c : rec.regulars) config_members[c.id] = c.members;
      for (const StoredDelivery& d : rec.deliveries) {
        if (d.kind == DeliveryKind::kSafeInRegular) {
          safe_deliverers[{d.config, d.seq}].push_back(id);
        }
      }
    }
    for (const auto& [key, who] : safe_deliverers) {
      auto mit = config_members.find(key.config);
      if (mit == config_members.end()) continue;
      for (NodeId member : mit->second) {
        const NodeRecord& rec = records_.at(member);
        if (rec.crashed || ever_crashed_.count(member)) continue;
        bool delivered = false;
        for (const StoredDelivery& d : rec.deliveries) {
          if (d.config == key.config && d.seq == key.seq) {
            delivered = true;
            break;
          }
        }
        ASSERT_TRUE(delivered) << "safe message seq " << key.seq << " in config "
                               << to_string(key.config) << " delivered safe at node " << who[0]
                               << " but never delivered at member " << member;
      }
    }
  }

  /// Virtual synchrony: two nodes delivering the same transitional
  /// configuration delivered exactly the same set of messages in the
  /// corresponding regular configuration.
  void check_virtual_synchrony() const {
    struct TransKey {
      ConfigId config;
      std::vector<NodeId> participants;
      auto operator<=>(const TransKey&) const = default;
    };
    std::map<TransKey, std::map<NodeId, std::set<std::int64_t>>> groups;
    for (const auto& [id, rec] : records_) {
      for (const Configuration& t : rec.transitionals) {
        auto& slot = groups[{t.id, t.members}][id];
        for (const StoredDelivery& d : rec.deliveries) {
          if (d.config == t.id) slot.insert(d.seq);
        }
      }
    }
    for (const auto& [key, per_node] : groups) {
      const std::set<std::int64_t>* first = nullptr;
      NodeId first_id = kNoNode;
      for (const auto& [id, seqs] : per_node) {
        if (!first) {
          first = &seqs;
          first_id = id;
        } else {
          ASSERT_EQ(seqs, *first) << "virtual synchrony violated between nodes " << first_id
                                  << " and " << id << " in config " << to_string(key.config);
        }
      }
    }
  }

  void check_all_invariants() const {
    check_total_order();
    check_local_order();
    check_fifo();
    check_safe_trichotomy();
    check_virtual_synchrony();
  }

 private:
  void start_gc(NodeId id, std::int64_t initial_counter) {
    Listener listener;
    NodeRecord& rec = records_.at(id);
    listener.on_regular_config = [&rec](const Configuration& c) {
      rec.regulars.push_back(c);
      rec.events.push_back({RecordedEvent::Kind::kRegular, c, {}});
    };
    listener.on_transitional_config = [&rec](const Configuration& c) {
      rec.transitionals.push_back(c);
      rec.events.push_back({RecordedEvent::Kind::kTransitional, c, {}});
    };
    listener.on_deliver = [&rec](const Delivery& d) {
      rec.deliveries.push_back(d);
      rec.events.push_back({RecordedEvent::Kind::kDelivery, {}, d});
    };
    obs::Tracer tracer;
    if (trace_bus_) tracer = obs::Tracer(trace_bus_, id);
    gcs_[id] = std::make_unique<GroupCommunication>(net_, id, std::move(listener),
                                                    initial_counter, std::move(tracer));
  }

  Simulator sim_;
  Network net_;
  std::shared_ptr<obs::TraceBus> trace_bus_;       ///< set when checker forced
  std::unique_ptr<obs::SafetyChecker> checker_;    ///< fail-fast on violation
  std::map<NodeId, std::unique_ptr<GroupCommunication>> gcs_;
  std::map<NodeId, NodeRecord> records_;
  std::map<NodeId, std::int64_t> counters_;
  std::set<NodeId> ever_crashed_;

 public:
  /// Mark in checkers that a node crashed at some point (records survive).
  void note_crash(NodeId id) { ever_crashed_.insert(id); }
};

}  // namespace tordb::gc::testing
