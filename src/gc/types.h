// Public service types of the group-communication layer.
//
// The layer implements the Extended Virtual Synchrony (EVS) model of Moser,
// Amir, Melliar-Smith and Agarwal [21], the model the paper's replication
// engine is built on (paper §4.1):
//
//  - A *regular configuration* is an agreed membership (view).
//  - On a connectivity change the layer first delivers a *transitional
//    configuration* (the members of the next regular configuration that come
//    together from the current regular one), then the left-over messages,
//    then the next regular configuration.
//  - *Safe delivery*: a message delivered as safe in a regular configuration
//    is guaranteed to be delivered to every member of that configuration
//    (possibly in its transitional configuration) unless that member
//    crashes. Messages for which this guarantee cannot be established are
//    delivered in the transitional configuration. This yields the paper's
//    three-situation trichotomy: nobody can see "delivered safe in regular"
//    while somebody else sees "never delivered".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/serde.h"
#include "util/types.h"

namespace tordb::gc {

/// Delivery service requested for a multicast.
enum class Service : std::uint8_t {
  kAgreed = 0,  ///< totally ordered within the configuration
  kSafe = 1,    ///< totally ordered + all-received guarantee (EVS safe)
};

/// A membership (view) notification.
struct Configuration {
  ConfigId id;
  std::vector<NodeId> members;  ///< sorted
  bool transitional = false;

  bool contains(NodeId n) const;
  std::string to_string() const;

  friend bool operator==(const Configuration&, const Configuration&) = default;
};

/// How a message reached the application.
enum class DeliveryKind : std::uint8_t {
  kSafeInRegular = 0,  ///< §4.1 situation 1: all guarantees met
  kTransitional = 1,   ///< §4.1 situation 2: delivered in the transitional
                       ///  configuration; other components may not have it
  kAgreed = 2,         ///< agreed-service message (no safety guarantee asked)
};

/// One delivered message.
struct Delivery {
  NodeId sender = kNoNode;
  ConfigId config;          ///< regular configuration the message belongs to
  std::int64_t seq = 0;     ///< total-order position within that configuration
  DeliveryKind kind = DeliveryKind::kAgreed;
  /// A slice of `wire`, borrowed from the layer's delivery buffer. A view
  /// rather than a whole Bytes because the buffer holds refcounted wire
  /// buffers shared by every recipient of a multicast: the payload is a
  /// slice of the ORDERED wire, and deliveries run once per member per
  /// message, so the deep copy this avoids was the group's largest
  /// per-message allocation.
  std::span<const std::uint8_t> payload;
  /// The immutable buffer `payload` points into. The span alone is valid
  /// for the on_deliver callback only; holding `wire` keeps it valid for as
  /// long as the holder needs it, which is how a replica's disk records a
  /// delivered body without copying it (DESIGN.md §10). Every member that
  /// delivers the message holds the same wire, so its decode memo is how
  /// the group decodes the payload once (DESIGN.md §3.1). Null for a
  /// delivery made outside the layer (test harness copies).
  std::shared_ptr<const SharedWire> wire;
};

/// Callbacks the application (the replication engine) installs. The layer
/// invokes them in EVS order: safe/agreed deliveries, then a transitional
/// configuration, then left-over deliveries, then the next regular
/// configuration.
struct Listener {
  std::function<void(const Configuration&)> on_regular_config;
  std::function<void(const Configuration&)> on_transitional_config;
  std::function<void(const Delivery&)> on_deliver;
  /// A knowledge bound rose: knowledge_floor() or some member's
  /// knowledge_of() (DESIGN.md §14). Fired from received stability
  /// messages only, never from set_knowledge().
  std::function<void()> on_knowledge;
};

}  // namespace tordb::gc
