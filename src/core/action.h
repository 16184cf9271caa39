// Actions: the unit of replication (paper §2.2).
//
// An action carries a query part and an update part (either may be empty)
// plus the bookkeeping fields of the paper's Appendix A message structure:
// the creating server's action id, the creator's green line at creation
// time (used for white garbage collection) and the requesting client.
//
// Action types beyond regular updates implement §5.1 online
// reconfiguration: PERSISTENT_JOIN announces a new replica,
// PERSISTENT_LEAVE permanently removes one.
//
// The `semantics` field selects the §6 application semantics for the
// action: strict (one-copy serializability — applied only when green),
// timestamp (last-writer-wins, safe to expose before global order), or
// commutative (order-independent, e.g. inventory adjustments).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "db/database.h"
#include "util/serde.h"
#include "util/types.h"

namespace tordb::core {

enum class Semantics : std::uint8_t {
  kStrict = 0,       ///< applied to the database only when green
  kTimestamp = 1,    ///< §6 timestamp updates: replied on red, converges
  kCommutative = 2,  ///< §6 commutative updates: replied on red, converges
};

enum class ActionType : std::uint8_t {
  kUpdate = 0,           ///< regular client action
  kPersistentJoin = 1,   ///< §5.1 PERSISTENT_JOIN (subject = joining server)
  kPersistentLeave = 2,  ///< §5.1 PERSISTENT_LEAVE (subject = leaving server)
};

struct Action {
  ActionType type = ActionType::kUpdate;
  ActionId id;                   ///< {creating server, per-server index}
  std::int64_t green_line = 0;   ///< creator's green count at creation time
  std::int64_t client = 0;
  Semantics semantics = Semantics::kStrict;
  db::Command query;
  db::Command update;
  NodeId subject = kNoNode;  ///< join_id / leave_id for membership actions
  std::uint32_t padding = 0; ///< extra wire bytes to model action size

  void encode(BufWriter& w) const;
  static Action decode(BufReader& r);

  /// Wire size contribution of this action (payload + padding), used by the
  /// network cost model. The paper's evaluation uses 200-byte actions.
  std::size_t wire_size() const;
};

/// One immutable action shared by reference. Every replica of a group that
/// delivers the same wire holds the same object (DESIGN.md §3.1), so the
/// body is decoded once per group, not once per replica.
using ActionRef = std::shared_ptr<const Action>;

std::string to_string(ActionType t);

}  // namespace tordb::core
