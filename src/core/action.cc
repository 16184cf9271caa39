#include "core/action.h"

namespace tordb::core {

std::string to_string(ActionType t) {
  switch (t) {
    case ActionType::kUpdate: return "update";
    case ActionType::kPersistentJoin: return "join";
    case ActionType::kPersistentLeave: return "leave";
  }
  return "?";
}

}  // namespace tordb::core
