#include "core/messages.h"

namespace tordb::core {

bool VulnerableRecord::all_bits_set() const {
  for (bool b : bits) {
    if (!b) return false;
  }
  return !bits.empty();
}

void VulnerableRecord::set_bit(NodeId server) {
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (set[i] == server && i < bits.size()) bits[i] = true;
  }
}

}  // namespace tordb::core
