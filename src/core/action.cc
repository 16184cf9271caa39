#include "core/action.h"

namespace tordb::core {

void Action::encode(BufWriter& w) const {
  w.u8(static_cast<std::uint8_t>(type));
  w.action_id(id);
  w.i64(green_line);
  w.i64(client);
  w.u8(static_cast<std::uint8_t>(semantics));
  query.encode(w);
  update.encode(w);
  w.i32(subject);
  w.u32(padding);
  // Padding bytes model the action body (e.g. the SQL text); content is
  // irrelevant, size drives the latency/bandwidth model.
  for (std::uint32_t i = 0; i < padding; ++i) w.u8(0);
}

Action Action::decode(BufReader& r) {
  Action a;
  a.type = static_cast<ActionType>(r.u8());
  a.id = r.action_id();
  a.green_line = r.i64();
  a.client = r.i64();
  a.semantics = static_cast<Semantics>(r.u8());
  a.query = db::Command::decode(r);
  a.update = db::Command::decode(r);
  a.subject = r.i32();
  a.padding = r.u32();
  for (std::uint32_t i = 0; i < a.padding; ++i) r.u8();
  return a;
}

std::size_t Action::wire_size() const {
  // type, id, green_line, client, semantics, subject, padding length: the
  // fixed fields of encode(), counted instead of encoded.
  constexpr std::size_t kFixed = 1 + 12 + 8 + 8 + 1 + 4 + 4;
  return kFixed + query.wire_size() + update.wire_size() + padding;
}

std::string to_string(ActionType t) {
  switch (t) {
    case ActionType::kUpdate: return "update";
    case ActionType::kPersistentJoin: return "join";
    case ActionType::kPersistentLeave: return "leave";
  }
  return "?";
}

}  // namespace tordb::core
