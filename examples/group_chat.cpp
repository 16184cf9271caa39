// The group-communication substrate as a library of its own: a totally
// ordered group chat written directly against gc::GroupCommunication and
// its gc::Listener callbacks (src/gc/group_communication.h). Every
// participant sees every message in the same order; a partition splits the
// room and the membership events say exactly who is present; a merge
// reunites it.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "gc/group_communication.h"
#include "sim/simulator.h"

using namespace tordb;
using namespace tordb::gc;

namespace {

Bytes text(const std::string& s) { return Bytes(s.begin(), s.end()); }

/// One chat participant: its group endpoint, plus the lines its listener
/// received that main() has not printed yet (callbacks fire inside the
/// simulation; the story prints between steps).
struct Participant {
  std::unique_ptr<GroupCommunication> gc;
  std::vector<std::string> inbox;
};

void join(Network& net, NodeId n, Participant& p) {
  Listener l;
  l.on_regular_config = [&p](const Configuration& c) {
    std::string line = "* members now:";
    for (NodeId m : c.members) line.append(" ").append(std::to_string(m));
    p.inbox.push_back(line);
  };
  l.on_transitional_config = [&p](const Configuration&) {
    p.inbox.push_back("* network change detected...");
  };
  l.on_deliver = [&p](const Delivery& d) {
    p.inbox.push_back("<node " + std::to_string(d.sender) + "> " +
                      std::string(d.payload.begin(), d.payload.end()) +
                      (d.kind == DeliveryKind::kSafeInRegular ? "" : "  (transitional)"));
  };
  p.gc = std::make_unique<GroupCommunication>(net, n, std::move(l), /*initial_config_counter=*/1);
}

void drain(const std::string& who, Participant& p) {
  for (const std::string& line : p.inbox) std::printf("  [%s] %s\n", who.c_str(), line.c_str());
  p.inbox.clear();
}

}  // namespace

int main() {
  Simulator sim(7);
  Network net(sim);
  std::vector<Participant> room(4);
  for (NodeId n = 0; n < 4; ++n) net.add_node(n);
  for (NodeId n = 0; n < 4; ++n) join(net, n, room[n]);
  sim.run_for(seconds(1));
  for (NodeId n = 0; n < 4; ++n) drain("node " + std::to_string(n), room[n]);

  std::printf("\n-- everyone chats; total order means everyone reads the same log --\n");
  room[0].gc->multicast(text("hello from 0"), Service::kSafe);
  room[2].gc->multicast(text("hi! 2 here"), Service::kSafe);
  room[3].gc->multicast(text("3 checking in"), Service::kSafe);
  sim.run_for(millis(100));
  drain("node 1's view", room[1]);

  std::printf("\n-- the network splits {0,1} | {2,3} --\n");
  net.set_components({{0, 1}, {2, 3}});
  sim.run_for(seconds(1));
  room[0].gc->multicast(text("anyone still there?"), Service::kSafe);
  room[3].gc->multicast(text("our side is fine"), Service::kSafe);
  sim.run_for(millis(100));
  drain("node 1", room[1]);
  drain("node 2", room[2]);

  std::printf("\n-- the split heals --\n");
  net.heal();
  sim.run_for(seconds(1));
  room[1].gc->multicast(text("we're back together"), Service::kSafe);
  sim.run_for(millis(100));
  for (NodeId n = 0; n < 4; ++n) drain("node " + std::to_string(n), room[n]);
  return 0;
}
