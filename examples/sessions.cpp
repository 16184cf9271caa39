// Exactly-once client sessions: a payment processor that keeps charging
// while replicas crash under it, without ever double-charging.
//
// The ClientSession library (src/core/client_session.h) fences every update
// with a session-sequence guard evaluated at ordering time, retries through
// another replica as soon as its replica crashes or leaves the primary (a
// timer is the backstop), and resolves ambiguous outcomes by reading the
// guard back — so "charge the card" happens exactly once no matter which
// replica dies when.
#include <cstdio>

#include "core/client_session.h"
#include "db/database.h"
#include "workload/cluster.h"

using namespace tordb;

int main() {
  workload::ClusterOptions options;
  options.replicas = 4;
  workload::EngineCluster cluster(options);
  cluster.run_for(seconds(1));

  std::vector<core::ReplicaNode*> nodes;
  for (NodeId i = 0; i < 4; ++i) nodes.push_back(&cluster.node(i));
  core::ClientSession processor(cluster.sim(), nodes, /*client_id=*/501);

  std::printf("submitting 8 charges of $25 while replicas crash...\n");
  int committed = 0;
  for (int i = 1; i <= 8; ++i) {
    processor.submit(db::Command::add("merchant-balance", 25),
                     [&, i](const core::SessionReply& r) {
                       ++committed;
                       std::printf("  charge %d: committed after %d attempt(s)\n", i,
                                   r.attempts);
                     });
  }

  // Crash the replica serving the session mid-stream, twice.
  cluster.run_for(millis(9) + micros(300));
  cluster.crash(0);
  std::printf("  >> replica 0 crashed mid-charge\n");
  cluster.run_for(seconds(2));
  cluster.recover(0);
  cluster.run_for(millis(25));
  cluster.crash(1);
  std::printf("  >> replica 1 crashed mid-charge\n");
  cluster.run_for(seconds(2));
  cluster.recover(1);
  cluster.run_for(seconds(3));

  std::printf("\nresults: %d/8 committed, %llu retries, %llu duplicates suppressed\n",
              committed, static_cast<unsigned long long>(processor.stats().retries),
              static_cast<unsigned long long>(processor.stats().duplicates_suppressed));
  for (NodeId i = 0; i < 4; ++i) {
    std::printf("  replica %d: merchant-balance = $%s\n", i,
                cluster.engine(i).database().get("merchant-balance").c_str());
  }
  std::printf("(exactly-once: 8 charges x $25 = $200 at every replica)\n");
  return 0;
}
