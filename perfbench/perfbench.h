// tordb benchmark driver: the interface between the command line (main.cc)
// and the four workloads (workloads.cc).
//
// One *episode* builds a fresh deployment from the seed, forms its primary
// components, drives the workload through a fixed virtual-time window,
// drains, and checks every correctness property it can. The simulated
// results of an episode are a pure function of (workload, seed): main.cc
// repeats episodes to get host-time medians and asserts that every repeat
// reproduces the simulated results exactly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tordb::perfbench {

struct EpisodeConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Turn on ObsOptions{trace, check} and the benchmark's stage subscriber.
  bool traced = false;
  /// Lane-mode worker threads for shards32x6 (the other workloads run the
  /// classic single-threaded event loop). Results are identical for any
  /// count; only host time changes. Timed runs use one: with two, the
  /// cross-CPU rendezvous on a shared virtual machine makes host time too
  /// unsteady to gate on; --selfcheck runs two.
  int lane_threads = 1;
  /// End the episode after setup (construction, primary formation, data
  /// load): a run repeats setups this way for a steadier setup_s median.
  bool setup_only = false;
};

struct Episode {
  /// Simulated results: bit-identical for a given (workload, seed).
  std::map<std::string, double> sim;
  /// Host-side timings of this episode (seconds, ms or µs as named).
  std::map<std::string, double> host;
  std::uint64_t attempted = 0;  ///< client operations issued in the window
  std::uint64_t failed = 0;     ///< of those, not committed for a non-application reason
  std::string violation;        ///< empty when every correctness check passed
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Run one episode. Throws std::invalid_argument for an unknown workload.
Episode run_episode(const EpisodeConfig& config);

}  // namespace tordb::perfbench
