// Metrics registry — named counters, gauges, and histograms with
// virtual-time windowing (DESIGN.md §7).
//
// Counts live in their layer's `*Stats` struct. The cluster harness
// (EngineCluster::sample_metrics) is the one publisher: it copies them in
// with `set_total` before every roll, so a counter is current as of the
// last sample or roll. `inc` is for workload clients without a stats struct.
//
// Histograms are log2-bucketed (64 buckets over the full i64 range):
// recording is a clz and two adds, quantiles are estimated by linear
// interpolation inside the winning bucket. Good to ~2x resolution at any
// magnitude, which is what latency series need.
//
// `roll(now)` closes the current window: each metric's delta since the
// previous roll is captured into a `MetricsWindow`. Benches print the
// window list as a time series instead of a single end-of-run number.
//
// Thread-safety (lane mode, DESIGN.md §15): metric cells are plain
// relaxed atomics — engines on different worker lanes record into shared
// histograms, and nothing here orders anything, so relaxed is exactly
// right. Histogram sums accumulate in integers so the total is independent
// of the order lanes interleave (floating-point addition is not
// associative; integer addition is). Lookup-or-create is mutex-guarded (a
// replica joining on a worker lane can create metrics mid-run); the
// returned references stay stable. Sampling, roll()/totals()/window_table()
// run only from the control lane or between runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/types.h"

namespace tordb::obs {

class Counter {
 public:
  void inc(std::uint64_t by = 1) { value_.fetch_add(by, std::memory_order_relaxed); }
  /// Adopt a cumulative total sampled from elsewhere (monotonic).
  void set_total(std::uint64_t total) {
    std::uint64_t cur = value_.load(std::memory_order_relaxed);
    while (total > cur &&
           !value_.compare_exchange_weak(cur, total, std::memory_order_relaxed)) {
    }
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void record(std::int64_t v);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return static_cast<double>(sum_.load(std::memory_order_relaxed)); }
  double mean() const {
    const std::uint64_t n = count();
    return n ? sum() / static_cast<double>(n) : 0;
  }
  /// Quantile estimate over all recorded values (0 <= q <= 1).
  double quantile(double q) const;

  /// Copy the bucket array out (relaxed loads).
  void snapshot(std::uint64_t out[kBuckets]) const;

  /// Quantile over an explicit bucket array (used for window deltas).
  static double quantile_from(const std::uint64_t* buckets, std::uint64_t total, double q);

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};  ///< integer: order-independent total
};

/// One closed virtual-time window: metric deltas between two rolls.
struct MetricsWindow {
  SimTime start = 0;
  SimTime end = 0;
  std::map<std::string, std::uint64_t> counter_deltas;
  std::map<std::string, std::int64_t> gauge_values;
  struct HistDelta {
    std::uint64_t count = 0;
    double mean = 0;
    double p50 = 0;
    double p99 = 0;
  };
  std::map<std::string, HistDelta> histograms;
};

class MetricsRegistry {
 public:
  /// Lookup-or-create. Returned references are stable for the registry
  /// lifetime (instrumented code caches them once, off the hot path).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Close the window [last roll, now) and start a new one.
  void roll(SimTime now);

  const std::vector<MetricsWindow>& windows() const { return windows_; }

  /// Cumulative totals, one "name value" per line (sorted by name).
  std::string totals() const;

  /// Render the window series for the named counters (and any histograms)
  /// as a fixed-width table, one row per window.
  std::string window_table(const std::vector<std::string>& counter_names) const;

 private:
  struct HistShadow {
    std::uint64_t buckets[Histogram::kBuckets] = {};
    std::uint64_t count = 0;
    double sum = 0;
  };

  mutable std::mutex mu_;  ///< guards map structure, not metric cells
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::uint64_t> last_counter_;
  std::map<std::string, HistShadow> last_hist_;
  SimTime window_start_ = 0;
  std::vector<MetricsWindow> windows_;
};

}  // namespace tordb::obs
