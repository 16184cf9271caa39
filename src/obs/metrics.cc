#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <string_view>
#include <utility>

namespace tordb::obs {

namespace {

int bucket_of(std::int64_t v) {
  if (v <= 0) return 0;
  return std::bit_width(static_cast<std::uint64_t>(v));  // 1..63
}

/// Shortest dotted suffix of `name` that no other of `names` ends in, so
/// "engine.actions_green" prints as "actions_green" while
/// "tpcc.new_order.committed" and "tpcc.payment.committed" keep one more
/// component each.
std::string column_label(const std::vector<std::string>& names, const std::string& name) {
  for (auto dot = name.rfind('.'); dot != std::string::npos && dot > 0;
       dot = name.rfind('.', dot - 1)) {
    const std::string_view tail = std::string_view(name).substr(dot);  // ".committed"
    const auto sharing = std::count_if(names.begin(), names.end(), [&](const std::string& n) {
      return ("." + n).ends_with(tail);
    });
    if (sharing == 1) return std::string(tail.substr(1));
  }
  return name;
}

double bucket_low(int b) { return b == 0 ? 0 : static_cast<double>(1ull << (b - 1)); }
double bucket_high(int b) {
  return b == 0 ? 1 : static_cast<double>(b >= 63 ? ~0ull : (1ull << b));
}

}  // namespace

void Histogram::record(std::int64_t v) {
  buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

void Histogram::snapshot(std::uint64_t out[kBuckets]) const {
  for (int b = 0; b < kBuckets; ++b) out[b] = buckets_[b].load(std::memory_order_relaxed);
}

double Histogram::quantile(double q) const {
  std::uint64_t buckets[kBuckets];
  snapshot(buckets);
  return quantile_from(buckets, count(), q);
}

double Histogram::quantile_from(const std::uint64_t* buckets, std::uint64_t total, double q) {
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total - 1) + 1;
  double seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const double next = seen + static_cast<double>(buckets[b]);
    if (target <= next) {
      // Linear interpolation inside the bucket.
      const double frac = (target - seen) / static_cast<double>(buckets[b]);
      return bucket_low(b) + frac * (bucket_high(b) - bucket_low(b));
    }
    seen = next;
  }
  return bucket_high(kBuckets - 1);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void MetricsRegistry::roll(SimTime now) {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsWindow w;
  w.start = window_start_;
  w.end = now;
  for (const auto& [name, c] : counters_) {
    const std::uint64_t cur = c->value();
    w.counter_deltas[name] = cur - last_counter_[name];
    last_counter_[name] = cur;
  }
  for (const auto& [name, g] : gauges_) w.gauge_values[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    HistShadow& prev = last_hist_[name];
    std::uint64_t cur_buckets[Histogram::kBuckets];
    h->snapshot(cur_buckets);
    std::uint64_t delta_buckets[Histogram::kBuckets];
    std::uint64_t delta_count = 0;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      delta_buckets[b] = cur_buckets[b] - prev.buckets[b];
      delta_count += delta_buckets[b];
      prev.buckets[b] = cur_buckets[b];
    }
    MetricsWindow::HistDelta d;
    d.count = delta_count;
    d.mean = delta_count
                 ? (h->sum() - prev.sum) / static_cast<double>(delta_count)
                 : 0;
    d.p50 = Histogram::quantile_from(delta_buckets, delta_count, 0.50);
    d.p99 = Histogram::quantile_from(delta_buckets, delta_count, 0.99);
    prev.count = h->count();
    prev.sum = h->sum();
    w.histograms[name] = d;
  }
  window_start_ = now;
  windows_.push_back(std::move(w));
}

std::string MetricsRegistry::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, c] : counters_) out += name + " " + std::to_string(c->value()) + "\n";
  for (const auto& [name, g] : gauges_) out += name + " " + std::to_string(g->value()) + "\n";
  for (const auto& [name, h] : histograms_) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s count=%llu mean=%.1f p50=%.0f p99=%.0f\n", name.c_str(),
                  static_cast<unsigned long long>(h->count()), h->mean(), h->quantile(0.5),
                  h->quantile(0.99));
    out += buf;
  }
  return out;
}

std::string MetricsRegistry::window_table(const std::vector<std::string>& counter_names) const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%13s", "window");
  out += buf;
  std::vector<int> widths;
  for (const auto& n : counter_names) {
    const std::string label = column_label(counter_names, n);
    widths.push_back(std::max(16, static_cast<int>(label.size())));
    std::snprintf(buf, sizeof(buf), " | %*s", widths.back(), label.c_str());
    out += buf;
  }
  bool any_hist = false;
  for (const auto& w : windows_) any_hist |= !w.histograms.empty();
  if (any_hist) out += " | histogram p50/p99 (ms)";
  out += "\n";
  for (const auto& w : windows_) {
    std::snprintf(buf, sizeof(buf), "%6.2f-%5.2fs", to_seconds(w.start), to_seconds(w.end));
    out += buf;
    for (std::size_t i = 0; i < counter_names.size(); ++i) {
      auto it = w.counter_deltas.find(counter_names[i]);
      std::snprintf(buf, sizeof(buf), " | %*llu", widths[i],
                    static_cast<unsigned long long>(it == w.counter_deltas.end() ? 0 : it->second));
      out += buf;
    }
    for (const auto& [name, h] : w.histograms) {
      // Histograms record in the unit the metric name declares (here: ms).
      std::snprintf(buf, sizeof(buf), " | %s %.2f/%.2f", name.c_str(), h.p50, h.p99);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

}  // namespace tordb::obs
