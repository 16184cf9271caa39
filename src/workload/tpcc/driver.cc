#include "workload/tpcc/driver.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace tordb::workload::tpcc {

namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
constexpr std::size_t kRecentItemsCap = 20;  ///< stock-level looks at the last 20 items
constexpr std::size_t kLoadChunkOps = 128;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t s = h ^ (v + kGolden + (h << 6) + (h >> 2));
  return splitmix64(s);
}

}  // namespace

const char* to_string(TxnType t) {
  switch (t) {
    case TxnType::kNewOrder: return "new_order";
    case TxnType::kPayment: return "payment";
    case TxnType::kDelivery: return "delivery";
    case TxnType::kOrderStatus: return "order_status";
    case TxnType::kStockLevel: return "stock_level";
  }
  return "?";
}

TpccDriver::TpccDriver(ShardedCluster& cluster, TpccOptions options)
    : cluster_(cluster),
      sim_(cluster.sim()),
      options_(options),
      zipf_(static_cast<std::uint64_t>(options.warehouses), options.zipf_theta),
      alive_(std::make_shared<bool>(true)) {
  if (options_.warehouses < 1 || options_.districts < 1 || options_.customers < 1 ||
      options_.items < 1 || options_.clients < 1 || options_.max_order_lines < 1 ||
      options_.delivery_batch < 1) {
    throw std::invalid_argument("tpcc options must all be >= 1");
  }
  if (options_.pct_new_order + options_.pct_payment + options_.pct_delivery +
          options_.pct_order_status > 100) {
    throw std::invalid_argument("tpcc mix percentages exceed 100");
  }
  const int districts_total = options_.warehouses * options_.districts;
  undelivered_.resize(static_cast<std::size_t>(districts_total));
  recent_items_.resize(static_cast<std::size_t>(districts_total));
  payment_sum_.assign(static_cast<std::size_t>(districts_total), 0);
  admitted_new_orders_.assign(static_cast<std::size_t>(districts_total), 0);
  terminals_.resize(static_cast<std::size_t>(options_.clients));
  for (int t = 0; t < options_.clients; ++t) {
    auto& term = terminals_[static_cast<std::size_t>(t)];
    term.id = t;
    // Same derivation discipline as ShardedCluster::shard_seed: two splitmix
    // steps over (seed, terminal id) for uncorrelated per-terminal streams.
    std::uint64_t x = options_.seed;
    (void)splitmix64(x);
    x ^= static_cast<std::uint64_t>(0x7c00 + t) * kGolden;
    term.rng = Rng(splitmix64(x));
  }
}

void TpccDriver::load() {
  // Initial rows: per-warehouse item validity ("1", the kCheck target) and
  // starting stock. Customer balances, ytd counters and order counts begin
  // as absent keys (kAdd reads absent as 0), so nothing else is loaded.
  const int shards = cluster_.shards();
  std::vector<std::vector<db::Op>> rows(static_cast<std::size_t>(shards));
  for (int w = 0; w < options_.warehouses; ++w) {
    for (int i = 0; i < options_.items; ++i) {
      std::string ik = item_key(w, i);
      std::string sk = stock_key(w, i);
      auto& item_bucket = rows[static_cast<std::size_t>(cluster_.directory().shard_of(ik))];
      item_bucket.push_back(db::Op{db::OpType::kPut, std::move(ik), "1", 0});
      auto& stock_bucket = rows[static_cast<std::size_t>(cluster_.directory().shard_of(sk))];
      stock_bucket.push_back(db::Op{db::OpType::kPut, std::move(sk), "100", 0});
    }
  }
  // One loader session (client id just past the terminals) per shard, in
  // bounded chunks; each chunk is single-shard by construction.
  auto outstanding = std::make_shared<std::int64_t>(0);
  const std::int64_t loader = options_.clients;
  for (int s = 0; s < shards; ++s) {
    auto& bucket = rows[static_cast<std::size_t>(s)];
    for (std::size_t at = 0; at < bucket.size(); at += kLoadChunkOps) {
      db::Command cmd;
      const std::size_t end = std::min(at + kLoadChunkOps, bucket.size());
      cmd.ops.assign(bucket.begin() + static_cast<std::ptrdiff_t>(at),
                     bucket.begin() + static_cast<std::ptrdiff_t>(end));
      ++*outstanding;
      cluster_.router().submit(loader, std::move(cmd),
                               [outstanding](const shard::RouteReply& r) {
                                 if (!r.committed) {
                                   throw std::runtime_error("tpcc load command aborted");
                                 }
                                 --*outstanding;
                               });
    }
  }
  for (int spins = 0; *outstanding > 0; ++spins) {
    if (spins > 1200) throw std::runtime_error("tpcc load did not complete");
    cluster_.run_for(millis(100));
  }
}

void TpccDriver::start(SimTime window_start, SimTime window_end) {
  window_start_ = window_start;
  window_end_ = window_end;
  if (const auto& metrics = cluster_.metrics()) {
    for (int t = 0; t < kTxnTypes; ++t) {
      const std::string prefix = std::string("tpcc.") + to_string(static_cast<TxnType>(t));
      m_committed_[t] = &metrics->counter(prefix + ".committed");
      m_aborted_[t] = &metrics->counter(prefix + ".aborted");
      m_latency_[t] = &metrics->histogram(prefix + ".latency_us");
    }
    m_aborted_check_ = &metrics->counter("tpcc.aborted.check");
    m_aborted_fenced_ = &metrics->counter("tpcc.aborted.fenced");
    m_cross_ = &metrics->counter("tpcc.cross.committed");
    m_remote_unchecked_ = &metrics->counter("tpcc.new_order.remote_unchecked");
    m_remote_checked_ = &metrics->counter("tpcc.new_order.remote_checked");
    m_bounces_ = &metrics->counter("tpcc.fenced_bounces");
  }
  if (options_.hotspot_shift_after > 0) {
    sim_.after(options_.hotspot_shift_after, [this, alive = alive_] {
      if (!*alive) return;
      const int offset =
          options_.hotspot_shift_offset < 0 ? options_.warehouses / 2 : options_.hotspot_shift_offset;
      hot_offset_ = offset % options_.warehouses;
    });
  }
  for (std::size_t t = 0; t < terminals_.size(); ++t) issue(t);
}

bool TpccDriver::idle() const {
  return window_end_ > 0 && sim_.now() >= window_end_ && cluster_.router().idle() &&
         cluster_.txn().idle();
}

std::uint64_t TpccDriver::committed_in_window() const {
  std::uint64_t sum = 0;
  for (const TxnStats& s : window_) sum += s.committed;
  return sum;
}

std::uint64_t TpccDriver::aborted_checks_in_window() const {
  std::uint64_t sum = 0;
  for (const TxnStats& s : window_) sum += s.aborted_check;
  return sum;
}

std::int64_t TpccDriver::payment_sum(int w, int d) const {
  return payment_sum_[static_cast<std::size_t>(district_index(w, d))];
}

std::int64_t TpccDriver::admitted_new_orders(int w, int d) const {
  return admitted_new_orders_[static_cast<std::size_t>(district_index(w, d))];
}

std::uint64_t TpccDriver::state_digest() const {
  std::uint64_t h = 0x74706363ULL;  // "tpcc"
  for (const TxnStats& s : total_) {
    h = mix(h, s.committed);
    h = mix(h, s.aborted_check);
    h = mix(h, s.aborted_fenced);
    h = mix(h, s.aborted_other);
  }
  h = mix(h, cross_committed_);
  h = mix(h, remote_unchecked_);
  h = mix(h, remote_checked_);
  h = mix(h, deliveries_stamped_);
  for (std::size_t i = 0; i < payment_sum_.size(); ++i) {
    h = mix(h, static_cast<std::uint64_t>(payment_sum_[i]));
    h = mix(h, static_cast<std::uint64_t>(admitted_new_orders_[i]));
  }
  for (int s = 0; s < cluster_.shards(); ++s) {
    h = mix(h, static_cast<std::uint64_t>(cluster_.green_count(s)));
    for (int i = 0; i < cluster_.replicas_per_shard(); ++i) {
      const auto& node = cluster_.node(s, i);
      if (node.running()) h = mix(h, node.engine().db_digest());
    }
  }
  return h;
}

int TpccDriver::pick_warehouse(Rng& rng) {
  const auto rank = zipf_.next(rng);
  return static_cast<int>((rank + static_cast<std::uint64_t>(hot_offset_)) %
                          static_cast<std::uint64_t>(options_.warehouses));
}

core::ReplicaNode* TpccDriver::query_replica(int shard) {
  for (int i = 0; i < cluster_.replicas_per_shard(); ++i) {
    core::ReplicaNode& node = cluster_.node(shard, i);
    if (node.running() && !node.has_left()) return &node;
  }
  return nullptr;
}

void TpccDriver::issue(std::size_t t) {
  if (sim_.now() >= window_end_) return;  // terminal stops at window end
  Rng& rng = terminals_[t].rng;
  const int draw = static_cast<int>(rng.next_below(100));
  if (draw < options_.pct_new_order) {
    do_new_order(t);
  } else if (draw < options_.pct_new_order + options_.pct_payment) {
    do_payment(t);
  } else if (draw < options_.pct_new_order + options_.pct_payment + options_.pct_delivery) {
    do_delivery(t);
  } else if (draw < options_.pct_new_order + options_.pct_payment + options_.pct_delivery +
                        options_.pct_order_status) {
    do_order_status(t);
  } else {
    do_stock_level(t);
  }
}

void TpccDriver::record(TxnType type, SimTime t0, bool committed, bool check_aborted,
                        bool fenced) {
  const auto idx = static_cast<std::size_t>(type);
  const SimTime now = sim_.now();
  auto bump = [&](TxnStats& s, bool with_latency) {
    if (committed) {
      ++s.committed;
      if (with_latency) s.latency.record(now - t0);
    } else if (check_aborted) {
      ++s.aborted_check;
    } else if (fenced) {
      ++s.aborted_fenced;
    } else {
      ++s.aborted_other;
    }
  };
  bump(total_[idx], false);
  if (now >= window_start_ && now < window_end_) bump(window_[idx], true);
  if (m_committed_[idx] != nullptr) {
    if (committed) {
      m_committed_[idx]->inc();
      m_latency_[idx]->record((now - t0) / 1000);  // ns -> us
    } else {
      m_aborted_[idx]->inc();
      if (check_aborted) m_aborted_check_->inc();
      if (fenced) m_aborted_fenced_->inc();
    }
  }
}

void TpccDriver::finish(std::size_t t, TxnType type, SimTime t0, const shard::RouteReply& r) {
  fenced_bounces_ += static_cast<std::uint64_t>(r.fenced_bounces);
  if (m_bounces_ != nullptr && r.fenced_bounces > 0) {
    m_bounces_->inc(static_cast<std::uint64_t>(r.fenced_bounces));
  }
  record(type, t0, r.committed, r.check_aborted, r.fenced);
  issue(t);
}

void TpccDriver::do_new_order(std::size_t t) {
  Terminal& term = terminals_[t];
  Rng& rng = term.rng;
  const SimTime t0 = sim_.now();
  const int w = pick_warehouse(rng);
  const int d = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(options_.districts)));
  const int c = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(options_.customers)));
  const int lines =
      1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(options_.max_order_lines)));
  // TPC-C's remote knob: the order's supplier warehouse is foreign. Under
  // range sharding by warehouse this is exactly the cross-shard fraction.
  int supply = w;
  if (options_.warehouses > 1 && rng.chance(options_.remote_fraction)) {
    supply = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(options_.warehouses - 1)));
    if (supply >= w) ++supply;
  }
  const std::int64_t n = ++term.next_order;

  db::Command cmd;
  cmd.ops.reserve(static_cast<std::size_t>(3 * lines + 4));
  std::vector<int> picked;
  picked.reserve(static_cast<std::size_t>(lines));
  for (int l = 0; l < lines; ++l) {
    const int item =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(options_.items)));
    const std::int64_t qty = 1 + rng.next_range(0, 4);
    // Item precondition + commutative stock decrement at the supplier,
    // order-line row at the home district.
    cmd.ops.push_back(db::Op{db::OpType::kCheck, item_key(supply, item), "1", 0});
    cmd.ops.push_back(db::Op{db::OpType::kAdd, stock_key(supply, item), "", -qty});
    std::string line_val = "i";
    line_val += std::to_string(item);
    line_val += "/q";
    line_val += std::to_string(qty);
    cmd.ops.push_back(db::Op{db::OpType::kPut, order_line_key(w, d, term.id, n, l),
                             std::move(line_val), 0});
    picked.push_back(item);
  }
  std::string order_val = "c";
  order_val += std::to_string(c);
  order_val += "/ol";
  order_val += std::to_string(lines);
  cmd.ops.push_back(
      db::Op{db::OpType::kPut, order_key(w, d, term.id, n), std::move(order_val), 0});
  cmd.ops.push_back(db::Op{db::OpType::kPut, customer_last_order_key(w, d, c),
                           std::to_string(term.id) + "-" + std::to_string(n), 0});
  cmd.ops.push_back(db::Op{db::OpType::kAdd, district_order_count_key(w, d), "", 1});
  // TPC-C §2.4.1.5: ~1% of orders carry an invalid item; the kCheck against
  // the out-of-catalog row fails and the whole order aborts atomically — for
  // a remote supplier that abort spans shards through the coordinator.
  if (rng.chance(options_.invalid_item_fraction)) {
    cmd.ops.push_back(db::Op{db::OpType::kCheck, item_key(supply, options_.items), "1", 0});
  }
  if (cluster_.directory().shards_of(cmd).size() > 1) {
    if (options_.unchecked_remote) {
      // A10 ablation: the pre-coordinator downgrade. Strip the per-shard
      // preconditions and apply the remote order unconditionally.
      std::erase_if(cmd.ops, [](const db::Op& op) { return op.type == db::OpType::kCheck; });
      ++remote_unchecked_;
      if (m_remote_unchecked_ != nullptr) m_remote_unchecked_->inc();
    } else {
      // Checks kept: the router hands the command to the prepared-check
      // transaction coordinator (DESIGN.md §13), which evaluates each kCheck
      // at its owning shard and confirms or cancels atomically everywhere.
      ++remote_checked_;
      if (m_remote_checked_ != nullptr) m_remote_checked_->inc();
    }
  }

  cluster_.router().submit(
      term.id, std::move(cmd),
      [this, alive = alive_, t, t0, w, d, client = term.id, n,
       picked = std::move(picked)](const shard::RouteReply& r) {
        if (!*alive) return;
        if (r.committed) {
          const auto di = static_cast<std::size_t>(district_index(w, d));
          ++admitted_new_orders_[di];
          undelivered_[di].push_back(OrderRef{client, n});
          auto& ring = recent_items_[di];
          for (const int item : picked) {
            ring.push_back(item);
            if (ring.size() > kRecentItemsCap) ring.erase(ring.begin());
          }
          if (r.shards_involved > 1) {
            ++cross_committed_;
            if (m_cross_ != nullptr) m_cross_->inc();
          }
        }
        finish(t, TxnType::kNewOrder, t0, r);
      });
}

void TpccDriver::do_payment(std::size_t t) {
  Terminal& term = terminals_[t];
  Rng& rng = term.rng;
  const SimTime t0 = sim_.now();
  const int w = pick_warehouse(rng);
  const int d = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(options_.districts)));
  const int c = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(options_.customers)));
  const std::int64_t amount = rng.next_range(1, 5000);
  // TPC-C §2.5.1.2: a fraction of payments are made by a customer of a
  // remote warehouse — the home district books the ytd, the foreign shard
  // books the balance, one commutative action through the commit barrier.
  int cw = w;
  if (options_.warehouses > 1 && rng.chance(options_.remote_fraction)) {
    cw = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(options_.warehouses - 1)));
    if (cw >= w) ++cw;
  }

  db::Command cmd;
  cmd.ops.reserve(3);
  cmd.ops.push_back(db::Op{db::OpType::kAdd, warehouse_ytd_key(w), "", amount});
  cmd.ops.push_back(db::Op{db::OpType::kAdd, district_ytd_key(w, d), "", amount});
  cmd.ops.push_back(db::Op{db::OpType::kAdd, customer_balance_key(cw, d, c), "", amount});

  cluster_.router().submit(term.id, std::move(cmd),
                           [this, alive = alive_, t, t0, w, d, amount](const shard::RouteReply& r) {
                             if (!*alive) return;
                             if (r.committed) {
                               payment_sum_[static_cast<std::size_t>(district_index(w, d))] +=
                                   amount;
                               if (r.shards_involved > 1) {
                                 ++cross_committed_;
                                 if (m_cross_ != nullptr) m_cross_->inc();
                               }
                             }
                             finish(t, TxnType::kPayment, t0, r);
                           });
}

void TpccDriver::do_delivery(std::size_t t) {
  Terminal& term = terminals_[t];
  Rng& rng = term.rng;
  const SimTime t0 = sim_.now();
  const int w = pick_warehouse(rng);
  const int d = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(options_.districts)));
  auto& queue = undelivered_[static_cast<std::size_t>(district_index(w, d))];
  if (queue.empty()) {
    // Nothing admitted for this district yet — draw the next transaction
    // (the rng advanced, so this is not a fixed point).
    ++delivery_empty_;
    issue(t);
    return;
  }
  std::vector<OrderRef> batch;
  const int take = std::min<int>(options_.delivery_batch, static_cast<int>(queue.size()));
  batch.reserve(static_cast<std::size_t>(take));
  for (int i = 0; i < take; ++i) {
    batch.push_back(queue.front());
    queue.pop_front();
  }
  db::Command cmd;
  cmd.ops.reserve(batch.size());
  for (const OrderRef& ref : batch) {
    cmd.ops.push_back(
        db::Op{db::OpType::kTimestampPut, delivery_key(w, d, ref.client, ref.n), "D", t0});
  }

  cluster_.router().submit(
      term.id, std::move(cmd),
      [this, alive = alive_, t, t0, w, d, batch = std::move(batch)](const shard::RouteReply& r) {
        if (!*alive) return;
        if (r.committed) {
          deliveries_stamped_ += batch.size();
        } else {
          // Put the undelivered orders back in age order for a later pass.
          auto& queue = undelivered_[static_cast<std::size_t>(district_index(w, d))];
          queue.insert(queue.begin(), batch.begin(), batch.end());
        }
        finish(t, TxnType::kDelivery, t0, r);
      });
}

void TpccDriver::do_order_status(std::size_t t) {
  Terminal& term = terminals_[t];
  Rng& rng = term.rng;
  const SimTime t0 = sim_.now();
  const int w = pick_warehouse(rng);
  const int d = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(options_.districts)));
  const int c = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(options_.customers)));
  std::string balance_key = customer_balance_key(w, d, c);
  const int shard = cluster_.directory().shard_of(balance_key);
  db::Command query;
  query.ops.push_back(db::Op{db::OpType::kGet, std::move(balance_key), "", 0});
  query.ops.push_back(db::Op{db::OpType::kGet, customer_last_order_key(w, d, c), "", 0});

  core::ReplicaNode* node = query_replica(shard);
  if (node == nullptr) {
    record(TxnType::kOrderStatus, t0, false, false, false);
    issue(t);
    return;
  }
  node->engine().submit_query(std::move(query), core::QueryMode::kWeak,
                              [this, alive = alive_, t, t0](const core::Reply& r) {
                                if (!*alive) return;
                                record(TxnType::kOrderStatus, t0, !r.aborted, false, false);
                                issue(t);
                              });
}

void TpccDriver::do_stock_level(std::size_t t) {
  Terminal& term = terminals_[t];
  Rng& rng = term.rng;
  const SimTime t0 = sim_.now();
  const int w = pick_warehouse(rng);
  const int d = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(options_.districts)));
  const auto& ring = recent_items_[static_cast<std::size_t>(district_index(w, d))];
  db::Command query;
  if (ring.empty()) {
    query.ops.push_back(db::Op{db::OpType::kGet, stock_key(w, 0), "", 0});
  } else {
    query.ops.reserve(ring.size());
    for (const int item : ring) {
      query.ops.push_back(db::Op{db::OpType::kGet, stock_key(w, item), "", 0});
    }
  }
  const int shard = cluster_.directory().shard_of(query.ops.front().key);

  core::ReplicaNode* node = query_replica(shard);
  if (node == nullptr) {
    record(TxnType::kStockLevel, t0, false, false, false);
    issue(t);
    return;
  }
  node->engine().submit_query(std::move(query), core::QueryMode::kDirty,
                              [this, alive = alive_, t, t0](const core::Reply& r) {
                                if (!*alive) return;
                                record(TxnType::kStockLevel, t0, !r.aborted, false, false);
                                issue(t);
                              });
}

}  // namespace tordb::workload::tpcc
