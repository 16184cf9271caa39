// Randomized equivalence: the flat interned-key Database against a
// reference model built on std::map — the layout the database had before
// keys were interned (DESIGN.md §11). Every externally observable output
// must match op-for-op across long random histories of user commands,
// range fences/installs and cross-shard transaction markers (prepare,
// confirm with or without its decision stamp, cancel): apply results (reads,
// aborted, fenced), get(), size(), version(), extract_range, peek,
// snapshot *bytes* (state transfer feeds virtual time, so byte equality is
// the bar, not just logical equality) and digest().
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "db/database.h"
#include "util/rng.h"

namespace tordb::db {
namespace {

bool reserved(std::string_view key) {
  return key.size() >= 2 && key[0] == '_' && key[1] == '_';
}

bool model_mutates(OpType t) {
  switch (t) {
    case OpType::kPut:
    case OpType::kAdd:
    case OpType::kAppend:
    case OpType::kTimestampPut:
    case OpType::kDelete:
      return true;
    default:
      return false;
  }
}

/// The pre-interning database, re-implemented straight from its std::map
/// form. Deliberately simple and allocation-happy: it is the spec, not the
/// implementation under test.
class ModelDb {
 public:
  ApplyResult apply(const Command& cmd) {
    ApplyResult res;
    for (const Op& op : cmd.ops) {
      if (op.type == OpType::kCheck && get(op.key) != op.value) {
        res.aborted = true;
        return res;
      }
    }
    for (const Op& op : cmd.ops) {
      // A transaction marker's buffered update respects fences like a plain
      // write: the prepare's own blob, or the pending cell a confirm applies.
      const std::string blob = op.type == OpType::kTxnPrepare   ? op.value
                               : op.type == OpType::kTxnConfirm ? get(op.key)
                                                                : std::string();
      bool hit = fenced(op);
      if (!blob.empty()) {
        for (const Op& b : TxnPending::decode(Bytes(blob.begin(), blob.end())).update.ops) {
          hit = hit || fenced(b);
        }
      }
      if (hit) {
        res.aborted = true;
        res.fenced = true;
        return res;
      }
    }
    for (const Op& op : cmd.ops) {
      switch (op.type) {
        case OpType::kPut:
        case OpType::kAdd:
        case OpType::kAppend:
        case OpType::kTimestampPut:
        case OpType::kDelete:
          write(op);
          break;
        case OpType::kGet:
          res.reads.push_back(get(op.key));
          break;
        case OpType::kCheck:
          break;
        case OpType::kFenceRange:
          carve(op.key, op.value);
          ranges_.push_back(Tracked{op.key, op.value, true});
          break;
        case OpType::kInstallRange: {
          const RangeSnapshot snap =
              RangeSnapshot::decode(Bytes(op.value.begin(), op.value.end()));
          for (auto it = data_.lower_bound(snap.lo); it != data_.end();) {
            if (!snap.hi.empty() && it->first >= snap.hi) break;
            if (reserved(it->first)) {
              ++it;
            } else {
              it = data_.erase(it);
            }
          }
          carve(snap.lo, snap.hi);
          ranges_.push_back(Tracked{snap.lo, snap.hi, false});
          for (const RangeRow& row : snap.rows) data_[row.key] = MCell{row.value, row.ts};
          break;
        }
        case OpType::kUnfenceRange:
          carve(op.key, op.value);
          break;
        case OpType::kTxnPrepare:
          data_[op.key].value = op.value;
          break;
        case OpType::kTxnConfirm: {
          const std::string pending = get(op.key);
          if (pending.empty()) break;  // absent cell: a no-op
          data_.erase(op.key);
          for (const Op& b :
               TxnPending::decode(Bytes(pending.begin(), pending.end())).update.ops) {
            if (model_mutates(b.type)) write(b);
          }
          break;
        }
        case OpType::kTxnCancel:
          if (!get(op.key).empty()) data_.erase(op.key);  // absent cell: a no-op
          break;
      }
    }
    ++version_;
    return res;
  }

  std::string get(const std::string& key) const {
    const auto it = data_.find(key);
    return it == data_.end() ? "" : it->second.value;
  }

  std::size_t size() const { return data_.size(); }
  std::int64_t version() const { return version_; }

  RangeSnapshot extract_range(const std::string& lo, const std::string& hi) const {
    RangeSnapshot snap;
    snap.lo = lo;
    snap.hi = hi;
    for (auto it = data_.lower_bound(lo); it != data_.end(); ++it) {
      if (!hi.empty() && it->first >= hi) break;
      if (reserved(it->first)) continue;
      snap.rows.push_back(RangeRow{it->first, it->second.value, it->second.ts});
    }
    return snap;
  }

  Bytes snapshot() const {
    BufWriter w;
    w.i64(version_);
    w.u32(static_cast<std::uint32_t>(data_.size()));
    for (const auto& [key, cell] : data_) {
      w.str(key);
      w.str(cell.value);
      w.i64(cell.ts);
    }
    w.u32(static_cast<std::uint32_t>(ranges_.size()));
    for (const Tracked& r : ranges_) {
      w.str(r.lo);
      w.str(r.hi);
      w.boolean(r.fenced);
    }
    return w.take();
  }

  std::uint64_t digest() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::string_view s) {
      for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
      }
      h ^= 0xff;
      h *= 0x100000001b3ULL;
    };
    for (const auto& [key, cell] : data_) {
      mix(key);
      mix(cell.value);
      h ^= static_cast<std::uint64_t>(cell.ts) * 0x9e3779b97f4a7c15ULL;
    }
    for (const Tracked& r : ranges_) {
      mix(r.lo);
      mix(r.hi);
      h ^= r.fenced ? 0x9e3779b97f4a7c15ULL : 0x517cc1b727220a95ULL;
      h *= 0x100000001b3ULL;
    }
    return h;
  }

 private:
  struct MCell {
    std::string value;
    std::int64_t ts = -1;
  };
  struct Tracked {
    std::string lo;
    std::string hi;
    bool fenced = false;
  };

  bool fenced(const Op& op) const {
    if (!model_mutates(op.type) || reserved(op.key)) return false;
    for (const Tracked& r : ranges_) {
      if (r.fenced && key_in_range(op.key, r.lo, r.hi)) return true;
    }
    return false;
  }

  void write(const Op& op) {
    switch (op.type) {
      case OpType::kPut:
        data_[op.key].value = op.value;
        break;
      case OpType::kAdd: {
        // Lenient parse, exactly like the implementation's to_num: a
        // non-numeric value (or prefix) contributes 0.
        const std::string v = get(op.key);
        std::int64_t cur = 0;
        std::from_chars(v.data(), v.data() + v.size(), cur);
        data_[op.key].value = std::to_string(cur + op.num);
        break;
      }
      case OpType::kAppend:
        data_[op.key].value += op.value;
        break;
      case OpType::kTimestampPut: {
        MCell& c = data_[op.key];
        if (op.num > c.ts) {
          c.ts = op.num;
          c.value = op.value;
        }
        break;
      }
      case OpType::kDelete:
        data_.erase(op.key);
        break;
      default:
        break;
    }
  }

  void carve(std::string_view lo, std::string_view hi) {
    std::vector<Tracked> next;
    for (Tracked& r : ranges_) {
      const bool overlaps =
          (hi.empty() || r.lo < hi) && (r.hi.empty() || lo < std::string_view(r.hi));
      if (!overlaps) {
        next.push_back(std::move(r));
        continue;
      }
      if (std::string_view(r.lo) < lo) next.push_back(Tracked{r.lo, std::string(lo), r.fenced});
      if (!hi.empty() && (r.hi.empty() || hi < std::string_view(r.hi))) {
        next.push_back(Tracked{std::string(hi), r.hi, r.fenced});
      }
    }
    ranges_ = std::move(next);
  }

  std::map<std::string, MCell> data_;
  std::vector<Tracked> ranges_;
  std::int64_t version_ = 0;
};

void expect_equal(const Database& db, const ModelDb& model, std::uint64_t seed, int step) {
  ASSERT_EQ(db.size(), model.size()) << "seed " << seed << " step " << step;
  ASSERT_EQ(db.version(), model.version()) << "seed " << seed << " step " << step;
  ASSERT_EQ(db.digest(), model.digest()) << "seed " << seed << " step " << step;
  ASSERT_EQ(db.snapshot(), model.snapshot()) << "seed " << seed << " step " << step;
}

TEST(DbEquivalence, RandomHistoriesMatchStdMapModel) {
  // Key pool: a sorted two-digit space (so fence bounds land between keys)
  // plus reserved "__" infrastructure keys that fences must never touch.
  std::vector<std::string> pool;
  for (int i = 0; i < 40; ++i) {
    std::string k = "k";
    k += static_cast<char>('0' + i / 10);
    k += static_cast<char>('0' + i % 10);
    pool.push_back(std::move(k));
  }
  pool.push_back("__session/1");
  pool.push_back("__xs/1/1");

  // Coverage of the transaction-marker cases, summed over all seeds.
  int stamped_confirms = 0, absent_resolves = 0, applied_confirms = 0, fenced_markers = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    tordb::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    Database db;
    ModelDb model;

    const auto rand_key = [&]() -> const std::string& {
      return pool[rng.next_below(pool.size())];
    };
    const auto rand_bounds = [&]() {
      // lo < hi over the k-space; hi occasionally open ("").
      std::string lo = pool[rng.next_below(40)];
      std::string hi = rng.chance(0.2) ? "" : pool[rng.next_below(40)];
      if (!hi.empty() && hi < lo) std::swap(lo, hi);
      if (hi == lo) hi = "";
      return std::pair<std::string, std::string>(lo, hi);
    };

    // One mutating user op on a k-space key: the body of a buffered slice.
    const auto rand_write = [&](int step) {
      const std::string& key = pool[rng.next_below(40)];
      switch (rng.next_below(5)) {
        case 0:
          return Op{OpType::kPut, key, "b" + std::to_string(step), 0};
        case 1:
          return Op{OpType::kAdd, key, "", static_cast<std::int64_t>(rng.next_below(9))};
        case 2:
          return Op{OpType::kAppend, key, "b", 0};
        case 3:
          return Op{OpType::kTimestampPut, key, "bt", static_cast<std::int64_t>(rng.next_below(10))};
        default:
          return Op{OpType::kDelete, key, "", 0};
      }
    };

    for (int step = 0; step < 400; ++step) {
      const std::uint64_t pick = rng.next_below(100);
      Command cmd;
      bool confirm = false;      // cmd is a kTxnConfirm (maybe stamped)
      bool cell_absent = false;  // cmd confirms or cancels an absent cell
      if (pick < 62) {
        // A small multi-op user command, sometimes guarded by a check.
        const std::size_t ops = 1 + rng.next_below(4);
        for (std::size_t i = 0; i < ops; ++i) {
          const std::string& key = rand_key();
          switch (rng.next_below(7)) {
            case 0:
              cmd.ops.push_back(Op{OpType::kPut, key, "v" + std::to_string(step), 0});
              break;
            case 1:
              cmd.ops.push_back(
                  Op{OpType::kAdd, key, "", static_cast<std::int64_t>(rng.next_below(20)) - 10});
              break;
            case 2:
              cmd.ops.push_back(Op{OpType::kAppend, key, "a", 0});
              break;
            case 3:
              cmd.ops.push_back(Op{OpType::kGet, key, "", 0});
              break;
            case 4:
              // Half the checks are expected to pass (checking the current
              // value), half to fail on a sentinel no key ever holds.
              cmd.ops.push_back(Op{OpType::kCheck, key,
                                   rng.chance(0.5) ? model.get(key) : "!never!", 0});
              break;
            case 5:
              cmd.ops.push_back(Op{OpType::kTimestampPut, key, "t" + std::to_string(step),
                                   static_cast<std::int64_t>(rng.next_below(10))});
              break;
            default:
              cmd.ops.push_back(Op{OpType::kDelete, key, "", 0});
              break;
          }
        }
      } else if (pick < 72) {
        // Cross-shard transaction markers over three pending cells, so
        // confirms and cancels often find theirs absent (never prepared, or
        // already resolved). A confirm may carry the coordinator's decision
        // stamp in the same command.
        const std::uint64_t slot = rng.next_below(3);
        const std::string cell = "__txnp/1/" + std::to_string(slot);
        const std::uint64_t kind = rng.next_below(4);
        if (kind == 0) {
          TxnPending p;
          p.client = 1;
          p.seq = step;
          const std::size_t ops = 1 + rng.next_below(3);
          for (std::size_t i = 0; i < ops; ++i) p.update.ops.push_back(rand_write(step));
          cmd = Command::txn_prepare(cell, p);
        } else {
          cmd = kind == 3 ? Command::txn_cancel(cell) : Command::txn_confirm(cell);
          confirm = kind != 3;
          cell_absent = model.get(cell).empty();
          if (kind == 2) {
            cmd.ops.push_back(Op{OpType::kPut, "__txnd/1/" + std::to_string(slot), "C", 0});
            ++stamped_confirms;
          }
        }
      } else if (pick < 78) {
        const auto [lo, hi] = rand_bounds();
        cmd = Command::fence_range(lo, hi);
      } else if (pick < 86) {
        // Install a snapshot extracted from the model itself — rows the
        // database must adopt verbatim, clearing its own copy of the range.
        const auto [lo, hi] = rand_bounds();
        cmd = Command::install_range(model.extract_range(lo, hi));
      } else if (pick < 92) {
        const auto [lo, hi] = rand_bounds();
        cmd = Command::unfence_range(lo, hi);
      } else if (pick < 96) {
        // Snapshot/restore round-trip: the restored database must rebuild
        // its interner and flat table to an equivalent state.
        const Bytes snap = db.snapshot();
        db.restore(snap);
        expect_equal(db, model, seed, step);
        continue;
      } else {
        const auto [lo, hi] = rand_bounds();
        const RangeSnapshot a = db.extract_range(lo, hi);
        const RangeSnapshot b = model.extract_range(lo, hi);
        ASSERT_EQ(a.rows.size(), b.rows.size()) << "seed " << seed << " step " << step;
        for (std::size_t i = 0; i < a.rows.size(); ++i) {
          ASSERT_EQ(a.rows[i].key, b.rows[i].key) << "seed " << seed << " step " << step;
          ASSERT_EQ(a.rows[i].value, b.rows[i].value) << "seed " << seed << " step " << step;
          ASSERT_EQ(a.rows[i].ts, b.rows[i].ts) << "seed " << seed << " step " << step;
        }
        continue;
      }

      // peek() is read-only against the PRE-state (an in-command write is
      // not visible to it, unlike apply's reads): evaluate the model's
      // pre-state the same way before applying.
      ApplyResult want_peek;
      for (const Op& op : cmd.ops) {
        if (op.type == OpType::kCheck && model.get(op.key) != op.value) {
          want_peek.aborted = true;
          break;
        }
      }
      if (!want_peek.aborted) {
        for (const Op& op : cmd.ops) {
          if (op.type == OpType::kGet) want_peek.reads.push_back(model.get(op.key));
        }
      }
      const ApplyResult peeked = db.peek(cmd);
      ASSERT_EQ(peeked.aborted, want_peek.aborted) << "seed " << seed << " step " << step;
      ASSERT_EQ(peeked.reads, want_peek.reads) << "seed " << seed << " step " << step;

      const ApplyResult got = db.apply(cmd);
      const ApplyResult want = model.apply(cmd);
      ASSERT_EQ(got.aborted, want.aborted) << "seed " << seed << " step " << step;
      ASSERT_EQ(got.fenced, want.fenced) << "seed " << seed << " step " << step;
      ASSERT_EQ(got.reads, want.reads) << "seed " << seed << " step " << step;
      absent_resolves += cell_absent ? 1 : 0;
      applied_confirms += confirm && !cell_absent && !got.aborted ? 1 : 0;
      fenced_markers += pick >= 62 && pick < 72 && got.fenced ? 1 : 0;
      if (step % 25 == 0) expect_equal(db, model, seed, step);
      // get() spot check on a random key each step.
      const std::string& probe = rand_key();
      ASSERT_EQ(db.get(probe), model.get(probe)) << "seed " << seed << " step " << step;
    }
    expect_equal(db, model, seed, 400);
  }
  EXPECT_GT(stamped_confirms, 0);
  EXPECT_GT(absent_resolves, 0);
  EXPECT_GT(applied_confirms, 0);
  EXPECT_GT(fenced_markers, 0);
}

// The split-command apply(query, update) must equal applying the
// concatenation — including cross-program check-first semantics.
TEST(DbEquivalence, SplitApplyEqualsConcatenation) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    tordb::Rng rng(seed);
    Database split_db;
    Database concat_db;
    for (int step = 0; step < 120; ++step) {
      Command query, update;
      const std::string key = "k" + std::to_string(rng.next_below(12));
      if (rng.chance(0.5)) query.ops.push_back(Op{OpType::kGet, key, "", 0});
      if (rng.chance(0.3)) {
        query.ops.push_back(
            Op{OpType::kCheck, key, rng.chance(0.5) ? concat_db.get(key) : "!no!", 0});
      }
      update.ops.push_back(Op{OpType::kPut, key, "v" + std::to_string(step), 0});
      if (rng.chance(0.3)) update.ops.push_back(Op{OpType::kDelete, key, "", 0});

      Command all;
      all.ops = query.ops;
      all.ops.insert(all.ops.end(), update.ops.begin(), update.ops.end());
      const ApplyResult a = split_db.apply(query, update);
      const ApplyResult b = concat_db.apply(all);
      ASSERT_EQ(a.aborted, b.aborted) << "seed " << seed << " step " << step;
      ASSERT_EQ(a.reads, b.reads) << "seed " << seed << " step " << step;
      ASSERT_EQ(split_db.digest(), concat_db.digest()) << "seed " << seed << " step " << step;
    }
    ASSERT_EQ(split_db.snapshot(), concat_db.snapshot());
  }
}

}  // namespace
}  // namespace tordb::db
