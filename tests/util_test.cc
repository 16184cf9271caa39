#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "util/flat_map.h"
#include "util/rng.h"
#include "util/serde.h"
#include "util/types.h"
#include "util/zipf.h"

namespace tordb {
namespace {

TEST(Types, ActionIdOrdering) {
  ActionId a{1, 5};
  ActionId b{1, 6};
  ActionId c{2, 1};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (ActionId{1, 5}));
}

TEST(Types, ConfigIdOrdering) {
  ConfigId a{3, 7};
  ConfigId b{4, 1};
  EXPECT_LT(a, b);  // counter dominates
  EXPECT_LT((ConfigId{4, 0}), (ConfigId{4, 1}));
}

TEST(Types, DurationHelpers) {
  EXPECT_EQ(millis(1), micros(1000));
  EXPECT_EQ(seconds(1), millis(1000));
  EXPECT_DOUBLE_EQ(to_millis(millis(5)), 5.0);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2)), 2.0);
}

TEST(Types, ToStringFormats) {
  EXPECT_EQ(to_string(ActionId{3, 42}), "a(3:42)");
  EXPECT_EQ(to_string(ConfigId{9, 2}), "c(9@2)");
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, NextRangeInclusive) {
  Rng r(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    auto v = r.next_range(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all values hit
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ForkIndependent) {
  Rng parent(5);
  Rng c1 = parent.fork();
  Rng c2 = parent.fork();
  EXPECT_NE(c1.next_u64(), c2.next_u64());
}

TEST(Serde, RoundTripScalars) {
  BufWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i32(-42);
  w.i64(-1'000'000'000'000LL);
  w.boolean(true);
  w.boolean(false);
  Bytes b = w.take();

  BufReader r(b);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1'000'000'000'000LL);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.done());
}

TEST(Serde, RoundTripStringsAndBytes) {
  BufWriter w;
  w.str("hello world");
  w.str("");
  w.bytes(Bytes{1, 2, 3, 255});
  Bytes b = w.take();

  BufReader r(b);
  EXPECT_EQ(r.str(), "hello world");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3, 255}));
  EXPECT_TRUE(r.done());
}

TEST(Serde, RoundTripIds) {
  BufWriter w;
  w(ActionId{7, 99}, ConfigId{12, 3}, std::vector<NodeId>{1, 2, 5});
  Bytes b = w.take();
  EXPECT_EQ(b.size(), (4u + 8) + (8 + 4) + (4 + 3 * 4));

  BufReader r(b);
  EXPECT_EQ(r.read<ActionId>(), (ActionId{7, 99}));
  EXPECT_EQ(r.read<ConfigId>(), (ConfigId{12, 3}));
  EXPECT_EQ(r.read<std::vector<NodeId>>(), (std::vector<NodeId>{1, 2, 5}));
  EXPECT_TRUE(r.done());
}

// A vector's count is checked against the bytes left before it sizes the
// allocation: every element takes at least one byte on the wire.
TEST(Serde, OversizedVectorCountThrows) {
  BufWriter w;
  w.u32(0xFFFFFFFFu);
  w.str("only one");
  const Bytes b = w.take();
  BufReader r(b);
  EXPECT_THROW(r.read<std::vector<std::string>>(), SerdeError);

  BufWriter bits;
  bits.u32(0xFFFFFFFFu);
  bits.boolean(true);
  const Bytes bb = bits.take();
  BufReader rb(bb);
  EXPECT_THROW(rb.read<std::vector<bool>>(), SerdeError);
}

// A count that exactly fits the bytes left is accepted.
TEST(Serde, VectorCountAtTheBoundDecodes) {
  BufWriter w;
  w(std::vector<bool>{true, false, true});
  const Bytes b = w.take();
  BufReader r(b);
  EXPECT_EQ(r.read<std::vector<bool>>(), (std::vector<bool>{true, false, true}));
  EXPECT_TRUE(r.done());
}

enum class Color : std::uint8_t { kRed = 2, kGreen = 3, kBlue = 4 };
constexpr WireRange<Color> wire_range(Color) { return {Color::kRed, Color::kBlue}; }

// One-byte enums read back only within their declared range.
TEST(Serde, EnumOutOfRangeThrows) {
  for (std::uint8_t v : {2, 3, 4}) {
    const Bytes b{v};
    BufReader r(b);
    EXPECT_EQ(static_cast<std::uint8_t>(r.read<Color>()), v);
  }
  for (std::uint8_t v : {0, 1, 5, 255}) {
    const Bytes b{v};
    BufReader r(b);
    EXPECT_THROW(r.read<Color>(), SerdeError) << int{v};
  }
}

// wire_size comes from the same layout as the encoder: SizeCounter counts
// exactly what BufWriter writes, padding and borrowed tails included.
TEST(Serde, SizeCounterMatchesWriter) {
  const Bytes tail{9, 9, 9};
  BufWriter w;
  SizeCounter n;
  w(std::string("abc"), Bytes{1, 2}, std::int64_t{-1}, Rest{tail});
  w.padding(5);
  n(std::string("abc"), Bytes{1, 2}, std::int64_t{-1}, Rest{tail});
  n.padding(5);
  EXPECT_EQ(n.size(), w.data().size());
  EXPECT_EQ(n.size(), (4u + 3) + (4 + 2) + 8 + 3 + (4 + 5));
}

TEST(Serde, UnderrunThrows) {
  BufWriter w;
  w.u32(1);
  Bytes b = w.take();
  BufReader r(b);
  r.u32();
  EXPECT_THROW(r.u64(), SerdeError);
}

TEST(Serde, StringUnderrunThrows) {
  BufWriter w;
  w.u32(100);  // claims 100 bytes follow; none do
  Bytes b = w.take();
  BufReader r(b);
  EXPECT_THROW(r.str(), SerdeError);
}

// SharedWire's decode memo: one decode while any owner holds the result,
// and a fresh one after the last owner drops it (the memo is weak).
TEST(SharedWire, DecodesOncePerLiveResult) {
  const SharedWire wire(Bytes{1, 2, 3});
  int decodes = 0;
  auto decode = [&] {
    ++decodes;
    return std::make_shared<const int>(static_cast<int>(wire.size()));
  };
  std::shared_ptr<const int> a = wire.decoded<int>(0, decode);
  std::shared_ptr<const int> b = wire.decoded<int>(0, decode);
  EXPECT_EQ(decodes, 1);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(*a, 3);
  a.reset();
  b.reset();
  std::shared_ptr<const int> c = wire.decoded<int>(0, decode);
  EXPECT_EQ(decodes, 2);
  EXPECT_EQ(*c, 3);
}

// A decode that throws stores nothing: the memo stays empty and the next
// caller decodes again, rather than getting a half-built or stale object.
TEST(SharedWire, ThrowingDecodeLeavesMemoEmpty) {
  const SharedWire wire(Bytes{1, 2, 3});
  int decodes = 0;
  auto failing = [&]() -> std::shared_ptr<const int> {
    ++decodes;
    throw SerdeError("malformed");
  };
  auto decode = [&] {
    ++decodes;
    return std::make_shared<const int>(7);
  };
  EXPECT_THROW(wire.decoded<int>(0, failing), SerdeError);
  std::shared_ptr<const int> a = wire.decoded<int>(0, decode);
  EXPECT_EQ(decodes, 2);
  EXPECT_EQ(*a, 7);
  std::shared_ptr<const int> b = wire.decoded<int>(0, decode);
  EXPECT_EQ(decodes, 2);
  EXPECT_EQ(a.get(), b.get());
}

// Model test: FlatMap64 against std::unordered_map over a small key set,
// so probe runs are long, wrap around the table's end, and every erase
// shifts entries back through them.
TEST(FlatMap64, MatchesUnorderedMapModel) {
  Rng rng(42);
  util::FlatMap64<std::int64_t> map;
  std::unordered_map<std::uint64_t, std::int64_t> model;
  const std::uint64_t kKeys = 40;
  for (int op = 0; op < 100000; ++op) {
    const std::uint64_t key = rng.next_below(kKeys) * 0x10001;
    switch (rng.next_below(5)) {
      case 0:
      case 1:
        map[key] = op;
        model[key] = op;
        break;
      case 2:
        EXPECT_EQ(map.erase(key), model.erase(key) == 1) << "op " << op;
        break;
      case 3: {
        auto it = model.find(key);
        if (it != model.end()) {
          EXPECT_EQ(map.extract(key), it->second) << "op " << op;
          model.erase(it);
        }
        break;
      }
      case 4: {
        const std::int64_t* v = map.find(key);
        auto it = model.find(key);
        ASSERT_EQ(v != nullptr, it != model.end()) << "op " << op;
        if (v != nullptr) {
          EXPECT_EQ(*v, it->second) << "op " << op;
        }
        break;
      }
    }
    ASSERT_EQ(map.size(), model.size()) << "op " << op;
    ASSERT_EQ(map.empty(), model.empty());
    if (op % 1000 == 0) {
      std::size_t seen = 0;
      map.for_each([&](std::uint64_t k, std::int64_t v) {
        ++seen;
        auto it = model.find(k);
        ASSERT_NE(it, model.end()) << "op " << op;
        EXPECT_EQ(v, it->second);
      });
      EXPECT_EQ(seen, model.size()) << "op " << op;
    }
    if (op % 25000 == 24999) {
      map.clear();
      model.clear();
      EXPECT_EQ(map.size(), 0u);
      EXPECT_EQ(map.find(key), nullptr);
    }
  }
}

TEST(FlatMap64, ReserveClearAndMoveOnlyValues) {
  util::FlatMap64<std::unique_ptr<int>> map;
  map.reserve(1000);
  for (int i = 0; i < 1000; ++i) map[static_cast<std::uint64_t>(i)] = std::make_unique<int>(i);
  EXPECT_EQ(map.size(), 1000u);
  for (int i = 0; i < 1000; i += 2) EXPECT_TRUE(map.erase(static_cast<std::uint64_t>(i)));
  EXPECT_FALSE(map.erase(0));
  std::size_t count = 0;
  map.for_each([&](std::uint64_t k, const std::unique_ptr<int>& v) {
    ++count;
    EXPECT_EQ(static_cast<std::uint64_t>(*v), k);
    EXPECT_EQ(k % 2, 1u);
  });
  EXPECT_EQ(count, 500u);
  std::unique_ptr<int> v = map.extract(999);
  EXPECT_EQ(*v, 999);
  EXPECT_EQ(map.find(999), nullptr);
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(1), nullptr);
  // A cleared slot reads as a fresh default value on reuse.
  EXPECT_EQ(map[1], nullptr);
}

TEST(VecMap, MatchesMapModelAndIteratesInKeyOrder) {
  Rng rng(7);
  util::VecMap<std::int32_t, std::int64_t> map;
  std::map<std::int32_t, std::int64_t> model;
  for (int op = 0; op < 20000; ++op) {
    const auto key = static_cast<std::int32_t>(rng.next_below(24)) - 4;
    switch (rng.next_below(3)) {
      case 0:
        map[key] = op;
        model[key] = op;
        break;
      case 1:
        EXPECT_EQ(map.erase(key), model.erase(key) == 1);
        break;
      case 2: {
        const std::int64_t* v = map.find(key);
        auto it = model.find(key);
        ASSERT_EQ(v != nullptr, it != model.end());
        if (v != nullptr) {
          EXPECT_EQ(*v, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(map.size(), model.size());
  }
  const std::vector<std::pair<std::int32_t, std::int64_t>> expected(model.begin(), model.end());
  EXPECT_EQ(map.entries(), expected);
  map.clear();
  EXPECT_TRUE(map.empty());
}

TEST(Zipf, Deterministic) {
  util::ZipfGenerator za(100, 0.99);
  util::ZipfGenerator zb(100, 0.99);
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(za.next(a), zb.next(b));
}

TEST(Zipf, BoundsRespected) {
  for (const double theta : {0.0, 0.5, 0.99, 1.2}) {
    util::ZipfGenerator z(17, theta);
    Rng r(7);
    for (int i = 0; i < 5000; ++i) EXPECT_LT(z.next(r), 17u) << "theta=" << theta;
  }
}

TEST(Zipf, SingleElement) {
  util::ZipfGenerator z(1, 1.1);
  Rng r(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z.next(r), 0u);
}

TEST(Zipf, ThetaZeroIsUniform) {
  // theta == 0 degenerates to next_below: every rank roughly equally likely.
  util::ZipfGenerator z(10, 0.0);
  Rng r(11);
  std::vector<int> counts(10, 0);
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) ++counts[static_cast<std::size_t>(z.next(r))];
  for (const int c : counts) {
    EXPECT_GT(c, draws / 10 / 2);
    EXPECT_LT(c, draws / 10 * 2);
  }
}

TEST(Zipf, SkewConcentratesOnLowRanks) {
  // With theta near 1 the head ranks dominate; heavier theta dominates more.
  const int draws = 20000;
  auto head_share = [&](double theta) {
    util::ZipfGenerator z(1000, theta);
    Rng r(5);
    int head = 0;
    for (int i = 0; i < draws; ++i) {
      if (z.next(r) < 10) ++head;
    }
    return static_cast<double>(head) / draws;
  };
  const double mild = head_share(0.5);
  const double heavy = head_share(1.2);
  EXPECT_GT(mild, 0.05);   // far above uniform's 1%
  EXPECT_GT(heavy, mild);  // skew grows with theta
  EXPECT_GT(heavy, 0.5);   // rank 0..9 of 1000 dominates at theta 1.2
}

TEST(Zipf, InvalidArgsThrow) {
  EXPECT_THROW(util::ZipfGenerator(0, 1.0), std::invalid_argument);
  EXPECT_THROW(util::ZipfGenerator(10, -0.1), std::invalid_argument);
}

}  // namespace
}  // namespace tordb
