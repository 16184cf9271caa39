#include <gtest/gtest.h>

#include <memory>

#include "storage/stable_storage.h"

namespace tordb {
namespace {

Bytes rec(std::uint8_t v) { return Bytes{v}; }

// Most timing-exact tests disable the group-commit window.
StorageParams no_window() {
  StorageParams p;
  p.commit_window = 0;
  return p;
}

TEST(Storage, AppendIsVolatileUntilSync) {
  Simulator sim;
  StableStorage st(sim, no_window());
  st.append(rec(1));
  EXPECT_EQ(st.durable_size(), 0u);
  EXPECT_EQ(st.log_size(), 1u);
}

TEST(Storage, ForcedSyncTakesForceLatency) {
  Simulator sim;
  StableStorage st(sim, no_window());
  st.append(rec(1));
  SimTime done_at = -1;
  st.sync([&] { done_at = sim.now(); });
  sim.run();
  EXPECT_EQ(done_at, st.params().force_latency);
  EXPECT_TRUE(st.fully_durable());
}

TEST(Storage, GroupCommitCoalescesConcurrentSyncs) {
  Simulator sim;
  StableStorage st(sim, no_window());
  int completed = 0;
  // First sync starts a force; the next ten appends+syncs arrive while it is
  // in flight and must all complete with the *second* force.
  st.append(rec(0));
  st.sync([&] { ++completed; });
  sim.after(millis(1), [&] {
    for (std::uint8_t i = 1; i <= 10; ++i) {
      st.append(rec(i));
      st.sync([&] { ++completed; });
    }
  });
  sim.run();
  EXPECT_EQ(completed, 11);
  EXPECT_EQ(st.stats().forces, 2u);  // not 11
}

TEST(Storage, SyncCallbackWaitsForItsRecords) {
  Simulator sim;
  StableStorage st(sim, no_window());
  st.append(rec(1));
  std::vector<int> order;
  st.sync([&] { order.push_back(1); });
  sim.after(millis(1), [&] {
    st.append(rec(2));
    st.sync([&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Storage, DelayedModeReturnsImmediately) {
  Simulator sim;
  StorageParams p;
  p.mode = SyncMode::kDelayed;
  StableStorage st(sim, p);
  st.append(rec(1));
  SimTime done_at = -1;
  st.sync([&] { done_at = sim.now(); });
  sim.run(1);  // only the immediate callback
  EXPECT_EQ(done_at, 0);
}

TEST(Storage, DelayedModeEventuallyDurable) {
  Simulator sim;
  StorageParams p;
  p.mode = SyncMode::kDelayed;
  StableStorage st(sim, p);
  st.append(rec(1));
  st.sync([] {});
  sim.run();
  EXPECT_TRUE(st.fully_durable());
}

TEST(Storage, CrashLosesVolatileTail) {
  Simulator sim;
  StableStorage st(sim, no_window());
  st.append(rec(1));
  st.sync([] {});
  sim.run();  // rec(1) durable
  st.append(rec(2));
  bool fired = false;
  st.sync([&] { fired = true; });
  st.crash();  // before force completes
  sim.run();
  EXPECT_FALSE(fired);
  auto records = st.recover_records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], rec(1));
  EXPECT_EQ(st.stats().records_lost_in_crash, 1u);
}

TEST(Storage, CrashInDelayedModeLosesAcknowledgedWrites) {
  // The risk Figure 5(b) trades away: delayed writes acknowledge before
  // durability, so a crash can lose acknowledged records.
  Simulator sim;
  StorageParams p;
  p.mode = SyncMode::kDelayed;
  StableStorage st(sim, p);
  st.append(rec(1));
  bool acked = false;
  st.sync([&] { acked = true; });
  sim.run(1);
  EXPECT_TRUE(acked);
  st.crash();
  EXPECT_TRUE(st.recover_records().empty());
}

TEST(Storage, RecoverReturnsDurablePrefixInOrder) {
  Simulator sim;
  StableStorage st(sim, no_window());
  for (std::uint8_t i = 0; i < 5; ++i) st.append(rec(i));
  st.sync([] {});
  sim.run();
  auto records = st.recover_records();
  ASSERT_EQ(records.size(), 5u);
  for (std::uint8_t i = 0; i < 5; ++i) EXPECT_EQ(records[i], rec(i));
}

TEST(Storage, CompactReplacesPrefixWithSnapshot) {
  Simulator sim;
  StableStorage st(sim, no_window());
  for (std::uint8_t i = 0; i < 4; ++i) st.append(rec(i));
  st.sync([] {});
  sim.run();
  st.compact(3, rec(99));
  auto records = st.recover_records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], rec(99));
  EXPECT_EQ(records[1], rec(3));
}

TEST(Storage, CompactNonDurableThrows) {
  Simulator sim;
  StableStorage st(sim, no_window());
  st.append(rec(1));
  EXPECT_THROW(st.compact(1, rec(9)), std::logic_error);
}

TEST(Storage, SyncAfterCrashWorksAgain) {
  Simulator sim;
  StableStorage st(sim, no_window());
  st.append(rec(1));
  st.crash();
  st.append(rec(2));
  bool fired = false;
  st.sync([&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  auto records = st.recover_records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], rec(2));
}

TEST(Storage, SyncWithNothingNewCompletesAfterInFlightForce) {
  Simulator sim;
  StableStorage st(sim, no_window());
  st.append(rec(1));
  st.sync([] {});
  sim.run();
  // Everything durable; a new sync with no new appends must still fire.
  bool fired = false;
  st.sync([&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
}


TEST(Storage, CommitWindowDelaysIdleForce) {
  Simulator sim;
  StorageParams p;
  p.commit_window = millis(2);
  StableStorage st(sim, p);
  st.append(rec(1));
  SimTime done_at = -1;
  st.sync([&] { done_at = sim.now(); });
  sim.run();
  EXPECT_EQ(done_at, millis(2) + p.force_latency);
}

TEST(Storage, CommitWindowBatchesConcurrentSyncs) {
  Simulator sim;
  StorageParams p;
  p.commit_window = millis(2);
  StableStorage st(sim, p);
  int completed = 0;
  // Ten syncs arrive within the window: one force serves them all.
  for (int i = 0; i < 10; ++i) {
    sim.after(micros(100) * i, [&st, &completed, i] {
      st.append(rec(static_cast<std::uint8_t>(i)));
      st.sync([&completed] { ++completed; });
    });
  }
  sim.run();
  EXPECT_EQ(completed, 10);
  EXPECT_EQ(st.stats().forces, 1u);
}

TEST(Storage, CommitWindowCancelledByCrash) {
  Simulator sim;
  StorageParams p;
  p.commit_window = millis(2);
  StableStorage st(sim, p);
  st.append(rec(1));
  bool fired = false;
  st.sync([&] { fired = true; });
  st.crash();
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(st.stats().forces, 0u);
}

// --- slice records (append_shared) ------------------------------------------

std::shared_ptr<const Bytes> wire_of(std::initializer_list<std::uint8_t> bytes) {
  return std::make_shared<const Bytes>(bytes);
}

TEST(Storage, SliceRecordRecoversLikeAFramedCopy) {
  Simulator sim;
  StableStorage shared(sim, no_window());
  StableStorage copied(sim, no_window());
  const std::uint8_t hdr[3] = {7, 8, 9};
  const auto wire = wire_of({0xAA, 0xBB, 1, 2, 3, 4, 0xCC});
  shared.append_shared(hdr, sizeof(hdr), wire, 2, 4);
  copied.append_framed(hdr, sizeof(hdr), Bytes{1, 2, 3, 4});
  shared.sync([] {});
  copied.sync([] {});
  sim.run();
  ASSERT_EQ(shared.recover_records().size(), 1u);
  EXPECT_EQ(shared.recover_records(), copied.recover_records());
  EXPECT_EQ(shared.recover_records()[0], (Bytes{7, 8, 9, 1, 2, 3, 4}));
  EXPECT_EQ(shared.stats().bytes_shared, 4u);
  EXPECT_EQ(shared.stats().bytes_copied, 0u);
  EXPECT_EQ(copied.stats().bytes_shared, 0u);
  EXPECT_EQ(copied.stats().bytes_copied, 4u);
}

TEST(Storage, CrashAndCompactReleaseSliceReferences) {
  Simulator sim;
  StableStorage st(sim, no_window());
  const std::uint8_t hdr = 1;
  const auto kept = wire_of({1, 2});
  const auto lost = wire_of({3, 4});
  st.append_shared(&hdr, 1, kept, 0, 2);
  st.append_shared(&hdr, 1, kept, 1, 1);
  st.sync([] {});
  sim.run();
  st.append_shared(&hdr, 1, lost, 0, 2);  // volatile: the crash drops it
  EXPECT_EQ(kept.use_count(), 3);
  EXPECT_EQ(lost.use_count(), 2);
  st.crash();
  EXPECT_EQ(lost.use_count(), 1);
  EXPECT_EQ(kept.use_count(), 3);
  st.compact(2, rec(99));
  EXPECT_EQ(kept.use_count(), 1);
  ASSERT_EQ(st.recover_records().size(), 1u);
  EXPECT_EQ(st.recover_records()[0], rec(99));
}

TEST(Storage, CompactKeepingASliceTailRebasesIndexes) {
  // Records 0-3 durable, 4-5 shared slices awaiting a force that a pending
  // sync waits on; compacting the first three must re-base the durable
  // count, the in-flight force and the pending sync onto the shorter log.
  Simulator sim;
  StableStorage st(sim, no_window());
  for (std::uint8_t i = 0; i < 4; ++i) st.append(rec(i));
  st.sync([] {});
  sim.run();
  const std::uint8_t hdr = 5;
  const auto wire = wire_of({10, 11, 12});
  st.append_shared(&hdr, 1, wire, 0, 1);
  st.append_shared(&hdr, 1, wire, 1, 2);
  bool fired = false;
  st.sync([&] { fired = true; });  // force in flight, covering 6 records
  st.compact(3, rec(99));
  EXPECT_EQ(st.durable_size(), 2u);  // [snapshot][rec 3]
  EXPECT_EQ(st.log_size(), 4u);
  EXPECT_EQ(wire.use_count(), 3);
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_TRUE(st.fully_durable());
  const auto records = st.recover_records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0], rec(99));
  EXPECT_EQ(records[1], rec(3));
  EXPECT_EQ(records[2], (Bytes{5, 10}));
  EXPECT_EQ(records[3], (Bytes{5, 11, 12}));
}

}  // namespace
}  // namespace tordb
