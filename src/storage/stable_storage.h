// Simulated stable storage: an append-only record log with forced or
// delayed synchronization.
//
// The paper's evaluation is dominated by forced disk writes (one per action
// for the replication engine and COReL, two for 2PC; Figure 5(b) shows the
// engine with delayed writes). This module models exactly that:
//
//  - `append` adds a record to the volatile tail (no simulated time cost).
//  - `sync` in *forced* mode completes after `kForceLatency`; while a force
//    is in flight further syncs coalesce onto the next force (group commit),
//    which is what lets throughput exceed 1/kForceLatency when many clients
//    are in flight — visible in Figure 5(a)'s engine curve.
//  - `sync` in *delayed* mode completes immediately; records become durable
//    in the background and a crash loses the non-durable tail.
//  - `crash` truncates to the durable prefix and drops pending callbacks;
//    `recover_records` returns the durable log.
//
// A record is a short inline header plus a slice of a refcounted buffer.
// `append_shared` records a slice of a buffer the caller also holds — the
// engine's green records reference the delivered ORDERED wire, which every
// member of the group already shares — so a group keeps one copy of a body,
// not one per replica. `append` / `append_framed` give the record a buffer
// of its own. Recorded bytes are immutable (the buffers are const), so
// sharing them cannot be observed: recovery returns byte-identical records.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "obs/trace.h"
#include "sim/simulator.h"
#include "util/serde.h"
#include "util/types.h"

namespace tordb {

enum class SyncMode {
  kForced,   ///< sync returns only once data is on stable storage
  kDelayed,  ///< sync returns immediately; durability is asynchronous
};

inline constexpr SimDuration kForceLatency = millis(8);  ///< one forced write / group commit

struct StorageParams {
  SyncMode mode = SyncMode::kForced;
  /// Group-commit window: when a sync arrives at an idle disk, the force is
  /// delayed briefly so concurrent requests share it. When the disk is
  /// already forcing, waiting requests batch onto the next force anyway.
  SimDuration commit_window = millis(1);
  /// Observability handle (disconnected by default — zero cost). Emits one
  /// kForcedSync event per completed physical force.
  obs::Tracer tracer;
};

struct StorageStats {
  std::uint64_t appends = 0;
  std::uint64_t syncs_requested = 0;
  std::uint64_t forces = 0;  ///< physical forced writes issued
  std::uint64_t records_lost_in_crash = 0;
  /// Record bytes held by reference to a caller's buffer (append_shared).
  std::uint64_t bytes_shared = 0;
  /// Record bytes held in a buffer of the record's own (append,
  /// append_framed). Inline headers count in neither.
  std::uint64_t bytes_copied = 0;
};

class StableStorage {
 public:
  /// SmallFn rather than std::function: the engine's post-persist callback
  /// (this + liveness guard + a vector of wire buffers) fits the 48-byte
  /// inline slot, so the sync itself costs no heap allocation.
  using SyncCallback = SmallFn;
  /// Longest inline record header (a green record's [type][i64 position]).
  static constexpr std::size_t kMaxHeader = 9;

  StableStorage(Simulator& sim, StorageParams params = {});

  /// Append one record to the volatile tail. Returns its index.
  std::size_t append(Bytes record);

  /// Append one record framed as [header][body], byte-identical to
  /// append(header + body). The body is copied; `header_len` <= kMaxHeader.
  std::size_t append_framed(const std::uint8_t* header, std::size_t header_len,
                            std::span<const std::uint8_t> body);
  std::size_t append_framed(std::uint8_t type, std::span<const std::uint8_t> body) {
    return append_framed(&type, 1, body);
  }

  /// Append [header][buf[off, off + len)] holding a reference to `buf`
  /// instead of a copy of the slice. `buf` must never be written again.
  std::size_t append_shared(const std::uint8_t* header, std::size_t header_len,
                            std::shared_ptr<const Bytes> buf, std::size_t off, std::size_t len);

  /// Request that everything appended so far become durable. `done` fires
  /// when it is (forced mode) or immediately (delayed mode).
  void sync(SyncCallback done);

  /// Crash: volatile tail is lost, pending callbacks never fire.
  void crash();

  /// The durable log contents, as seen after a recovery.
  std::vector<Bytes> recover_records() const;

  /// Replace the durable prefix [0, upto) with a single snapshot record.
  /// Models log compaction; only durable data may be compacted.
  void compact(std::size_t upto, Bytes snapshot_record);

  std::size_t log_size() const { return records_.size(); }
  std::size_t durable_size() const { return durable_; }
  bool fully_durable() const { return durable_ == records_.size(); }

  const StorageStats& stats() const { return stats_; }
  StorageParams& params() { return params_; }

 private:
  struct PendingSync {
    std::size_t upto;  ///< records [0, upto) must be durable before firing
    SyncCallback done;
  };

  /// One record: [header[0, header_len)][body[0, len)]. `body` aliases
  /// the buffer that owns the bytes, so holding it keeps that buffer alive.
  struct Record {
    std::shared_ptr<const std::uint8_t> body;
    std::uint32_t len = 0;
    std::uint8_t header_len = 0;
    std::array<std::uint8_t, kMaxHeader> header{};
  };

  /// A pointer to buf[off] that keeps `buf` alive.
  static std::shared_ptr<const std::uint8_t> slice_of(std::shared_ptr<const Bytes> buf,
                                                      std::size_t off);
  /// A body buffer of the record's own holding a copy of `bytes`.
  static std::shared_ptr<const std::uint8_t> copy_body(std::span<const std::uint8_t> bytes);
  std::size_t push(const std::uint8_t* header, std::size_t header_len,
                   std::shared_ptr<const std::uint8_t> body, std::size_t len);
  void start_force_if_needed();
  void force_completed(std::uint64_t epoch);

  Simulator& sim_;
  StorageParams params_;
  /// Chunked rather than contiguous: appending never moves earlier records,
  /// and crash / compact drop a suffix / prefix in place.
  std::deque<Record> records_;
  std::size_t durable_ = 0;
  bool force_in_flight_ = false;
  bool window_armed_ = false;         ///< group-commit window timer pending
  std::size_t inflight_covered_ = 0;  ///< records the in-flight force covers
  std::uint64_t epoch_ = 0;  ///< bumped on crash to invalidate in-flight forces
  std::vector<PendingSync> pending_;
  StorageStats stats_;
};

}  // namespace tordb
