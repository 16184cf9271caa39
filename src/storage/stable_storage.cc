#include "storage/stable_storage.h"

#include <algorithm>
#include <stdexcept>

namespace tordb {

StableStorage::StableStorage(Simulator& sim, StorageParams params)
    : sim_(sim), params_(params) {}

std::size_t StableStorage::append(Bytes record) {
  stats_.bytes_copied += record.size();
  const std::size_t len = record.size();
  return push(nullptr, 0, slice_of(std::make_shared<const Bytes>(std::move(record)), 0), len);
}

std::size_t StableStorage::append_framed(const std::uint8_t* header, std::size_t header_len,
                                         std::span<const std::uint8_t> body) {
  stats_.bytes_copied += body.size();
  return push(header, header_len, copy_body(body), body.size());
}

std::size_t StableStorage::append_shared(const std::uint8_t* header, std::size_t header_len,
                                         std::shared_ptr<const Bytes> buf, std::size_t off,
                                         std::size_t len) {
  if (off + len > buf->size()) throw std::out_of_range("shared record slice out of range");
  stats_.bytes_shared += len;
  return push(header, header_len, slice_of(std::move(buf), off), len);
}

std::shared_ptr<const std::uint8_t> StableStorage::slice_of(std::shared_ptr<const Bytes> buf,
                                                            std::size_t off) {
  const std::uint8_t* data = buf->data() + off;
  return std::shared_ptr<const std::uint8_t>(std::move(buf), data);
}

std::shared_ptr<const std::uint8_t> StableStorage::copy_body(std::span<const std::uint8_t> bytes) {
  // One allocation holds the refcount and the bytes.
  auto owned = std::make_shared_for_overwrite<std::uint8_t[]>(bytes.size());
  std::uint8_t* data = owned.get();
  std::copy(bytes.begin(), bytes.end(), data);
  return std::shared_ptr<const std::uint8_t>(std::move(owned), data);
}

std::size_t StableStorage::push(const std::uint8_t* header, std::size_t header_len,
                                std::shared_ptr<const std::uint8_t> body, std::size_t len) {
  if (header_len > kMaxHeader) throw std::invalid_argument("record header too long");
  ++stats_.appends;
  Record& r = records_.emplace_back();
  r.body = std::move(body);
  r.len = static_cast<std::uint32_t>(len);
  r.header_len = static_cast<std::uint8_t>(header_len);
  std::copy_n(header, header_len, r.header.begin());
  return records_.size() - 1;
}

void StableStorage::sync(SyncCallback done) {
  ++stats_.syncs_requested;
  if (params_.mode == SyncMode::kDelayed) {
    // The caller proceeds immediately; durability happens in the background.
    sim_.after(0, std::move(done));
    start_force_if_needed();
    return;
  }
  if (durable_ >= records_.size()) {
    // Nothing new to force; complete as soon as the loop turns.
    sim_.after(0, std::move(done));
    return;
  }
  pending_.push_back(PendingSync{records_.size(), std::move(done)});
  if (force_in_flight_) return;  // will batch onto the next force
  if (params_.commit_window > 0 && !window_armed_) {
    window_armed_ = true;
    const std::uint64_t epoch = epoch_;
    sim_.after(params_.commit_window, [this, epoch] {
      window_armed_ = false;
      if (epoch != epoch_) return;
      start_force_if_needed();
    });
    return;
  }
  if (!window_armed_) start_force_if_needed();
}

void StableStorage::start_force_if_needed() {
  if (force_in_flight_ || durable_ == records_.size()) return;
  force_in_flight_ = true;
  ++stats_.forces;
  inflight_covered_ = records_.size();
  const std::uint64_t epoch = epoch_;
  sim_.after(params_.force_latency, [this, epoch] { force_completed(epoch); });
}

void StableStorage::force_completed(std::uint64_t epoch) {
  if (epoch != epoch_) return;  // crashed while forcing
  force_in_flight_ = false;
  durable_ = std::max(durable_, inflight_covered_);
  if (params_.tracer) {
    params_.tracer.emit(obs::EventKind::kForcedSync, static_cast<std::int64_t>(durable_),
                        static_cast<std::int64_t>(stats_.forces));
  }
  // Fire every sync whose records are now durable (group commit).
  std::vector<PendingSync> still_waiting;
  std::vector<SyncCallback> ready;
  for (auto& p : pending_) {
    if (p.upto <= durable_) {
      ready.push_back(std::move(p.done));
    } else {
      still_waiting.push_back(std::move(p));
    }
  }
  pending_ = std::move(still_waiting);
  for (auto& cb : ready) cb();
  // Forced mode only re-forces when someone is waiting on durability; lazy
  // appends (e.g. the engine's green records) stay volatile until the next
  // sync. Delayed mode keeps flushing in the background — that is its point.
  if (!pending_.empty() || params_.mode == SyncMode::kDelayed) start_force_if_needed();
}

void StableStorage::crash() {
  ++epoch_;
  force_in_flight_ = false;
  pending_.clear();
  stats_.records_lost_in_crash += records_.size() - durable_;
  records_.resize(durable_);
}

std::vector<Bytes> StableStorage::recover_records() const {
  std::vector<Bytes> records;
  records.reserve(durable_);
  for (std::size_t i = 0; i < durable_; ++i) {
    const Record& r = records_[i];
    Bytes& out = records.emplace_back();
    out.reserve(r.header_len + r.len);
    out.insert(out.end(), r.header.begin(), r.header.begin() + r.header_len);
    out.insert(out.end(), r.body.get(), r.body.get() + r.len);
  }
  return records;
}

void StableStorage::compact(std::size_t upto, Bytes snapshot_record) {
  if (upto > durable_) throw std::logic_error("cannot compact non-durable records");
  if (upto == 0) return;
  // Drop the prefix but its last slot, which the snapshot record takes.
  const std::size_t shrink = upto - 1;
  records_.erase(records_.begin(), records_.begin() + static_cast<std::ptrdiff_t>(shrink));
  const auto len = static_cast<std::uint32_t>(snapshot_record.size());
  stats_.bytes_copied += len;
  records_.front() =
      Record{slice_of(std::make_shared<const Bytes>(std::move(snapshot_record)), 0), len, 0, {}};
  durable_ -= shrink;
  // Re-base bookkeeping that referenced pre-compaction record counts.
  if (force_in_flight_) {
    inflight_covered_ = inflight_covered_ > upto ? inflight_covered_ - shrink : 1;
  }
  for (PendingSync& p : pending_) {
    p.upto = p.upto > upto ? p.upto - shrink : 1;
  }
}

}  // namespace tordb
