// Minimal, explicit binary serialization used for every wire message and
// stable-storage record.
//
// Writers append little-endian fixed-width integers, length-prefixed strings
// and vectors. Readers validate bounds and throw SerdeError on malformed
// input (storage corruption is a bug in this codebase, not an expected
// condition, but we still fail loudly rather than reading garbage).
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/types.h"

namespace tordb {

class SerdeError : public std::runtime_error {
 public:
  explicit SerdeError(const std::string& what) : std::runtime_error(what) {}
};

using Bytes = std::vector<std::uint8_t>;

/// An immutable wire buffer, shared by reference among every recipient of
/// a send or multicast: sim::Network makes one per packet and hands each
/// receiver the same refcounted object.
///
/// decoded() lets the recipients share the work of decoding it too (the
/// replication engine's ORDERED actions and State messages, DESIGN.md
/// §3.1): the first caller runs `decode`, later callers get the same
/// object back. The memo is weak, so holding the wire (a disk record of a
/// delivered body does, until compaction) never keeps the decoded object
/// alive; once its last owner drops it, the next caller decodes afresh. A
/// decode that throws stores nothing. A wire has one decoded form: every
/// caller asks for the same T.
///
/// `lane` is the simulator lane the caller runs in. Every delivery of a
/// wire runs in the sender's lane (the network refuses cross-lane
/// traffic), and a lane's events never run concurrently, so the memo
/// needs no lock; the assertion pins it to one lane. Not to one thread:
/// a lane may run on a different worker thread in each window.
class SharedWire {
 public:
  explicit SharedWire(Bytes bytes) : bytes_(std::move(bytes)) {}

  const Bytes& bytes() const { return bytes_; }
  std::size_t size() const { return bytes_.size(); }
  const std::uint8_t* data() const { return bytes_.data(); }

  template <typename T, typename Decode>
  std::shared_ptr<const T> decoded(int lane, Decode&& decode) const {
    if (std::shared_ptr<const void> hit = memo_.lock()) {
      assert(memo_lane_ == lane);
      return std::static_pointer_cast<const T>(std::move(hit));
    }
    std::shared_ptr<const T> fresh = std::forward<Decode>(decode)();
    memo_ = fresh;
    memo_lane_ = lane;
    return fresh;
  }

 private:
  const Bytes bytes_;
  mutable std::weak_ptr<const void> memo_;
  mutable int memo_lane_ = -1;
};

class BufWriter {
 public:
  // Nearly every wire message and log record fits in one cache-line-friendly
  // chunk; reserving up front turns the per-encode realloc ladder (1, 2, 4,
  // ... bytes) into a single allocation.
  BufWriter() { buf_.reserve(128); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i32(std::int32_t v) { put_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Same wire format as str(); takes a view (interned keys, substrings).
  void str_view(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void bytes(const Bytes& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  /// Same wire format as bytes(); takes a borrowed (ptr, len) view so a
  /// payload can be re-framed without first materializing a Bytes copy.
  void bytes_view(const std::uint8_t* p, std::size_t n) {
    u32(static_cast<std::uint32_t>(n));
    buf_.insert(buf_.end(), p, p + n);
  }

  void action_id(const ActionId& a) {
    i32(a.server_id);
    i64(a.index);
  }

  void config_id(const ConfigId& c) {
    i64(c.counter);
    i32(c.coordinator);
  }

  template <typename T, typename Fn>
  void vec(const std::vector<T>& v, Fn&& write_one) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const T& x : v) write_one(*this, x);
  }

  void node_ids(const std::vector<NodeId>& v) {
    vec(v, [](BufWriter& w, NodeId n) { w.i32(n); });
  }

  const Bytes& data() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  template <typename T>
  void put_le(T v) {
    if constexpr (std::endian::native == std::endian::little) {
      const std::size_t at = buf_.size();
      buf_.resize(at + sizeof(T));
      std::memcpy(buf_.data() + at, &v, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
      }
    }
  }

  Bytes buf_;
};

class BufReader {
 public:
  explicit BufReader(const Bytes& b) : data_(b.data()), size_(b.size()) {}
  /// Read from a borrowed (ptr, len) view — e.g. a delivery payload that is
  /// a slice of a shared wire buffer.
  BufReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(get_le<std::uint32_t>()); }
  std::int64_t i64() { return static_cast<std::int64_t>(get_le<std::uint64_t>()); }
  bool boolean() { return u8() != 0; }

  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  Bytes bytes() {
    const std::uint32_t n = u32();
    need(n);
    Bytes b(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return b;
  }

  /// Zero-copy view of a length-prefixed byte field. Valid only while the
  /// underlying buffer outlives the reader — for re-framing a payload into
  /// another message within one handler, not for retention.
  std::pair<const std::uint8_t*, std::size_t> bytes_view() {
    const std::uint32_t n = u32();
    need(n);
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return {p, n};
  }

  ActionId action_id() {
    ActionId a;
    a.server_id = i32();
    a.index = i64();
    return a;
  }

  ConfigId config_id() {
    ConfigId c;
    c.counter = i64();
    c.coordinator = i32();
    return c;
  }

  template <typename T, typename Fn>
  std::vector<T> vec(Fn&& read_one) {
    const std::uint32_t n = u32();
    std::vector<T> v;
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) v.push_back(read_one(*this));
    return v;
  }

  std::vector<NodeId> node_ids() {
    return vec<NodeId>([](BufReader& r) { return r.i32(); });
  }

  bool done() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  void need(std::size_t n) {
    if (pos_ + n > size_) throw SerdeError("buffer underrun");
  }

  template <typename T>
  T get_le() {
    need(sizeof(T));
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, data_ + pos_, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        v |= static_cast<T>(data_[pos_ + i]) << (8 * i);
      }
    }
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace tordb
