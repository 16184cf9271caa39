// Minimal, explicit binary serialization used for every wire message and
// stable-storage record.
//
// Each message and record type writes its layout once, as one field list in
// wire order (DESIGN.md §18):
//
//   template <class S, class Io> static void layout(S& s, Io& io) {
//     io(s.config, s.seq, s.origin, s.payload);
//   }
//
// S is T when decoding and const T otherwise; Io is the BufReader that
// decodes, the BufWriter that encodes, the SizeCounter that sizes, or the
// SplitWriter that frames a storage record around a borrowed body. So the
// encoder, decoder and size of a type cannot disagree. A field's wire form
// follows from its C++ type:
//
//   bool                      one byte, 0 or 1 (any nonzero byte reads true)
//   int32, int64              little-endian, fixed width
//   one-byte enum             its value; the reader throws SerdeError unless
//                             it lies in wire_range(E), found by ADL
//   std::string, Bytes,       u32 length, then the bytes; a ByteView decodes
//     ByteView                as a view into the reader's buffer
//   Rest                      every remaining byte, unprefixed
//   NodePairs                 u32 count, then (i32 node, i64 value) pairs,
//                             strictly ascending by node
//   std::vector<T>            u32 count, then the elements
//   a type with a layout      its fields
//
// Io::padding(n) writes u32 n and then n zero bytes (an action's modelled
// body size). Readers validate bounds and throw SerdeError on malformed
// input, including a count larger than the bytes left could hold, before
// it sizes an allocation (storage corruption is a bug in this codebase, not
// an expected condition, but we still fail loudly rather than reading
// garbage).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
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

/// A borrowed run of bytes: a length-prefixed field that decodes without a
/// copy. Valid only while the buffer it points into is.
using ByteView = std::span<const std::uint8_t>;

/// The unprefixed tail of a frame: an encoded body (an action) the caller
/// already holds, framed or sliced without re-encoding it.
struct Rest {
  ByteView bytes;
};

/// Per-node values (cuts, green lines). Every encoder writes a VecMap's
/// entries, and the exchange plan's merge walk relies on the order, so the
/// reader throws SerdeError unless the nodes strictly ascend.
using NodePairs = std::vector<std::pair<NodeId, std::int64_t>>;

/// The values a one-byte wire enum may take. An enum the layouts carry
/// declares `constexpr WireRange<E> wire_range(E)` beside itself.
template <class E>
struct WireRange {
  E first;
  E last;
};

namespace serde_detail {
template <class T>
inline constexpr bool is_vector = false;
template <class T, class A>
inline constexpr bool is_vector<std::vector<T, A>> = true;
}  // namespace serde_detail

/// The encoding half of every layout. `Out` supplies the bytes' destination:
/// put(p, n), rest(view) and, for padding, zeros(n).
template <class Out>
class Writer {
 public:
  template <class... F>
  void operator()(const F&... fields) {
    (field(fields), ...);
  }

  void padding(std::uint32_t n) {
    u32(n);
    out().zeros(n);
  }

  void u8(std::uint8_t v) { out().put(&v, 1); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i32(std::int32_t v) { put_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out().put(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  void bytes(ByteView b) {
    u32(static_cast<std::uint32_t>(b.size()));
    out().put(b.data(), b.size());
  }

 private:
  Out& out() { return static_cast<Out&>(*this); }

  template <typename T>
  void put_le(T v) {
    if constexpr (std::endian::native == std::endian::little) {
      out().put(reinterpret_cast<const std::uint8_t*>(&v), sizeof(T));
    } else {
      std::uint8_t le[sizeof(T)];
      for (std::size_t i = 0; i < sizeof(T); ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
      out().put(le, sizeof(T));
    }
  }

  template <class T>
  void field(const T& x) {
    if constexpr (std::is_same_v<T, bool>) {
      boolean(x);
    } else if constexpr (std::is_enum_v<T>) {
      static_assert(sizeof(T) == 1, "wire enums are one byte");
      u8(static_cast<std::uint8_t>(x));
    } else if constexpr (std::is_same_v<T, std::int32_t>) {
      i32(x);
    } else if constexpr (std::is_same_v<T, std::int64_t>) {
      i64(x);
    } else if constexpr (std::is_same_v<T, std::string>) {
      str(x);
    } else if constexpr (std::is_same_v<T, Bytes> || std::is_same_v<T, ByteView>) {
      bytes(x);
    } else if constexpr (std::is_same_v<T, Rest>) {
      out().rest(x.bytes);
    } else if constexpr (std::is_same_v<T, NodePairs>) {
      u32(static_cast<std::uint32_t>(x.size()));
      for (const auto& [node, value] : x) {
        i32(node);
        i64(value);
      }
    } else if constexpr (serde_detail::is_vector<T>) {
      u32(static_cast<std::uint32_t>(x.size()));
      for (const auto& e : x) field(static_cast<const typename T::value_type&>(e));
    } else {
      T::layout(x, out());
    }
  }
};

/// Encodes into a byte buffer. frame() sizes it once, exactly; a default
/// writer grows it by doubling.
class BufWriter : public Writer<BufWriter> {
 public:
  BufWriter() = default;
  explicit BufWriter(std::size_t size) : buf_(size) {}

  // Writes by position into the sized buffer rather than by resizing it
  // per field: vector::resize is an out-of-line call, once per integer.
  void put(const std::uint8_t* p, std::size_t n) {
    if (n > buf_.size() - pos_) grow(n);
    if (n != 0) std::memcpy(buf_.data() + pos_, p, n);
    pos_ += n;
  }
  void zeros(std::size_t n) {
    if (n > buf_.size() - pos_) grow(n);
    std::memset(buf_.data() + pos_, 0, n);
    pos_ += n;
  }
  void rest(ByteView b) { put(b.data(), b.size()); }

  ByteView data() const { return {buf_.data(), pos_}; }
  Bytes take() {
    buf_.resize(pos_);
    return std::move(buf_);
  }

 private:
  void grow(std::size_t n) { buf_.resize(std::max({pos_ + n, 2 * buf_.size(), std::size_t{128}})); }

  Bytes buf_;
  std::size_t pos_ = 0;
};

/// Counts the bytes a BufWriter would write, without writing them.
class SizeCounter : public Writer<SizeCounter> {
 public:
  void put(const std::uint8_t*, std::size_t n) { size_ += n; }
  void zeros(std::size_t n) { size_ += n; }
  void rest(ByteView b) { size_ += b.size(); }

  std::size_t size() const { return size_; }

 private:
  std::size_t size_ = 0;
};

/// Encodes a frame that ends in a Rest the way StableStorage records it:
/// the fields before the Rest into an inline header of at most N bytes, the
/// Rest as a borrowed view.
template <std::size_t N>
class SplitWriter : public Writer<SplitWriter<N>> {
 public:
  void put(const std::uint8_t* p, std::size_t n) {
    if (n > N - size_) throw SerdeError("frame header exceeds its inline capacity");
    std::memcpy(header_.data() + size_, p, n);
    size_ += n;
  }
  void rest(ByteView b) { body_ = b; }

  ByteView header() const { return {header_.data(), size_}; }
  ByteView body() const { return body_; }

 private:
  std::array<std::uint8_t, N> header_{};
  std::size_t size_ = 0;
  ByteView body_;
};

template <class... F>
std::size_t encoded_size(const F&... fields) {
  SizeCounter n;
  n(fields...);
  return n.size();
}

/// Encodes `fields`, in order, into one buffer allocated at its exact size.
template <class... F>
Bytes frame(const F&... fields) {
  BufWriter w(encoded_size(fields...));
  w(fields...);
  return w.take();
}

/// The decoding half of every layout.
class BufReader {
 public:
  explicit BufReader(ByteView b) : data_(b.data()), size_(b.size()) {}
  BufReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  template <class... F>
  void operator()(F&... fields) {
    (field(fields), ...);
  }

  template <class T>
  T read() {
    T x{};
    field(x);
    return x;
  }

  void padding(std::uint32_t& n) {
    n = u32();
    view(n);
  }

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
    const ByteView v = view(u32());
    return std::string(reinterpret_cast<const char*>(v.data()), v.size());
  }

  Bytes bytes() {
    const ByteView v = view(u32());
    return Bytes(v.begin(), v.end());
  }

  bool done() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  void need(std::size_t n) const {
    if (n > size_ - pos_) throw SerdeError("buffer underrun");
  }

  ByteView view(std::size_t n) {
    need(n);
    const ByteView v(data_ + pos_, n);
    pos_ += n;
    return v;
  }

  /// A count of elements that each take at least `min_bytes` on the wire:
  /// one the bytes left cannot hold is malformed, and must not size the
  /// allocation.
  std::uint32_t count(std::size_t min_bytes) {
    const std::uint32_t n = u32();
    if (n > remaining() / min_bytes) throw SerdeError("count exceeds payload");
    return n;
  }

  template <class E>
  E enum_value() {
    static_assert(sizeof(E) == 1, "wire enums are one byte");
    constexpr WireRange<E> range = wire_range(E{});
    const std::uint8_t v = u8();
    if (static_cast<unsigned>(v - static_cast<std::uint8_t>(range.first)) >
        static_cast<unsigned>(static_cast<std::uint8_t>(range.last) -
                              static_cast<std::uint8_t>(range.first))) {
      throw SerdeError("unknown enum value " + std::to_string(v));
    }
    return static_cast<E>(v);
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

  template <class T>
  void field(T& x) {
    if constexpr (std::is_same_v<T, bool>) {
      x = boolean();
    } else if constexpr (std::is_enum_v<T>) {
      x = enum_value<T>();
    } else if constexpr (std::is_same_v<T, std::int32_t>) {
      x = i32();
    } else if constexpr (std::is_same_v<T, std::int64_t>) {
      x = i64();
    } else if constexpr (std::is_same_v<T, std::string>) {
      x = str();
    } else if constexpr (std::is_same_v<T, Bytes>) {
      x = bytes();
    } else if constexpr (std::is_same_v<T, ByteView>) {
      x = view(u32());
    } else if constexpr (std::is_same_v<T, Rest>) {
      x.bytes = view(remaining());
    } else if constexpr (std::is_same_v<T, NodePairs>) {
      const std::uint32_t n = count(4 + 8);
      x.clear();
      x.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        const NodeId node = i32();
        const std::int64_t value = i64();
        if (!x.empty() && node <= x.back().first) throw SerdeError("pair keys not ascending");
        x.emplace_back(node, value);
      }
    } else if constexpr (serde_detail::is_vector<T>) {
      const std::uint32_t n = count(1);
      x.clear();
      x.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) x.push_back(read<typename T::value_type>());
    } else {
      T::layout(x, *this);
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace tordb
