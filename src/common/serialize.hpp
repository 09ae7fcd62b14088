// Compact, bounds-checked binary serialization.
//
// Every piece of state that the Time Machine checkpoints, the Scroll records,
// or the Investigator hashes flows through these two classes, so the encoding
// must be (a) deterministic — identical logical state produces identical
// bytes, which is what state-hashing dedup in the model checker relies on —
// and (b) strictly bounds checked — a truncated checkpoint must fail loudly
// (SerializationError), never read garbage.
//
// Encoding: little-endian fixed width for sized integers written with
// write_u*/write_i*; LEB128-style varints for lengths; length-prefixed byte
// strings. Floating point is bit-cast to the same-width integer.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace fixd {

/// Byte count of BinaryWriter::write_varint(v): one byte per started
/// 7-bit group, and one for zero.
constexpr std::size_t varint_size(std::uint64_t v) {
  return v < 0x80 ? 1 : (static_cast<std::size_t>(std::bit_width(v)) + 6) / 7;
}

/// Writes the varint_size(v) bytes BinaryWriter::write_varint(v) would
/// append, at `p`; returns the byte past them. For stores that encode
/// into memory they own rather than into a growing buffer.
inline std::byte* put_varint(std::byte* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::byte>(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<std::byte>(v);
  return p;
}

/// Reads the varint put_varint wrote at `p` into `v`; returns the byte past
/// it. Unchecked: only for bytes a store wrote itself.
inline const std::byte* get_varint(const std::byte* p, std::uint64_t& v) {
  v = 0;
  for (int shift = 0;; shift += 7) {
    const auto b = static_cast<std::uint8_t>(*p++);
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) return p;
  }
}

/// Appends binary data to an internal byte buffer.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  /// Reserve capacity up front when the caller knows the rough size.
  void reserve(std::size_t n) { buf_.reserve(n); }

  void write_u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }

  void write_u16(std::uint16_t v) { write_le(v); }
  void write_u32(std::uint32_t v) { write_le(v); }
  void write_u64(std::uint64_t v) { write_le(v); }
  void write_i32(std::int32_t v) { write_le(static_cast<std::uint32_t>(v)); }
  void write_i64(std::int64_t v) { write_le(static_cast<std::uint64_t>(v)); }
  void write_bool(bool v) { write_u8(v ? 1 : 0); }
  void write_f64(double v) { write_u64(std::bit_cast<std::uint64_t>(v)); }

  /// LEB128 unsigned varint; used for all lengths/counts.
  void write_varint(std::uint64_t v) {
    while (v >= 0x80) {
      write_u8(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    write_u8(static_cast<std::uint8_t>(v));
  }

  /// Raw bytes, no length prefix (caller must know the size on read).
  void write_raw(std::span<const std::byte> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  /// Length-prefixed byte string.
  void write_bytes(std::span<const std::byte> bytes) {
    write_varint(bytes.size());
    write_raw(bytes);
  }

  void write_string(std::string_view s) {
    write_varint(s.size());
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    write_raw({p, s.size()});
  }

  template <typename T, typename Fn>
  void write_vector(const std::vector<T>& v, Fn&& per_element) {
    write_varint(v.size());
    for (const T& e : v) per_element(*this, e);
  }

  /// Vector of trivially-copyable elements (PODs) written verbatim.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write_pod_vector(const std::vector<T>& v) {
    write_varint(v.size());
    const auto* p = reinterpret_cast<const std::byte*>(v.data());
    write_raw({p, v.size() * sizeof(T)});
  }

  template <typename K, typename V, typename KFn, typename VFn>
  void write_map(const std::map<K, V>& m, KFn&& kf, VFn&& vf) {
    write_varint(m.size());
    for (const auto& [k, v] : m) {
      kf(*this, k);
      vf(*this, v);
    }
  }

  template <typename T, typename Fn>
  void write_optional(const std::optional<T>& o, Fn&& fn) {
    write_bool(o.has_value());
    if (o) fn(*this, *o);
  }

  const std::vector<std::byte>& bytes() const { return buf_; }
  std::vector<std::byte> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }
  void clear() { buf_.clear(); }

 private:
  template <typename T>
  void write_le(T v) {
    static_assert(std::is_unsigned_v<T>);
    if constexpr (std::endian::native == std::endian::little) {
      // Bulk append: one resize + memcpy instead of a byte-at-a-time loop.
      // Every checkpoint, scroll record, and digest funnels through here.
      const std::size_t at = buf_.size();
      buf_.resize(at + sizeof(T));
      std::memcpy(buf_.data() + at, &v, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        buf_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
      }
    }
  }

  std::vector<std::byte> buf_;
};

/// Reads binary data from a non-owning byte span with strict bounds checks.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::byte> data) : data_(data) {}
  explicit BinaryReader(const std::vector<std::byte>& data)
      : data_(data.data(), data.size()) {}

  std::uint8_t read_u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  /// The next byte, without consuming it.
  std::uint8_t peek_u8() const {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_]);
  }

  std::uint16_t read_u16() { return read_le<std::uint16_t>(); }
  std::uint32_t read_u32() { return read_le<std::uint32_t>(); }
  std::uint64_t read_u64() { return read_le<std::uint64_t>(); }
  std::int32_t read_i32() { return static_cast<std::int32_t>(read_u32()); }
  std::int64_t read_i64() { return static_cast<std::int64_t>(read_u64()); }
  bool read_bool() { return read_u8() != 0; }
  double read_f64() { return std::bit_cast<double>(read_u64()); }

  std::uint64_t read_varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (shift >= 64) throw SerializationError("varint too long");
      std::uint8_t b = read_u8();
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if (!(b & 0x80)) break;
      shift += 7;
    }
    return v;
  }

  /// Raw bytes view (zero copy); valid while the underlying buffer lives.
  std::span<const std::byte> read_raw(std::size_t n) {
    need(n);
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  std::vector<std::byte> read_bytes() {
    std::size_t n = checked_len(read_varint());
    auto s = read_raw(n);
    return {s.begin(), s.end()};
  }

  std::string read_string() {
    std::size_t n = checked_len(read_varint());
    auto s = read_raw(n);
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }

  template <typename T, typename Fn>
  std::vector<T> read_vector(Fn&& per_element) {
    std::size_t n = checked_len(read_varint());
    std::vector<T> v;
    v.reserve(std::min<std::size_t>(n, 4096));
    for (std::size_t i = 0; i < n; ++i) v.push_back(per_element(*this));
    return v;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> read_pod_vector() {
    std::size_t n = checked_len(read_varint());
    if (n > data_.size() / sizeof(T) + 1)
      throw SerializationError("pod vector length exceeds buffer");
    auto s = read_raw(n * sizeof(T));
    std::vector<T> v(n);
    if (n) std::memcpy(v.data(), s.data(), s.size());
    return v;
  }

  template <typename K, typename V, typename KFn, typename VFn>
  std::map<K, V> read_map(KFn&& kf, VFn&& vf) {
    std::size_t n = checked_len(read_varint());
    std::map<K, V> m;
    for (std::size_t i = 0; i < n; ++i) {
      K k = kf(*this);
      V v = vf(*this);
      m.emplace(std::move(k), std::move(v));
    }
    return m;
  }

  template <typename T, typename Fn>
  std::optional<T> read_optional(Fn&& fn) {
    if (!read_bool()) return std::nullopt;
    return fn(*this);
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ == data_.size(); }
  std::size_t position() const { return pos_; }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n)
      throw SerializationError("buffer underrun: need " + std::to_string(n) +
                               " bytes, have " +
                               std::to_string(data_.size() - pos_));
  }

  std::size_t checked_len(std::uint64_t n) const {
    if (n > data_.size() - pos_)
      throw SerializationError("declared length " + std::to_string(n) +
                               " exceeds remaining buffer");
    return static_cast<std::size_t>(n);
  }

  template <typename T>
  T read_le() {
    need(sizeof(T));
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, data_.data() + pos_, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        v |= static_cast<T>(static_cast<std::uint8_t>(data_[pos_ + i]))
             << (8 * i);
      }
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Convenience: serialize a value that provides `void save(BinaryWriter&)`.
template <typename T>
std::vector<std::byte> to_bytes(const T& value) {
  BinaryWriter w;
  value.save(w);
  return w.take();
}

/// Convenience: deserialize a default-constructible value providing
/// `void load(BinaryReader&)`.
template <typename T>
T from_bytes(std::span<const std::byte> bytes) {
  BinaryReader r(bytes);
  T value;
  value.load(r);
  return value;
}

// --- CRC framing ------------------------------------------------------------
//
// Length+CRC framing shared by the service wire codec (src/svc/wire.hpp)
// and the job journal (src/svc/journal.hpp):
//
//   [u32 magic][u32 payload_len][u32 crc32(payload)][payload bytes]
//
// A frame is either read back whole and intact or rejected: bad magic,
// an oversize length, a truncated payload, and a CRC mismatch all raise
// SerializationError. A torn tail (partial fsync'd append, severed
// socket) therefore reads as a clean error, never as garbage data.

inline constexpr std::size_t kCrcFrameHeaderBytes = 12;

/// Appends one CRC frame to `w`.
void write_crc_frame(BinaryWriter& w, std::uint32_t magic,
                     std::span<const std::byte> payload);

/// Reads and validates one CRC frame, returning the payload bytes.
/// `max_payload` bounds the declared length so a corrupt header cannot
/// trigger a huge allocation. Throws SerializationError on any mismatch.
std::vector<std::byte> read_crc_frame(BinaryReader& r, std::uint32_t magic,
                                      std::size_t max_payload);

/// Parses a CRC frame header from exactly kCrcFrameHeaderBytes bytes and
/// returns {payload_len, expected_crc}. Used by the socket transport,
/// which must learn the payload length before it can read the payload.
std::pair<std::uint32_t, std::uint32_t> parse_crc_frame_header(
    std::span<const std::byte> header, std::uint32_t magic,
    std::size_t max_payload);

/// Validates a payload read separately from its header (socket path).
void check_crc_payload(std::span<const std::byte> payload,
                       std::uint32_t expected_crc);

}  // namespace fixd
