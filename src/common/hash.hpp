// 64-bit streaming hash used for model-checker state dedup and run digests.
//
// Not cryptographic; it only needs good avalanche behaviour so that
// distinct world states rarely collide in the visited set. Collisions are
// safe-for-soundness in the explorer's default mode (a collision can only
// cause missed states, which the tests bound) and the engine offers an
// exact mode that stores full state bytes.
//
// Hasher::update is a block hasher: 32-byte blocks run through four
// independent multiply-rotate lanes (the xxHash64 round), which the CPU
// overlaps, and the lanes fold into the running state once per call. The
// remaining whole 8-byte words and a length-tagged tail each go through
// hash_combine. Words are loaded with memcpy in little-endian order on
// every platform, so digests are platform-independent.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

namespace fixd {

/// splitmix64 finalizer: excellent avalanche, cheap.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Combine two 64-bit hashes (order-sensitive).
constexpr std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t v) {
  return mix64(seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2)));
}

/// Streaming hasher over arbitrary bytes. Digests depend on how the input
/// is split across update() calls (each call folds its own blocks and
/// tags its own tail); callers that must agree feed the same chunks.
class Hasher {
 public:
  explicit Hasher(std::uint64_t seed = 0x46697844ull /* "FixD" */)
      : state_(mix64(seed)) {}

  Hasher& update(std::span<const std::byte> bytes) {
    const std::byte* p = bytes.data();
    std::size_t n = bytes.size();
    if (n >= 32) {
      std::uint64_t v1 = state_ + kP1 + kP2;
      std::uint64_t v2 = state_ + kP2;
      std::uint64_t v3 = state_;
      std::uint64_t v4 = state_ - kP1;
      do {
        v1 = lane_round(v1, load64(p));
        v2 = lane_round(v2, load64(p + 8));
        v3 = lane_round(v3, load64(p + 16));
        v4 = lane_round(v4, load64(p + 24));
        p += 32;
        n -= 32;
      } while (n >= 32);
      std::uint64_t h = std::rotl(v1, 1) + std::rotl(v2, 7) +
                        std::rotl(v3, 12) + std::rotl(v4, 18);
      h = merge(h, v1);
      h = merge(h, v2);
      h = merge(h, v3);
      h = merge(h, v4);
      state_ = hash_combine(state_, h);
    }
    for (; n >= 8; p += 8, n -= 8) state_ = hash_combine(state_, load64(p));
    if (n > 0) {
      // The tail's byte count sits in the top byte, which at most 7 data
      // bytes never reach, so tails of different lengths never alias.
      std::array<std::byte, 8> tail{};
      std::memcpy(tail.data(), p, n);
      state_ = hash_combine(state_, load64(tail.data()) ^
                                        (static_cast<std::uint64_t>(n) << 56));
    }
    len_ += bytes.size();
    return *this;
  }

  Hasher& update_u64(std::uint64_t v) {
    state_ = hash_combine(state_, v);
    len_ += 8;
    return *this;
  }

  Hasher& update_string(std::string_view s) {
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    return update({p, s.size()});
  }

  /// Final digest; includes total length so prefixes don't collide trivially.
  std::uint64_t digest() const { return hash_combine(state_, len_); }

 private:
  static constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ull;
  static constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
  static constexpr std::uint64_t kP4 = 0x85ebca77c2b2ae63ull;

  /// Little-endian 8-byte load, independent of alignment and host order.
  static std::uint64_t load64(const std::byte* p) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big) {
      v = ((v & 0x00000000ffffffffull) << 32) | (v >> 32);
      v = ((v & 0x0000ffff0000ffffull) << 16) |
          ((v >> 16) & 0x0000ffff0000ffffull);
      v = ((v & 0x00ff00ff00ff00ffull) << 8) |
          ((v >> 8) & 0x00ff00ff00ff00ffull);
    }
    return v;
  }
  static std::uint64_t lane_round(std::uint64_t acc, std::uint64_t w) {
    return std::rotl(acc + w * kP2, 31) * kP1;
  }
  static std::uint64_t merge(std::uint64_t h, std::uint64_t v) {
    return (h ^ lane_round(0, v)) * kP1 + kP4;
  }

  std::uint64_t state_;
  std::uint64_t len_ = 0;
};

/// One-shot hash of a byte span.
inline std::uint64_t hash_bytes(std::span<const std::byte> bytes,
                                std::uint64_t seed = 0x46697844ull) {
  return Hasher(seed).update(bytes).digest();
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte span.
///
/// Distinct in purpose from Hasher: CRC is the *integrity* check on stored
/// and transmitted frames (the job journal and the service wire codec),
/// where guaranteed detection of small burst errors matters; Hasher is the
/// *identity* hash for in-memory state dedup. Chainable: pass the previous
/// return value as `crc` to continue over a split buffer.
inline std::uint32_t crc32(std::span<const std::byte> bytes,
                           std::uint32_t crc = 0) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  crc = ~crc;
  for (const std::byte b : bytes) {
    crc = table[(crc ^ static_cast<std::uint8_t>(b)) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace fixd
