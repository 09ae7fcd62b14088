// Hashing and deterministic RNG.
#include <gtest/gtest.h>

#include <set>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"

namespace fixd {
namespace {

TEST(Hash, Deterministic) {
  std::vector<std::byte> data(100);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::byte>(i * 7);
  EXPECT_EQ(hash_bytes(data), hash_bytes(data));
}

TEST(Hash, SensitiveToEveryByte) {
  std::vector<std::byte> data(64, std::byte{0});
  std::uint64_t base = hash_bytes(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    auto mutated = data;
    mutated[i] = std::byte{1};
    EXPECT_NE(hash_bytes(mutated), base) << "byte " << i << " ignored";
  }
}

TEST(Hash, LengthMatters) {
  std::vector<std::byte> a(8, std::byte{0});
  std::vector<std::byte> b(16, std::byte{0});
  EXPECT_NE(hash_bytes(a), hash_bytes(b));
}

TEST(Hash, StreamingMatchesOneShot) {
  std::vector<std::byte> data(37);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::byte>(i);
  Hasher h;
  h.update(std::span<const std::byte>(data.data(), 10));
  h.update(std::span<const std::byte>(data.data() + 10, 27));
  // Streaming in chunks is NOT required to equal one-shot (lane alignment),
  // but must itself be deterministic.
  Hasher h2;
  h2.update(std::span<const std::byte>(data.data(), 10));
  h2.update(std::span<const std::byte>(data.data() + 10, 27));
  EXPECT_EQ(h.digest(), h2.digest());
}

// Bytes that are neither all-zero nor periodic, so a lane or block that
// ignored its input would show.
std::vector<std::byte> patterned(std::size_t n) {
  std::vector<std::byte> v(n);
  std::uint64_t x = 0x243f6a8885a308d3ull;
  for (auto& b : v) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<std::byte>(x >> 56);
  }
  return v;
}

// Lengths 0..130 cross the word (8), block (32) and tail boundaries of the
// block hasher several times; 4096 is a page.
std::vector<std::size_t> boundary_lengths() {
  std::vector<std::size_t> lens;
  for (std::size_t n = 0; n <= 130; ++n) lens.push_back(n);
  lens.push_back(4096);
  return lens;
}

TEST(Hash, EverySingleBitFlipChangesTheHash) {
  for (std::size_t n : boundary_lengths()) {
    std::vector<std::byte> data = patterned(n);
    const std::uint64_t base = hash_bytes(data);
    for (std::size_t bit = 0; bit < 8 * n; ++bit) {
      data[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
      ASSERT_NE(hash_bytes(data), base) << "len " << n << " bit " << bit;
      data[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    }
  }
}

TEST(Hash, AppendingAZeroByteChangesTheHash) {
  for (std::size_t n : boundary_lengths()) {
    for (std::vector<std::byte> data :
         {patterned(n), std::vector<std::byte>(n)}) {
      const std::uint64_t base = hash_bytes(data);
      data.push_back(std::byte{0});
      EXPECT_NE(hash_bytes(data), base) << "len " << n;
    }
  }
}

TEST(Hash, TailLengthIsTagged) {
  // Same total length and same tail bytes-xor-length values, split
  // differently: an xor length tag would make both chains identical
  // (1^1 == 2^2, 3^2 == 0^1). The top-byte tag keeps them apart.
  const std::byte t1[] = {std::byte{1}};
  const std::byte t30[] = {std::byte{3}, std::byte{0}};
  const std::byte t20[] = {std::byte{2}, std::byte{0}};
  const std::byte t0[] = {std::byte{0}};
  Hasher a, b;
  a.update(t1).update(t30);
  b.update(t20).update(t0);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Hash, WordsAreLittleEndian) {
  // An 8-byte input is one whole word: the digest equals hashing the
  // little-endian value through update_u64, on every platform.
  const std::byte bytes[] = {std::byte{0x01}, std::byte{0x02}, std::byte{0x03},
                             std::byte{0x04}, std::byte{0x05}, std::byte{0x06},
                             std::byte{0x07}, std::byte{0x08}};
  EXPECT_EQ(hash_bytes(bytes),
            Hasher().update_u64(0x0807060504030201ull).digest());
}

TEST(Hash, CombineOrderSensitive) {
  EXPECT_NE(hash_combine(hash_combine(1, 2), 3),
            hash_combine(hash_combine(1, 3), 2));
}

TEST(Rng, DeterministicBySeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    std::uint64_t va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    (void)c.next_u64();
  }
  Rng a2(42), c2(43);
  EXPECT_NE(a2.next_u64(), c2.next_u64());
}

TEST(Rng, SerializationResumesStream) {
  Rng a(7);
  for (int i = 0; i < 17; ++i) (void)a.next_u64();
  BinaryWriter w;
  a.save(w);
  Rng b;
  BinaryReader r(w.bytes());
  b.load(r);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

class RngBoundParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBoundParam, NextBelowInRange) {
  Rng rng(GetParam() + 1);
  std::uint64_t bound = GetParam();
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t v = rng.next_below(bound);
    if (bound == 0) {
      EXPECT_EQ(v, 0u);
    } else {
      EXPECT_LT(v, bound);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundParam,
                         ::testing::Values(0ull, 1ull, 2ull, 3ull, 10ull,
                                           1000ull, 1ull << 33));

TEST(Rng, NextBelowCoversRange) {
  Rng rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BoolProbabilityRoughlyHolds) {
  Rng rng(11);
  int hits = 0;
  const int kTrials = 10000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.next_bool(0.25)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.25, 0.03);
}

TEST(Rng, EqualityReflectsState) {
  Rng a(3), b(3);
  EXPECT_EQ(a, b);
  (void)a.next_u64();
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace fixd
