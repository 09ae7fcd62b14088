// The record log under the Scroll and the delivered-message log: byte
// records behind their lengths, in chunks that never move.
//
// Walks back records of every length, evicts oldest first and frees
// drained chunks, frees whole leading chunks with exact counts, compacts
// in place, copies independently, keeps its empty tail to about an
// eighth, and allocates only when a chunk fills. This
// binary replaces the global operator new with a counting one (test
// binaries are per file, so the replacement is scoped to this file).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "common/record_log.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Out of line, so GCC does not pair an inlined free() with the standard
// allocator's operator new and warn of a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace fixd {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Record `i`: its index in 8 bytes, then `i % 90` bytes derived from it.
std::vector<std::byte> make_record(std::uint64_t i) {
  std::vector<std::byte> r(8 + i % 90);
  std::memcpy(r.data(), &i, 8);
  for (std::size_t b = 8; b < r.size(); ++b) {
    r[b] = static_cast<std::byte>(i + b);
  }
  return r;
}

std::byte* put(RecordLog& log, std::uint64_t i) {
  const std::vector<std::byte> r = make_record(i);
  std::byte* p = log.append(r.size());
  std::memcpy(p, r.data(), r.size());
  return p;
}

std::uint64_t index_of(std::span<const std::byte> rec) {
  std::uint64_t i = 0;
  std::memcpy(&i, rec.data(), 8);
  return i;
}

/// The indices of the records, oldest first; each record's bytes must be
/// what make_record wrote.
std::vector<std::uint64_t> walk(const RecordLog& log) {
  std::vector<std::uint64_t> out;
  RecordLog::Cursor c = log.cursor();
  std::span<const std::byte> rec;
  while (c.next(rec)) {
    const std::uint64_t i = index_of(rec);
    const std::vector<std::byte> want = make_record(i);
    EXPECT_TRUE(std::equal(rec.begin(), rec.end(), want.begin(), want.end()))
        << "record " << i;
    out.push_back(i);
  }
  EXPECT_EQ(out.size(), log.size());
  return out;
}

std::vector<std::uint64_t> range(std::uint64_t from, std::uint64_t to) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t i = from; i < to; ++i) out.push_back(i);
  return out;
}

TEST(RecordLog, WalksBackRecordsOfEveryLength) {
  // Both sides of the length prefix's width steps, an empty record, and
  // one larger than the chunk cap, which gets a chunk of its own size.
  const std::vector<std::size_t> lengths{
      0, 1, 127, 128, 16383, 16384, RecordLog::kMaxChunkBytes + 5, 3};
  RecordLog log;
  std::size_t bytes = 0;
  for (std::size_t k = 0; k < lengths.size(); ++k) {
    std::byte* p = log.append(lengths[k]);
    std::memset(p, static_cast<int>(k), lengths[k]);
    bytes += varint_size(lengths[k]) + lengths[k];
  }
  EXPECT_EQ(log.size(), lengths.size());
  EXPECT_EQ(log.record_bytes(), bytes);
  EXPECT_GT(log.largest_chunk_bytes(), RecordLog::kMaxChunkBytes);
  EXPECT_GE(log.resident_bytes(), bytes);

  RecordLog::Cursor c = log.cursor();
  std::span<const std::byte> rec;
  for (std::size_t k = 0; k < lengths.size(); ++k) {
    ASSERT_TRUE(c.next(rec)) << k;
    ASSERT_EQ(rec.size(), lengths[k]);
    for (std::byte b : rec) ASSERT_EQ(b, static_cast<std::byte>(k));
  }
  EXPECT_FALSE(c.next(rec));
}

TEST(RecordLog, PopFrontEvictsOldestFirstAndFreesDrainedChunks) {
  RecordLog log;
  for (std::uint64_t i = 0; i < 50000; ++i) {
    put(log, i);
    if (log.size() > 100) {
      std::span<const std::byte> oldest;
      log.cursor().next(oldest);
      EXPECT_EQ(index_of(oldest), i - 100);
      log.pop_front();
    }
  }
  EXPECT_EQ(walk(log), range(50000 - 100, 50000));
  // About 2.6 MB of records were written, but drained chunks were freed:
  // a ring of 100 short records stays in a few first-size chunks.
  EXPECT_LE(log.resident_bytes(), 4 * RecordLog::kFirstChunkBytes);

  while (!log.empty()) log.pop_front();
  EXPECT_EQ(log.record_bytes(), 0u);
  EXPECT_TRUE(walk(log).empty());
  put(log, 7);
  EXPECT_EQ(walk(log), std::vector<std::uint64_t>{7});
}

TEST(RecordLog, RetainIfCompactsInPlaceAndFreesTail) {
  RecordLog log;
  for (std::uint64_t i = 0; i < 40000; ++i) put(log, i);
  const std::size_t full = log.resident_bytes();

  // Keep every third record: the kept ones move down, in order, and the
  // chunks left empty at the tail are freed.
  log.retain_if([](std::span<const std::byte> rec) {
    return index_of(rec) % 3 == 0;
  });
  EXPECT_LT(log.resident_bytes(), full);
  std::vector<std::uint64_t> want;
  std::size_t bytes = 0;
  for (std::uint64_t i = 0; i < 40000; i += 3) {
    want.push_back(i);
    bytes += 1 + make_record(i).size();
  }
  EXPECT_EQ(walk(log), want);
  EXPECT_EQ(log.record_bytes(), bytes);

  // Appending continues after the compacted records.
  put(log, 40000);
  want.push_back(40000);
  EXPECT_EQ(walk(log), want);

  log.retain_if([](std::span<const std::byte>) { return false; });
  EXPECT_TRUE(log.empty());
  EXPECT_TRUE(walk(log).empty());
  EXPECT_EQ(log.record_bytes(), 0u);
  EXPECT_LE(log.resident_bytes(), RecordLog::kFirstChunkBytes);
  put(log, 1);
  EXPECT_EQ(walk(log), std::vector<std::uint64_t>{1});

  log.clear();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.resident_bytes(), 0u);
}

TEST(RecordLog, RetainIfAfterPopFrontKeepsOrder) {
  // Filter a log whose head sits mid-chunk, then keep evicting and
  // appending past the records the filter kept.
  RecordLog log;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    put(log, i);
    if (log.size() > 500) log.pop_front();
  }
  log.retain_if([](std::span<const std::byte> rec) {
    return index_of(rec) % 4 != 1;
  });
  std::vector<std::uint64_t> want;
  for (std::uint64_t i = 2500; i < 3000; ++i) {
    if (i % 4 != 1) want.push_back(i);
  }
  EXPECT_EQ(walk(log), want);
  for (std::uint64_t i = 3000; i < 3300; ++i) {
    put(log, i);
    want.push_back(i);
    if (log.size() > 500) log.pop_front();
  }
  want.erase(want.begin(), want.end() - 500);
  EXPECT_EQ(walk(log), want);
}

// Freeing whole leading chunks reads no record, yet leaves the count and
// bytes of what is held exact: each chunk counts its records through
// appends, evictions and compaction. What is left is the suffix that
// starts at a chunk's first record.
TEST(RecordLog, DropFrontChunksKeepsCountsThroughEvictionAndCompaction) {
  for (int shape = 0; shape < 3; ++shape) {
    RecordLog log;
    std::vector<std::uint64_t> opened;  ///< the record that opened a chunk
    for (std::uint64_t i = 0; i < 30000; ++i) {
      const std::size_t chunks = log.chunk_count();
      put(log, i);
      if (log.chunk_count() != chunks) opened.push_back(i);
    }
    if (shape >= 1) {
      for (int i = 0; i < 700; ++i) log.pop_front();  // a head mid-chunk
    }
    if (shape == 2) {
      log.retain_if([](std::span<const std::byte> rec) {
        return index_of(rec) % 3 != 0;
      });
    }
    const std::vector<std::uint64_t> before = walk(log);
    ASSERT_GT(log.chunk_count(), 3u);
    while (log.chunk_count() > 1) {
      const std::size_t k = std::min<std::size_t>(2, log.chunk_count() - 1);
      log.drop_front_chunks(k);
      const std::vector<std::uint64_t> after = walk(log);  // counts match
      ASSERT_FALSE(after.empty());
      ASSERT_LE(after.size(), before.size());
      EXPECT_TRUE(std::equal(after.begin(), after.end(),
                             before.end() - static_cast<std::ptrdiff_t>(
                                                after.size())));
      if (shape == 0) {
        EXPECT_NE(std::find(opened.begin(), opened.end(), after.front()),
                  opened.end());
      }
      std::size_t bytes = 0;
      for (std::uint64_t i : after) {
        const std::size_t n = make_record(i).size();
        bytes += varint_size(n) + n;
      }
      EXPECT_EQ(log.record_bytes(), bytes);
    }
    EXPECT_EQ(walk(log), std::vector<std::uint64_t>(
                             before.end() - static_cast<std::ptrdiff_t>(
                                                log.size()),
                             before.end()));
    put(log, 99999);
    EXPECT_EQ(walk(log).back(), 99999u);
  }
}

TEST(RecordLog, CopiesAreIndependent) {
  RecordLog log;
  for (std::uint64_t i = 0; i < 5000; ++i) put(log, i);
  log.pop_front();  // a head mid-chunk

  RecordLog copy = log;
  EXPECT_EQ(walk(copy), range(1, 5000));
  EXPECT_EQ(copy.record_bytes(), log.record_bytes());
  put(copy, 5000);
  copy.retain_if([](std::span<const std::byte> rec) {
    return index_of(rec) % 2 == 0;
  });

  RecordLog assigned;
  put(assigned, 9);
  assigned = copy;
  put(log, 6000);
  log.pop_front();

  std::vector<std::uint64_t> even;
  for (std::uint64_t i = 2; i <= 5000; i += 2) even.push_back(i);
  EXPECT_EQ(walk(copy), even);
  EXPECT_EQ(walk(assigned), even);
  std::vector<std::uint64_t> source = range(2, 5000);
  source.push_back(6000);
  EXPECT_EQ(walk(log), source);
}

// A new chunk is an eighth of what the log holds allocated (4 KiB to
// 1 MiB), so a long log's allocation exceeds its records by about an
// eighth, plus rounding and the unused tail of each chunk (shorter than a
// record).
TEST(RecordLog, EmptyTailStaysNearAnEighth) {
  RecordLog log;
  for (std::uint64_t i = 0; i < 200000; ++i) {
    put(log, i);
    if (i % 997 == 0) {
      const std::size_t bytes = log.record_bytes();
      ASSERT_LE(log.resident_bytes(),
                bytes + bytes / 8 + 2 * RecordLog::kFirstChunkBytes + 64 * 100)
          << i;
    }
  }
  EXPECT_LE(log.largest_chunk_bytes(), RecordLog::kMaxChunkBytes);
}

// Appending allocates only in the call that starts a chunk: the record is
// then not contiguous with the one before it. Evicting never allocates.
TEST(RecordLog, AppendAllocatesOnlyWhenAChunkFills) {
  for (bool ring : {false, true}) {
    RecordLog log;
    const std::byte* end = nullptr;
    std::uint64_t chunk_calls = 0;
    std::uint64_t stray = 0;
    for (std::uint64_t i = 0; i < 200000; ++i) {
      const std::vector<std::byte> r = make_record(i);
      const std::uint64_t before = allocations();
      std::byte* p = log.append(r.size());
      if (ring && log.size() > 2000) log.pop_front();
      const std::uint64_t made = allocations() - before;
      if (end == nullptr || p != end + varint_size(r.size())) {
        ++chunk_calls;
      } else {
        stray += made;
      }
      std::memcpy(p, r.data(), r.size());
      end = p + r.size();
    }
    EXPECT_EQ(stray, 0u) << (ring ? "ring" : "append only");
    EXPECT_GT(chunk_calls, 1u);
  }
}

}  // namespace
}  // namespace fixd
