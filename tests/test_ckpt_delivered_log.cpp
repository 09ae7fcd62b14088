// The delivered-message log: one compact record per delivery in the
// record log (common/record_log.hpp; its store-level tests are in
// test_common_record_log.cpp).
//
// Round trips every message field, keeps a ring of its capacity, marks
// per destination the newest delivery it evicted, and stays near one
// record's bytes per delivery on a protect-sized kv run. This binary
// replaces the global operator new with a counting one (test binaries are
// per file, so the replacement is scoped to this file) to check that
// logging a delivery allocates only when a chunk fills.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

#include "apps/kv_store.hpp"
#include "ckpt/delivered_log.hpp"
#include "ckpt/timemachine.hpp"
#include "common/hash.hpp"

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

namespace fixd::ckpt {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// A message whose fields all derive from `i`, so a decoded one can be
/// checked against its index.
net::Message make_message(std::uint64_t i, std::size_t payload_bytes = 24) {
  net::Message m;
  m.id = 1000 + i;
  m.src = static_cast<ProcessId>(i % 4);
  m.dst = static_cast<ProcessId>((i + 1) % 4);
  m.tag = static_cast<net::Tag>(i);
  m.payload.resize(payload_bytes);
  for (std::size_t b = 0; b < payload_bytes; ++b) {
    m.payload[b] = static_cast<std::byte>(i + b);
  }
  m.sent_at = 3 * i;
  m.latency = 1 + i % 4;
  m.lamport = 5 * i + 1;
  std::vector<std::uint64_t> clock(4);
  for (std::size_t p = 0; p < clock.size(); ++p) clock[p] = i + p;
  m.vclock = VectorClock(std::move(clock));
  return m;
}

void expect_same(const net::Message& got, const net::Message& want) {
  EXPECT_EQ(got.id, 0u);  // ids are not logged: reinject assigns new ones
  EXPECT_EQ(got.src, want.src);
  EXPECT_EQ(got.dst, want.dst);
  EXPECT_EQ(got.tag, want.tag);
  EXPECT_EQ(got.payload, want.payload);
  EXPECT_EQ(got.sent_at, want.sent_at);
  EXPECT_EQ(got.latency, want.latency);
  EXPECT_EQ(got.lamport, want.lamport);
  EXPECT_EQ(got.vclock, want.vclock);
  EXPECT_EQ(got.spec_taints, want.spec_taints);
  EXPECT_EQ(got.control, want.control);
  EXPECT_EQ(got.content_digest(), want.content_digest());
}

/// Every record, decoded, oldest first (a keep-all filter).
std::vector<net::Message> decode_all(DeliveredLog& log) {
  std::vector<net::Message> out;
  log.retain_if([&](const DeliveredLog::View& v) {
    out.push_back(v.decode());
    return true;
  });
  return out;
}

TEST(DeliveredLog, RoundTripsEveryField) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::vector<net::Message> sent;
  sent.push_back(make_message(7));
  net::Message wide = make_message(9, 0);  // no payload; widest varints
  wide.tag = std::numeric_limits<net::Tag>::max();
  wide.sent_at = kMax;
  wide.latency = kMax - 1;
  wide.lamport = std::uint64_t{1} << 63;
  wide.vclock = VectorClock(std::vector<std::uint64_t>{kMax, 0, 127, 128});
  wide.spec_taints = {1, 300, kMax};
  wide.control = true;
  sent.push_back(wide);
  // Larger than the chunk cap: the record gets a chunk of its own size.
  sent.push_back(make_message(11, RecordLog::kMaxChunkBytes + 5));
  sent.push_back(make_message(12));

  DeliveredLog log(16);
  for (std::size_t i = 0; i < sent.size(); ++i) log.append(sent[i], 40 + i);
  ASSERT_EQ(log.size(), sent.size());
  EXPECT_GT(log.largest_chunk_bytes(), RecordLog::kMaxChunkBytes);

  std::vector<std::uint64_t> stamps;
  std::vector<std::uint64_t> own_after;
  std::vector<net::Message> got;
  log.retain_if([&](const DeliveredLog::View& v) {
    stamps.push_back(v.head.send_stamp);
    own_after.push_back(v.head.dst_own_after);
    got.push_back(v.decode());
    return true;
  });
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same(got[i], sent[i]);
    EXPECT_EQ(stamps[i], sent[i].vclock[sent[i].src]);
    EXPECT_EQ(own_after[i], 40 + i);
  }
}

TEST(DeliveredLog, KeepsARingOfItsCapacity) {
  DeliveredLog log(100);
  for (std::uint64_t i = 0; i < 50000; ++i) log.append(make_message(i), i);
  EXPECT_EQ(log.size(), 100u);
  const std::vector<net::Message> kept = decode_all(log);
  ASSERT_EQ(kept.size(), 100u);
  for (std::size_t k = 0; k < kept.size(); ++k) {
    SCOPED_TRACE(k);
    expect_same(kept[k], make_message(50000 - 100 + k));
  }

  DeliveredLog none(0);
  none.append(make_message(1), 1);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.resident_bytes(), 0u);
}

// Per destination, the mark is the largest dst_own_after the ring evicted;
// a rollback lowers it to the destination's cut, and clear() forgets it.
TEST(DeliveredLog, MarksTheNewestEvictedDeliveryPerDestination) {
  DeliveredLog log(8);
  // Message i goes to (i + 1) % 4 with dst_own_after 10 * i.
  for (std::uint64_t i = 0; i < 8; ++i) log.append(make_message(i), 10 * i);
  for (ProcessId p = 0; p < 5; ++p) EXPECT_EQ(log.evicted_mark(p), 0u);

  for (std::uint64_t i = 8; i < 14; ++i) log.append(make_message(i), 10 * i);
  // Evicted: messages 0..5, to destinations 1, 2, 3, 0, 1, 2.
  EXPECT_EQ(log.evicted_mark(0), 30u);
  EXPECT_EQ(log.evicted_mark(1), 40u);
  EXPECT_EQ(log.evicted_mark(2), 50u);
  EXPECT_EQ(log.evicted_mark(3), 20u);
  EXPECT_EQ(log.evicted_mark(4), 0u);  // never a destination

  log.rolled_back(2, 45);
  log.rolled_back(3, 45);
  log.rolled_back(9, 1);  // never a destination: no effect
  EXPECT_EQ(log.evicted_mark(2), 45u);
  EXPECT_EQ(log.evicted_mark(3), 20u);

  log.clear();
  for (ProcessId p = 0; p < 4; ++p) EXPECT_EQ(log.evicted_mark(p), 0u);
}

TEST(DeliveredLog, RetainIfAfterEvictionKeepsTheRing) {
  // Filter a ring whose head sits mid-chunk, then append until the ring
  // evicts some of the records the filter kept.
  DeliveredLog log(500);
  for (std::uint64_t i = 0; i < 3000; ++i) log.append(make_message(i), i);
  log.retain_if([](const DeliveredLog::View& v) { return v.head.src != 1; });
  std::vector<std::uint64_t> want;
  for (std::uint64_t i = 2500; i < 3000; ++i) {
    if (i % 4 != 1) want.push_back(i);
  }
  for (std::uint64_t i = 3000; i < 3300; ++i) {
    log.append(make_message(i), i);
    want.push_back(i);
  }
  want.erase(want.begin(), want.end() - 500);
  const std::vector<net::Message> kept = decode_all(log);
  ASSERT_EQ(kept.size(), want.size());
  for (std::size_t k = 0; k < kept.size(); ++k) {
    EXPECT_EQ(kept[k].tag, want[k]);
  }
}

std::unique_ptr<rt::World> make_protect_world(std::uint64_t seed) {
  apps::KvConfig cfg;
  cfg.total_ops = 20000;
  cfg.key_space = 64;
  rt::WorldOptions wo;
  wo.seed = seed;
  wo.net = net::NetworkOptions::reordering();
  wo.net.seed = hash_combine(0x70726f74656374ull, seed);
  return apps::make_kv_world(4, 2, cfg, wo);
}

// The e2e `protect` workload's world and Time Machine policy: every
// delivery is logged (60k of them, under the 65536-record ring) at no more
// than 96 B each plus the chunk being filled. A full Message copy per
// delivery costs about 245 B.
TEST(TimeMachineLog, ResidentBytesStayNearOneRecordPerDelivery) {
  auto w = make_protect_world(1);
  TimeMachineOptions o;
  o.cic = true;
  TimeMachine tm(*w, o);
  tm.attach();
  const rt::RunResult res = w->run();
  ASSERT_NE(res.reason, rt::StopReason::kViolation);

  const std::size_t records = tm.delivered_log().size();
  EXPECT_EQ(records, w->network().stats().delivered);
  EXPECT_GT(records, 50000u);
  EXPECT_LE(tm.delivered_log().resident_bytes(),
            96 * records + tm.delivered_log().largest_chunk_bytes());
}

TEST(TimeMachineLog, OnDeliverAllocatesOnlyWhenAChunkFills) {
  apps::KvConfig cfg;
  cfg.total_ops = 40;
  cfg.key_space = 8;
  auto w = apps::make_kv_world(3, 2, cfg);
  TimeMachineOptions o;
  o.delivered_log_capacity = 2000;  // small: eviction frees chunks too
  TimeMachine tm(*w, o);
  tm.attach();
  w->run(20);
  ASSERT_FALSE(w->network().pending().empty());
  const net::Message msg = *w->network().pending().front();

  for (int i = 0; i < 100; ++i) tm.on_deliver(*w, msg);  // warm-up
  std::uint64_t chunk_calls = 0;
  std::uint64_t stray = 0;
  for (int i = 0; i < 100000; ++i) {
    const std::size_t resident = tm.delivered_log().resident_bytes();
    const std::uint64_t before = allocations();
    tm.on_deliver(*w, msg);
    if (tm.delivered_log().resident_bytes() != resident) {
      ++chunk_calls;
    } else {
      stray += allocations() - before;
    }
  }
  EXPECT_EQ(stray, 0u);
  EXPECT_GT(chunk_calls, 0u);  // the ring did turn over chunks
  EXPECT_EQ(tm.delivered_log().size(), 2000u);
}

}  // namespace
}  // namespace fixd::ckpt
