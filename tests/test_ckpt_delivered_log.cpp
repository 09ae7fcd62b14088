// The delivered-message log: one compact record per delivery in the
// record log (common/record_log.hpp; its store-level tests are in
// test_common_record_log.cpp).
//
// Round trips every message field, keeps every delivery in order, stays
// near one record's bytes per delivery on a protect-sized kv run, and
// under the Time Machine holds only the deliveries after its horizon.
// This binary replaces the global operator new with a counting one (test
// binaries are per file, so the replacement is scoped to this file) to
// check that logging a delivery allocates only when a chunk fills.
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

  DeliveredLog log;
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

TEST(DeliveredLog, KeepsEveryDeliveryInOrder) {
  DeliveredLog log;
  for (std::uint64_t i = 0; i < 5000; ++i) log.append(make_message(i), i);
  EXPECT_EQ(log.size(), 5000u);
  const std::vector<net::Message> kept = decode_all(log);
  ASSERT_EQ(kept.size(), 5000u);
  for (std::size_t k = 0; k < kept.size(); ++k) {
    SCOPED_TRACE(k);
    expect_same(kept[k], make_message(k));
  }

  log.clear();
  EXPECT_TRUE(log.empty());
  log.append(make_message(1), 1);
  EXPECT_EQ(log.size(), 1u);
}

TEST(DeliveredLog, AppendAfterAHorizonTrimKeepsOrder) {
  // Drop an older run of records the way a horizon advance does (a
  // per-destination bound, so the kept ones start mid-chunk and interleave
  // with dropped ones), then append behind them.
  DeliveredLog log;
  for (std::uint64_t i = 0; i < 3000; ++i) log.append(make_message(i), i);
  const std::uint64_t horizon[4] = {2500, 2400, 2600, 2450};
  log.retain_if([&](const DeliveredLog::View& v) {
    return v.head.dst_own_after > horizon[v.head.dst];
  });
  std::vector<std::uint64_t> want;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    if (i > horizon[(i + 1) % 4]) want.push_back(i);
  }
  for (std::uint64_t i = 3000; i < 3300; ++i) {
    log.append(make_message(i), i);
    want.push_back(i);
  }
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

/// Logs every delivery into a bare DeliveredLog, as the Time Machine's
/// observer does, but never drops one.
class BareLog final : public rt::RuntimeObserver {
 public:
  void on_deliver(const rt::World& w, const net::Message& msg) override {
    log.append(msg, w.vclock_of(msg.dst)[msg.dst]);
  }
  DeliveredLog log;
};

// The e2e `protect` workload's world and Time Machine policy. A bare log
// fed every delivery (60k of them) keeps no more than 96 B each plus the
// chunk being filled; a full Message copy per delivery costs about 245 B.
// The Time Machine's own log holds only the deliveries after its horizon,
// which checkpoints keep advancing: a few hundred of them.
TEST(TimeMachineLog, ResidentBytesStayNearOneRecordPerDelivery) {
  auto w = make_protect_world(1);
  TimeMachineOptions o;
  o.cic = true;
  TimeMachine tm(*w, o);
  BareLog bare;
  w->add_observer(&bare);
  tm.attach();
  const rt::RunResult res = w->run();
  w->remove_observer(&bare);
  ASSERT_NE(res.reason, rt::StopReason::kViolation);

  const std::size_t records = bare.log.size();
  EXPECT_EQ(records, w->network().stats().delivered);
  EXPECT_GT(records, 50000u);
  EXPECT_LE(bare.log.resident_bytes(),
            96 * records + bare.log.largest_chunk_bytes());

  EXPECT_GT(tm.stats().horizon_advances, 0u);
  EXPECT_LT(tm.delivered_log().size(), 1000u);
  std::size_t behind = 0;
  DeliveredLog held = tm.delivered_log();  // a copy, to read its records
  held.retain_if([&](const DeliveredLog::View& v) {
    const VectorClock& h = tm.store(v.head.dst).entries().front().data->vclock;
    if (v.head.dst_own_after <= h[v.head.dst]) ++behind;
    return true;
  });
  EXPECT_EQ(behind, 0u);
}

TEST(TimeMachineLog, OnDeliverAllocatesOnlyWhenAChunkFills) {
  apps::KvConfig cfg;
  cfg.total_ops = 40;
  cfg.key_space = 8;
  auto w = apps::make_kv_world(3, 2, cfg);
  TimeMachineOptions o;
  o.store_capacity = 4;  // small: horizon advances free chunks too
  TimeMachine tm(*w, o);
  tm.attach();
  w->run(20);
  ASSERT_FALSE(w->network().pending().empty());
  const net::Message msg = *w->network().pending().front();

  for (int i = 0; i < 100; ++i) tm.on_deliver(*w, msg);  // warm-up
  std::uint64_t chunk_calls = 0;
  std::uint64_t stray = 0;
  for (int i = 0; i < 100000; ++i) {
    // The world does not move, so checkpoints put the horizon at the
    // logged deliveries' own clocks: every advance drops them all.
    if (i % 2000 == 0) {
      for (ProcessId p = 0; p < w->size(); ++p) tm.take_checkpoint(p);
    }
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
  EXPECT_GT(chunk_calls, 0u);
  // The horizon did turn over chunks: the log holds at most the deliveries
  // of the last two checkpoint rounds, not all 100100.
  EXPECT_GT(tm.stats().horizon_advances, 10u);
  EXPECT_LE(tm.delivered_log().size(), 4000u);
  EXPECT_LT(tm.delivered_log().resident_bytes(), 100 * 4000u);
}

}  // namespace
}  // namespace fixd::ckpt
