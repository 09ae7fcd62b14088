// Digest-cache invalidation: every cached digest (heap pages, whole-heap
// memo, per-process world components, message content memos) must stay
// bit-identical to a from-scratch recompute across all mutation paths —
// store/resize/restore/snapshot sequences on PagedHeap, and event /
// restore_process / rollback / crash-flag / swap sequences on World.
#include <gtest/gtest.h>

#include "apps/kv_store.hpp"
#include "apps/rep_counter.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "mem/paged_heap.hpp"
#include "rt/scheduler.hpp"
#include "rt/world.hpp"

namespace fixd {
namespace {

using apps::CounterConfig;
using apps::KvConfig;
using apps::make_counter_world;
using apps::make_kv_world;
using mem::HeapSnapshot;
using mem::PagedHeap;

// ---------------------------------------------------------------------------
// PagedHeap
// ---------------------------------------------------------------------------

TEST(HeapDigestCache, RepeatedDigestIsStable) {
  PagedHeap h(128);
  h.resize(1024);
  h.store<std::uint64_t>(8, 42);
  std::uint64_t d = h.digest();
  EXPECT_EQ(h.digest(), d);
  EXPECT_EQ(h.digest_uncached(), d);
}

TEST(HeapDigestCache, MaterializedZeroPageEqualsImplicit) {
  for (std::size_t ps : {64, 128, 4096, 8192}) {
    // Four full pages plus a partial last one.
    const std::uint64_t size = 4 * ps + ps / 2 + 3;
    PagedHeap implicit(ps), materialized(ps);
    implicit.resize(size);
    materialized.resize(size);
    // Writing zeros materializes a page whose content equals the implicit
    // zero page; the digest must not distinguish them.
    materialized.store<std::uint64_t>(ps, 0);
    EXPECT_EQ(materialized.digest(), implicit.digest()) << ps;
    EXPECT_EQ(materialized.digest(), materialized.digest_uncached()) << ps;
    materialized.store<std::uint64_t>(4 * ps, 0);  // the partial page
    EXPECT_EQ(materialized.digest(), implicit.digest()) << ps;
    EXPECT_EQ(implicit.digest(), implicit.digest_uncached()) << ps;
  }
}

TEST(HeapDigestCache, ZerosDigestEqualsHashingZeroBytes) {
  std::vector<std::size_t> lens;
  for (std::size_t base : {8u, 32u, 64u, 4096u, 8192u, 12288u}) {
    for (std::size_t n : {base - 1, base, base + 1}) lens.push_back(n);
  }
  lens.push_back(0);
  lens.push_back(4096 + 32 + 8 + 5);
  for (std::size_t n : lens) {
    const std::vector<std::byte> zeros(n);
    EXPECT_EQ(mem::zeros_digest(n), hash_bytes(zeros)) << "len " << n;
  }
}

TEST(HeapDigestCache, SwappingTwoPagesChangesTheDigest) {
  for (std::size_t ps : {64, 4096}) {
    PagedHeap h(ps);
    h.resize(4 * ps);
    for (std::size_t pg = 0; pg < 4; ++pg) {
      for (std::size_t off = 0; off < ps; off += 8) {
        h.store<std::uint64_t>(pg * ps + off, pg * 1000003 + off);
      }
    }
    const std::uint64_t before = h.digest();
    for (std::size_t off = 0; off < ps; off += 8) {
      const auto a = h.load<std::uint64_t>(1 * ps + off);
      const auto b = h.load<std::uint64_t>(2 * ps + off);
      h.store<std::uint64_t>(1 * ps + off, b);
      h.store<std::uint64_t>(2 * ps + off, a);
    }
    EXPECT_NE(h.digest(), before) << ps;
    EXPECT_EQ(h.digest(), h.digest_uncached()) << ps;
  }
}

TEST(HeapDigestCache, InPlaceWriteInvalidates) {
  PagedHeap h(128);
  h.resize(512);
  h.store<std::uint64_t>(0, 1);
  std::uint64_t d1 = h.digest();
  // No snapshot alive: the page is uniquely owned and mutated in place.
  h.store<std::uint64_t>(0, 2);
  EXPECT_NE(h.digest(), d1);
  EXPECT_EQ(h.digest(), h.digest_uncached());
  h.store<std::uint64_t>(0, 1);
  EXPECT_EQ(h.digest(), d1);
}

TEST(HeapDigestCache, SnapshotDigestIsPinned) {
  PagedHeap h(128);
  h.resize(1024);
  for (int i = 0; i < 8; ++i) h.store<std::uint64_t>(i * 128, i + 1);
  HeapSnapshot snap = h.snapshot();
  std::uint64_t at_capture = h.digest();
  EXPECT_EQ(snap.digest(), at_capture);
  h.store<std::uint64_t>(256, 99);  // COW: snapshot pages untouched
  EXPECT_NE(h.digest(), at_capture);
  EXPECT_EQ(snap.digest(), at_capture);
  h.restore(snap);
  EXPECT_EQ(h.digest(), at_capture);
  EXPECT_EQ(h.digest(), h.digest_uncached());
}

TEST(HeapDigestCache, SerializationRoundTripPreservesDigest) {
  PagedHeap h(128);
  h.resize(1000);
  for (std::uint64_t off = 0; off + 8 <= 1000; off += 56)
    h.store<std::uint64_t>(off, off * 3 + 1);
  std::uint64_t d = h.digest();
  BinaryWriter w;
  h.save(w);
  PagedHeap h2(128);
  BinaryReader r(w.bytes());
  h2.load(r);
  EXPECT_EQ(h2.digest(), d);
  EXPECT_EQ(h2.digest(), h2.digest_uncached());
}

class HeapDigestCacheParam : public ::testing::TestWithParam<std::uint64_t> {};

// Property: across randomized store / fill_zero / resize / snapshot /
// restore sequences, the cached digest always equals the uncached one.
TEST_P(HeapDigestCacheParam, RandomOpsMatchUncached) {
  Rng rng(GetParam());
  PagedHeap h(128);
  h.resize(128 * 24);
  // Each live snapshot is stored with the digest recorded at capture so
  // drift (e.g. an in-place write to a still-shared page) is caught.
  std::vector<std::pair<HeapSnapshot, std::uint64_t>> snaps;
  for (int i = 0; i < 300; ++i) {
    switch (rng.next_below(8)) {
      case 0:
      case 1:
      case 2:
      case 3:
        h.store<std::uint64_t>(rng.next_below(h.size() - 8), rng.next_u64());
        break;
      case 4: {
        std::uint64_t off = rng.next_below(h.size());
        h.fill_zero(off, rng.next_below(h.size() - off + 1));
        break;
      }
      case 5:
        if (snaps.size() < 6) {
          HeapSnapshot s = h.snapshot();
          std::uint64_t at_capture = h.digest_uncached();
          snaps.emplace_back(std::move(s), at_capture);
        }
        break;
      case 6:
        if (!snaps.empty())
          h.restore(snaps[rng.next_below(snaps.size())].first);
        break;
      case 7:
        // Restoring a snapshot later reapplies its captured size, so
        // resizing with live snapshots is legal.
        h.resize(128 * (8 + rng.next_below(32)));
        break;
    }
    ASSERT_EQ(h.digest(), h.digest_uncached()) << "op " << i;
    ASSERT_EQ(h.digest(), h.deep_copy().digest()) << "op " << i;
    for (const auto& [s, at_capture] : snaps)
      ASSERT_EQ(s.digest(), at_capture) << "snapshot drift at op " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapDigestCacheParam,
                         ::testing::Values(1, 7, 19, 101, 977));

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

void expect_world_digests_match(rt::World& w, const char* where) {
  ASSERT_EQ(w.mc_digest(), w.mc_digest_uncached()) << where;
  ASSERT_EQ(w.digest(), w.digest_uncached()) << where;
}

TEST(WorldDigestCache, EventPipelineMatchesUncached) {
  KvConfig cfg;
  cfg.total_ops = 12;
  cfg.key_space = 4;
  auto w = make_kv_world(4, /*version=*/2, cfg);
  expect_world_digests_match(*w, "initial");
  int steps = 0;
  while (w->step() && steps++ < 200) {
    expect_world_digests_match(*w, "after step");
  }
}

TEST(WorldDigestCache, RestoreProcessInvalidates) {
  auto w = make_counter_world(3, 2, CounterConfig{3});
  for (int i = 0; i < 4; ++i) w->step();
  rt::ProcessCheckpoint ckpt = w->capture_process(1);
  std::uint64_t at_capture = w->mc_digest();
  w->run(5);
  EXPECT_NE(w->mc_digest(), at_capture);
  w->restore_process(1, ckpt);
  expect_world_digests_match(*w, "after restore_process");
}

TEST(WorldDigestCache, SnapshotRollbackRestoresDigest) {
  KvConfig cfg;
  cfg.total_ops = 8;
  cfg.key_space = 4;
  auto w = make_kv_world(3, 2, cfg);
  for (int i = 0; i < 5; ++i) w->step();
  rt::WorldSnapshot snap = w->snapshot();
  std::uint64_t mid_mc = w->mc_digest();
  std::uint64_t mid_full = w->digest();
  w->run(20);
  w->restore(snap);
  EXPECT_EQ(w->mc_digest(), mid_mc);
  EXPECT_EQ(w->digest(), mid_full);
  expect_world_digests_match(*w, "after rollback");
}

TEST(WorldDigestCache, ExternalMutationViaAccessorInvalidates) {
  KvConfig cfg;
  cfg.total_ops = 8;
  auto w = make_kv_world(2, 2, cfg);
  std::uint64_t before = w->mc_digest();
  // Direct state poke, as the fault injector's corrupt_state does: goes
  // through the mutable accessor, which must drop the cached digest.
  w->process_as<apps::KvReplicaV2>(1).apply_put(1, 12345);
  EXPECT_NE(w->mc_digest(), before);
  expect_world_digests_match(*w, "after direct apply_put");
}

TEST(WorldDigestCache, CrashFlagInvalidates) {
  auto w = make_counter_world(3, 2, CounterConfig{2});
  w->run(4);
  std::uint64_t before = w->mc_digest();
  w->set_crashed(1, true);
  EXPECT_NE(w->mc_digest(), before);
  expect_world_digests_match(*w, "after set_crashed");
  w->set_crashed(1, false);
  EXPECT_EQ(w->mc_digest(), before);
}

TEST(WorldDigestCache, SwapProcessInvalidates) {
  KvConfig cfg;
  cfg.total_ops = 8;
  auto w = make_kv_world(2, 1, cfg);
  w->run(6);
  std::uint64_t before = w->mc_digest();
  auto fresh = std::make_unique<apps::KvReplicaV2>(cfg);
  auto old = w->swap_process(1, std::move(fresh));
  EXPECT_NE(w->mc_digest(), before);
  expect_world_digests_match(*w, "after swap_process");
  w->swap_process(1, std::move(old));
  expect_world_digests_match(*w, "after swap back");
}

class WorldDigestCacheParam : public ::testing::TestWithParam<std::uint64_t> {
};

// Property: a random interleaving of steps, captures, restores, rollbacks
// and crash toggles never lets the cached digests drift from uncached.
TEST_P(WorldDigestCacheParam, RandomWalkMatchesUncached) {
  Rng rng(GetParam());
  KvConfig cfg;
  cfg.total_ops = 16;
  cfg.key_space = 4;
  auto w = make_kv_world(3, 2, cfg);
  w->set_scheduler(std::make_unique<rt::RandomScheduler>(GetParam()));
  std::vector<rt::WorldSnapshot> snaps;
  std::vector<std::pair<ProcessId, rt::ProcessCheckpoint>> ckpts;
  for (int i = 0; i < 120; ++i) {
    switch (rng.next_below(10)) {
      case 0:
        if (snaps.size() < 4) snaps.push_back(w->snapshot());
        break;
      case 1:
        if (!snaps.empty()) w->restore(snaps[rng.next_below(snaps.size())]);
        break;
      case 2: {
        ProcessId p = static_cast<ProcessId>(rng.next_below(3));
        if (ckpts.size() < 4) ckpts.emplace_back(p, w->capture_process(p));
        break;
      }
      case 3:
        if (!ckpts.empty()) {
          auto& [p, c] = ckpts[rng.next_below(ckpts.size())];
          w->restore_process(p, c);
        }
        break;
      case 4: {
        ProcessId p = static_cast<ProcessId>(rng.next_below(3));
        w->set_crashed(p, !w->is_crashed(p));
        break;
      }
      default:
        w->step();
        break;
    }
    ASSERT_EQ(w->mc_digest(), w->mc_digest_uncached()) << "op " << i;
    ASSERT_EQ(w->digest(), w->digest_uncached()) << "op " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorldDigestCacheParam,
                         ::testing::Values(2, 11, 23, 97, 991));

// ---------------------------------------------------------------------------
// Message memo
// ---------------------------------------------------------------------------

TEST(MessageDigestMemo, NetworkMutateRewarmsMemo) {
  net::SimNetwork net;
  net::Message m;
  m.src = 0;
  m.dst = 1;
  m.tag = 7;
  m.payload = {std::byte{1}, std::byte{2}};
  auto id = net.submit(std::move(m));
  ASSERT_TRUE(id.has_value());
  std::uint64_t before = net.peek(*id)->content_digest();
  EXPECT_EQ(before, net.peek(*id)->content_digest_uncached());
  net.mutate(*id, [](net::Message& msg) { msg.payload[0] = std::byte{9}; });
  const net::Message* after = net.peek(*id);
  EXPECT_NE(after->content_digest(), before);
  EXPECT_EQ(after->content_digest(), after->content_digest_uncached());
}

TEST(MessageDigestMemo, CopyOfWarmMessageStartsCold) {
  net::SimNetwork net;
  net::Message m;
  m.src = 0;
  m.dst = 1;
  m.tag = 7;
  m.payload = {std::byte{1}, std::byte{2}};
  auto id = net.submit(std::move(m));
  ASSERT_TRUE(id.has_value());
  // Copy-corrupt, as fault-injection paths do: the copy's memo must be
  // cold so the mutation is reflected.
  net::Message copy = *net.peek(*id);
  std::uint64_t before = copy.content_digest();
  copy.payload[0] = std::byte{0xff};
  EXPECT_NE(copy.content_digest(), before);
  EXPECT_EQ(copy.content_digest(), copy.content_digest_uncached());
}

TEST(MessageDigestMemo, FreeStandingMessageNeverStale) {
  net::Message m;
  m.src = 1;
  m.dst = 2;
  m.tag = 3;
  m.payload = {std::byte{4}};
  std::uint64_t d0 = m.content_digest();
  m.payload[0] = std::byte{5};  // direct field mutation, no memo involved
  EXPECT_NE(m.content_digest(), d0);
  EXPECT_EQ(m.content_digest(), m.content_digest_uncached());
}

TEST(MessageDigestMemo, EveryPayloadBitFlipChangesBothDigests) {
  net::Message m;
  m.src = 1;
  m.dst = 2;
  m.tag = 3;
  m.vclock = VectorClock(3);
  for (std::size_t i = 0; i < 70; ++i) {
    m.payload.push_back(static_cast<std::byte>(i * 37 + 11));
  }
  const std::uint64_t c0 = m.content_digest_uncached();
  const std::uint64_t s0 = m.state_digest();
  for (std::size_t bit = 0; bit < 8 * m.payload.size(); ++bit) {
    m.payload[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    EXPECT_NE(m.content_digest_uncached(), c0) << bit;
    EXPECT_NE(m.state_digest(), s0) << bit;
    m.payload[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
  }
}

TEST(MessageDigestMemo, StateDigestCoversNonContentFields) {
  net::Message m;
  m.src = 0;
  m.dst = 1;
  m.tag = 2;
  m.payload = {std::byte{7}};
  const std::uint64_t s0 = m.state_digest();
  const std::uint64_t c0 = m.content_digest();
  m.latency = 9;  // invisible to content_digest, visible to state_digest
  EXPECT_NE(m.state_digest(), s0);
  EXPECT_EQ(m.content_digest(), c0);
  BinaryWriter w;
  m.save(w);
  EXPECT_EQ(m.state_digest(), hash_bytes(w.bytes()));
}

// ---------------------------------------------------------------------------
// Network digest cache
// ---------------------------------------------------------------------------

namespace {

net::Message mk_msg(ProcessId src, ProcessId dst, net::Tag tag,
                    std::uint8_t fill, std::size_t len) {
  net::Message m;
  m.src = src;
  m.dst = dst;
  m.tag = tag;
  m.payload.assign(len, std::byte{fill});
  return m;
}

std::vector<std::byte> saved(const net::SimNetwork& net) {
  BinaryWriter w;
  net.save(w);
  return w.bytes();
}

/// A network holding more channels and messages than any fuzzer snapshot
/// (processes 0..5, every channel loaded), so restoring into it shrinks
/// every table.
net::SimNetwork crowded_network() {
  net::SimNetwork net;
  for (ProcessId s = 0; s < 6; ++s) {
    for (ProcessId d = 0; d < 6; ++d) {
      for (int k = 0; k < 3; ++k) {
        (void)net.submit(mk_msg(s, d, 1, static_cast<std::uint8_t>(s + d), 16));
      }
    }
  }
  (void)net.cut_link(4, 5);
  (void)net.digest();
  return net;
}

/// What a snapshot must restore to, byte for byte: the save() image and
/// the in-flight count of every destination at capture.
struct NetCapture {
  std::shared_ptr<const net::NetSnapshot> snap;
  std::vector<std::byte> bytes;
  std::vector<std::uint64_t> inflight;
  std::uint64_t digest = 0;
};

NetCapture capture(const net::SimNetwork& net, ProcessId procs) {
  NetCapture c{net.snapshot(), saved(net), {}, net.digest_uncached()};
  for (ProcessId d = 0; d < procs; ++d) c.inflight.push_back(net.inflight_to(d));
  return c;
}

void expect_restored(const net::SimNetwork& net, const NetCapture& c,
                     const std::string& where) {
  ASSERT_EQ(saved(net), c.bytes) << where;
  for (ProcessId d = 0; d < c.inflight.size(); ++d) {
    ASSERT_EQ(net.inflight_to(d), c.inflight[d]) << where << " dst " << d;
    ASSERT_EQ(net.inflight_to(d), net.inflight_to_uncached(d))
        << where << " dst " << d;
  }
  ASSERT_EQ(net.digest(), c.digest) << where;
  ASSERT_EQ(net.digest_uncached(), c.digest) << where;
  ASSERT_EQ(net.content_digest_acc(), net.content_digest_acc_uncached())
      << where;
}

}  // namespace

TEST(NetworkDigestCache, RepeatedDigestIsStableAndMatchesUncached) {
  net::SimNetwork net;
  (void)net.submit(mk_msg(0, 1, 1, 0xaa, 32));
  (void)net.submit(mk_msg(1, 2, 2, 0xbb, 8));
  std::uint64_t d = net.digest();
  EXPECT_EQ(net.digest(), d);
  EXPECT_EQ(net.digest_uncached(), d);
}

TEST(NetworkDigestCache, EveryMutationPathInvalidates) {
  net::SimNetwork net;
  auto a = net.submit(mk_msg(0, 1, 1, 1, 16));
  auto b = net.submit(mk_msg(0, 1, 2, 2, 16));
  ASSERT_TRUE(a && b);
  std::uint64_t d0 = net.digest();

  net.mutate(*b, [](net::Message& m) { m.payload[0] = std::byte{0xee}; });
  EXPECT_NE(net.digest(), d0);
  EXPECT_EQ(net.digest(), net.digest_uncached());

  std::uint64_t d1 = net.digest();
  (void)net.duplicate(*b);
  EXPECT_NE(net.digest(), d1);
  EXPECT_EQ(net.digest(), net.digest_uncached());

  std::uint64_t d2 = net.digest();
  (void)net.take(*a);
  EXPECT_NE(net.digest(), d2);
  EXPECT_EQ(net.digest(), net.digest_uncached());

  std::uint64_t d3 = net.digest();
  EXPECT_TRUE(net.drop(*b));
  EXPECT_NE(net.digest(), d3);
  EXPECT_EQ(net.digest(), net.digest_uncached());
}

TEST(NetworkDigestCache, SnapshotRestoreRoundTripsDigest) {
  net::SimNetwork net;
  (void)net.submit(mk_msg(0, 1, 1, 1, 64));
  (void)net.submit(mk_msg(2, 1, 2, 2, 64));
  std::uint64_t at_capture = net.digest();
  auto snap = net.snapshot();
  (void)net.submit(mk_msg(1, 0, 3, 3, 64));
  EXPECT_NE(net.digest(), at_capture);
  net.restore(snap);
  EXPECT_EQ(net.digest(), at_capture);
  EXPECT_EQ(net.digest(), net.digest_uncached());
  // Snapshots are immutable: mutating the live network after restore must
  // not leak into a re-restore.
  net.mutate(net.deliverable().front(),
             [](net::Message& m) { m.payload[0] = std::byte{0xcc}; });
  EXPECT_NE(net.digest(), at_capture);
  net.restore(snap);
  EXPECT_EQ(net.digest(), at_capture);
}

class NetworkDigestCacheParam
    : public ::testing::TestWithParam<std::uint64_t> {};

// Property: across random submit / deliver / drop / duplicate / mutate /
// scrub / save-load / snapshot-restore sequences, the cached digest always
// equals the from-scratch recompute, and live snapshots never drift: a
// restore — into the live network, a fresh one, or a crowded one it must
// shrink — reproduces the capture's save() bytes and in-flight counts.
TEST_P(NetworkDigestCacheParam, RandomOpsMatchUncached) {
  Rng rng(GetParam());
  net::NetworkOptions nopts;
  nopts.fifo = (GetParam() % 2) == 0;
  nopts.drop_prob = 0.1;
  nopts.dup_prob = 0.1;
  nopts.seed = GetParam() * 31 + 7;
  net::SimNetwork net(nopts);
  constexpr ProcessId kProcs = 3;
  std::vector<NetCapture> snaps;
  for (int i = 0; i < 250; ++i) {
    const std::string where = "op " + std::to_string(i);
    switch (rng.next_below(10)) {
      case 0:
      case 1:
      case 2: {
        net::Message m = mk_msg(static_cast<ProcessId>(rng.next_below(3)),
                                static_cast<ProcessId>(rng.next_below(3)),
                                static_cast<net::Tag>(rng.next_below(5)),
                                static_cast<std::uint8_t>(rng.next_u64()),
                                1 + rng.next_below(48));
        if (rng.next_below(4) == 0) m.spec_taints = {7};
        (void)net.submit(std::move(m));
        break;
      }
      case 3: {
        auto d = net.deliverable();
        if (!d.empty()) (void)net.take(d[rng.next_below(d.size())]);
        break;
      }
      case 4: {
        auto p = net.pending();
        if (!p.empty())
          (void)net.drop(p[rng.next_below(p.size())]->id, rng.next_bool(0.5));
        break;
      }
      case 5: {
        auto p = net.pending();
        if (!p.empty()) (void)net.duplicate(p[rng.next_below(p.size())]->id);
        break;
      }
      case 6: {
        auto p = net.pending();
        if (!p.empty()) {
          std::byte fill{static_cast<std::uint8_t>(rng.next_u64())};
          net.mutate(p[rng.next_below(p.size())]->id,
                     [fill](net::Message& m) {
                       if (!m.payload.empty()) m.payload[0] = fill;
                       m.tag ^= 1;
                     });
        }
        break;
      }
      case 7:
        if (rng.next_bool(0.5)) {
          (void)net.scrub_taint(7);
        } else {
          (void)net.drop_tainted(7);
        }
        break;
      case 8: {
        // Wire round trip must preserve the digest and the memo contract.
        BinaryWriter w;
        net.save(w);
        std::uint64_t before = net.digest_uncached();
        BinaryReader r(w.bytes());
        net.load(r);
        ASSERT_EQ(net.digest_uncached(), before) << "op " << i;
        break;
      }
      case 9:
        if (snaps.size() < 4 && rng.next_bool(0.5)) {
          snaps.push_back(capture(net, kProcs));
        } else if (!snaps.empty()) {
          const NetCapture& c = snaps[rng.next_below(snaps.size())];
          net.restore(c.snap);
          expect_restored(net, c, where + " restore");
        }
        break;
    }
    for (ProcessId d = 0; d < kProcs; ++d) {
      ASSERT_EQ(net.inflight_to(d), net.inflight_to_uncached(d))
          << where << " dst " << d;
    }
    ASSERT_EQ(net.digest(), net.digest_uncached()) << "op " << i;
    // The incremental content-multiset accumulator (mc_digest's network
    // share) must track every mutation path exactly like the digest does.
    ASSERT_EQ(net.content_digest_acc(), net.content_digest_acc_uncached())
        << "op " << i;
    for (const NetCapture& c : snaps) {
      net::SimNetwork fresh;
      fresh.restore(c.snap);
      expect_restored(fresh, c, where + " fresh");
      net::SimNetwork crowded = crowded_network();
      crowded.restore(c.snap);
      expect_restored(crowded, c, where + " crowded");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkDigestCacheParam,
                         ::testing::Values(3, 13, 29, 101, 997));

// ---------------------------------------------------------------------------
// Network content accumulator (the mc_digest in-flight multiset)
// ---------------------------------------------------------------------------

TEST(NetworkContentAcc, OrderIndependentAcrossSubmitOrders) {
  // The accumulator hashes the *multiset* of message contents: two
  // networks holding the same messages enqueued in different orders (and
  // thus with different ids) must agree.
  net::SimNetwork a, b;
  (void)a.submit(mk_msg(0, 1, 1, 0x11, 16));
  (void)a.submit(mk_msg(1, 2, 2, 0x22, 24));
  (void)a.submit(mk_msg(2, 0, 3, 0x33, 8));
  (void)b.submit(mk_msg(2, 0, 3, 0x33, 8));
  (void)b.submit(mk_msg(0, 1, 1, 0x11, 16));
  (void)b.submit(mk_msg(1, 2, 2, 0x22, 24));
  EXPECT_EQ(a.content_digest_acc(), b.content_digest_acc());
  EXPECT_EQ(a.content_digest_acc(), a.content_digest_acc_uncached());
}

TEST(NetworkContentAcc, CountsDuplicateContentsAsMultiset) {
  // Identical contents must not cancel: one copy, two copies and three
  // copies of the same message are three different multisets.
  net::SimNetwork net;
  auto id = net.submit(mk_msg(0, 1, 1, 0x44, 16));
  ASSERT_TRUE(id);
  std::uint64_t one = net.content_digest_acc();
  auto dup = net.duplicate(*id);
  ASSERT_TRUE(dup);
  std::uint64_t two = net.content_digest_acc();
  (void)net.duplicate(*id);
  std::uint64_t three = net.content_digest_acc();
  EXPECT_NE(one, two);
  EXPECT_NE(two, three);
  EXPECT_NE(one, three);
  EXPECT_EQ(net.content_digest_acc(), net.content_digest_acc_uncached());
  // Removing one copy returns to the two-copy multiset.
  EXPECT_TRUE(net.drop(*dup));
  EXPECT_EQ(net.content_digest_acc(), two);
}

TEST(NetworkContentAcc, SnapshotRestoreAdoptsAccumulator) {
  net::SimNetwork net;
  (void)net.submit(mk_msg(0, 1, 1, 0x55, 16));
  std::uint64_t at_capture = net.content_digest_acc();
  auto snap = net.snapshot();
  (void)net.submit(mk_msg(1, 0, 2, 0x66, 16));
  EXPECT_NE(net.content_digest_acc(), at_capture);
  net.restore(snap);
  EXPECT_EQ(net.content_digest_acc(), at_capture);
  EXPECT_EQ(net.content_digest_acc(), net.content_digest_acc_uncached());
}

TEST(NetworkContentAcc, WorldMcDigestMatchesUncachedAcrossEvents) {
  // End to end: mc_digest folds the accumulator; it must keep matching the
  // from-scratch recompute (which bypasses it) while a real app runs.
  KvConfig cfg;
  cfg.total_ops = 4;
  auto w = make_kv_world(2, 2, cfg);
  for (int i = 0; i < 40 && w->step(); ++i) {
    ASSERT_EQ(w->mc_digest(), w->mc_digest_uncached()) << "step " << i;
  }
}

}  // namespace
}  // namespace fixd
