// COW world snapshots: shared per-process checkpoints and shared network
// captures must be bit-identical to deep (fully serializing) captures
// across arbitrary event / crash / restore interleavings, and the
// explorer's trail-based frontier must visit exactly the state set the
// snapshot frontier visits.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "apps/kv_store.hpp"
#include "apps/token_ring.hpp"
#include "apps/two_phase_commit.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "mc/sysmodel.hpp"
#include "mem/paged_heap.hpp"
#include "rt/scheduler.hpp"
#include "rt/world.hpp"

namespace fixd {
namespace {

// A process whose bulk state lives in a COW heap: each delivery writes one
// small record at a pseudo-random offset and forwards a token — the shape
// the shared-capture path exists for.
class HeapTokenProc final : public rt::ProcessBase<HeapTokenProc> {
 public:
  explicit HeapTokenProc(std::uint64_t heap_bytes)
      : heap_bytes_(heap_bytes) {
    heap_.resize(heap_bytes_);
  }

  void on_start(rt::Context& ctx) override {
    heap_.store<std::uint64_t>(0, 0x5eed ^ ctx.self());
    if (ctx.self() == 0) ctx.send(1 % ctx.world_size(), 1, {});
  }

  void on_message(rt::Context& ctx, const net::Message&) override {
    std::uint64_t r = ctx.random_u64();
    heap_.store<std::uint64_t>(8 * (r % (heap_bytes_ / 8 - 1)), r);
    ++writes_;
    ctx.send((ctx.self() + 1) % ctx.world_size(), 1, {});
  }

  void save_root(BinaryWriter& w) const override {
    w.write_u64(heap_bytes_);
    w.write_u64(writes_);
  }
  void load_root(BinaryReader& r) override {
    heap_bytes_ = r.read_u64();
    writes_ = r.read_u64();
  }
  mem::PagedHeap* cow_heap() override { return &heap_; }
  std::string type_name() const override { return "heap-token"; }

 private:
  std::uint64_t heap_bytes_;
  std::uint64_t writes_ = 0;
  mem::PagedHeap heap_;
};

std::unique_ptr<rt::World> make_heap_world(std::size_t n,
                                           std::uint64_t seed = 1) {
  rt::WorldOptions opts;
  opts.abstract_time = true;
  opts.seed = seed;
  auto w = std::make_unique<rt::World>(opts);
  for (std::size_t i = 0; i < n; ++i)
    w->add_process(std::make_unique<HeapTokenProc>(1 << 16));
  w->seal();
  return w;
}

TEST(CowSnapshot, CowAndDeepCapturesRestoreIdentically) {
  auto w = make_heap_world(4);
  w->run(10);
  rt::WorldSnapshot cow = w->snapshot(/*cow=*/true);
  rt::WorldSnapshot deep = w->snapshot(/*cow=*/false);
  std::uint64_t want = w->digest_uncached();

  w->run(12);
  ASSERT_NE(w->digest_uncached(), want);
  w->restore(cow);
  EXPECT_EQ(w->digest_uncached(), want);
  EXPECT_EQ(w->digest(), w->digest_uncached());

  w->run(12);
  w->restore(deep);
  EXPECT_EQ(w->digest_uncached(), want);
  EXPECT_EQ(w->digest(), w->digest_uncached());
}

TEST(CowSnapshot, CleanProcessesShareCheckpointEntries) {
  auto w = make_heap_world(4);
  w->run(8);
  rt::WorldSnapshot a = w->snapshot();
  rt::WorldSnapshot b = w->snapshot();  // no mutation in between
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(a.procs[p].get(), b.procs[p].get()) << "proc " << p;
  }
  EXPECT_EQ(a.net.get(), b.net.get());

  // One event touches one process: exactly that entry (plus the network,
  // which carried the token) re-captures.
  w->step();
  rt::WorldSnapshot c = w->snapshot();
  std::size_t recaptured = 0;
  for (std::size_t p = 0; p < 4; ++p) {
    if (c.procs[p].get() != b.procs[p].get()) ++recaptured;
  }
  EXPECT_EQ(recaptured, 1u);
  EXPECT_NE(c.net.get(), b.net.get());
}

TEST(CowSnapshot, RestoreToHeldSnapshotIsStable) {
  auto w = make_heap_world(3);
  w->run(6);
  rt::WorldSnapshot snap = w->snapshot();
  std::uint64_t want = w->digest_uncached();
  // Restoring the snapshot the world already holds is a no-op...
  w->restore(snap);
  EXPECT_EQ(w->digest_uncached(), want);
  // ...and restoring it again after drifting rolls everything back.
  w->run(5);
  w->restore(snap);
  EXPECT_EQ(w->digest_uncached(), want);
  w->restore(snap);
  EXPECT_EQ(w->digest_uncached(), want);
}

TEST(CowSnapshot, SnapshotsArePinnedAgainstLaterMutation) {
  auto w = make_heap_world(3);
  w->run(6);
  rt::WorldSnapshot snap = w->snapshot();
  std::uint64_t want = w->digest_uncached();
  // Mutations after the capture must never leak into the snapshot: COW
  // pages, immutable checkpoints, immutable message buffers.
  w->run(9);
  w->network().mutate(
      w->network().deliverable().empty()
          ? 0
          : w->network().deliverable().front(),
      [](net::Message& m) { m.payload.assign(4, std::byte{0xde}); });
  w->set_crashed(1, true);
  w->restore(snap);
  EXPECT_EQ(w->digest_uncached(), want);
}

class CowSnapshotParam : public ::testing::TestWithParam<std::uint64_t> {};

// Property: across random event / crash-toggle / COW-capture / deep-capture
// / restore sequences, (a) cached digests never drift from uncached, and
// (b) every live snapshot — COW or deep — restores to the exact digest
// recorded at its capture.
TEST_P(CowSnapshotParam, RandomWalkCowMatchesDeep) {
  Rng rng(GetParam());
  auto w = make_heap_world(3, GetParam());
  w->set_scheduler(std::make_unique<rt::RandomScheduler>(GetParam()));
  std::vector<std::pair<rt::WorldSnapshot, std::uint64_t>> snaps;
  for (int i = 0; i < 80; ++i) {
    switch (rng.next_below(8)) {
      case 0:
        if (snaps.size() < 6)
          snaps.emplace_back(w->snapshot(/*cow=*/true), w->digest_uncached());
        break;
      case 1:
        if (snaps.size() < 6)
          snaps.emplace_back(w->snapshot(/*cow=*/false),
                             w->digest_uncached());
        break;
      case 2:
        if (!snaps.empty()) {
          auto& [s, want] = snaps[rng.next_below(snaps.size())];
          w->restore(s);
          ASSERT_EQ(w->digest_uncached(), want) << "op " << i;
        }
        break;
      case 3: {
        ProcessId p = static_cast<ProcessId>(rng.next_below(3));
        w->set_crashed(p, !w->is_crashed(p));
        break;
      }
      default:
        w->step();
        break;
    }
    ASSERT_EQ(w->digest(), w->digest_uncached()) << "op " << i;
    ASSERT_EQ(w->mc_digest(), w->mc_digest_uncached()) << "op " << i;
  }
  // Every snapshot still restores bit-exactly at the end.
  for (auto& [s, want] : snaps) {
    w->restore(s);
    ASSERT_EQ(w->digest_uncached(), want);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CowSnapshotParam,
                         ::testing::Values(5, 17, 43, 127, 1009));

// A process whose root is `root_bytes` long and whose runtime info holds
// `timers` armed timers: captures of differently sized processes share the
// world's scratch writer.
class SizedRootProc final : public rt::ProcessBase<SizedRootProc> {
 public:
  SizedRootProc(std::size_t root_bytes, std::uint32_t timers)
      : blob_(root_bytes, std::byte{0xa5}), timers_(timers) {}

  void on_start(rt::Context& ctx) override {
    for (std::uint32_t i = 0; i < timers_; ++i) ctx.set_timer(1000000 + i, i);
  }
  void on_message(rt::Context&, const net::Message&) override {}
  void save_root(BinaryWriter& w) const override {
    w.write_bytes(blob_);
    w.write_u32(timers_);
  }
  void load_root(BinaryReader& r) override {
    blob_ = r.read_bytes();
    timers_ = r.read_u32();
  }
  std::string type_name() const override { return "sized-root"; }

 private:
  std::vector<std::byte> blob_;
  std::uint32_t timers_;
};

TEST(CowSnapshot, CaptureScratchReuseDoesNotBleed) {
  rt::World w;
  w.add_process(std::make_unique<SizedRootProc>(64 * 1024, 40));
  w.add_process(std::make_unique<SizedRootProc>(16, 0));
  w.seal();
  w.run(2);  // both starts: process 0 arms its timers

  auto fresh_root = [&](ProcessId pid) {
    BinaryWriter fw;
    w.process(pid).save_root(fw);
    return fw.take();
  };
  // Large, then small, then large again.
  for (ProcessId pid : {0u, 1u, 0u}) {
    SCOPED_TRACE("pid " + std::to_string(pid));
    auto shared = w.capture_process_shared(pid);
    // verify_capture_cache re-serializes root and info into fresh writers
    // and compares them with the cached capture.
    EXPECT_TRUE(w.verify_capture_cache(pid));
    EXPECT_EQ(shared->root, fresh_root(pid));
    rt::ProcessCheckpoint deep = w.capture_process(pid, /*cow=*/false);
    EXPECT_EQ(deep.root, fresh_root(pid));
    EXPECT_EQ(deep.info, shared->info);
  }
  EXPECT_GT(w.capture_process(0).info.size(),
            w.capture_process(1).info.size());

  // Message state digests hash the same bytes as a fresh serialization.
  net::Message big;
  big.src = 0;
  big.dst = 1;
  big.payload.assign(4096, std::byte{7});
  big.vclock = VectorClock(2);
  net::Message small;
  small.src = 1;
  small.dst = 0;
  small.payload.assign(3, std::byte{9});
  for (const net::Message* m : {&big, &small, &big}) {
    BinaryWriter fw;
    m->save(fw);
    EXPECT_EQ(m->state_digest(), hash_bytes(fw.bytes()));
  }
}

// ---------------------------------------------------------------------------
// Trail-based frontier
// ---------------------------------------------------------------------------

mc::SysExploreResult explore_two_pc(std::size_t n, bool trail,
                                    std::size_t anchor_interval = 8) {
  apps::TwoPcConfig cfg;
  cfg.total_txns = 1;
  auto w = apps::make_two_pc_world(n, 2, cfg);
  mc::SysExploreOptions o;
  o.order = mc::SearchOrder::kBfs;
  o.max_states = 100000;
  o.max_depth = 64;
  o.trail_frontier = trail;
  o.anchor_interval = anchor_interval;
  o.install_invariants = apps::install_two_pc_invariants;
  mc::SystemExplorer ex(*w, o);
  return ex.explore();
}

TEST(TrailFrontier, VisitsSameStateSetAsSnapshotFrontier) {
  auto snap = explore_two_pc(4, /*trail=*/false);
  auto trail = explore_two_pc(4, /*trail=*/true);
  EXPECT_EQ(snap.stats.states, trail.stats.states);
  EXPECT_EQ(snap.stats.transitions, trail.stats.transitions);
  EXPECT_EQ(snap.stats.duplicates, trail.stats.duplicates);
  EXPECT_EQ(snap.stats.max_depth, trail.stats.max_depth);
  EXPECT_EQ(snap.found_violation(), trail.found_violation());
  EXPECT_GT(trail.stats.replayed_actions, 0u);
  EXPECT_EQ(snap.stats.replayed_actions, 0u);
}

TEST(TrailFrontier, AnchorIntervalDoesNotChangeStateSet) {
  auto base = explore_two_pc(3, /*trail=*/false);
  for (std::size_t interval : {1u, 2u, 5u, 16u}) {
    auto t = explore_two_pc(3, /*trail=*/true, interval);
    EXPECT_EQ(t.stats.states, base.stats.states) << "interval " << interval;
    EXPECT_EQ(t.stats.transitions, base.stats.transitions)
        << "interval " << interval;
  }
}

TEST(TrailFrontier, FindsSameViolationAndTrailReplays) {
  apps::TokenRingConfig cfg;
  cfg.target_rounds = 2;
  auto w = apps::make_token_ring_world(3, /*version=*/1, cfg);
  mc::SysExploreOptions o;
  o.order = mc::SearchOrder::kBfs;
  o.max_states = 50000;
  o.max_depth = 64;
  o.trail_frontier = true;
  o.install_invariants = apps::install_token_ring_invariants;
  mc::SystemExplorer ex(*w, o);
  auto res = ex.explore();
  ASSERT_TRUE(res.found_violation());
  EXPECT_EQ(res.violations[0].violation.invariant,
            "token-ring/mutual-exclusion");
  auto reproduced = mc::SystemExplorer::replay_trail(
      *w, res.violations[0].trail, apps::install_token_ring_invariants);
  EXPECT_FALSE(reproduced.empty());
}

TEST(TrailFrontier, WorksWithPorAndDfs) {
  apps::TwoPcConfig cfg;
  cfg.total_txns = 1;
  auto w = apps::make_two_pc_world(3, 1, cfg);
  mc::SysExploreOptions o;
  o.order = mc::SearchOrder::kDfs;
  o.max_states = 60000;
  o.max_depth = 64;
  o.por = true;
  o.trail_frontier = true;
  o.install_invariants = apps::install_two_pc_invariants;
  mc::SystemExplorer ex(*w, o);
  auto res = ex.explore();
  ASSERT_TRUE(res.found_violation());
  EXPECT_EQ(res.violations[0].violation.invariant, "2pc/atomicity");
}

// The cost model docs/PERF.md states for trail mode: each expanded node
// replays its trail suffix once (at most anchor_interval - 1 actions), and
// its children start from that one materialization instead of replaying
// the suffix again each.
TEST(TrailFrontier, ReplayIsBoundedPerExpansion) {
  for (std::size_t interval : {2u, 4u, 8u}) {
    auto t = explore_two_pc(4, /*trail=*/true, interval);
    SCOPED_TRACE("interval " + std::to_string(interval));
    ASSERT_FALSE(t.stats.truncated);
    EXPECT_GT(t.stats.replayed_actions, 0u);
    EXPECT_LE(t.stats.replayed_actions, t.stats.states * (interval - 1));
  }
}

std::string rendered_trails(const mc::SysExploreResult& r) {
  std::string all;
  for (const auto& v : r.violations) {
    all += v.violation.invariant + "\n" + v.trail.render() + "\n";
  }
  return all;
}

std::set<std::string> violation_names(const mc::SysExploreResult& r) {
  std::set<std::string> s;
  for (const auto& v : r.violations) s.insert(v.violation.invariant);
  return s;
}

// Buggy 2pc with every violation reported, unreduced or under dynamic
// POR.
mc::SysExploreResult explore_buggy_two_pc(bool por, bool trail,
                                          std::size_t anchor_interval,
                                          std::size_t workers,
                                          std::uint64_t frontier_budget = 0) {
  apps::TwoPcConfig cfg;
  cfg.total_txns = 1;
  auto w = apps::make_two_pc_world(3, /*version=*/1, cfg);
  mc::SysExploreOptions o;
  o.order = mc::SearchOrder::kBfs;
  o.max_states = 100000;
  o.max_depth = 64;
  o.max_violations = ~std::size_t{0};
  o.por = por;
  o.trail_frontier = trail;
  o.anchor_interval = anchor_interval;
  o.workers = workers;
  o.frontier_budget_bytes = frontier_budget;
  o.collect_visited = true;
  o.install_invariants = apps::install_two_pc_invariants;
  mc::SystemExplorer ex(*w, o);
  return ex.explore();
}

// Trail mode must reach exactly what snapshot mode reaches, including
// where POR backtrack nodes replay from the root, at every anchor
// interval, and while a tiny frontier budget evicts anchors.
TEST(TrailFrontier, MatchesSnapshotUnderReductions) {
  for (bool por : {false, true}) {
    SCOPED_TRACE(por ? "por" : "unreduced");
    auto ref = explore_buggy_two_pc(por, /*trail=*/false, 8, 1);
    ASSERT_FALSE(ref.stats.truncated);
    ASSERT_TRUE(ref.found_violation());
    auto expect_identical = [&](const mc::SysExploreResult& t) {
      ASSERT_FALSE(t.stats.truncated);
      EXPECT_EQ(t.visited, ref.visited);
      EXPECT_EQ(t.stats.states, ref.stats.states);
      EXPECT_EQ(t.stats.transitions, ref.stats.transitions);
      EXPECT_EQ(t.stats.duplicates, ref.stats.duplicates);
      EXPECT_EQ(rendered_trails(t), rendered_trails(ref));
    };
    for (std::size_t interval : {1u, 2u, 3u, 8u}) {
      SCOPED_TRACE("interval " + std::to_string(interval));
      expect_identical(explore_buggy_two_pc(por, /*trail=*/true, interval, 1));
      auto par = explore_buggy_two_pc(por, /*trail=*/true, interval, 4);
      ASSERT_FALSE(par.stats.truncated);
      EXPECT_EQ(violation_names(par), violation_names(ref));
    }
    // 2 KiB holds less than one anchor snapshot: anchors are evicted and
    // rebuilt by root replay throughout.
    auto budgeted = explore_buggy_two_pc(por, /*trail=*/true, 2, 1, 2 * 1024);
    EXPECT_GT(budgeted.stats.anchor_evictions, 0u);
    expect_identical(budgeted);
  }
}

}  // namespace
}  // namespace fixd
