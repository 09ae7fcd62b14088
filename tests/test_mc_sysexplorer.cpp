// SystemExplorer: model checking the real process implementations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "apps/kv_store.hpp"
#include "apps/rep_counter.hpp"
#include "apps/token_ring.hpp"
#include "apps/two_phase_commit.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "mc/sysmodel.hpp"

namespace fixd::mc {
namespace {

using apps::make_kv_world;
using apps::make_token_ring_world;
using apps::make_two_pc_world;
using apps::TokenRingConfig;
using apps::TwoPcConfig;

SysExploreOptions bounded(SearchOrder order, std::size_t max_states) {
  SysExploreOptions o;
  o.order = order;
  o.max_states = max_states;
  o.max_depth = 64;
  return o;
}

TEST(SystemExplorer, FindsTokenRingDoubleToken) {
  TokenRingConfig cfg;
  cfg.target_rounds = 2;
  auto w = make_token_ring_world(3, /*version=*/1, cfg);
  auto o = bounded(SearchOrder::kBfs, 50000);
  o.install_invariants = apps::install_token_ring_invariants;
  SystemExplorer ex(*w, o);
  auto res = ex.explore();
  ASSERT_TRUE(res.found_violation());
  EXPECT_EQ(res.violations[0].violation.invariant,
            "token-ring/mutual-exclusion");
  EXPECT_GT(res.violations[0].trail.length(), 0u);
  // The base world is untouched by exploration.
  EXPECT_FALSE(w->has_violation());
  EXPECT_EQ(w->step_count(), 0u);
}

TEST(SystemExplorer, FixedTokenRingCleanWithinBudget) {
  TokenRingConfig cfg;
  cfg.target_rounds = 1;
  auto w = make_token_ring_world(3, /*version=*/2, cfg);
  auto o = bounded(SearchOrder::kBfs, 20000);
  o.install_invariants = apps::install_token_ring_invariants;
  SystemExplorer ex(*w, o);
  auto res = ex.explore();
  EXPECT_FALSE(res.found_violation())
      << res.violations[0].violation.to_string() << "\n"
      << res.violations[0].trail.render();
}

TEST(SystemExplorer, FindsTwoPcAtomicityViolation) {
  TwoPcConfig cfg;
  cfg.total_txns = 1;
  auto w = make_two_pc_world(3, /*version=*/1, cfg);
  auto o = bounded(SearchOrder::kBfs, 50000);
  o.install_invariants = apps::install_two_pc_invariants;
  SystemExplorer ex(*w, o);
  auto res = ex.explore();
  ASSERT_TRUE(res.found_violation());
  EXPECT_EQ(res.violations[0].violation.invariant, "2pc/atomicity");
}

TEST(SystemExplorer, FixedTwoPcCleanWithinBudget) {
  TwoPcConfig cfg;
  cfg.total_txns = 1;
  auto w = make_two_pc_world(3, /*version=*/2, cfg);
  auto o = bounded(SearchOrder::kBfs, 60000);
  o.install_invariants = apps::install_two_pc_invariants;
  SystemExplorer ex(*w, o);
  auto res = ex.explore();
  EXPECT_FALSE(res.found_violation())
      << res.violations[0].violation.to_string() << "\n"
      << res.violations[0].trail.render();
}

TEST(SystemExplorer, BfsShorterOrEqualToDfsCounterexample) {
  TokenRingConfig cfg;
  cfg.target_rounds = 2;
  auto w = make_token_ring_world(3, 1, cfg);
  auto mk = [&](SearchOrder order) {
    auto o = bounded(order, 60000);
    o.install_invariants = apps::install_token_ring_invariants;
    SystemExplorer ex(*w, o);
    return ex.explore();
  };
  auto bfs = mk(SearchOrder::kBfs);
  auto dfs = mk(SearchOrder::kDfs);
  ASSERT_TRUE(bfs.found_violation());
  ASSERT_TRUE(dfs.found_violation());
  EXPECT_LE(bfs.violations[0].depth, dfs.violations[0].depth);
}

TEST(SystemExplorer, RandomWalkFindsTokenRingBug) {
  TokenRingConfig cfg;
  cfg.target_rounds = 2;
  auto w = make_token_ring_world(3, 1, cfg);
  SysExploreOptions o;
  o.order = SearchOrder::kRandomWalk;
  o.max_depth = 60;
  o.walk_restarts = 200;
  o.seed = 11;
  o.install_invariants = apps::install_token_ring_invariants;
  SystemExplorer ex(*w, o);
  auto res = ex.explore();
  EXPECT_TRUE(res.found_violation());
}

// Property: every reported trail re-executes to the reported violation.
class TrailReplayParam : public ::testing::TestWithParam<int> {};

TEST_P(TrailReplayParam, TrailsReproduce) {
  std::unique_ptr<rt::World> w;
  std::function<void(rt::World&)> installer;
  switch (GetParam()) {
    case 0: {
      TokenRingConfig cfg;
      cfg.target_rounds = 2;
      w = make_token_ring_world(3, 1, cfg);
      installer = apps::install_token_ring_invariants;
      break;
    }
    case 1: {
      TwoPcConfig cfg;
      cfg.total_txns = 1;
      w = make_two_pc_world(3, 1, cfg);
      installer = apps::install_two_pc_invariants;
      break;
    }
    case 2: {
      TwoPcConfig cfg;
      cfg.total_txns = 1;
      w = make_two_pc_world(4, 1, cfg);
      installer = apps::install_two_pc_invariants;
      break;
    }
  }
  auto o = bounded(SearchOrder::kBfs, 100000);
  o.max_violations = 3;
  o.install_invariants = installer;
  SystemExplorer ex(*w, o);
  auto res = ex.explore();
  ASSERT_TRUE(res.found_violation());
  for (const auto& v : res.violations) {
    auto reproduced = SystemExplorer::replay_trail(*w, v.trail, installer);
    ASSERT_FALSE(reproduced.empty()) << "trail did not reproduce:\n"
                                     << v.trail.render();
    bool same = false;
    for (const auto& rv : reproduced) {
      if (rv.invariant == v.violation.invariant) same = true;
    }
    EXPECT_TRUE(same);
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, TrailReplayParam, ::testing::Values(0, 1, 2));

TEST(SystemExplorer, MessageLossModelFindsLossOnlyBug) {
  // v2 token ring is safe without loss; WITH the loss model the explorer
  // must still find no safety violation (regeneration keeps <=1 token) —
  // but the kv v1 replica diverges only when messages reorder, which the
  // reordering network provides natively. Here we check loss modelling is
  // exercised: dropping the token and regenerating stays safe in v2.
  TokenRingConfig cfg;
  cfg.target_rounds = 1;
  auto w = make_token_ring_world(3, 2, cfg);
  auto o = bounded(SearchOrder::kBfs, 15000);
  o.model_message_loss = true;
  o.install_invariants = apps::install_token_ring_invariants;
  SystemExplorer ex(*w, o);
  auto res = ex.explore();
  EXPECT_FALSE(res.found_violation())
      << res.violations[0].violation.to_string() << "\n"
      << res.violations[0].trail.render();
  EXPECT_GT(res.stats.transitions, 0u);
}

TEST(SystemExplorer, ReorderingNetworkExposesKvDivergence) {
  apps::KvConfig cfg;
  cfg.total_ops = 3;
  cfg.key_space = 1;  // every op hits the same key: order is everything
  rt::WorldOptions opts;
  opts.net = net::NetworkOptions::reordering();
  auto w = make_kv_world(2, /*version=*/1, cfg, opts);
  auto o = bounded(SearchOrder::kBfs, 100000);
  o.install_invariants = apps::install_kv_invariants;
  SystemExplorer ex(*w, o);
  auto res = ex.explore();
  ASSERT_TRUE(res.found_violation());
  EXPECT_EQ(res.violations[0].violation.invariant, "kv/replica-consistency");

  // And v2 is clean on the same workload.
  auto w2 = make_kv_world(2, 2, cfg, opts);
  SystemExplorer ex2(*w2, o);
  EXPECT_FALSE(ex2.explore().found_violation());
}

TEST(SystemExplorer, DedupReducesStates) {
  TwoPcConfig cfg;
  cfg.total_txns = 1;
  auto w = make_two_pc_world(3, 2, cfg);
  auto with = bounded(SearchOrder::kBfs, 200000);
  with.install_invariants = apps::install_two_pc_invariants;
  auto without = with;
  without.dedup = false;
  without.max_states = 200000;

  SystemExplorer e1(*w, with);
  auto r1 = e1.explore();
  SystemExplorer e2(*w, without);
  auto r2 = e2.explore();
  EXPECT_LT(r1.stats.states, r2.stats.states);
}

// Best-first search lives in ModelD's Explorer only; the SystemExplorer
// refuses kPriority instead of silently running another order.
TEST(SystemExplorer, RejectsPriorityOrder) {
  TwoPcConfig cfg;
  cfg.total_txns = 1;
  auto w = make_two_pc_world(3, 1, cfg);
  auto o = bounded(SearchOrder::kPriority, 1000);
  o.install_invariants = apps::install_two_pc_invariants;
  SystemExplorer ex(*w, o);
  EXPECT_THROW(ex.explore(), ConfigError);
}

// A non-empty resume_visited is the resume signal; a checkpoint frontier
// without it would silently restart from the root, so it is refused.
TEST(SystemExplorer, RejectsResumeFrontierWithoutVisitedSet) {
  TwoPcConfig cfg;
  cfg.total_txns = 1;
  auto w = make_two_pc_world(3, 1, cfg);
  auto o = bounded(SearchOrder::kBfs, 1000);
  o.install_invariants = apps::install_two_pc_invariants;
  o.resume_frontier.push_back(Trail{});
  SystemExplorer ex(*w, o);
  EXPECT_THROW(ex.explore(), ConfigError);
}

TEST(SystemExplorer, StateBudgetTruncates) {
  TwoPcConfig cfg;
  cfg.total_txns = 2;
  auto w = make_two_pc_world(4, 2, cfg);
  auto o = bounded(SearchOrder::kBfs, 200);
  o.install_invariants = apps::install_two_pc_invariants;
  SystemExplorer ex(*w, o);
  auto res = ex.explore();
  EXPECT_TRUE(res.stats.truncated);
  EXPECT_LE(res.stats.states, 201u);
}

// Trail digests (svc::trail_digest) hash rendered violations and trails,
// so the text of every action kind and of a violation is part of a job's
// result identity.
TEST(Trail, RenderTextIsStable) {
  auto runtime = [](rt::EventKind k) {
    SysAction a;
    a.event.kind = k;
    a.event.pid = 1;
    a.event.msg = 7;
    a.event.timer = 3;
    return a;
  };
  auto env = [](SysAction::Kind k) {
    SysAction a;
    a.kind = k;
    a.event.pid = 4;
    a.event.timer = 3;
    a.msg = 5;
    a.delay = 8;
    a.src = 1;
    a.dst = 2;
    return a;
  };
  EXPECT_EQ(runtime(rt::EventKind::kStart).describe(), "start(p1)");
  EXPECT_EQ(runtime(rt::EventKind::kDeliver).describe(), "deliver(p1, msg#7)");
  EXPECT_EQ(runtime(rt::EventKind::kTimer).describe(), "timer(p1, t3)");
  EXPECT_EQ(env(SysAction::Kind::kDropMessage).describe(), "env:drop(msg#5)");
  EXPECT_EQ(env(SysAction::Kind::kDupMessage).describe(), "env:dup(msg#5)");
  EXPECT_EQ(env(SysAction::Kind::kDelayMessage).describe(),
            "env:delay(msg#5,+8)");
  EXPECT_EQ(env(SysAction::Kind::kPartitionLinks).describe(),
            "env:cut(p1->p2)");
  EXPECT_EQ(env(SysAction::Kind::kHealLinks).describe(), "env:heal(p1->p2)");
  EXPECT_EQ(env(SysAction::Kind::kRestartProcess).describe(),
            "env:restart(p4)");
  Trail t;
  t.steps = {runtime(rt::EventKind::kStart),
             env(SysAction::Kind::kDropMessage)};
  EXPECT_EQ(t.render(), "  1. start(p1)\n  2. env:drop(msg#5)\n");

  rt::Violation v;
  v.invariant = "inv";
  v.pid = 3;
  v.step = 42;
  v.at = 7;
  v.detail = "bad";
  EXPECT_EQ(v.to_string(), "[inv] p3 step=42 t=7: bad");
  v.pid = kNoProcess;
  v.detail.clear();
  EXPECT_EQ(v.to_string(), "[inv] global step=42 t=7");
}

// Every live action kind keeps its wire tag, and the retired timer-cancel
// tag (4) is refused rather than decoded as some other kind.
TEST(Trail, ActionTagsAreStableAndTagFourIsRejected) {
  auto encode = [](const SysAction& a) {
    BinaryWriter w;
    a.save(w);
    return w.take();
  };
  using K = SysAction::Kind;
  const std::pair<K, int> tags[] = {
      {K::kRuntime, 0},        {K::kDropMessage, 1}, {K::kDupMessage, 2},
      {K::kDelayMessage, 3},   {K::kPartitionLinks, 5},
      {K::kHealLinks, 6},      {K::kRestartProcess, 7},
  };
  for (const auto& [kind, tag] : tags) {
    SysAction a;
    a.kind = kind;
    std::vector<std::byte> bytes = encode(a);
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(std::to_integer<int>(bytes[0]), tag);
    BinaryReader r(bytes);
    SysAction back;
    back.load(r);
    EXPECT_EQ(back, a);
  }
  for (int bad : {4, 8}) {
    std::vector<std::byte> bytes = encode(SysAction{});
    bytes[0] = static_cast<std::byte>(bad);
    BinaryReader r(bytes);
    SysAction a;
    EXPECT_THROW(a.load(r), SerializationError) << "tag " << bad;
  }
}

// A paused search continues in place on the same explorer: a sliced
// snapshot-mode run replays nothing (no frontier is re-planted) and counts
// exactly the single-shot run's states, transitions and duplicates. Each
// slice returns only the digests it visited first, so the slices partition
// the single-shot visited set, and the state budget spans the slices.
class SliceInPlace : public ::testing::TestWithParam<int> {};

TEST_P(SliceInPlace, SnapshotSlicesReplayNothingAndMatchSingleShot) {
  const int workers = GetParam();
  TwoPcConfig cfg;
  cfg.total_txns = 1;
  auto w = make_two_pc_world(4, /*version=*/1, cfg);
  SysExploreOptions o = bounded(SearchOrder::kBfs, 100000);
  o.workers = static_cast<std::size_t>(workers);
  o.max_violations = 100000;
  o.collect_visited = true;
  o.install_invariants = apps::install_two_pc_invariants;

  SystemExplorer single(*w, o);
  const SysExploreResult base = single.explore();
  ASSERT_FALSE(base.paused);
  ASSERT_FALSE(base.stats.truncated);
  ASSERT_GT(base.stats.states, 500u);
  ASSERT_EQ(base.visited.size(), base.stats.states);

  constexpr std::uint64_t kSlice = 16;
  o.pause_check = [](const ExploreStats& s) { return s.states >= kSlice; };
  o.capture_frontier = true;
  SystemExplorer sliced(*w, o);
  ExploreStats sum;
  std::vector<std::uint64_t> visited;
  std::vector<SysViolation> violations;
  std::size_t slices = 0;
  for (;;) {
    SysExploreResult r = sliced.explore();
    ++slices;
    sum.states += r.stats.states;
    sum.transitions += r.stats.transitions;
    sum.duplicates += r.stats.duplicates;
    sum.replayed_actions += r.stats.replayed_actions;
    EXPECT_TRUE(std::is_sorted(r.visited.begin(), r.visited.end()));
    EXPECT_EQ(r.visited.size(), r.stats.states) << "slice " << slices;
    visited.insert(visited.end(), r.visited.begin(), r.visited.end());
    for (SysViolation& v : r.violations) violations.push_back(std::move(v));
    if (!r.paused) break;
    EXPECT_GE(r.stats.states, kSlice);
    EXPECT_FALSE(r.frontier.empty());
    ASSERT_LT(slices, 1000u) << "the sliced search never finished";
  }
  EXPECT_GT(slices, 10u);
  EXPECT_EQ(sum.replayed_actions, 0u);
  EXPECT_EQ(sum.states, base.stats.states);
  EXPECT_EQ(sum.transitions, base.stats.transitions);
  EXPECT_EQ(sum.duplicates, base.stats.duplicates);
  std::sort(visited.begin(), visited.end());
  EXPECT_EQ(visited, base.visited);
  ASSERT_EQ(violations.size(), base.violations.size());
  if (workers == 1) {
    // One worker keeps discovery order across slices.
    for (std::size_t i = 0; i < violations.size(); ++i) {
      EXPECT_EQ(violations[i].render(), base.violations[i].render()) << i;
    }
  }

  // The state budget spans the slices: a sliced run stops where a
  // single-shot run with the same budget does (workers racing the shared
  // counter may each count one state past it).
  o.max_states = base.stats.states / 2;
  SystemExplorer capped(*w, o);
  std::uint64_t capped_states = 0;
  SysExploreResult r;
  do {
    r = capped.explore();
    capped_states += r.stats.states;
  } while (r.paused);
  EXPECT_TRUE(r.stats.truncated);
  EXPECT_GE(capped_states, o.max_states);
  EXPECT_LE(capped_states, o.max_states + o.workers - 1);
}

INSTANTIATE_TEST_SUITE_P(Workers, SliceInPlace, ::testing::Values(1, 4));

TEST(SystemExplorer, ExploresFromMidRunState) {
  // Investigate from a state deep in the run (what the Time Machine hands
  // over): run the buggy ring halfway, then explore from there.
  TokenRingConfig cfg;
  cfg.target_rounds = 3;
  auto w = make_token_ring_world(3, 1, cfg);
  w->run(6);
  ASSERT_FALSE(w->has_violation());
  auto o = bounded(SearchOrder::kBfs, 50000);
  o.install_invariants = apps::install_token_ring_invariants;
  SystemExplorer ex(*w, o);
  auto res = ex.explore();
  EXPECT_TRUE(res.found_violation());
}

// ---------------------------------------------------------------------------
// Regression: footprint-exact independence vs the old scalar fingerprint
// ---------------------------------------------------------------------------

/// Run a fresh 2pc world until the coordinator's prepare messages are in
/// flight, so there is a real pending message to build actions against.
std::unique_ptr<rt::World> world_with_pending_message() {
  TwoPcConfig cfg;
  cfg.total_txns = 1;
  auto w = make_two_pc_world(3, 1, cfg);
  for (int i = 0; i < 4 && w->network().pending_count() == 0; ++i) {
    auto evs = w->enabled_events();
    if (evs.empty()) break;
    w->execute_event(evs.front());
  }
  return w;
}

// The old scheme hashed runtime events to a scalar fingerprint, gave
// *every* environment action the sentinel 0xffffffff, and defined
// independent(a, b) as a != b. Intended as "env actions conservatively
// conflict", the sentinel inverted it: an env action's fingerprint always
// differed from every runtime event's hash, so a link cut was declared
// independent of the very delivery it masks — and sleep sets then pruned
// the cut-before-deliver interleaving as "covered", losing every bug only
// reachable with the message deferred. Footprints make the overlap check
// exact; this test pins the inversion so the scheme cannot regress.
TEST(SystemExplorer, FootprintFixesEnvActionIndependenceInversion) {
  auto w = world_with_pending_message();
  ASSERT_GT(w->network().pending_count(), 0u);
  const net::Message* m = w->network().pending().front();

  SysAction deliver;
  deliver.kind = SysAction::Kind::kRuntime;
  deliver.event.kind = rt::EventKind::kDeliver;
  deliver.event.pid = m->dst;
  deliver.event.msg = m->id;

  SysAction cut;
  cut.kind = SysAction::Kind::kPartitionLinks;
  cut.src = m->src;
  cut.dst = m->dst;

  SysAction drop;
  drop.kind = SysAction::Kind::kDropMessage;
  drop.msg = m->id;

  SysAction cut_other;  // reverse direction: a genuinely disjoint link
  cut_other.kind = SysAction::Kind::kPartitionLinks;
  cut_other.src = m->dst;
  cut_other.dst = m->src;

  SysAction heal;
  heal.kind = SysAction::Kind::kHealLinks;
  heal.src = m->src;
  heal.dst = m->dst;

  // The old scheme, reproduced verbatim: env sentinel + inequality test.
  auto old_fingerprint = [](const SysAction& a) -> std::uint32_t {
    if (a.kind != SysAction::Kind::kRuntime) return 0xffffffffu;
    return static_cast<std::uint32_t>(
        hash_combine(static_cast<std::uint64_t>(a.event.pid),
                     hash_combine(a.event.msg, a.event.timer)));
  };
  auto old_independent = [&](const SysAction& a, const SysAction& b) {
    return old_fingerprint(a) != old_fingerprint(b);
  };

  // The inversion: cut(src->dst) masks deliver(m on src->dst), and
  // drop(m) consumes it, yet the old scheme called both pairs
  // independent (sentinel != event hash).
  EXPECT_TRUE(old_independent(cut, deliver));
  EXPECT_TRUE(old_independent(drop, deliver));

  const auto f_deliver = SystemExplorer::footprint(*w, deliver);
  const auto f_cut = SystemExplorer::footprint(*w, cut);
  const auto f_drop = SystemExplorer::footprint(*w, drop);
  const auto f_cut_other = SystemExplorer::footprint(*w, cut_other);
  const auto f_heal = SystemExplorer::footprint(*w, heal);

  // Exact footprints: same-link / same-message pairs conflict...
  EXPECT_FALSE(SystemExplorer::independent(f_cut, f_deliver));
  EXPECT_FALSE(SystemExplorer::independent(f_drop, f_deliver));
  EXPECT_FALSE(SystemExplorer::independent(f_drop, f_cut));  // same link
  // ...cut and heal always conflict (both move the blocked-link count
  // that gates max_cut_links, even on different links)...
  EXPECT_FALSE(SystemExplorer::independent(f_cut, f_heal));
  EXPECT_FALSE(SystemExplorer::independent(f_cut_other, f_heal));
  // ...and a disjoint link stays independent (the precision that makes
  // sleep sets and POR actually prune).
  EXPECT_TRUE(SystemExplorer::independent(f_cut_other, f_deliver));
  EXPECT_TRUE(SystemExplorer::independent(f_cut_other, f_drop));
}

// The behavioral half: cut-then-deliver and deliver-then-cut do not
// commute (the cut defers the delivery), so the interleaving the old
// scheme pruned reaches states the kept one cannot. Pinned directly on
// the world, independent of any explorer heuristics.
TEST(SystemExplorer, CutBeforeDeliverReachesAStateDeliverFirstCannot) {
  auto w = world_with_pending_message();
  ASSERT_GT(w->network().pending_count(), 0u);
  const net::Message* m = w->network().pending().front();
  const MsgId id = m->id;
  const ProcessId src = m->src;
  const ProcessId dst = m->dst;
  rt::EventDesc deliver;
  deliver.kind = rt::EventKind::kDeliver;
  deliver.pid = dst;
  deliver.msg = id;

  auto snap = w->snapshot(/*cow=*/true);

  // Order A: cut first. The delivery is deferred — no longer deliverable.
  w->model_cut_link(src, dst);
  auto deliverable_after_cut = w->network().deliverable();
  bool id_deliverable = false;
  for (MsgId d : deliverable_after_cut) id_deliverable |= (d == id);
  EXPECT_FALSE(id_deliverable);
  EXPECT_TRUE(w->network().pending_count() > 0);  // deferred, never lost

  // Order B: deliver first, then cut. The handler ran; the message is
  // gone from the network. The two orders end in different states, which
  // is the definition of a dependent pair.
  w->restore(snap);
  w->execute_event(deliver);
  w->model_cut_link(src, dst);
  bool still_pending = false;
  for (const net::Message* p : w->network().pending()) {
    still_pending |= (p->id == id);
  }
  EXPECT_FALSE(still_pending);
}

}  // namespace
}  // namespace fixd::mc
