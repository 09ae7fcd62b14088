// The SystemExplorer's graph-search engine at every worker count:
// differential equivalence against an independent reference BFS and
// between worker counts, trail replay of multi-worker violations, worker
// exception propagation, and seeded stress over randomized option mixes.
//
// The determinism contract under test (see SysExploreOptions::workers):
// with dedup on, por off, and budgets that don't truncate, a graph
// search on any number of workers visits *exactly* the reference BFS's
// canonical-state set, with identical state/transition/duplicate counts —
// and every violation it reports carries a trail that re-executes to the
// same violation on a fresh world. The reference (reference_bfs below) is
// written only against the public rt::World API, so it shares no code
// with the engine it checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "apps/kv_store.hpp"
#include "apps/token_ring.hpp"
#include "apps/two_phase_commit.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "mc/concurrent.hpp"
#include "mc/sysmodel.hpp"

namespace fixd::mc {
namespace {

using apps::KvConfig;
using apps::make_kv_world;
using apps::make_token_ring_world;
using apps::make_two_pc_world;
using apps::TokenRingConfig;
using apps::TwoPcConfig;

struct ModelCase {
  const char* name;
  std::function<std::unique_ptr<rt::World>()> make;
  std::function<void(rt::World&)> installer;
};

/// Small models whose full reachable graphs fit a test budget. A mix of
/// clean and buggy protocols: buggy ones exercise concurrent violation
/// collection (max_violations is effectively unbounded so the searches
/// still run to completion and stay comparable).
std::vector<ModelCase> small_models() {
  std::vector<ModelCase> out;
  out.push_back({"token-ring-v2-n3",
                 [] {
                   TokenRingConfig cfg;
                   cfg.target_rounds = 1;
                   return make_token_ring_world(3, 2, cfg);
                 },
                 apps::install_token_ring_invariants});
  out.push_back({"2pc-v2-n3",
                 [] {
                   TwoPcConfig cfg;
                   cfg.total_txns = 1;
                   return make_two_pc_world(3, 2, cfg);
                 },
                 apps::install_two_pc_invariants});
  out.push_back({"2pc-v1-n3",
                 [] {
                   TwoPcConfig cfg;
                   cfg.total_txns = 1;
                   return make_two_pc_world(3, 1, cfg);
                 },
                 apps::install_two_pc_invariants});
  // Large enough (~8k states) that all workers stay busy for a while —
  // the case that exercises sustained stealing and visited-set contention.
  out.push_back({"2pc-v2-n5",
                 [] {
                   TwoPcConfig cfg;
                   cfg.total_txns = 1;
                   return make_two_pc_world(5, 2, cfg);
                 },
                 apps::install_two_pc_invariants});
  out.push_back({"kv-v1-n2",
                 [] {
                   KvConfig cfg;
                   cfg.total_ops = 2;
                   cfg.key_space = 1;
                   rt::WorldOptions opts;
                   opts.net = net::NetworkOptions::reordering();
                   return make_kv_world(2, 1, cfg, opts);
                 },
                 apps::install_kv_invariants});
  return out;
}

SysExploreOptions differential_opts(SearchOrder order, bool trail,
                                    std::size_t workers) {
  SysExploreOptions o;
  o.order = order;
  o.max_states = 400000;
  o.max_depth = 300;  // far beyond these protocols' diameters: no
                      // truncation, so the visited set is order-free
  o.max_violations = ~std::size_t{0};  // never stop early
  o.trail_frontier = trail;
  o.anchor_interval = 4;
  o.workers = workers;
  o.collect_visited = true;
  return o;
}

/// What the reference BFS reports: the engine's count semantics (the root
/// counts as a state; a transition into an already-seen state is a
/// duplicate) and the sorted canonical visited set.
struct ReferenceResult {
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t max_depth = 0;  ///< BFS (shortest-path) depth
  std::vector<std::uint64_t> visited;
};

/// Exhaustive dedup'd BFS over the runtime's enabled events, written only
/// against public rt::World calls — one snapshot per frontier node, one
/// hash set, no explorer code — so it is an independent oracle for the
/// engine's abstract-time, no-environment-model search.
ReferenceResult reference_bfs(rt::World& base,
                              const std::function<void(rt::World&)>& install) {
  auto w = base.clone();
  w->set_abstract_time(true);
  w->set_stop_on_violation(false);
  if (install) install(*w);

  ReferenceResult r;
  std::unordered_set<std::uint64_t> seen{w->mc_digest()};
  r.states = 1;
  std::deque<std::pair<rt::WorldSnapshot, std::uint64_t>> frontier;
  frontier.emplace_back(w->snapshot(), 0);
  while (!frontier.empty()) {
    const rt::WorldSnapshot snap = std::move(frontier.front().first);
    const std::uint64_t depth = frontier.front().second;
    frontier.pop_front();
    w->restore(snap);
    for (const rt::EventDesc& ev : w->enabled_events()) {
      w->restore(snap);
      w->execute_event(ev);
      ++r.transitions;
      if (!seen.insert(w->mc_digest()).second) {
        ++r.duplicates;
        continue;
      }
      ++r.states;
      r.max_depth = std::max(r.max_depth, depth + 1);
      frontier.emplace_back(w->snapshot(), depth + 1);
    }
  }
  r.visited.assign(seen.begin(), seen.end());
  std::sort(r.visited.begin(), r.visited.end());
  return r;
}

// ---------------------------------------------------------------------------
// Differential: every worker count == the reference BFS == one worker
// ---------------------------------------------------------------------------

class ParallelDifferential
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(ParallelDifferential, VisitedSetAndCountsMatchSequential) {
  auto [model_idx, order_idx, trail] = GetParam();
  const ModelCase mc = small_models()[model_idx];
  const SearchOrder order =
      order_idx == 0 ? SearchOrder::kBfs : SearchOrder::kDfs;

  auto w = mc.make();
  const ReferenceResult oracle = reference_bfs(*w, mc.installer);
  ASSERT_GT(oracle.states, 1u);

  auto seq_opts = differential_opts(order, trail, 1);
  seq_opts.install_invariants = mc.installer;
  SystemExplorer seq(*w, seq_opts);
  auto ref = seq.explore();
  ASSERT_FALSE(ref.stats.truncated) << mc.name << ": budget too small";
  ASSERT_GT(ref.stats.states, 1u);
  EXPECT_GT(ref.stats.visited_resident_bytes, 0u);

  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    auto opts = differential_opts(order, trail, workers);
    opts.install_invariants = mc.installer;
    SystemExplorer ex(*w, opts);
    auto got = ex.explore();
    SCOPED_TRACE(std::string(mc.name) + " vs reference, workers=" +
                 std::to_string(workers) + (trail ? " trail" : " snap"));
    EXPECT_FALSE(got.stats.truncated);
    EXPECT_EQ(got.stats.states, oracle.states);
    EXPECT_EQ(got.stats.transitions, oracle.transitions);
    EXPECT_EQ(got.stats.duplicates, oracle.duplicates);
    EXPECT_EQ(got.visited, oracle.visited);
    // Only BFS reaches every state first along a shortest path.
    if (order == SearchOrder::kBfs) {
      EXPECT_EQ(got.stats.max_depth, oracle.max_depth);
    }
  }

  for (std::size_t workers : {2u, 4u, 8u}) {
    auto par_opts = differential_opts(order, trail, workers);
    par_opts.install_invariants = mc.installer;
    SystemExplorer par(*w, par_opts);
    auto got = par.explore();
    SCOPED_TRACE(std::string(mc.name) + " workers=" +
                 std::to_string(workers) + (trail ? " trail" : " snap"));
    EXPECT_FALSE(got.stats.truncated);
    EXPECT_EQ(got.stats.states, ref.stats.states);
    EXPECT_EQ(got.stats.transitions, ref.stats.transitions);
    EXPECT_EQ(got.stats.duplicates, ref.stats.duplicates);
    EXPECT_EQ(got.stats.max_depth, ref.stats.max_depth);
    EXPECT_EQ(got.visited, ref.visited);
    EXPECT_EQ(got.stats.workers, workers);
    // Both sides agree on whether the model has a bug at all.
    EXPECT_EQ(got.found_violation(), ref.found_violation());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Models, ParallelDifferential,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Values(0, 1),
                       ::testing::Bool()));

// Randomized differential: seed-perturbed variants of the kv model (the
// one with a COW heap, so cross-thread page sharing is exercised) must
// also match, loss modeling included.
class RandomizedDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomizedDifferential, PerturbedKvModelsMatch) {
  Rng rng(GetParam());
  KvConfig cfg;
  cfg.total_ops = 2;
  cfg.key_space = 1 + rng.next_below(2);
  rt::WorldOptions wopts;
  wopts.net = net::NetworkOptions::reordering();
  wopts.seed = 1 + rng.next_u64() % 1000;
  const int version = rng.next_bool(0.5) ? 1 : 2;
  auto w = make_kv_world(2, version, cfg, wopts);

  const SearchOrder order =
      rng.next_bool(0.5) ? SearchOrder::kBfs : SearchOrder::kDfs;
  const bool trail = rng.next_bool(0.5);
  auto seq_opts = differential_opts(order, trail, 1);
  seq_opts.model_message_loss = rng.next_bool(0.5);
  seq_opts.install_invariants = apps::install_kv_invariants;
  SystemExplorer seq(*w, seq_opts);
  auto ref = seq.explore();
  ASSERT_FALSE(ref.stats.truncated);

  auto par_opts = seq_opts;
  par_opts.workers = 2 + rng.next_below(5);
  SystemExplorer par(*w, par_opts);
  auto got = par.explore();
  EXPECT_EQ(got.stats.states, ref.stats.states);
  EXPECT_EQ(got.stats.transitions, ref.stats.transitions);
  EXPECT_EQ(got.visited, ref.visited);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedDifferential,
                         ::testing::Values(5, 17, 43, 91));

// ---------------------------------------------------------------------------
// Differential: the enabled-event index changes no visited state set
// ---------------------------------------------------------------------------

// Every model × order × frontier × worker-count combination must visit the
// same canonical state set whether enabled_events() materializes from the
// incremental index or rescans from scratch (World::set_use_enabled_index
// routes it through the uncached oracle; the installer hook reaches every
// scratch/worker world the explorer creates).
TEST(EnabledIndexDifferential, VisitedSetsUnchangedByIndex) {
  const auto models = small_models();
  for (std::size_t mi = 0; mi < models.size(); ++mi) {
    const ModelCase& mc = models[mi];
    for (SearchOrder order : {SearchOrder::kBfs, SearchOrder::kDfs}) {
      for (std::size_t workers : {1u, 4u}) {
        SCOPED_TRACE(std::string(mc.name) + " " + to_string(order) +
                     " workers=" + std::to_string(workers));
        auto w = mc.make();
        auto opts = differential_opts(order, /*trail=*/false, workers);
        // The reordering kv model also exercises the environment-model
        // action enumeration (drop actions come off the deliverable
        // index when it is in use, off the rescan when bypassed).
        opts.model_message_loss = mi == 4;
        opts.install_invariants = mc.installer;
        SystemExplorer with_index(*w, opts);
        auto ref = with_index.explore();
        ASSERT_FALSE(ref.stats.truncated);

        auto no_idx_opts = opts;
        no_idx_opts.install_invariants = [&mc](rt::World& world) {
          mc.installer(world);
          world.set_use_enabled_index(false);
        };
        SystemExplorer without_index(*w, no_idx_opts);
        auto got = without_index.explore();
        EXPECT_EQ(got.stats.states, ref.stats.states);
        EXPECT_EQ(got.stats.transitions, ref.stats.transitions);
        EXPECT_EQ(got.stats.duplicates, ref.stats.duplicates);
        EXPECT_EQ(got.visited, ref.visited);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Parallel random walk: sharded walks == sequential walks
// ---------------------------------------------------------------------------

// Each walk draws from an RNG derived from (seed, walk index), so worker
// count cannot change any trajectory. With an unbounded violation budget
// every walk runs on both sides: stats and the walk-ordered violation
// report must match the one-worker walk exactly.
class ParallelRandomWalk : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelRandomWalk, MatchesSequentialWalks) {
  const std::size_t workers = GetParam();
  TokenRingConfig cfg;
  cfg.target_rounds = 2;
  auto w = make_token_ring_world(3, /*version=*/1, cfg);

  auto walk_opts = [&](std::size_t nw) {
    SysExploreOptions o;
    o.order = SearchOrder::kRandomWalk;
    o.max_depth = 40;
    o.walk_restarts = 48;
    o.seed = 9;
    o.max_violations = ~std::size_t{0};  // run every walk on both sides
    o.workers = nw;
    o.install_invariants = apps::install_token_ring_invariants;
    return o;
  };

  SystemExplorer seq(*w, walk_opts(1));
  auto ref = seq.explore();
  ASSERT_TRUE(ref.found_violation());  // buggy ring: walks do hit it

  SystemExplorer par(*w, walk_opts(workers));
  auto got = par.explore();
  EXPECT_EQ(got.stats.states, ref.stats.states);
  EXPECT_EQ(got.stats.transitions, ref.stats.transitions);
  EXPECT_EQ(got.stats.max_depth, ref.stats.max_depth);
  EXPECT_EQ(got.stats.workers, workers);
  ASSERT_EQ(got.violations.size(), ref.violations.size());
  for (std::size_t i = 0; i < ref.violations.size(); ++i) {
    EXPECT_EQ(got.violations[i].violation.invariant,
              ref.violations[i].violation.invariant);
    EXPECT_EQ(got.violations[i].depth, ref.violations[i].depth);
    EXPECT_EQ(got.violations[i].trail.length(),
              ref.violations[i].trail.length());
  }
  // Parallel-found trails replay on a fresh sequential world.
  for (std::size_t i = 0; i < std::min<std::size_t>(got.violations.size(), 4);
       ++i) {
    auto reproduced = SystemExplorer::replay_trail(
        *w, got.violations[i].trail, apps::install_token_ring_invariants);
    EXPECT_FALSE(reproduced.empty()) << got.violations[i].trail.render();
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelRandomWalk,
                         ::testing::Values(2u, 4u, 8u));

// A violation-budgeted parallel walk still stops early and stays sound.
TEST(ParallelRandomWalk, BudgetedStopStaysSound) {
  TokenRingConfig cfg;
  cfg.target_rounds = 2;
  auto w = make_token_ring_world(3, 1, cfg);
  SysExploreOptions o;
  o.order = SearchOrder::kRandomWalk;
  o.max_depth = 40;
  o.walk_restarts = 200;
  o.seed = 9;
  o.max_violations = 2;
  o.workers = 4;
  o.install_invariants = apps::install_token_ring_invariants;
  SystemExplorer ex(*w, o);
  auto res = ex.explore();
  ASSERT_TRUE(res.found_violation());
  for (const auto& v : res.violations) {
    auto reproduced = SystemExplorer::replay_trail(
        *w, v.trail, apps::install_token_ring_invariants);
    EXPECT_FALSE(reproduced.empty()) << v.trail.render();
  }
}

// ---------------------------------------------------------------------------
// Parallel frontier metering: restored peak_frontier_bytes at workers > 1
// ---------------------------------------------------------------------------

TEST(ParallelFrontierMeter, SumOfPeaksReportedAtEveryWorkerCount) {
  TwoPcConfig cfg;
  cfg.total_txns = 1;
  auto w = make_two_pc_world(4, 2, cfg);

  auto opts = differential_opts(SearchOrder::kBfs, /*trail=*/false, 1);
  opts.install_invariants = apps::install_two_pc_invariants;
  SystemExplorer seq(*w, opts);
  auto ref = seq.explore();
  ASSERT_GT(ref.stats.peak_frontier_bytes, 0u);
  EXPECT_EQ(ref.stats.peak_frontier_bytes_max_worker, 0u);

  // The merged parallel number bounds *that run's* retained frontier from
  // above (it is not comparable to the one-worker run's peak: workers
  // drain the frontier while it is produced, so the parallel frontier can
  // genuinely stand lower). What must hold: metering is on (nonzero), the
  // per-worker max is a consistent share of the sum, and a single node's
  // worth of frontier is always covered.
  for (std::size_t workers : {2u, 4u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    auto par_opts =
        differential_opts(SearchOrder::kBfs, /*trail=*/false, workers);
    par_opts.install_invariants = apps::install_two_pc_invariants;
    SystemExplorer par(*w, par_opts);
    auto got = par.explore();
    EXPECT_EQ(got.stats.states, ref.stats.states);
    EXPECT_GT(got.stats.peak_frontier_bytes, 0u);
    EXPECT_GT(got.stats.peak_frontier_bytes_max_worker, 0u);
    EXPECT_LE(got.stats.peak_frontier_bytes_max_worker,
              got.stats.peak_frontier_bytes);
  }
}

// The meter's pointer -> refcount table against a node map doing the same
// bookkeeping. Keys are 16-byte-strided addresses (how allocations sit),
// the pool is large enough to force several grows, and churn empties and
// refills long probe runs, so every backward-shift case is exercised.
TEST(ParallelFrontierMeter, RefCountsMatchNodeMapUnderChurn) {
  PtrRefCounts table;
  std::unordered_map<const void*, std::size_t> ref;
  alignas(16) static std::byte pool[16 * 4096];
  Rng rng(2024);
  for (int op = 0; op < 400000; ++op) {
    // Phases bias toward acquire then release, so the population swings
    // between near-empty and several thousand keys.
    const bool filling = (op / 50000) % 2 == 0;
    const void* p = pool + 16 * rng.next_below(4096);
    if (rng.next_below(10) < (filling ? 7u : 3u)) {
      const bool first = ref[p]++ == 0;
      ASSERT_EQ(table.acquire(p), first) << "op " << op;
    } else {
      auto it = ref.find(p);
      bool last = false;
      if (it != ref.end() && --it->second == 0) {
        ref.erase(it);
        last = true;
      }
      ASSERT_EQ(table.release(p), last) << "op " << op;
    }
    ASSERT_EQ(table.size(), ref.size()) << "op " << op;
  }
}

// ---------------------------------------------------------------------------
// Violation trails from any worker replay sequentially
// ---------------------------------------------------------------------------

class ParallelReplay : public ::testing::TestWithParam<bool> {};

TEST_P(ParallelReplay, EveryParallelViolationTrailReproduces) {
  const bool trail_frontier = GetParam();
  TwoPcConfig cfg;
  cfg.total_txns = 1;
  auto w = make_two_pc_world(3, 1, cfg);

  SysExploreOptions o;
  o.order = SearchOrder::kBfs;
  o.max_states = 100000;
  o.max_depth = 64;
  o.max_violations = 5;
  o.trail_frontier = trail_frontier;
  o.workers = 4;
  o.install_invariants = apps::install_two_pc_invariants;
  SystemExplorer ex(*w, o);
  auto res = ex.explore();
  ASSERT_TRUE(res.found_violation());
  for (const auto& v : res.violations) {
    auto reproduced = SystemExplorer::replay_trail(
        *w, v.trail, apps::install_two_pc_invariants);
    ASSERT_FALSE(reproduced.empty())
        << "parallel trail did not reproduce:\n" << v.trail.render();
    bool same = false;
    for (const auto& rv : reproduced) {
      if (rv.invariant == v.violation.invariant) same = true;
    }
    EXPECT_TRUE(same) << v.violation.invariant;
  }
}

INSTANTIATE_TEST_SUITE_P(Frontiers, ParallelReplay, ::testing::Bool());

// ---------------------------------------------------------------------------
// A worker's exception reaches the caller with its original type
// ---------------------------------------------------------------------------

TEST(ParallelErrors, WorkerExceptionKeepsItsType) {
  for (std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    TwoPcConfig cfg;
    cfg.total_txns = 1;
    auto w = make_two_pc_world(3, 2, cfg);
    // Holds at the root (probed on the calling thread) and throws two
    // events in, inside a worker's expansion.
    const std::uint64_t root_step = w->step_count();
    auto opts = differential_opts(SearchOrder::kBfs, /*trail=*/false, workers);
    opts.install_invariants = [root_step](rt::World& world) {
      apps::install_two_pc_invariants(world);
      world.invariants().add_global(
          "test/throws",
          [root_step](const rt::World& cur) -> std::optional<std::string> {
            if (cur.step_count() >= root_step + 2) {
              throw ConfigError("invariant refused the state");
            }
            return std::nullopt;
          });
    };
    SystemExplorer ex(*w, opts);
    try {
      ex.explore();
      ADD_FAILURE() << "explore() returned normally";
    } catch (const ConfigError& e) {
      EXPECT_STREQ(e.what(), "invariant refused the state");
    } catch (const std::exception& e) {
      ADD_FAILURE() << "wrong exception type: " << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded stress: odd option mixes under small budgets must never crash
// ---------------------------------------------------------------------------

TEST(ParallelStress, HundredRandomConfigsNoCrash) {
  Rng rng(20260728);
  for (int trial = 0; trial < 100; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::unique_ptr<rt::World> w;
    std::function<void(rt::World&)> installer;
    switch (rng.next_below(3)) {
      case 0: {
        TokenRingConfig cfg;
        cfg.target_rounds = 1 + rng.next_below(2);
        w = make_token_ring_world(3, 2, cfg);
        installer = apps::install_token_ring_invariants;
        break;
      }
      case 1: {
        TwoPcConfig cfg;
        cfg.total_txns = 1;
        w = make_two_pc_world(3, 2, cfg);
        installer = apps::install_two_pc_invariants;
        break;
      }
      default: {
        KvConfig cfg;
        cfg.total_ops = 2;
        cfg.key_space = 1;
        w = make_kv_world(2, 2, cfg);
        installer = apps::install_kv_invariants;
        break;
      }
    }

    SysExploreOptions o;
    o.order = rng.next_bool(0.5) ? SearchOrder::kBfs : SearchOrder::kDfs;
    o.max_states = 50 + rng.next_below(150);
    o.max_depth = 4 + rng.next_below(20);
    o.max_violations = 1 + rng.next_below(3);
    o.model_message_loss = rng.next_bool(0.4);
    o.model_message_duplication = rng.next_bool(0.3);
    o.dedup = rng.next_bool(0.8);
    o.por = rng.next_bool(0.3);
    o.trail_frontier = rng.next_bool(0.5);
    o.anchor_interval = 1 + rng.next_below(8);
    static const std::size_t kWorkers[] = {1, 2, 3, 4, 8};
    o.workers = kWorkers[rng.next_below(5)];
    o.install_invariants = installer;

    SystemExplorer ex(*w, o);
    SysExploreResult res;
    ASSERT_NO_THROW(res = ex.explore());
    EXPECT_GT(res.stats.states, 0u);
    // Budget overshoot is bounded by one in-flight state per worker, and
    // a full (non-truncated) search never exceeds the budget.
    EXPECT_LE(res.stats.states, o.max_states + o.workers);
    if (!res.stats.truncated) EXPECT_LE(res.stats.states, o.max_states);
    if (res.stats.states > o.max_states) EXPECT_TRUE(res.stats.truncated);
    EXPECT_EQ(res.stats.workers, o.workers);
  }
}

// With dedup off the state count equals transitions + 1 (a pure tree
// walk), sequential or parallel — a cheap structural invariant that
// catches double-counted or dropped nodes under concurrency.
TEST(ParallelStress, TreeSearchCountsConsistent) {
  TokenRingConfig cfg;
  cfg.target_rounds = 1;
  for (std::size_t workers : {1u, 4u}) {
    auto w = make_token_ring_world(3, 2, cfg);
    SysExploreOptions o;
    o.order = SearchOrder::kBfs;
    o.dedup = false;
    o.max_states = 3000;
    o.max_depth = 10;
    o.max_violations = ~std::size_t{0};
    o.workers = workers;
    o.install_invariants = apps::install_token_ring_invariants;
    SystemExplorer ex(*w, o);
    auto res = ex.explore();
    EXPECT_EQ(res.stats.duplicates, 0u) << "workers=" << workers;
    EXPECT_EQ(res.stats.states, res.stats.transitions + 1)
        << "workers=" << workers;
  }
}

}  // namespace
}  // namespace fixd::mc
