// Beyond-RAM exploration: the spill plumbing (ScratchDir, sorted runs), the
// visited set against an in-RAM oracle (sequential churn and concurrent
// exactly-one-winner, budgeted and not), and full-explorer differentials
// pinning that budgets change the memory trajectory and *nothing else* —
// visited sets, counts, and rendered violation trails stay bit-identical to
// the unbounded search, across orders, worker counts, frontier modes, and
// with POR enabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "apps/two_phase_commit.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/io.hpp"
#include "common/rng.hpp"
#include "mc/sysmodel.hpp"
#include "mc/visited.hpp"

namespace fixd::mc {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// ScratchDir lifecycle
// ---------------------------------------------------------------------------

TEST(ScratchDir, CreatesAndRecursivelyRemoves) {
  fs::path p;
  {
    ScratchDir d = ScratchDir::create("", "fixd-test");
    ASSERT_TRUE(d.valid());
    p = d.path();
    ASSERT_TRUE(fs::is_directory(p));
    // Populate with nested content: cleanup must be recursive.
    fs::create_directories(p / "a" / "b");
    std::ofstream(p / "a" / "b" / "x.run") << "payload";
    std::ofstream(p / "top.run") << "payload";
  }
  EXPECT_FALSE(fs::exists(p));
}

TEST(ScratchDir, MoveTransfersOwnership) {
  ScratchDir a = ScratchDir::create("", "fixd-test");
  fs::path p = a.path();
  ScratchDir b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  a.remove_now();  // moved-from: must be a no-op
  EXPECT_TRUE(fs::is_directory(p));
  b.remove_now();
  EXPECT_FALSE(fs::exists(p));
}

TEST(ScratchDir, HonorsParentDirectory) {
  ScratchDir parent = ScratchDir::create("", "fixd-test");
  ScratchDir child = ScratchDir::create(parent.path(), "inner");
  EXPECT_EQ(child.path().parent_path(), parent.path());
}

// ---------------------------------------------------------------------------
// Sorted runs: round-trip, probes, chunked scan, input validation
// ---------------------------------------------------------------------------

TEST(SortedRun, RoundTripProbeAndScan) {
  ScratchDir d = ScratchDir::create("", "fixd-test");
  // Odd keys only, several fence blocks deep, appended in uneven batches.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 5 * kSortedRunFenceStride + 37; ++i) {
    keys.push_back(2 * i + 1);
  }
  fs::path run = d.path() / "t.run";
  SortedRunWriter w(run);
  std::size_t at = 0;
  for (std::size_t batch : {std::size_t{1}, std::size_t{700}, keys.size()}) {
    std::size_t n = std::min(batch, keys.size() - at);
    w.append(keys.data() + at, n);
    at += n;
  }
  w.append(keys.data() + at, keys.size() - at);
  auto fin = w.finish();
  EXPECT_EQ(fin.count, keys.size());
  EXPECT_EQ(fin.fence.size(),
            (keys.size() + kSortedRunFenceStride - 1) / kSortedRunFenceStride);

  SortedRunReader r(run, std::move(fin.fence));
  EXPECT_EQ(r.count(), keys.size());
  EXPECT_EQ(r.read_all(), keys);
  // Probes: every 97th present key, and the even keys around them absent.
  for (std::size_t i = 0; i < keys.size(); i += 97) {
    EXPECT_TRUE(r.contains(keys[i])) << keys[i];
    EXPECT_FALSE(r.contains(keys[i] + 1)) << keys[i] + 1;
  }
  EXPECT_FALSE(r.contains(0));
  EXPECT_FALSE(r.contains(~std::uint64_t{0}));
  // Chunked scan (twice: seek_start must rewind).
  for (int pass = 0; pass < 2; ++pass) {
    r.seek_start();
    std::vector<std::uint64_t> got, chunk;
    while (r.next_chunk(chunk, 333)) {
      got.insert(got.end(), chunk.begin(), chunk.end());
    }
    EXPECT_EQ(got, keys) << "pass " << pass;
  }
}

TEST(SortedRun, RejectsUnsortedAppends) {
  ScratchDir d = ScratchDir::create("", "fixd-test");
  SortedRunWriter w(d.path() / "bad.run");
  std::vector<std::uint64_t> ok = {5, 10};
  w.append(ok.data(), ok.size());
  std::vector<std::uint64_t> dup = {10};
  EXPECT_THROW(w.append(dup.data(), dup.size()), FixdError);
  std::vector<std::uint64_t> lower = {3};
  EXPECT_THROW(w.append(lower.data(), lower.size()), FixdError);
}

TEST(SortedRun, EmptyRunIsValid) {
  ScratchDir d = ScratchDir::create("", "fixd-test");
  SortedRunWriter w(d.path() / "empty.run");
  auto fin = w.finish();
  EXPECT_EQ(fin.count, 0u);
  SortedRunReader r(d.path() / "empty.run", std::move(fin.fence));
  EXPECT_FALSE(r.contains(7));
  EXPECT_TRUE(r.read_all().empty());
}

// ---------------------------------------------------------------------------
// VisitedSet vs an in-RAM oracle
// ---------------------------------------------------------------------------

// Sequential churn with a budget far below the key volume: every insert's
// return value must match std::unordered_set, while the set spills
// constantly (the adversarial case for the rehydrate-on-maybe path).
TEST(TieredVisited, SequentialChurnMatchesOracle) {
  ScratchDir d = ScratchDir::create("", "fixd-test");
  VisitedSet tiered(1, 4 * 1024, d.path());
  std::unordered_set<std::uint64_t> oracle;
  Rng rng(20260808);
  for (int i = 0; i < 30000; ++i) {
    // Key space of 12k over 30k inserts: plenty of duplicate probes, some
    // hitting hot shards, most hitting spilled runs.
    std::uint64_t key = 1 + rng.next_below(12000);
    bool fresh = tiered.insert(key);
    EXPECT_EQ(fresh, oracle.insert(key).second) << "insert " << i;
  }
  EXPECT_GT(tiered.spill_events(), 0u);
  EXPECT_GT(tiered.spilled_bytes(), 0u);
  EXPECT_EQ(tiered.size(), oracle.size());
  std::vector<std::uint64_t> want(oracle.begin(), oracle.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(tiered.sorted_contents(), want);
}

// Digest 0 is the CompactDigestSet sentinel — it must survive the spill
// round-trip like any other key.
TEST(TieredVisited, ZeroDigestSurvivesSpill) {
  ScratchDir d = ScratchDir::create("", "fixd-test");
  VisitedSet tiered(1, 1024, d.path());
  EXPECT_TRUE(tiered.insert(0));
  EXPECT_FALSE(tiered.insert(0));
  for (std::uint64_t k = 1; k <= 4000; ++k) tiered.insert(k * 2654435761u);
  EXPECT_GT(tiered.spill_events(), 0u);
  EXPECT_FALSE(tiered.insert(0));
  auto all = tiered.sorted_contents();
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all.front(), 0u);
}

// Exactly-one-winner under contention: 4 threads race on a shared key set
// (plus private tails) with a tiny budget, so winners are decided on hot,
// spilled, and mid-spill stripes alike. Every key must have exactly one
// winning insert, and the final contents must be the exact union.
TEST(TieredVisited, ConcurrentInsertsExactlyOneWinner) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kShared = 8000;
  constexpr std::uint64_t kPrivate = 2000;
  ScratchDir d = ScratchDir::create("", "fixd-test");
  VisitedSet tiered(4, 8 * 1024, d.path());
  std::atomic<std::uint64_t> wins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      // Shared keys in a per-thread random order: maximal racing.
      std::vector<std::uint64_t> keys;
      for (std::uint64_t k = 1; k <= kShared; ++k) keys.push_back(k);
      for (std::size_t i = keys.size(); i > 1; --i) {
        std::swap(keys[i - 1], keys[rng.next_below(i)]);
      }
      for (std::uint64_t k = 0; k < kPrivate; ++k) {
        keys.push_back(kShared + 1 + std::uint64_t(t) * kPrivate + k);
      }
      std::uint64_t local = 0;
      for (std::uint64_t k : keys) {
        if (tiered.insert(k)) ++local;
      }
      wins.fetch_add(local);
    });
  }
  for (auto& th : threads) th.join();
  const std::uint64_t unique = kShared + kThreads * kPrivate;
  EXPECT_EQ(wins.load(), unique);
  EXPECT_EQ(tiered.size(), unique);
  std::vector<std::uint64_t> want;
  for (std::uint64_t k = 1; k <= unique; ++k) want.push_back(k);
  EXPECT_EQ(tiered.sorted_contents(), want);
  EXPECT_GT(tiered.spill_events(), 0u);
}

std::size_t entry_count(const fs::path& p) {
  std::size_t n = 0;
  for (auto it = fs::directory_iterator(p); it != fs::directory_iterator();
       ++it) {
    ++n;
  }
  return n;
}

// Budget 0: the set never spills. Under 4-thread churn over a shared key
// space every insert's verdict agrees with one oracle (exactly one winner
// per key), no scratch directory is created, and the resident bytes are
// exactly the tables' bytes.
TEST(VisitedSet, UnbudgetedChurnMatchesOracleWithoutScratch) {
  constexpr int kThreads = 4;
  constexpr int kInserts = 20000;
  ScratchDir parent = ScratchDir::create("", "fixd-test");
  VisitedSet set(stripes_for(kThreads), /*budget_bytes=*/0, parent.path());
  std::vector<std::vector<std::pair<std::uint64_t, bool>>> verdicts(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(700 + t);
      for (int i = 0; i < kInserts; ++i) {
        // Digest 0 (the table's sentinel) is in the key space too.
        const std::uint64_t key = rng.next_below(30000);
        verdicts[t].push_back({key, set.insert(key)});
      }
    });
  }
  for (auto& th : threads) th.join();

  std::unordered_set<std::uint64_t> oracle;
  std::unordered_map<std::uint64_t, int> wins;
  for (const auto& per_thread : verdicts) {
    for (const auto& [key, fresh] : per_thread) {
      oracle.insert(key);
      if (fresh) ++wins[key];
    }
  }
  EXPECT_EQ(wins.size(), oracle.size());
  for (const auto& [key, n] : wins) EXPECT_EQ(n, 1) << "key " << key;
  EXPECT_EQ(set.size(), oracle.size());
  std::vector<std::uint64_t> want(oracle.begin(), oracle.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(set.sorted_contents(), want);

  EXPECT_EQ(entry_count(parent.path()), 0u) << "budget 0 made a scratch dir";
  EXPECT_EQ(set.spill_events(), 0u);
  EXPECT_EQ(set.spilled_bytes(), 0u);
  EXPECT_EQ(set.bloom_fp_rate(), 0.0);
  // The unbudgeted formula: every stripe's table, touched or not (one
  // CompactDigestSet per stripe, selected as StripeArray does).
  std::uint64_t tables = 0;
  std::vector<CompactDigestSet> mirror(stripes_for(kThreads));
  for (std::uint64_t key : want) {
    mirror[static_cast<std::size_t>(mix64(key)) & (mirror.size() - 1)]
        .insert(key);
  }
  for (const CompactDigestSet& t : mirror) tables += t.bytes();
  EXPECT_EQ(set.resident_bytes(), tables);
  EXPECT_EQ(set.peak_resident_bytes(), tables);
}

// ---------------------------------------------------------------------------
// Explorer differentials: budgets change memory, not the search
// ---------------------------------------------------------------------------

SysExploreOptions base_opts(SearchOrder order, bool trail,
                            std::size_t workers) {
  SysExploreOptions o;
  o.order = order;
  o.max_states = 400000;
  o.max_depth = 300;
  o.max_violations = ~std::size_t{0};
  o.trail_frontier = trail;
  o.anchor_interval = 4;
  o.workers = workers;
  o.collect_visited = true;
  o.install_invariants = apps::install_two_pc_invariants;
  return o;
}

std::unique_ptr<rt::World> spill_world(int version = 2) {
  apps::TwoPcConfig cfg;
  cfg.total_txns = 1;
  return apps::make_two_pc_world(4, version, cfg);
}

std::string rendered_trails(const SysExploreResult& r) {
  std::string all;
  for (const auto& v : r.violations) {
    all += v.violation.invariant;
    all += '\n';
    all += v.trail.render();
    all += '\n';
  }
  return all;
}

// Visited-budget differential: a few-KiB budget (constant spilling) must
// reproduce the unbounded run exactly — states, transitions, duplicates,
// and the full sorted digest set — across orders, frontier modes, and
// worker counts.
class VisitedBudgetDifferential
    : public ::testing::TestWithParam<std::tuple<int, bool, int>> {};

TEST_P(VisitedBudgetDifferential, SameSearchUnderTinyBudget) {
  auto [order_idx, trail, workers] = GetParam();
  const SearchOrder order =
      order_idx == 0 ? SearchOrder::kBfs : SearchOrder::kDfs;
  auto w = spill_world();

  auto ref_opts = base_opts(order, trail, 1);
  SystemExplorer ref_ex(*w, ref_opts);
  auto ref = ref_ex.explore();
  ASSERT_FALSE(ref.stats.truncated);
  ASSERT_GT(ref.stats.states, 1000u);  // enough to overflow the tiny budget
  EXPECT_EQ(ref.stats.visited_spilled_bytes, 0u);

  auto opts = base_opts(order, trail, std::size_t(workers));
  opts.visited_budget_bytes = 4 * 1024;
  SystemExplorer ex(*w, opts);
  auto got = ex.explore();
  EXPECT_GT(got.stats.visited_spilled_bytes, 0u) << "budget never spilled";
  EXPECT_EQ(got.stats.states, ref.stats.states);
  EXPECT_EQ(got.stats.transitions, ref.stats.transitions);
  EXPECT_EQ(got.stats.duplicates, ref.stats.duplicates);
  EXPECT_EQ(got.visited, ref.visited);
  EXPECT_EQ(got.found_violation(), ref.found_violation());
}

INSTANTIATE_TEST_SUITE_P(Configs, VisitedBudgetDifferential,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Bool(),
                                            ::testing::Values(1, 4)));

// Frontier-budget differential: evicting and replay-recomputing anchors
// mid-search must be invisible — identical counts and visited set, and for
// the sequential buggy model, byte-identical rendered violation trails.
class FrontierBudgetDifferential
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FrontierBudgetDifferential, EvictionInvisibleToSearch) {
  auto [order_idx, workers] = GetParam();
  const SearchOrder order =
      order_idx == 0 ? SearchOrder::kBfs : SearchOrder::kDfs;
  auto w = spill_world(/*version=*/1);  // buggy: trails to compare

  auto ref_opts = base_opts(order, /*trail=*/true, 1);
  SystemExplorer ref_ex(*w, ref_opts);
  auto ref = ref_ex.explore();
  ASSERT_FALSE(ref.stats.truncated);
  EXPECT_EQ(ref.stats.anchor_evictions, 0u);

  // 2 KiB is below a single anchor snapshot: even the shallow DFS stack
  // and the POR-reduced frontier must evict constantly.
  auto opts = base_opts(order, /*trail=*/true, std::size_t(workers));
  opts.frontier_budget_bytes = 2 * 1024;
  SystemExplorer ex(*w, opts);
  auto got = ex.explore();
  EXPECT_GT(got.stats.anchor_evictions, 0u) << "budget never evicted";
  EXPECT_GT(got.stats.anchor_recomputes, 0u);
  EXPECT_EQ(got.stats.states, ref.stats.states);
  EXPECT_EQ(got.stats.transitions, ref.stats.transitions);
  EXPECT_EQ(got.visited, ref.visited);
  if (workers == 1) {
    // Sequential pop order is deterministic, so the full violation report
    // must render byte-identically to the never-evicted run's.
    EXPECT_EQ(rendered_trails(got), rendered_trails(ref));
  } else {
    EXPECT_EQ(got.violations.size(), ref.violations.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, FrontierBudgetDifferential,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Values(1, 4)));

// Both budgets at once under POR (the reduced search uses root-anchored
// backtrack nodes — the same replay machinery eviction leans on — and
// dedups through the ordinary visited set, so the visited budget spills
// it like any other search). The budgeted run must visit the identical
// sorted set as the unbudgeted reduced run at the same worker count; one
// worker is deterministic, so there the whole result is bit-identical.
class PorSpillDifferential : public ::testing::TestWithParam<int> {};

TEST_P(PorSpillDifferential, BudgetsInvisibleToReducedSearch) {
  const std::size_t workers = static_cast<std::size_t>(GetParam());
  auto w = spill_world(/*version=*/1);
  auto make = [&](bool budgets) {
    auto o = base_opts(SearchOrder::kBfs, /*trail=*/true, workers);
    o.por = true;
    if (budgets) {
      o.visited_budget_bytes = 4 * 1024;
      o.frontier_budget_bytes = 2 * 1024;
    }
    SystemExplorer ex(*w, o);
    return ex.explore();
  };
  auto ref = make(false);
  auto got = make(true);
  ASSERT_FALSE(ref.stats.truncated);
  EXPECT_EQ(ref.stats.visited_spilled_bytes, 0u);
  EXPECT_GT(got.stats.visited_spilled_bytes, 0u) << "budget never spilled";
  EXPECT_GT(got.stats.anchor_evictions, 0u);
  EXPECT_EQ(got.visited, ref.visited);
  EXPECT_EQ(got.stats.states, ref.stats.states);
  if (workers == 1) {
    EXPECT_EQ(got.stats.transitions, ref.stats.transitions);
    EXPECT_EQ(got.stats.por_deferred, ref.stats.por_deferred);
    EXPECT_EQ(rendered_trails(got), rendered_trails(ref));
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, PorSpillDifferential,
                         ::testing::Values(1, 4));

// ---------------------------------------------------------------------------
// Temp-file hygiene: the spill scratch dir is removed on every exit path
// ---------------------------------------------------------------------------

TEST(SpillScratchHygiene, RemovedOnCompletionAndViolationEarlyExit) {
  ScratchDir parent = ScratchDir::create("", "fixd-test");
  // Run to completion (clean model).
  {
    auto w = spill_world(/*version=*/2);
    auto o = base_opts(SearchOrder::kBfs, /*trail=*/true, 1);
    o.visited_budget_bytes = 4 * 1024;
    o.spill_dir = parent.path().string();
    SystemExplorer ex(*w, o);
    auto res = ex.explore();
    EXPECT_GT(res.stats.visited_spilled_bytes, 0u);
  }
  EXPECT_EQ(entry_count(parent.path()), 0u)
      << "completion path leaked spill files";
  // Violation-found early exit (buggy model, stop at the first hit).
  {
    auto w = spill_world(/*version=*/1);
    auto o = base_opts(SearchOrder::kBfs, /*trail=*/true, 1);
    o.visited_budget_bytes = 4 * 1024;
    o.max_violations = 1;
    o.spill_dir = parent.path().string();
    SystemExplorer ex(*w, o);
    auto res = ex.explore();
    ASSERT_TRUE(res.found_violation());
  }
  EXPECT_EQ(entry_count(parent.path()), 0u)
      << "violation early-exit path leaked spill files";
  // Parallel path too (its Shared state owns the scratch).
  {
    auto w = spill_world(/*version=*/2);
    auto o = base_opts(SearchOrder::kBfs, /*trail=*/true, 4);
    o.visited_budget_bytes = 4 * 1024;
    o.spill_dir = parent.path().string();
    SystemExplorer ex(*w, o);
    ex.explore();
  }
  EXPECT_EQ(entry_count(parent.path()), 0u)
      << "parallel path leaked spill files";
}

}  // namespace
}  // namespace fixd::mc
