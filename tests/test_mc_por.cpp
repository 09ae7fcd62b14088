// Dynamic partial-order reduction: differential soundness against the
// unreduced explorer.
//
// The contract under test (see SysExploreOptions::por):
//   - soundness: an exhaustive (non-truncated) reduced search reports the
//     same violation set (invariant names) as the unreduced search, and
//     every reduced-run trail replays to its violation on a fresh world;
//   - reduction: the reduced search visits strictly fewer states on 2pc
//     with n >= 4 participants (the gate bench/ablation_por.cpp holds at
//     >= 2x for n = 6);
//   - both hold across search orders, snapshot/trail frontiers, and
//     worker counts — the reduction machinery (footprints, source sets,
//     race-driven backtracks) lives in one engine that every worker
//     count runs.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>

#include "apps/elect_split.hpp"
#include "apps/kv_partition.hpp"
#include "apps/two_phase_commit.hpp"
#include "mc/sysmodel.hpp"

namespace fixd::mc {
namespace {

using apps::ElectSplitConfig;
using apps::KvPartitionConfig;
using apps::make_elect_split_world;
using apps::make_kv_partition_world;
using apps::make_two_pc_world;
using apps::TwoPcConfig;

struct PorCase {
  const char* name;
  std::function<std::unique_ptr<rt::World>()> make;
  std::function<void(rt::World&)> installer;
  /// Extra option knobs (env models) applied to both sides.
  std::function<void(SysExploreOptions&)> knobs;
  bool expect_violation;
};

std::vector<PorCase> por_models() {
  std::vector<PorCase> out;
  out.push_back({"2pc-v1-n4",
                 [] {
                   TwoPcConfig cfg;
                   cfg.total_txns = 1;
                   return make_two_pc_world(4, 1, cfg);
                 },
                 apps::install_two_pc_invariants, [](SysExploreOptions&) {},
                 /*expect_violation=*/true});
  out.push_back({"2pc-v2-n4",
                 [] {
                   TwoPcConfig cfg;
                   cfg.total_txns = 1;
                   return make_two_pc_world(4, 2, cfg);
                 },
                 apps::install_two_pc_invariants, [](SysExploreOptions&) {},
                 /*expect_violation=*/false});
  // The split-brain needs a cut: exercises partition/heal footprints
  // (cut-budget coupling) and timer footprints under reduction.
  out.push_back({"elect-v1-n3-cut",
                 [] { return make_elect_split_world(3, 1); },
                 apps::install_elect_split_invariants,
                 [](SysExploreOptions& o) {
                   o.model_partition = true;
                   o.max_cut_links = 1;
                 },
                 /*expect_violation=*/true});
  // Stale reads need a cut plus a replica restart: exercises the
  // crash-restart footprint (process bit only) under reduction.
  out.push_back({"kvpart-v1-r2-cut",
                 [] {
                   KvPartitionConfig cfg;
                   cfg.writes = 1;
                   cfg.reads = 2;
                   return make_kv_partition_world(2, 1, cfg);
                 },
                 apps::install_kv_partition_invariants,
                 [](SysExploreOptions& o) {
                   o.model_partition = true;
                   o.model_restart = true;
                   o.max_cut_links = 1;
                 },
                 /*expect_violation=*/true});
  return out;
}

SysExploreOptions base_opts(const PorCase& pc, SearchOrder order, bool trail,
                            std::size_t workers) {
  SysExploreOptions o;
  o.order = order;
  o.max_states = 1500000;
  o.max_depth = 300;
  o.max_violations = ~std::size_t{0};  // exhaustive: never stop early
  o.trail_frontier = trail;
  o.anchor_interval = 4;
  o.workers = workers;
  o.install_invariants = pc.installer;
  pc.knobs(o);
  return o;
}

std::set<std::string> violation_names(const SysExploreResult& r) {
  std::set<std::string> s;
  for (const auto& v : r.violations) s.insert(v.violation.invariant);
  return s;
}

// ---------------------------------------------------------------------------
// Differential: por on == por off (violation sets), with fewer states
// ---------------------------------------------------------------------------

class PorDifferential
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(PorDifferential, SameViolationSetFewerStates) {
  auto [model_idx, order_idx, trail] = GetParam();
  const PorCase pc = por_models()[model_idx];
  const SearchOrder order =
      order_idx == 0 ? SearchOrder::kBfs : SearchOrder::kDfs;

  // One unreduced exhaustive reference per model: for a non-truncated
  // dedup'd search the violation-name set and state count are order-,
  // frontier- and worker-independent (pinned by test_mc_parallel.cpp).
  auto w = pc.make();
  auto ref_opts = base_opts(pc, SearchOrder::kBfs, /*trail=*/false, 1);
  SystemExplorer ref_ex(*w, ref_opts);
  auto ref = ref_ex.explore();
  ASSERT_FALSE(ref.stats.truncated) << pc.name << ": budget too small";
  EXPECT_EQ(!violation_names(ref).empty(), pc.expect_violation) << pc.name;

  for (std::size_t workers : {1u, 4u}) {
    auto opts = base_opts(pc, order, trail, workers);
    opts.por = true;
    SystemExplorer ex(*w, opts);
    auto got = ex.explore();
    SCOPED_TRACE(std::string(pc.name) + " " + to_string(order) +
                 (trail ? " trail" : " snap") + " workers=" +
                 std::to_string(workers));
    ASSERT_FALSE(got.stats.truncated);
    EXPECT_EQ(violation_names(got), violation_names(ref));
    EXPECT_LE(got.stats.states, ref.stats.states);
    // Reduced-run trails replay to their violation on a fresh world.
    for (std::size_t i = 0;
         i < std::min<std::size_t>(got.violations.size(), 3); ++i) {
      auto reproduced = SystemExplorer::replay_trail(
          *w, got.violations[i].trail, pc.installer);
      bool same = false;
      for (const auto& rv : reproduced) {
        if (rv.invariant == got.violations[i].violation.invariant) {
          same = true;
        }
      }
      EXPECT_TRUE(same) << got.violations[i].trail.render();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Models, PorDifferential,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Values(0, 1),
                                            ::testing::Bool()));

// The headline reduction claim: on 2pc with n >= 4 the reduced search
// visits *strictly* fewer states (the ablation bench gates >= 2x at
// n = 6; here we pin strictness at a test-sized n).
TEST(PorReduction, StrictlyFewerStatesOnTwoPcN4) {
  TwoPcConfig cfg;
  cfg.total_txns = 1;
  for (int version : {1, 2}) {
    auto w = make_two_pc_world(4, version, cfg);
    PorCase pc{"2pc-n4", nullptr, apps::install_two_pc_invariants,
               [](SysExploreOptions&) {}, version == 1};

    auto off = base_opts(pc, SearchOrder::kBfs, false, 1);
    SystemExplorer ex_off(*w, off);
    auto ref = ex_off.explore();
    ASSERT_FALSE(ref.stats.truncated);

    auto on = off;
    on.por = true;
    SystemExplorer ex_on(*w, on);
    auto got = ex_on.explore();
    ASSERT_FALSE(got.stats.truncated);
    SCOPED_TRACE("2pc v" + std::to_string(version));
    EXPECT_EQ(violation_names(got), violation_names(ref));
    EXPECT_LT(got.stats.states, ref.stats.states);
    EXPECT_GT(got.stats.por_deferred, 0u);
  }
}

// Timed mode: footprints must stay exact when actions carry absolute
// ready times (a delayed message's channel identity is unchanged; timer
// footprints key on (pid, timer id), not the firing time).
TEST(PorDifferential, TimedModeWithDelaysSameViolationSet) {
  TwoPcConfig cfg;
  cfg.total_txns = 1;
  // A timeout short enough that one modeled delay pushes a vote past it:
  // the presumed-commit bug is reachable in concrete time.
  cfg.vote_timeout = 12;
  auto w = make_two_pc_world(3, 1, cfg);
  PorCase pc{"2pc-v1-n3-timed", nullptr, apps::install_two_pc_invariants,
             [](SysExploreOptions& o) {
               o.abstract_time = false;
               o.model_message_delay = true;
               o.model_delay_quantum = 8;
               o.model_delay_horizon = 16;
             },
             true};

  auto off = base_opts(pc, SearchOrder::kBfs, false, 1);
  SystemExplorer ex_off(*w, off);
  auto ref = ex_off.explore();
  ASSERT_FALSE(ref.stats.truncated);
  ASSERT_FALSE(violation_names(ref).empty());

  for (std::size_t workers : {1u, 4u}) {
    auto on = base_opts(pc, SearchOrder::kBfs, false, workers);
    on.por = true;
    SystemExplorer ex_on(*w, on);
    auto got = ex_on.explore();
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ASSERT_FALSE(got.stats.truncated);
    EXPECT_EQ(violation_names(got), violation_names(ref));
    EXPECT_LE(got.stats.states, ref.stats.states);
  }
}

}  // namespace
}  // namespace fixd::mc
