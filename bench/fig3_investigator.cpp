// Figure 3 — The Investigator: exhaustively finding execution paths that
// lead to invariant violations.
//
// Measures state-space exploration from an initial (or restored) state:
// states/transitions explored, wall time, time-to-first-violation, and the
// blowup with process count — the paper's observation that model checking
// a global state space is "often prohibitively expensive, memory-wise ...
// more than 5-10 processes" (§2.1), here made concrete. The frontier
// section also gates the explorer's memory trajectory: peak frontier and
// visited-set bytes for snapshot, cold-trail, and (replay-warmed) trail
// frontiers over the identical state set, compared within this run.
#include <sys/resource.h>

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/token_ring.hpp"
#include "apps/two_phase_commit.hpp"
#include "bench_util.hpp"
#include "mc/sysmodel.hpp"

namespace {

using namespace fixd;

// Required n=6 frontier-memory reduction of the warmed trail frontier
// against the snapshot frontier of the same run (same state set, same
// build, so struct layout and ABI cancel out of the ratio).
constexpr double kTrailMemGate = 1.8;

// Required states per CPU-second at 4 workers as a fraction of 1 worker's,
// on the parallel n=6 trail rows (see the parallel gate).
constexpr double kParallelEfficiencyGate = 0.6;

/// User + system CPU seconds this process (every thread) has used so far.
double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// `replay` adds the trail-replay column: actions re-executed to
// materialize popped nodes, per state (0 in snapshot mode).
void header_row(bool replay = false) {
  bench::row("%-12s %3s %-8s %9s %11s %7s %8s %9s %8s %8s %9s %8s %10s%s",
             "app", "N", "order", "states", "trans", "bug?", "depth", "ms",
             "dig.ms", "snap.ms", "peak KiB", "vis KiB", "states/s",
             replay ? " replay/st" : "");
}

mc::SysExploreResult explore_row(
    const char* app, std::size_t n, const char* order_name,
    mc::SearchOrder order, rt::World& w,
    const std::function<void(rt::World&)>& installer, std::size_t max_states,
    bool trail_frontier = false, bool replay_warm = true,
    bool replay_col = false) {
  mc::SysExploreOptions o;
  o.order = order;
  o.max_states = max_states;
  o.max_depth = 80;
  o.walk_restarts = 256;
  o.trail_frontier = trail_frontier;
  o.install_invariants = installer;
  if (!replay_warm) {
    // The cold-trail comparison row: same search, replay warming off on
    // every world the explorer creates (the installer hook reaches them
    // all, like the enabled-index differential).
    o.install_invariants = [installer](rt::World& world) {
      installer(world);
      world.set_replay_warm(false);
    };
  }
  mc::SystemExplorer ex(w, o);
  auto res = ex.explore();
  char replay[24] = "";
  if (replay_col) {
    std::snprintf(replay, sizeof replay, " %9.2f",
                  static_cast<double>(res.stats.replayed_actions) /
                      static_cast<double>(res.stats.states));
  }
  bench::row("%-12s %3zu %-8s %9llu %11llu %7s %8zu %9.1f %8.1f %8.1f "
             "%9.1f %8.1f %10.0f%s",
             app, n, order_name, (unsigned long long)res.stats.states,
             (unsigned long long)res.stats.transitions,
             res.found_violation() ? "YES" : "no",
             res.found_violation() ? res.violations[0].depth : 0,
             res.stats.wall_ms, res.stats.digest_ms, res.stats.snapshot_ms,
             res.stats.peak_frontier_bytes / 1024.0,
             res.stats.visited_resident_bytes / 1024.0,
             res.stats.states_per_sec(), replay);
  return res;
}

}  // namespace

int main() {
  std::printf("FixD reproduction — Figure 3: the Investigator (exhaustive "
              "path exploration)\n");

  bench::header("Buggy protocols: time-to-first-violation by search order");
  header_row();
  bench::rule();

  struct OrderCase {
    const char* name;
    mc::SearchOrder order;
  } orders[] = {
      {"bfs", mc::SearchOrder::kBfs},
      {"dfs", mc::SearchOrder::kDfs},
      {"random", mc::SearchOrder::kRandomWalk},
  };

  for (const auto& oc : orders) {
    apps::TokenRingConfig cfg;
    cfg.target_rounds = 2;
    auto w = apps::make_token_ring_world(3, 1, cfg);
    explore_row("token-ring", 3, oc.name, oc.order, *w,
                apps::install_token_ring_invariants, 200000);
  }
  for (const auto& oc : orders) {
    apps::TwoPcConfig cfg;
    cfg.total_txns = 1;
    auto w = apps::make_two_pc_world(3, 1, cfg);
    explore_row("2pc", 3, oc.name, oc.order, *w,
                apps::install_two_pc_invariants, 200000);
  }

  bench::header("State-space blowup with process count (fixed verified 2pc)");
  header_row();
  bench::rule();
  for (std::size_t n = 2; n <= 6; ++n) {
    apps::TwoPcConfig cfg;
    cfg.total_txns = 1;
    auto w = apps::make_two_pc_world(n, 2, cfg);
    explore_row("2pc-v2", n, "bfs", mc::SearchOrder::kBfs, *w,
                apps::install_two_pc_invariants, 120000);
  }

  // Frontier-memory comparison: snapshot frontier, cold trail (replay
  // warming off — every re-anchor captures fresh, the PR 4 behavior on
  // the compact node layout), and the default warmed trail, at n=4 and
  // n=6. The three visit the identical state set (asserted), so the
  // peak/visited columns are directly comparable.
  struct FrontierRec {
    std::size_t n;
    const char* mode;
    mc::ExploreStats stats;
  };
  std::vector<FrontierRec> frontier;
  bench::header(
      "Frontier representation at the feasibility wall (2pc, BFS: snapshot "
      "vs cold trail vs replay-warmed trail)");
  header_row(/*replay=*/true);
  bench::rule();
  for (std::size_t n : {std::size_t{4}, std::size_t{6}}) {
    std::uint64_t want_states = 0;
    for (int mode = 0; mode < 3; ++mode) {
      apps::TwoPcConfig cfg;
      cfg.total_txns = 1;
      auto w = apps::make_two_pc_world(n, 2, cfg);
      const bool trail = mode != 0;
      const bool warm = mode == 2;
      const char* name =
          mode == 0 ? "2pc-snap" : (mode == 1 ? "2pc-trail-c" : "2pc-trail");
      auto res = explore_row(name, n, "bfs", mc::SearchOrder::kBfs, *w,
                             apps::install_two_pc_invariants, 120000, trail,
                             warm, /*replay_col=*/true);
      if (mode == 0) {
        want_states = res.stats.states;
      } else if (res.stats.states != want_states) {
        std::fprintf(stderr,
                     "FATAL: frontier mode visited a different state set\n");
        return 1;
      }
      frontier.push_back({n, name, res.stats});
    }
  }

  // Beyond-RAM row: the same n=6 sweep under a fixed resident budget for
  // the visited set (Bloom front + disk-spilled exact tier) and the trail
  // frontier (clock-evicted anchors, replay-recomputed on demand). The
  // budgeted run must visit exactly the unbounded run's state set — the
  // tier answers membership exactly, eviction only drops recomputable
  // bytes. bench_ablation_spill holds the full >=10x-past-ceiling gates;
  // this row keeps the memory trajectory visible in the figure.
  bench::header(
      "Beyond-RAM exploration (2pc-v2 n=6, BFS, trail frontier, budgeted)");
  bench::row("%-12s %9s %9s %9s %9s %9s %8s %8s %8s", "app", "states",
             "res KiB", "spl KiB", "io KiB", "peak KiB", "fp rate", "evict",
             "recomp");
  bench::rule();
  mc::ExploreStats spill_stats[2];  // [0]=unbounded, [1]=budgeted
  constexpr std::uint64_t kSpillVisitedBudget = 128 * 1024;
  constexpr std::uint64_t kSpillFrontierBudget = 1024 * 1024;
  for (int mode = 0; mode < 2; ++mode) {
    apps::TwoPcConfig cfg;
    cfg.total_txns = 1;
    auto w = apps::make_two_pc_world(6, 2, cfg);
    mc::SysExploreOptions o;
    o.order = mc::SearchOrder::kBfs;
    o.max_states = 120000;
    o.max_depth = 80;
    o.trail_frontier = true;
    o.install_invariants = apps::install_two_pc_invariants;
    if (mode == 1) {
      o.visited_budget_bytes = kSpillVisitedBudget;
      o.frontier_budget_bytes = kSpillFrontierBudget;
    }
    mc::SystemExplorer ex(*w, o);
    auto res = ex.explore();
    spill_stats[mode] = res.stats;
    bench::row("%-12s %9llu %9.1f %9.1f %9.1f %9.1f %8.4f %8llu %8llu",
               mode == 0 ? "2pc-unbnd" : "2pc-budget",
               (unsigned long long)res.stats.states,
               res.stats.visited_resident_bytes / 1024.0,
               res.stats.visited_spilled_bytes / 1024.0,
               res.stats.spilled_bytes / 1024.0,
               res.stats.peak_frontier_bytes / 1024.0,
               res.stats.bloom_fp_rate,
               (unsigned long long)res.stats.anchor_evictions,
               (unsigned long long)res.stats.anchor_recomputes);
  }
  const bool spill_identity =
      spill_stats[0].states == spill_stats[1].states &&
      spill_stats[0].transitions == spill_stats[1].transitions;

  bench::header(
      "Parallel frontier sharding (2pc-v2 n=6, BFS, trail frontier)");
  bench::row("%-12s %3s %9s %11s %9s %7s %9s %10s %8s %10s", "app", "wk",
             "states", "trans", "ms", "steals", "dig.ms", "states/s",
             "speedup", "st/cpu-s");
  bench::rule();
  struct ParRow {
    std::size_t workers;
    mc::ExploreStats stats;
    double states_per_cpu_sec;
  };
  std::vector<ParRow> prows;
  double base_sps = 0.0;
  for (std::size_t wk : {1u, 2u, 4u, 8u}) {
    apps::TwoPcConfig cfg;
    cfg.total_txns = 1;
    auto w = apps::make_two_pc_world(6, 2, cfg);
    mc::SysExploreOptions o;
    o.order = mc::SearchOrder::kBfs;
    o.max_states = 120000;
    o.max_depth = 80;
    o.trail_frontier = true;
    o.workers = wk;
    o.install_invariants = apps::install_two_pc_invariants;
    mc::SystemExplorer ex(*w, o);
    const double cpu0 = process_cpu_seconds();
    auto res = ex.explore();
    const double cpu_s = process_cpu_seconds() - cpu0;
    const double per_cpu =
        cpu_s > 0 ? static_cast<double>(res.stats.states) / cpu_s : 0.0;
    if (wk == 1) base_sps = res.stats.states_per_sec();
    double speedup =
        base_sps > 0 ? res.stats.states_per_sec() / base_sps : 0.0;
    bench::row("%-12s %3zu %9llu %11llu %9.1f %7llu %9.1f %10.0f %7.2fx %10.0f",
               "2pc-par", wk, (unsigned long long)res.stats.states,
               (unsigned long long)res.stats.transitions, res.stats.wall_ms,
               (unsigned long long)res.stats.steals, res.stats.digest_ms,
               res.stats.states_per_sec(), speedup, per_cpu);
    prows.push_back({wk, res.stats, per_cpu});
  }

  // Partial-order reduction at the feasibility wall: the buggy 2pc at
  // n=6, exhaustively, with and without footprint-exact DPOR. Equal
  // violation coverage (same invariant set) at a fraction of the states
  // is the figure's punchline — the reduction moves the wall, it does
  // not trade bugs for speed.
  bench::header(
      "Dynamic partial-order reduction (2pc-v1 n=6, BFS, exhaustive)");
  bench::row("%-12s %5s %9s %11s %9s %9s %6s", "app", "por", "states",
             "trans", "deferred", "ms", "bugs");
  bench::rule();
  mc::SysExploreResult por_runs[2];
  std::set<std::string> por_names[2];
  for (int mode = 0; mode < 2; ++mode) {
    apps::TwoPcConfig cfg;
    cfg.total_txns = 1;
    auto w = apps::make_two_pc_world(6, 1, cfg);
    mc::SysExploreOptions o;
    o.order = mc::SearchOrder::kBfs;
    o.max_states = 2000000;
    o.max_depth = 1u << 20;  // exhaustive: nothing truncates
    o.max_violations = ~std::size_t{0};
    o.dedup = true;
    o.por = mode == 1;
    o.install_invariants = apps::install_two_pc_invariants;
    mc::SystemExplorer ex(*w, o);
    por_runs[mode] = ex.explore();
    for (const auto& v : por_runs[mode].violations) {
      por_names[mode].insert(v.violation.invariant);
    }
    bench::row("%-12s %5s %9llu %11llu %9llu %9.1f %6zu", "2pc-v1",
               mode == 1 ? "on" : "off",
               (unsigned long long)por_runs[mode].stats.states,
               (unsigned long long)por_runs[mode].stats.transitions,
               (unsigned long long)por_runs[mode].stats.por_deferred,
               por_runs[mode].stats.wall_ms, por_runs[mode].violations.size());
  }
  const double por_reduction =
      por_runs[1].stats.states > 0
          ? static_cast<double>(por_runs[0].stats.states) /
                static_cast<double>(por_runs[1].stats.states)
          : 0.0;
  const bool por_coverage_equal =
      por_names[0] == por_names[1] && !por_names[1].empty();

  bench::header("Exploration from a mid-run (Time Machine restored) state");
  header_row();
  bench::rule();
  {
    apps::TokenRingConfig cfg;
    cfg.target_rounds = 3;
    auto w = apps::make_token_ring_world(4, 1, cfg);
    w->run(8);  // partway in; the Investigator picks up from here
    explore_row("token-ring*", 4, "bfs", mc::SearchOrder::kBfs, *w,
                apps::install_token_ring_invariants, 200000);
  }

  // Machine-readable record (BENCH_fig3.json, archived by the scheduled
  // perf workflow so the scaling AND memory trajectories are inspectable).
  const unsigned hw = std::thread::hardware_concurrency();
  double speedup_4w = 0.0;
  double efficiency_4w = 0.0;
  for (const auto& r : prows) {
    if (r.workers == 4 && base_sps > 0) {
      speedup_4w = r.stats.states_per_sec() / base_sps;
    }
    if (r.workers == 4 && prows[0].states_per_cpu_sec > 0) {
      efficiency_4w = r.states_per_cpu_sec / prows[0].states_per_cpu_sec;
    }
  }
  const mc::ExploreStats* snap_n6 = nullptr;
  const mc::ExploreStats* trail_n6 = nullptr;
  const mc::ExploreStats* trail_cold_n6 = nullptr;
  for (const auto& f : frontier) {
    if (f.n != 6) continue;
    const std::string mode = f.mode;
    if (mode == "2pc-snap") snap_n6 = &f.stats;
    if (mode == "2pc-trail") trail_n6 = &f.stats;
    if (mode == "2pc-trail-c") trail_cold_n6 = &f.stats;
  }
  const double trail_mem_reduction =
      snap_n6 && trail_n6 && trail_n6->peak_frontier_bytes > 0
          ? static_cast<double>(snap_n6->peak_frontier_bytes) /
                static_cast<double>(trail_n6->peak_frontier_bytes)
          : 0.0;
  FILE* f = std::fopen("BENCH_fig3.json", "w");
  if (f) {
    std::fprintf(f, "{\n  \"hw_threads\": %u,\n  \"parallel_2pc_n6\": [\n",
                 hw);
    for (std::size_t i = 0; i < prows.size(); ++i) {
      const auto& r = prows[i];
      double speedup =
          base_sps > 0 ? r.stats.states_per_sec() / base_sps : 0.0;
      std::fprintf(f,
                   "    {\"workers\": %zu, \"states\": %llu, "
                   "\"transitions\": %llu, \"wall_ms\": %.2f, "
                   "\"steals\": %llu, \"states_per_sec\": %.0f, "
                   "\"speedup\": %.3f, \"states_per_cpu_sec\": %.0f}%s\n",
                   r.workers, (unsigned long long)r.stats.states,
                   (unsigned long long)r.stats.transitions, r.stats.wall_ms,
                   (unsigned long long)r.stats.steals,
                   r.stats.states_per_sec(), speedup, r.states_per_cpu_sec,
                   i + 1 < prows.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"speedup_4w\": %.3f,\n"
                 "  \"cpu_efficiency_4w\": %.3f,\n  \"frontier\": [\n",
                 speedup_4w, efficiency_4w);
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const auto& fr = frontier[i];
      std::fprintf(f,
                   "    {\"n\": %zu, \"mode\": \"%s\", "
                   "\"peak_frontier_bytes\": %llu, "
                   "\"visited_resident_bytes\": %llu, "
                   "\"visited_spilled_bytes\": %llu, "
                   "\"replayed_actions\": %llu, "
                   "\"states_per_sec\": %.0f}%s\n",
                   fr.n, fr.mode,
                   (unsigned long long)fr.stats.peak_frontier_bytes,
                   (unsigned long long)fr.stats.visited_resident_bytes,
                   (unsigned long long)fr.stats.visited_spilled_bytes,
                   (unsigned long long)fr.stats.replayed_actions,
                   fr.stats.states_per_sec(),
                   i + 1 < frontier.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"trail_mem_reduction_n6\": %.3f,\n",
                 trail_mem_reduction);
    std::fprintf(f,
                 "  \"spill_2pc_n6\": {\"visited_budget_bytes\": %llu, "
                 "\"frontier_budget_bytes\": %llu, "
                 "\"states_unbounded\": %llu, \"states_budgeted\": %llu, "
                 "\"visited_resident_bytes\": %llu, "
                 "\"visited_spilled_bytes\": %llu, \"spilled_bytes\": %llu, "
                 "\"bloom_fp_rate\": %.5f, \"anchor_evictions\": %llu, "
                 "\"anchor_recomputes\": %llu, \"identity\": %s},\n",
                 (unsigned long long)kSpillVisitedBudget,
                 (unsigned long long)kSpillFrontierBudget,
                 (unsigned long long)spill_stats[0].states,
                 (unsigned long long)spill_stats[1].states,
                 (unsigned long long)spill_stats[1].visited_resident_bytes,
                 (unsigned long long)spill_stats[1].visited_spilled_bytes,
                 (unsigned long long)spill_stats[1].spilled_bytes,
                 spill_stats[1].bloom_fp_rate,
                 (unsigned long long)spill_stats[1].anchor_evictions,
                 (unsigned long long)spill_stats[1].anchor_recomputes,
                 spill_identity ? "true" : "false");
    std::fprintf(f,
                 "  \"por_2pc_n6\": {\"unreduced_states\": %llu, "
                 "\"reduced_states\": %llu, \"states_reduction\": %.3f, "
                 "\"coverage_equal\": %s}\n}\n",
                 (unsigned long long)por_runs[0].stats.states,
                 (unsigned long long)por_runs[1].stats.states, por_reduction,
                 por_coverage_equal ? "true" : "false");
    std::fclose(f);
    std::printf("\nwrote BENCH_fig3.json\n");
  }

  std::printf(
      "\nShape check (paper): exhaustive exploration finds the scheduling\n"
      "bugs plain runs miss; state counts grow steeply with N (the 5-10\n"
      "process feasibility wall); BFS gives the shortest trails.\n");

  bool ok = true;

  // Frontier-memory gate: the warmed trail frontier must hold the same
  // n=6 state set (asserted above) in <= 1/1.8 of the snapshot frontier's
  // bytes from this same run, and never more than the cold trail. Byte
  // peaks are deterministic and both sides share one build, so this gates
  // on every platform.
  std::printf("frontier-memory gate: n=6 trail peak %.1f KiB vs snapshot "
              "%.1f KiB -> %.2fx reduction (need >= %.2fx) -> %s\n",
              trail_n6 ? trail_n6->peak_frontier_bytes / 1024.0 : 0.0,
              snap_n6 ? snap_n6->peak_frontier_bytes / 1024.0 : 0.0,
              trail_mem_reduction, kTrailMemGate,
              trail_mem_reduction >= kTrailMemGate ? "OK" : "FAIL");
  if (trail_mem_reduction < kTrailMemGate) ok = false;
  if (trail_cold_n6 && trail_n6 &&
      trail_n6->peak_frontier_bytes > trail_cold_n6->peak_frontier_bytes) {
    std::printf("frontier-memory gate: warmed trail (%.1f KiB) must not "
                "exceed cold trail (%.1f KiB) -> FAIL\n",
                trail_n6->peak_frontier_bytes / 1024.0,
                trail_cold_n6->peak_frontier_bytes / 1024.0);
    ok = false;
  }

  // POR gate: footprint-exact DPOR must at least halve the states visited
  // on the buggy 2pc at n=6 while reporting the identical violation set.
  // Both sides are exhaustive and deterministic, so this gates everywhere.
  std::printf("por gate: n=6 states %llu -> %llu = %.1fx reduction (need "
              ">= 2.0x), coverage %s -> %s\n",
              (unsigned long long)por_runs[0].stats.states,
              (unsigned long long)por_runs[1].stats.states, por_reduction,
              por_coverage_equal ? "equal" : "DIFFERS",
              por_reduction >= 2.0 && por_coverage_equal ? "OK" : "FAIL");
  if (por_reduction < 2.0 || !por_coverage_equal) ok = false;
  if (por_runs[0].stats.truncated || por_runs[1].stats.truncated) {
    std::printf("por gate: truncated run (budget too small) -> FAIL\n");
    ok = false;
  }

  // Beyond-RAM gate: the budgeted run must visit exactly the unbounded
  // run's state set (the tier is exact; eviction is recompute-safe), must
  // actually spill, and must actually evict anchors — otherwise the row
  // is not exercising the beyond-RAM machinery. Deterministic, so it
  // gates everywhere.
  std::printf("spill gate: budgeted states %llu vs unbounded %llu "
              "(identity %s), spilled %.1f KiB, evictions %llu -> %s\n",
              (unsigned long long)spill_stats[1].states,
              (unsigned long long)spill_stats[0].states,
              spill_identity ? "OK" : "DIFFERS",
              spill_stats[1].visited_spilled_bytes / 1024.0,
              (unsigned long long)spill_stats[1].anchor_evictions,
              spill_identity && spill_stats[1].visited_spilled_bytes > 0 &&
                      spill_stats[1].anchor_evictions > 0
                  ? "OK"
                  : "FAIL");
  if (!spill_identity || spill_stats[1].visited_spilled_bytes == 0 ||
      spill_stats[1].anchor_evictions == 0) {
    ok = false;
  }

  // Parallel gate: states per CPU-second at 4 workers must stay at least
  // kParallelEfficiencyGate of 1 worker's on the n=6 trail frontier. CPU
  // time, unlike wall time, does not grow when other work shares the
  // cores, so the gate holds on a loaded machine; what it catches is
  // work the workers waste (contention, spinning, duplicated expansion).
  // The wall-clock speedup is printed and recorded, not gated. Only
  // enforced when the hardware can actually run 4 workers.
  std::printf("parallel: 4-worker wall-clock speedup %.2fx\n", speedup_4w);
  if (hw >= 4) {
    std::printf("parallel gate (hw=%u): 4-worker states per CPU-second "
                "%.2f of 1 worker's (need >= %.2f) -> %s\n",
                hw, efficiency_4w, kParallelEfficiencyGate,
                efficiency_4w >= kParallelEfficiencyGate ? "OK" : "FAIL");
    if (efficiency_4w < kParallelEfficiencyGate) ok = false;
  } else {
    std::printf("parallel gate skipped: only %u hardware thread(s)\n", hw);
  }
  return ok ? 0 : 1;
}
