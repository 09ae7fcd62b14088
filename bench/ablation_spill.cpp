// Ablation A2 — beyond-RAM exploration (the budgeted visited set and the
// budgeted trail frontier).
//
// The feasibility wall in Figure 3 is a *memory* wall: the visited set and
// the frontier both grow with the state count, so `max_states` caps at
// whatever fits in RAM. This ablation runs the buggy 2pc at n=6
// exhaustively — a state count >= 10x what the budgeted run's exact hot
// tier could hold resident — and checks that spilling changes the memory
// trajectory and nothing else.
//
// Gated (exit code, enforced by the perf workflow):
//   - beyond-RAM ratio: total states >= 10x the in-RAM ceiling of the
//     budgeted run's exact tier (ceiling = 0.7 load factor over the
//     non-Bloom half of the budget; mirrors mc/visited.cpp);
//   - visited-set identity: the budgeted runs (1 and 4 workers) return
//     byte-identical sorted digest sets to the unbounded run's;
//   - resident budget held: peak resident visited bytes <= 1.5x the
//     configured budget (the 0.5x slack covers the spill hysteresis
//     window and the per-shard table floor);
//   - Bloom quality: measured false-positive rate <= 0.10 with the run
//     actually spilling (spilled bytes > 0);
//   - frontier budget: the anchor-evicting run visits the identical state
//     set with anchor_evictions > 0 and anchor_recomputes > 0.
// Results land in BENCH_spill.json.
//
// FIXD_SPILL_SMOKE=1 shrinks to n=4 with a few-KiB budget for CI smoke:
// spill/eviction machinery still exercised, but the ratio and resident
// gates are skipped (a few-KiB budget is below the 64-shard table floor,
// so those gates are meaningless there).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/two_phase_commit.hpp"
#include "bench_util.hpp"
#include "mc/sysmodel.hpp"

namespace {

using namespace fixd;

struct RunResult {
  mc::SysExploreResult res;
  double ms = 0.0;
};

RunResult run_config(const char* label, std::size_t n,
                     std::uint64_t visited_budget,
                     std::uint64_t frontier_budget, std::size_t workers) {
  apps::TwoPcConfig cfg;
  cfg.total_txns = 1;
  auto w = apps::make_two_pc_world(n, 1, cfg);
  mc::SysExploreOptions o;
  o.order = mc::SearchOrder::kBfs;
  o.max_states = 2000000;
  o.max_depth = 1u << 20;  // exhaustive: nothing truncates
  o.max_violations = ~std::size_t{0};
  o.trail_frontier = true;
  o.workers = workers;
  o.visited_budget_bytes = visited_budget;
  o.frontier_budget_bytes = frontier_budget;
  o.collect_visited = true;
  o.install_invariants = apps::install_two_pc_invariants;
  mc::SystemExplorer ex(*w, o);
  bench::WallTimer t;
  RunResult out;
  out.res = ex.explore();
  out.ms = t.ms();
  const auto& s = out.res.stats;
  bench::row("%-14s %2zu %9llu %9.1f %9.1f %9.1f %8.4f %7llu %7llu %9.1f",
             label, workers, (unsigned long long)s.states,
             s.visited_peak_resident_bytes / 1024.0,
             s.visited_spilled_bytes / 1024.0, s.spilled_bytes / 1024.0,
             s.bloom_fp_rate, (unsigned long long)s.anchor_evictions,
             (unsigned long long)s.anchor_recomputes, out.ms);
  return out;
}

// The in-RAM ceiling of the budgeted run's exact tier: keys the non-Bloom
// half of the budget holds at the CompactDigestSet load factor. Mirrors
// the split in mc/visited.cpp (Bloom takes the power-of-two floor
// of budget/2) and the 0.7 rehash threshold in mc/concurrent.hpp.
std::uint64_t in_ram_ceiling(std::uint64_t budget) {
  std::uint64_t p = 1;
  while (p * 2 <= budget / 2) p *= 2;
  std::uint64_t exact = budget > p ? budget - p : 1;
  return (exact / 8) * 7 / 10;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("FIXD_SPILL_SMOKE") != nullptr;
  const std::size_t n = smoke ? 4 : 6;
  const std::uint64_t visited_budget = smoke ? 8 * 1024 : 128 * 1024;
  const std::uint64_t frontier_budget =
      smoke ? 64 * 1024 : 1024 * 1024;

  std::printf("FixD reproduction — Ablation A2: beyond-RAM exploration "
              "(2pc-v1 n=%zu, BFS, exhaustive%s)\n",
              n, smoke ? ", SMOKE" : "");

  bench::header("Visited tier + frontier budget vs unbounded");
  bench::row("%-14s %2s %9s %9s %9s %9s %8s %7s %7s %9s", "config", "wk",
             "states", "peak KiB", "spl KiB", "io KiB", "fp rate", "evict",
             "recomp", "ms");
  bench::rule();

  RunResult unbounded = run_config("unbounded", n, 0, 0, 1);
  RunResult budgeted = run_config("visited-budget", n, visited_budget, 0, 1);
  RunResult budgeted4 =
      run_config("visited-bgt-4w", n, visited_budget, 0, 4);
  RunResult frontier =
      run_config("both-budgets", n, visited_budget, frontier_budget, 1);

  const std::uint64_t ceiling = in_ram_ceiling(visited_budget);
  const double ratio =
      ceiling > 0
          ? double(unbounded.res.stats.states) / double(ceiling)
          : 0.0;
  const bool identity_1w = budgeted.res.visited == unbounded.res.visited;
  const bool identity_4w = budgeted4.res.visited == unbounded.res.visited;
  const bool identity_fr = frontier.res.visited == unbounded.res.visited;
  const std::uint64_t peak = budgeted.res.stats.visited_peak_resident_bytes;
  const bool spilled = budgeted.res.stats.visited_spilled_bytes > 0;
  const double fp = budgeted.res.stats.bloom_fp_rate;
  const bool evicted = frontier.res.stats.anchor_evictions > 0 &&
                       frontier.res.stats.anchor_recomputes > 0;

  FILE* f = std::fopen("BENCH_spill.json", "w");
  if (f) {
    std::fprintf(
        f,
        "{\n"
        "  \"smoke\": %s,\n"
        "  \"n\": %zu,\n"
        "  \"visited_budget_bytes\": %llu,\n"
        "  \"frontier_budget_bytes\": %llu,\n"
        "  \"in_ram_ceiling_states\": %llu,\n"
        "  \"states\": %llu,\n"
        "  \"beyond_ram_ratio\": %.3f,\n"
        "  \"identity_1w\": %s,\n"
        "  \"identity_4w\": %s,\n"
        "  \"identity_frontier\": %s,\n"
        "  \"peak_resident_bytes\": %llu,\n"
        "  \"visited_spilled_bytes\": %llu,\n"
        "  \"spill_io_bytes\": %llu,\n"
        "  \"bloom_fp_rate\": %.5f,\n"
        "  \"anchor_evictions\": %llu,\n"
        "  \"anchor_recomputes\": %llu,\n"
        "  \"unbounded_ms\": %.1f,\n"
        "  \"budgeted_ms\": %.1f,\n"
        "  \"frontier_ms\": %.1f\n"
        "}\n",
        smoke ? "true" : "false", n, (unsigned long long)visited_budget,
        (unsigned long long)frontier_budget, (unsigned long long)ceiling,
        (unsigned long long)unbounded.res.stats.states, ratio,
        identity_1w ? "true" : "false", identity_4w ? "true" : "false",
        identity_fr ? "true" : "false", (unsigned long long)peak,
        (unsigned long long)budgeted.res.stats.visited_spilled_bytes,
        (unsigned long long)budgeted.res.stats.spilled_bytes, fp,
        (unsigned long long)frontier.res.stats.anchor_evictions,
        (unsigned long long)frontier.res.stats.anchor_recomputes,
        unbounded.ms, budgeted.ms, frontier.ms);
    std::fclose(f);
    std::printf("\nwrote BENCH_spill.json\n");
  }

  bool ok = true;
  std::printf("\n");
  if (!smoke) {
    std::printf("beyond-RAM gate: %llu states vs in-RAM ceiling %llu -> "
                "%.2fx (need >= 10x) -> %s\n",
                (unsigned long long)unbounded.res.stats.states,
                (unsigned long long)ceiling, ratio,
                ratio >= 10.0 ? "OK" : "FAIL");
    if (ratio < 10.0) ok = false;
    std::printf("resident gate: peak %.1f KiB vs budget %.1f KiB (need "
                "<= 1.5x) -> %s\n",
                peak / 1024.0, visited_budget / 1024.0,
                peak <= visited_budget + visited_budget / 2 ? "OK" : "FAIL");
    if (peak > visited_budget + visited_budget / 2) ok = false;
    std::printf("bloom gate: fp rate %.4f (need <= 0.10, spill > 0: %s) "
                "-> %s\n",
                fp, spilled ? "yes" : "NO",
                fp <= 0.10 && spilled ? "OK" : "FAIL");
    if (fp > 0.10 || !spilled) ok = false;
  } else {
    std::printf("smoke mode: ratio/resident/bloom gates skipped "
                "(ratio %.2fx, peak %.1f KiB, fp %.4f, spilled %s)\n",
                ratio, peak / 1024.0, fp, spilled ? "yes" : "no");
    if (!spilled) {
      std::printf("smoke gate: budgeted run never spilled -> FAIL\n");
      ok = false;
    }
  }
  std::printf("identity gate: 1w %s, 4w %s, frontier %s -> %s\n",
              identity_1w ? "OK" : "FAIL", identity_4w ? "OK" : "FAIL",
              identity_fr ? "OK" : "FAIL",
              identity_1w && identity_4w && identity_fr ? "OK" : "FAIL");
  if (!identity_1w || !identity_4w || !identity_fr) ok = false;
  std::printf("eviction gate: evictions %llu, recomputes %llu (need both "
              "> 0) -> %s\n",
              (unsigned long long)frontier.res.stats.anchor_evictions,
              (unsigned long long)frontier.res.stats.anchor_recomputes,
              evicted ? "OK" : "FAIL");
  if (!evicted) ok = false;
  return ok ? 0 : 1;
}
