// Ablation A1 — the Investigator's reduction machinery.
//
// DESIGN.md calls out the explorer's reduction choices: canonical-digest
// state deduplication and dynamic partial-order reduction with
// footprint-exact independence (SysExploreOptions::por). This ablation
// measures each layer: states, transitions, wall time, and whether the
// seeded violation is still found.
//
// Gated (exit code, enforced by CI and the perf workflow):
//   - 2pc v1 n=6, BFS, exhaustive: dedup+por must visit <= 1/2 the
//     states of dedup alone (the reduction is far larger in practice —
//     POR collapses the prepare/vote interleaving lattice to its
//     dependency classes) at *equal violation coverage* (identical
//     violation-name sets);
//   - two consecutive reduced runs must produce byte-identical violation
//     trails (the reduction is deterministic, so its counterexamples are
//     reproducible artifacts).
// Results land in BENCH_ablation_por.json.
#include <cstdio>
#include <set>
#include <string>

#include "apps/elect_split.hpp"
#include "apps/token_ring.hpp"
#include "apps/two_phase_commit.hpp"
#include "bench_util.hpp"
#include "mc/sysmodel.hpp"

namespace {

using namespace fixd;

struct ConfigResult {
  mc::SysExploreResult res;
  double ms = 0.0;
};

/// One BFS run; `partition` adds the single-cut partition model the
/// split-brain needs (model_partition, max_cut_links = 1).
ConfigResult run_config(const char* app, rt::World& w,
                        const std::function<void(rt::World&)>& installer,
                        bool dedup, bool por, std::size_t max_states,
                        std::size_t max_depth = 48, bool partition = false) {
  mc::SysExploreOptions o;
  o.order = mc::SearchOrder::kBfs;
  o.max_states = max_states;
  o.max_depth = max_depth;
  o.max_violations = 1u << 20;  // keep exploring: measure coverage, not TTF
  o.dedup = dedup;
  o.por = por;
  if (partition) {
    o.model_partition = true;
    o.max_cut_links = 1;
  }
  o.install_invariants = installer;
  mc::SystemExplorer ex(w, o);
  bench::WallTimer t;
  ConfigResult out;
  out.res = ex.explore();
  out.ms = t.ms();
  bench::row("%-12s %5s %4s %9llu %11llu %7llu %6zu %9.1f", app,
             dedup ? "on" : "off", por ? "on" : "off",
             (unsigned long long)out.res.stats.states,
             (unsigned long long)out.res.stats.transitions,
             (unsigned long long)out.res.stats.duplicates,
             out.res.violations.size(), out.ms);
  return out;
}

std::set<std::string> violation_names(const mc::SysExploreResult& r) {
  std::set<std::string> s;
  for (const auto& v : r.violations) s.insert(v.violation.invariant);
  return s;
}

std::string rendered_trails(const mc::SysExploreResult& r) {
  std::string all;
  for (const auto& v : r.violations) {
    all += v.violation.invariant;
    all += '\n';
    all += v.trail.render();
    all += '\n';
  }
  return all;
}

void sweep_header() {
  bench::row("%-12s %5s %4s %9s %11s %7s %6s %9s", "app", "dedup", "por",
             "states", "trans", "dups", "bugs", "ms");
  bench::rule();
}

}  // namespace

int main() {
  std::printf("FixD reproduction — ablation: dedup and dynamic partial-order "
              "reduction in the Investigator\n");

  bench::header("token-ring v1 (3 procs, seeded double-token bug)");
  sweep_header();
  for (bool dedup : {true, false}) {
    for (bool por : {false, true}) {
      apps::TokenRingConfig cfg;
      cfg.target_rounds = 2;
      auto w = apps::make_token_ring_world(3, 1, cfg);
      run_config("token-ring", *w, apps::install_token_ring_invariants,
                 dedup, por, 20000);
    }
  }

  bench::header("2pc v2 (3 procs, full verification sweep — no bug)");
  sweep_header();
  for (bool dedup : {true, false}) {
    for (bool por : {false, true}) {
      apps::TwoPcConfig cfg;
      cfg.total_txns = 1;
      auto w = apps::make_two_pc_world(3, 2, cfg);
      run_config("2pc-v2", *w, apps::install_two_pc_invariants, dedup, por,
                 60000);
    }
  }

  // The split-brain needs a link cut: partition/heal footprints and the
  // cut budget under reduction, exhaustively (nothing truncates).
  bench::header("elect v1 (3 procs, split-brain behind one cut)");
  sweep_header();
  for (bool por : {false, true}) {
    auto w = apps::make_elect_split_world(3, 1);
    run_config("elect-cut", *w, apps::install_elect_split_invariants,
               /*dedup=*/true, por, 2000000, 1u << 20, /*partition=*/true);
  }

  // --- The gated configuration: 2pc v1 n=6, exhaustive --------------------
  bench::header("2pc v1 (6 procs, presumed-commit bug) — the POR gate");
  sweep_header();
  apps::TwoPcConfig cfg6;
  cfg6.total_txns = 1;
  auto w6 = apps::make_two_pc_world(6, 1, cfg6);
  // max_depth far beyond the protocol diameter: neither side truncates,
  // so the state counts and violation sets are exact.
  auto unreduced = run_config("2pc-v1-n6", *w6, apps::install_two_pc_invariants,
                              /*dedup=*/true, /*por=*/false, 2000000, 1u << 20);
  auto reduced = run_config("2pc-v1-n6", *w6, apps::install_two_pc_invariants,
                            /*dedup=*/true, /*por=*/true, 2000000, 1u << 20);
  auto reduced2 = run_config("2pc-v1-n6", *w6, apps::install_two_pc_invariants,
                             /*dedup=*/true, /*por=*/true, 2000000, 1u << 20);

  const double reduction =
      reduced.res.stats.states > 0
          ? static_cast<double>(unreduced.res.stats.states) /
                static_cast<double>(reduced.res.stats.states)
          : 0.0;
  const bool coverage_equal =
      violation_names(reduced.res) == violation_names(unreduced.res) &&
      !violation_names(reduced.res).empty();
  const bool deterministic =
      rendered_trails(reduced.res) == rendered_trails(reduced2.res) &&
      !reduced.res.violations.empty();

  FILE* f = std::fopen("BENCH_ablation_por.json", "w");
  if (f) {
    std::fprintf(
        f,
        "{\n"
        "  \"config\": \"2pc-v1 n=6 bfs exhaustive\",\n"
        "  \"unreduced_states\": %llu,\n"
        "  \"unreduced_transitions\": %llu,\n"
        "  \"reduced_states\": %llu,\n"
        "  \"reduced_transitions\": %llu,\n"
        "  \"por_deferred\": %llu,\n"
        "  \"por_backtracks\": %llu,\n"
        "  \"states_reduction\": %.3f,\n"
        "  \"coverage_equal\": %s,\n"
        "  \"trails_deterministic\": %s,\n"
        "  \"unreduced_wall_ms\": %.2f,\n"
        "  \"reduced_wall_ms\": %.2f\n"
        "}\n",
        (unsigned long long)unreduced.res.stats.states,
        (unsigned long long)unreduced.res.stats.transitions,
        (unsigned long long)reduced.res.stats.states,
        (unsigned long long)reduced.res.stats.transitions,
        (unsigned long long)reduced.res.stats.por_deferred,
        (unsigned long long)reduced.res.stats.por_backtracks,
        reduction, coverage_equal ? "true" : "false",
        deterministic ? "true" : "false", unreduced.ms, reduced.ms);
    std::fclose(f);
    std::printf("\nwrote BENCH_ablation_por.json\n");
  }

  std::printf(
      "\nShape check: dedup collapses the interleaving lattice (orders of\n"
      "magnitude fewer states); POR defers whole independence classes; the\n"
      "seeded violation is found in every configuration.\n\n");

  bool ok = true;
  std::printf("por gate: n=6 states %llu -> %llu = %.1fx reduction "
              "(need >= 2.0x) -> %s\n",
              (unsigned long long)unreduced.res.stats.states,
              (unsigned long long)reduced.res.stats.states, reduction,
              reduction >= 2.0 ? "OK" : "FAIL");
  if (reduction < 2.0) ok = false;
  std::printf("por gate: violation coverage %s (reduced invariant set: {",
              coverage_equal ? "equal" : "DIFFERS");
  for (const auto& nm : violation_names(reduced.res)) {
    std::printf(" %s", nm.c_str());
  }
  std::printf(" }) -> %s\n", coverage_equal ? "OK" : "FAIL");
  if (!coverage_equal) ok = false;
  std::printf("por gate: two reduced runs byte-identical trails -> %s\n",
              deterministic ? "OK" : "FAIL");
  if (!deterministic) ok = false;
  if (unreduced.res.stats.truncated || reduced.res.stats.truncated) {
    std::printf("por gate: truncated run (budget too small) -> FAIL\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
