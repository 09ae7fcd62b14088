// Figure 5 — The Healer: user intervention and dynamic updates fix the
// distributed application.
//
// The paper's two recovery options (§3.4): restart the corrected program
// from the beginning, or roll back to a safe checkpoint and dynamically
// update in place, keeping "computation that was correctly performed while
// executing the faulty program". This bench quantifies the difference:
// total events to completion and work retained, as a function of how far
// into the run the fault strikes.
// The timeout-healing rows quantify the third recovery shape this repo
// adds (docs/ROBUSTNESS.md): when the bug is a configuration value, the
// TimeoutTuner searches and validates a new timeout instead of swapping
// code — the cost is the probe count and the states each validation
// explores. Emits BENCH_heal.json (archived by the perf workflow).
#include <cstdio>
#include <vector>

#include "apps/kv_lag.hpp"
#include "apps/token_ring.hpp"
#include "apps/tpc_stall.hpp"
#include "bench_util.hpp"
#include "ckpt/timemachine.hpp"
#include "fault/injector.hpp"
#include "heal/healer.hpp"
#include "heal/timeout_tuner.hpp"

namespace {

using namespace fixd;

struct Outcome {
  bool ok = false;
  std::uint64_t work_at_fault = 0;
  std::uint64_t work_retained = 0;
  std::uint64_t total_steps = 0;
  double ms = 0;
};

// Run the buggy ring until the injected double-token fault, then recover
// with the chosen strategy and finish the workload.
Outcome run_with_strategy(bool rollback_update, std::uint64_t fault_at,
                          std::uint64_t rounds) {
  apps::TokenRingConfig cfg;
  cfg.target_rounds = rounds;
  cfg.timeout = 50;
  auto w = apps::make_token_ring_world(4, 1, cfg);

  ckpt::TimeMachineOptions topt;
  topt.cic = true;
  ckpt::TimeMachine tm(*w, topt);
  tm.attach();
  rt::WorldSnapshot initial = w->snapshot();

  // The v1 bug needs the timeout race; inject it: force a premature timer by
  // dropping the token once so the timeout regenerates it while the original
  // is re-injected... simpler and fully deterministic: corrupt the state so
  // the invariant trips at `fault_at`.
  fault::FaultInjector inj;
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kCustom;
  spec.at_step = fault_at;
  spec.custom = [](rt::World& world) {
    // Duplicate the in-flight token: the exact double-token state the v1
    // timeout race produces.
    for (const net::Message* m : world.network().pending()) {
      if (m->tag == apps::kTokenTag) {
        world.network().duplicate(m->id);
        return;
      }
    }
  };
  inj.add(spec);
  inj.attach(*w);

  bench::WallTimer t;
  Outcome out;
  rt::RunResult r1 = w->run(1000000);
  out.total_steps = r1.steps;
  out.work_at_fault = apps::token_ring_total_work(*w);
  if (r1.reason != rt::StopReason::kViolation) {
    // Fault did not trip (e.g. workload ended first): report as-is.
    out.ok = !w->has_violation();
    out.work_retained = out.work_at_fault;
    out.ms = t.ms();
    return out;
  }

  inj.detach(*w);
  heal::PatchRegistry patches;
  auto patch = apps::token_ring_fix_patch(cfg);

  if (rollback_update) {
    ProcessId failed =
        w->violations().front().pid == kNoProcess
            ? 0
            : w->violations().front().pid;
    std::size_t idx = tm.store(failed).size() - 1;
    tm.rollback_to(failed, idx ? idx - 1 : 0);
    w->clear_violations();
    heal::Healer healer(*w, [] {
      heal::HealOptions ho;
      ho.require_quiescent_inbound = false;  // rollback point is consistent
      return ho;
    }());
    heal::HealReport hr = healer.apply_all(patch);
    if (!hr.ok) {
      out.ok = false;
      out.ms = t.ms();
      return out;
    }
    out.work_retained = apps::token_ring_total_work(*w);
  } else {
    w->restore(initial);
    w->clear_violations();
    heal::Healer healer(*w, [] {
      heal::HealOptions ho;
      ho.require_quiescent_inbound = false;
      return ho;
    }());
    (void)healer.apply_all(patch);
    out.work_retained = apps::token_ring_total_work(*w);  // == 0-ish
  }
  tm.reset();

  rt::RunResult r2 = w->run(1000000);
  out.total_steps += r2.steps;
  out.ok = r2.reason == rt::StopReason::kAllHalted && !w->has_violation();
  out.ms = t.ms();
  return out;
}

struct TunerRow {
  const char* scenario;
  bool ok = false;
  std::uint64_t from = 0;
  std::uint64_t healed = 0;
  std::size_t probes = 0;
  std::uint64_t states = 0;
  double ms = 0;
};

mc::SysExploreOptions timed_delay_validate() {
  mc::SysExploreOptions o;
  o.order = mc::SearchOrder::kBfs;
  o.abstract_time = false;
  o.model_message_delay = true;
  o.max_states = 60000;
  return o;
}

TunerRow tune_scenario(const char* name, rt::World& w,
                       heal::TimeoutSite site,
                       std::function<void(rt::World&)> install) {
  heal::TunerOptions topts;
  topts.validate = timed_delay_validate();
  topts.validate.install_invariants = std::move(install);
  bench::WallTimer t;
  heal::TimeoutTuner tuner(w, site, topts);
  heal::TunerResult res = tuner.tune();
  TunerRow row;
  row.scenario = name;
  row.ok = res.ok;
  row.from = site.current;
  row.healed = res.healed_value;
  row.probes = res.trajectory.size();
  row.states = res.states_explored();
  row.ms = t.ms();
  return row;
}

}  // namespace

int main() {
  std::printf("FixD reproduction — Figure 5: the Healer (restart vs "
              "rollback + dynamic update)\n");

  const std::uint64_t rounds = 60;
  bench::header("Token ring, 4 processes, 60 rounds; fault at varying depth");
  bench::row("%-9s %-18s %5s %10s %10s %10s %8s", "fault@", "strategy",
             "ok", "work@fault", "retained", "steps", "ms");
  bench::rule();

  struct StrategyRow {
    std::uint64_t frac;
    bool rollback;
    Outcome o;
  };
  std::vector<StrategyRow> srows;
  for (std::uint64_t frac : {10, 30, 50, 70, 90}) {
    std::uint64_t fault_at = rounds * 4 * frac / 100;  // ~steps into the run
    for (bool rollback : {false, true}) {
      Outcome o = run_with_strategy(rollback, fault_at, rounds);
      bench::row("%7llu%% %-18s %5s %10llu %10llu %10llu %8.1f",
                 (unsigned long long)frac,
                 rollback ? "rollback+update" : "restart",
                 o.ok ? "yes" : "NO",
                 (unsigned long long)o.work_at_fault,
                 (unsigned long long)o.work_retained,
                 (unsigned long long)o.total_steps, o.ms);
      srows.push_back({frac, rollback, o});
    }
  }

  // Timeout healing: the tuner searches the timeout value, validating
  // each candidate by timed re-exploration under the delay model.
  bench::header("Timeout healing (TimeoutTuner): seeded config bugs");
  bench::row("%-12s %4s %6s %7s %7s %10s %8s", "scenario", "ok", "from",
             "healed", "probes", "states", "ms");
  bench::rule();

  std::vector<TunerRow> trows;
  {
    apps::KvLagConfig cfg;
    cfg.total_ops = 1;
    auto w = apps::make_kv_lag_world(2, cfg);
    trows.push_back(tune_scenario("kv-lag", *w,
                                  apps::kv_lag_timeout_site(cfg),
                                  apps::install_kv_lag_invariants));
  }
  {
    apps::TpcStallConfig cfg;
    auto w = apps::make_tpc_stall_world(2, cfg);
    trows.push_back(tune_scenario("tpc-stall", *w,
                                  apps::tpc_stall_timeout_site(cfg),
                                  apps::install_tpc_stall_invariants));
  }
  for (const TunerRow& r : trows) {
    bench::row("%-12s %4s %6llu %7llu %7zu %10llu %8.1f", r.scenario,
               r.ok ? "yes" : "NO", (unsigned long long)r.from,
               (unsigned long long)r.healed, r.probes,
               (unsigned long long)r.states, r.ms);
  }

  // Machine-readable record (BENCH_heal.json): heal success per strategy
  // and depth, plus tuner iterations-to-converge per timeout scenario.
  std::size_t heal_ok = 0;
  for (const auto& s : srows) heal_ok += s.o.ok ? 1 : 0;
  FILE* f = std::fopen("BENCH_heal.json", "w");
  if (f) {
    std::fprintf(f, "{\n  \"strategies\": [\n");
    for (std::size_t i = 0; i < srows.size(); ++i) {
      const auto& s = srows[i];
      std::fprintf(f,
                   "    {\"fault_frac\": %llu, \"strategy\": \"%s\", "
                   "\"ok\": %s, \"work_at_fault\": %llu, "
                   "\"work_retained\": %llu, \"total_steps\": %llu, "
                   "\"ms\": %.2f}%s\n",
                   (unsigned long long)s.frac,
                   s.rollback ? "rollback+update" : "restart",
                   s.o.ok ? "true" : "false",
                   (unsigned long long)s.o.work_at_fault,
                   (unsigned long long)s.o.work_retained,
                   (unsigned long long)s.o.total_steps, s.o.ms,
                   i + 1 < srows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"heal_success_rate\": %.3f,\n  \"tuner\": [\n",
                 srows.empty() ? 0.0
                               : (double)heal_ok / (double)srows.size());
    for (std::size_t i = 0; i < trows.size(); ++i) {
      const TunerRow& r = trows[i];
      std::fprintf(f,
                   "    {\"scenario\": \"%s\", \"ok\": %s, \"from\": %llu, "
                   "\"healed_value\": %llu, \"probes\": %zu, "
                   "\"states\": %llu, \"ms\": %.2f}%s\n",
                   r.scenario, r.ok ? "true" : "false",
                   (unsigned long long)r.from, (unsigned long long)r.healed,
                   r.probes, (unsigned long long)r.states, r.ms,
                   i + 1 < trows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_heal.json\n");
  }

  std::printf(
      "\nShape check (paper): rollback+update retains nearly all work done\n"
      "before the fault, so total steps to completion stay flat; restart\n"
      "pays the full re-execution, growing with fault depth. The tuner\n"
      "rows converge in a handful of probes to a validated timeout.\n");
  return 0;
}
