// Figure 4 — Response of the FixD mechanism during fault detection.
//
// End-to-end pipeline cost, per phase: run-until-detection, rollback to a
// consistent line, collection of checkpoints+models from the other
// processes (control-plane messages and bytes — the Fig. 4 exchange),
// investigation, and healing. One row per application, including the
// timeout-fault scenario where recovery is a TimeoutTuner configuration
// heal rather than a registry code swap (docs/ROBUSTNESS.md).
//
// Emits BENCH_fault.json (archived by the scheduled perf workflow). Exits 1
// when a row does not complete, or heals through a rung other than the one
// it documents (CI runs it).
#include <cstdio>
#include <vector>

#include "apps/elect_split.hpp"
#include "apps/kv_lag.hpp"
#include "apps/kv_store.hpp"
#include "apps/leader_election.hpp"
#include "apps/rep_counter.hpp"
#include "bench_util.hpp"
#include "core/fixd.hpp"
#include "fault/injector.hpp"

namespace {

using namespace fixd;

/// The ladder rung a row documents.
enum class Heals {
  kCodeFix,      ///< one registry patch or one restart (either may land)
  kTimeoutHeal,  ///< the timeout tuner, with no restart
  kLineHeal,     ///< the recovery-line rung, with no restart
  kRestart,      ///< the §3.4 restart
};

struct Case {
  const char* name;
  std::function<std::unique_ptr<rt::World>()> make;
  std::function<void(rt::World&)> installer;
  heal::UpdatePatch patch;  ///< registry heal (empty target_type = none)
  mc::SearchOrder order = mc::SearchOrder::kRandomWalk;
  /// Extra controller configuration (timeout tuning, TM policy, ...).
  std::function<void(core::FixdOptions&)> tweak;
  /// Environment misbehaviour driving the fault (attached before the run).
  std::function<void(fault::FaultInjector&)> inject;
  Heals heals = Heals::kCodeFix;
};

struct Row {
  const char* name;
  bool completed = false;
  std::size_t faults = 0;
  std::uint64_t detect_step = 0;  ///< world step at first detection
  core::PhaseBreakdown phases;
  std::uint64_t ctl_msgs = 0;
  std::uint64_t ctl_bytes = 0;
  std::size_t heals = 0;
  std::size_t timeout_heals = 0;
  std::size_t restarts = 0;
  std::size_t tuner_probes = 0;
  std::uint64_t tuner_states = 0;
  std::uint64_t healed_value = 0;
  std::size_t line_heals = 0;  ///< successful kRecoveryLine rungs
  Heals expect = Heals::kCodeFix;
};

/// Did the row complete through the rung it documents?
bool heals_as_documented(const Row& r) {
  if (!r.completed) return false;
  switch (r.expect) {
    case Heals::kCodeFix: return r.heals + r.restarts == 1;
    case Heals::kTimeoutHeal:
      return r.heals == 1 && r.timeout_heals == 1 && r.restarts == 0;
    case Heals::kLineHeal: return r.line_heals == 1 && r.restarts == 0;
    case Heals::kRestart: return r.restarts == 1;
  }
  return false;
}

Row run_case(const Case& c) {
  auto w = c.make();
  fault::FaultInjector inj;
  if (c.inject) {
    c.inject(inj);
    inj.attach(*w);
  }
  heal::PatchRegistry patches;
  if (!c.patch.target_type.empty()) patches.add(c.patch);
  core::FixdOptions o;
  o.install_invariants = c.installer;
  o.investigate.order = c.order;
  o.investigate.max_states = 20000;
  o.investigate.max_depth = 160;
  o.investigate.walk_restarts = 64;
  if (c.tweak) c.tweak(o);
  core::FixdController fixd(*w, o, patches);
  core::FixdReport rep = fixd.run_protected();

  Row row;
  row.name = c.name;
  row.expect = c.heals;
  row.completed = rep.completed;
  row.faults = rep.faults_detected;
  row.phases = rep.phases;
  row.heals = rep.heals_applied;
  row.timeout_heals = rep.timeout_heals;
  row.restarts = rep.restarts;
  if (!rep.bugs.empty()) {
    row.detect_step = rep.bugs[0].violation.step;
    row.ctl_msgs = rep.bugs[0].collect.control_messages;
    row.ctl_bytes = rep.bugs[0].collect.control_bytes;
  }
  for (const heal::TunerResult& t : rep.tunes) {
    row.tuner_probes += t.trajectory.size();
    row.tuner_states += t.states_explored();
    if (t.ok) row.healed_value = t.healed_value;
  }
  for (const core::RungOutcome& ro : rep.ladder) {
    if (ro.rung == core::RecoveryRung::kRecoveryLine && ro.ok) {
      ++row.line_heals;
    }
  }
  bench::row("%-14s %5s %6zu %7.1f %8.1f %7.1f %11.1f %7.1f %8llu %9llu",
             c.name, row.completed ? "yes" : "NO", row.faults,
             row.phases.run_ms, row.phases.rollback_ms,
             row.phases.collect_ms, row.phases.investigate_ms,
             row.phases.heal_ms, (unsigned long long)row.ctl_msgs,
             (unsigned long long)row.ctl_bytes);
  return row;
}

}  // namespace

int main() {
  std::printf("FixD reproduction — Figure 4: fault-response pipeline "
              "(detect -> rollback -> collect -> investigate -> heal)\n");

  bench::header("Per-application pipeline phases (ms) and Fig.4 exchange");
  bench::row("%-14s %5s %6s %7s %8s %7s %11s %7s %8s %9s", "app", "done",
             "faults", "run", "rollback", "collect", "investigate", "heal",
             "ctl-msgs", "ctl-bytes");
  bench::rule();

  std::vector<Row> rows;

  Case counter{
      "rep-counter",
      [] { return apps::make_counter_world(4, 1, apps::CounterConfig{6}); },
      apps::install_counter_invariants,
      apps::counter_fix_patch(apps::CounterConfig{6}),
  };
  rows.push_back(run_case(counter));

  Case election{
      "election",
      [] {
        apps::ElectionConfig cfg;
        std::uint64_t seed = apps::find_colliding_env_seed(5, cfg);
        rt::WorldOptions wopts;
        wopts.env_seed = seed;
        return apps::make_election_world(5, 1, cfg, wopts);
      },
      apps::install_election_invariants,
      apps::election_fix_patch(apps::ElectionConfig{}),
  };
  rows.push_back(run_case(election));

  Case kv{
      "kv-store",
      [] {
        apps::KvConfig cfg;
        cfg.total_ops = 40;
        cfg.key_space = 2;
        // A latency pattern known to reorder conflicting writes is found by
        // scanning; use a deterministic scan here too.
        for (std::uint64_t seed = 1; seed <= 200; ++seed) {
          rt::WorldOptions wopts;
          wopts.net = net::NetworkOptions::reordering();
          wopts.net.seed = seed * 7919;
          auto probe = apps::make_kv_world(2, 1, cfg, wopts);
          if (probe->run(100000).reason == rt::StopReason::kViolation) {
            return apps::make_kv_world(2, 1, cfg, wopts);
          }
        }
        return apps::make_kv_world(2, 1, cfg);  // unreachable in practice
      },
      apps::install_kv_invariants,
      apps::kv_fix_patch([] {
        apps::KvConfig cfg;
        cfg.total_ops = 40;
        cfg.key_space = 2;
        return cfg;
      }()),
  };
  rows.push_back(run_case(kv));

  // The timeout-fault scenario: the environment delays one delivery past
  // the seeded (too short) retransmit timeout; recovery is a TimeoutTuner
  // configuration heal, not a registry code swap.
  apps::KvLagConfig lag_cfg;
  lag_cfg.total_ops = 1;
  Case lag{
      "kv-lag(delay)",
      [lag_cfg] { return apps::make_kv_lag_world(2, lag_cfg); },
      apps::install_kv_lag_invariants,
      heal::UpdatePatch{},  // no registry patch: the tuner synthesizes it
      mc::SearchOrder::kBfs,
      [lag_cfg](core::FixdOptions& o) {
        o.investigate.order = mc::SearchOrder::kBfs;
        o.tm.cic = false;  // initial checkpoints: rollback to the start
        o.attempt_timeout_tuning = true;
        o.timeout_site = apps::kv_lag_timeout_site(lag_cfg);
        o.tuner.validate.order = mc::SearchOrder::kBfs;
        o.tuner.validate.abstract_time = false;
        o.tuner.validate.model_message_delay = true;
        o.tuner.validate.max_states = 60000;
      },
      [](fault::FaultInjector& inj) {
        fault::FaultSpec delay;
        delay.kind = fault::FaultKind::kMessageDelay;
        delay.target = 1;
        delay.delay_min = 20;
        delay.delay_max = 20;
        inj.add(delay);
      },
      Heals::kTimeoutHeal,
  };
  rows.push_back(run_case(lag));

  // Partition family: a live asymmetric cut split-brains the election.
  // No registry patch applies, so recovery is the ladder's line rung —
  // roll the whole system behind the partition onset, heal the cut,
  // resume (docs/ROBUSTNESS.md, escalation ladder).
  Case split{
      "elect-split(cut)",
      [] { return apps::make_elect_split_world(3, 1); },
      apps::install_elect_split_invariants,
      heal::UpdatePatch{},  // no patch: the line rung heals the cut
      mc::SearchOrder::kBfs,
      [](core::FixdOptions& o) {
        o.investigate.order = mc::SearchOrder::kBfs;
        o.investigate.max_states = 2000;
        o.investigate.max_depth = 30;
        o.investigate.model_partition = true;
        o.line_budget = 2;
        o.restart_on_heal_failure = false;
      },
      [](fault::FaultInjector& inj) {
        fault::FaultSpec cut;
        cut.kind = fault::FaultKind::kPartition;
        cut.group_a = {0};
        cut.group_b = {2};
        cut.symmetric = false;  // the split-brain shape; never self-heals
        inj.add(cut);
      },
      Heals::kLineHeal,
  };
  rows.push_back(run_case(split));

  // Crash-restart family: the backup crashes before the op lands, the
  // primary's retransmits pile up while it is down, and the durable
  // restart applies every copy — at-least-once over non-idempotent state.
  // No patch and no timeout site: recovery is the §3.4 restart.
  apps::KvLagConfig cr_cfg;
  cr_cfg.total_ops = 1;
  cr_cfg.retransmit_timeout = 8;
  Case crash_restart{
      "kv-lag(restart)",
      [cr_cfg] { return apps::make_kv_lag_world(2, cr_cfg); },
      apps::install_kv_lag_invariants,
      heal::UpdatePatch{},
      mc::SearchOrder::kBfs,
      [](core::FixdOptions& o) {
        o.investigate.order = mc::SearchOrder::kBfs;
        o.investigate.max_states = 4000;
        o.investigate.max_depth = 60;
        o.investigate.model_restart = true;
        o.tm.cic = false;  // initial checkpoints: rollback to the start
      },
      [](fault::FaultInjector& inj) {
        fault::FaultSpec cr;
        cr.kind = fault::FaultKind::kCrashRestart;
        cr.target = 1;
        cr.at_step = 2;
        cr.restart_min = 25;
        cr.restart_max = 25;
        inj.add(cr);
      },
      Heals::kRestart,
  };
  rows.push_back(run_case(crash_restart));

  // Machine-readable record (BENCH_fault.json, archived by the scheduled
  // perf workflow): detection latency, phase breakdown, recovery outcome,
  // and tuner convergence cost per scenario.
  FILE* f = std::fopen("BENCH_fault.json", "w");
  if (f) {
    std::fprintf(f, "{\n  \"cases\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          f,
          "    {\"app\": \"%s\", \"completed\": %s, \"faults\": %zu, "
          "\"detect_step\": %llu, \"run_ms\": %.2f, \"rollback_ms\": %.2f, "
          "\"collect_ms\": %.2f, \"investigate_ms\": %.2f, "
          "\"heal_ms\": %.2f, \"ctl_msgs\": %llu, \"ctl_bytes\": %llu, "
          "\"heals\": %zu, \"timeout_heals\": %zu, \"restarts\": %zu, "
          "\"line_heals\": %zu, \"tuner_probes\": %zu, "
          "\"tuner_states\": %llu, \"healed_value\": %llu}%s\n",
          r.name, r.completed ? "true" : "false", r.faults,
          (unsigned long long)r.detect_step, r.phases.run_ms,
          r.phases.rollback_ms, r.phases.collect_ms,
          r.phases.investigate_ms, r.phases.heal_ms,
          (unsigned long long)r.ctl_msgs, (unsigned long long)r.ctl_bytes,
          r.heals, r.timeout_heals, r.restarts, r.line_heals,
          r.tuner_probes, (unsigned long long)r.tuner_states,
          (unsigned long long)r.healed_value,
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_fault.json\n");
  }

  std::printf(
      "\nShape check (paper): detection is cheap; collection cost scales\n"
      "with checkpoint sizes (bytes column); investigation dominates the\n"
      "pipeline — which is why FixD bounds it with budgets. The kv-lag row\n"
      "recovers by timeout tuning: heals==timeout_heals==1, restarts==0.\n"
      "The elect-split row recovers by the ladder's line rung\n"
      "(line_heals==1, restarts==0); the kv-lag(restart) row by the §3.4\n"
      "restart (restarts==1); each code-bug row by one patch or one restart\n"
      "(heals+restarts==1).\n");
  bool ok = true;
  for (const Row& r : rows) {
    if (heals_as_documented(r)) continue;
    std::fprintf(stderr,
                 "FAIL: %s %s (heals=%zu timeout_heals=%zu line_heals=%zu "
                 "restarts=%zu)\n",
                 r.name, r.completed ? "healed through another rung"
                                     : "did not complete",
                 r.heals, r.timeout_heals, r.line_heals, r.restarts);
    ok = false;
  }
  return ok ? 0 : 1;
}
