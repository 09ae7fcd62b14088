// Timeout-bug scenarios + the TimeoutTuner: the Investigator finds the
// seeded configuration bugs in timed mode, the tuner converges on a
// validated fix, and the FixD controller closes the whole
// detect -> report -> recover loop with a timeout heal.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "apps/kv_lag.hpp"
#include "apps/tpc_stall.hpp"
#include "core/fixd.hpp"
#include "fault/injector.hpp"
#include "heal/timeout_tuner.hpp"
#include "mc/sysmodel.hpp"

namespace fixd {
namespace {

/// Timed exploration under the adversarial delay environment — the mode
/// in which a timeout's *value* is behaviorally meaningful.
mc::SysExploreOptions timed_delay_opts(
    std::function<void(rt::World&)> install) {
  mc::SysExploreOptions o;
  o.order = mc::SearchOrder::kBfs;
  o.abstract_time = false;
  o.model_message_delay = true;
  o.model_delay_quantum = 8;
  o.model_delay_horizon = 24;
  o.max_states = 60000;
  o.install_invariants = std::move(install);
  return o;
}

bool trail_touches_timeout_machinery(const mc::Trail& trail) {
  for (const mc::SysAction& step : trail.steps) {
    if (step.kind == mc::SysAction::Kind::kDelayMessage) {
      return true;
    }
    if (step.kind == mc::SysAction::Kind::kRuntime &&
        step.event.kind == rt::EventKind::kTimer) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// The seeded timeout bugs are findable (and replayable) in timed mode
// ---------------------------------------------------------------------------

TEST(TimeoutScenarios, KvLagRetransmitBugFoundTimed) {
  apps::KvLagConfig cfg;
  cfg.total_ops = 1;
  auto w = apps::make_kv_lag_world(2, cfg);
  mc::SystemExplorer explorer(
      *w, timed_delay_opts(apps::install_kv_lag_invariants));
  mc::SysExploreResult res = explorer.explore();

  ASSERT_TRUE(res.found_violation());
  const mc::SysViolation& v = res.violations.front();
  EXPECT_EQ(v.violation.invariant, "kv-lag/exactly-once");
  ASSERT_FALSE(v.trail.steps.empty());
  // The violating schedule exercises the timeout machinery: a delayed
  // delivery and/or the retransmit timer firing.
  EXPECT_TRUE(trail_touches_timeout_machinery(v.trail)) << v.trail.render();
  // The trail replays deterministically on a fresh clone.
  auto replayed = mc::SystemExplorer::replay_trail(
      *w, v.trail, apps::install_kv_lag_invariants, /*abstract_time=*/false);
  ASSERT_FALSE(replayed.empty());
  EXPECT_EQ(replayed.front().invariant, "kv-lag/exactly-once");
}

TEST(TimeoutScenarios, TpcStallDecisionBugFoundTimed) {
  apps::TpcStallConfig cfg;
  auto w = apps::make_tpc_stall_world(2, cfg);
  mc::SystemExplorer explorer(
      *w, timed_delay_opts(apps::install_tpc_stall_invariants));
  mc::SysExploreResult res = explorer.explore();

  ASSERT_TRUE(res.found_violation());
  const mc::SysViolation& v = res.violations.front();
  EXPECT_EQ(v.violation.invariant, "2pc/atomicity");
  ASSERT_FALSE(v.trail.steps.empty());
  EXPECT_TRUE(trail_touches_timeout_machinery(v.trail)) << v.trail.render();
  auto replayed = mc::SystemExplorer::replay_trail(
      *w, v.trail, apps::install_tpc_stall_invariants,
      /*abstract_time=*/false);
  ASSERT_FALSE(replayed.empty());
  EXPECT_EQ(replayed.front().invariant, "2pc/atomicity");
}

// ---------------------------------------------------------------------------
// TimeoutTuner convergence
// ---------------------------------------------------------------------------

TEST(TimeoutTuner, ConvergesOnKvLag) {
  apps::KvLagConfig cfg;
  cfg.total_ops = 1;
  auto w = apps::make_kv_lag_world(2, cfg);
  heal::TunerOptions topts;
  topts.validate = timed_delay_opts(apps::install_kv_lag_invariants);
  heal::TimeoutTuner tuner(*w, apps::kv_lag_timeout_site(cfg), topts);
  heal::TunerResult res = tuner.tune();

  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_GT(res.healed_value, cfg.retransmit_timeout);
  // The first rung probes the current (buggy) value and must fail —
  // otherwise there was nothing to tune.
  ASSERT_FALSE(res.trajectory.empty());
  EXPECT_EQ(res.trajectory.front().candidate, cfg.retransmit_timeout);
  EXPECT_FALSE(res.trajectory.front().passed);
  // The accepted value itself was validated directly (the bisection may
  // end on a failing midpoint, but never accepts one).
  bool accepted_was_probed_clean = false;
  for (const heal::TunerProbe& p : res.trajectory) {
    if (p.candidate == res.healed_value && p.passed) {
      accepted_was_probed_clean = true;
    }
  }
  EXPECT_TRUE(accepted_was_probed_clean);
  EXPECT_GT(res.states_explored(), 0u);

  // Independent acceptance check: apply the synthesized patch to a fresh
  // clone and re-explore — the healed configuration validates clean.
  auto clone = w->clone();
  heal::HealOptions hopts;
  hopts.require_quiescent_inbound = false;
  heal::Healer healer(*clone, hopts);
  heal::HealReport hr = healer.apply_all(res.patch);
  ASSERT_TRUE(hr.ok) << hr.error;
  EXPECT_EQ(clone->process(0).version(), 2u);
  const auto& prim =
      dynamic_cast<const apps::ILagReplica&>(std::as_const(*clone).process(0));
  EXPECT_EQ(prim.retransmit_timeout(), res.healed_value);
  mc::SystemExplorer recheck(
      *clone, timed_delay_opts(apps::install_kv_lag_invariants));
  EXPECT_FALSE(recheck.explore().found_violation());
}

TEST(TimeoutTuner, ConvergesOnTpcStall) {
  apps::TpcStallConfig cfg;
  auto w = apps::make_tpc_stall_world(2, cfg);
  heal::TunerOptions topts;
  topts.validate = timed_delay_opts(apps::install_tpc_stall_invariants);
  heal::TimeoutTuner tuner(*w, apps::tpc_stall_timeout_site(cfg), topts);
  heal::TunerResult res = tuner.tune();

  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_GT(res.healed_value, cfg.decision_timeout);

  auto clone = w->clone();
  heal::HealOptions hopts;
  hopts.require_quiescent_inbound = false;
  heal::Healer healer(*clone, hopts);
  ASSERT_TRUE(healer.apply_all(res.patch).ok);
  mc::SystemExplorer recheck(
      *clone, timed_delay_opts(apps::install_tpc_stall_invariants));
  EXPECT_FALSE(recheck.explore().found_violation());
}

TEST(TimeoutTuner, GivesUpAtItsBounds) {
  // A site whose candidates all rebuild the current (buggy) value: no
  // probe can pass, so the doubling ladder runs to the largest timeout the
  // tuner will try and gives up there, within its probe budget.
  apps::KvLagConfig cfg;
  cfg.total_ops = 1;
  auto w = apps::make_kv_lag_world(2, cfg);
  heal::TimeoutSite site = apps::kv_lag_timeout_site(cfg);
  site.make_patch = [build = site.make_patch, cur = site.current](
                        VirtualTime) { return build(cur); };
  heal::TunerOptions topts;
  topts.validate = timed_delay_opts(apps::install_kv_lag_invariants);
  heal::TimeoutTuner tuner(*w, site, topts);
  heal::TunerResult res = tuner.tune();

  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("16384"), std::string::npos) << res.error;
  EXPECT_LE(res.trajectory.size(), 24u);
  ASSERT_GT(res.trajectory.size(), 1u);
  for (const heal::TunerProbe& p : res.trajectory) EXPECT_FALSE(p.passed);
  EXPECT_LE(res.trajectory.back().candidate, 16384u);
  EXPECT_GT(res.trajectory.back().candidate, 16384u / 2);
}

TEST(TimeoutTuner, TrajectoryIsDeterministic) {
  apps::KvLagConfig cfg;
  cfg.total_ops = 1;
  auto w = apps::make_kv_lag_world(2, cfg);
  heal::TunerOptions topts;
  topts.validate = timed_delay_opts(apps::install_kv_lag_invariants);

  heal::TimeoutTuner a(*w, apps::kv_lag_timeout_site(cfg), topts);
  heal::TunerResult ra = a.tune();
  heal::TimeoutTuner b(*w, apps::kv_lag_timeout_site(cfg), topts);
  heal::TunerResult rb = b.tune();

  // Byte-identical trajectories: same probes, same verdicts, same costs.
  ASSERT_EQ(ra.trajectory.size(), rb.trajectory.size());
  for (std::size_t i = 0; i < ra.trajectory.size(); ++i) {
    EXPECT_EQ(ra.trajectory[i].candidate, rb.trajectory[i].candidate);
    EXPECT_EQ(ra.trajectory[i].passed, rb.trajectory[i].passed);
    EXPECT_EQ(ra.trajectory[i].violations, rb.trajectory[i].violations);
    EXPECT_EQ(ra.trajectory[i].states, rb.trajectory[i].states);
  }
  EXPECT_EQ(ra.ok, rb.ok);
  EXPECT_EQ(ra.healed_value, rb.healed_value);
  EXPECT_EQ(ra.trajectory_digest(), rb.trajectory_digest());
  // The tuner never mutates the base world.
  EXPECT_FALSE(w->has_violation());
  EXPECT_EQ(w->step_count(), 0u);
}

// ---------------------------------------------------------------------------
// Delay-model enumeration is a pure function of world state
// ---------------------------------------------------------------------------

TEST(TimeoutScenarios, TimedDelayVisitedSetMatchesUncachedEnabledOracle) {
  // The enabled-event index is an incremental cache; the timed delay model
  // enumerates from it. Differential check: exploration with the index
  // disabled (oracle scan) visits the identical canonical state set.
  apps::KvLagConfig cfg;
  cfg.total_ops = 1;
  auto run = [&](bool use_index) {
    auto w = apps::make_kv_lag_world(2, cfg);
    w->set_use_enabled_index(use_index);
    mc::SysExploreOptions o =
        timed_delay_opts(apps::install_kv_lag_invariants);
    o.model_delay_horizon = 16;  // bound the space; shape is unchanged
    o.max_violations = 1 << 20;  // exhaust, don't stop at the first bug
    o.collect_visited = true;
    mc::SystemExplorer ex(*w, o);
    return ex.explore();
  };
  mc::SysExploreResult cached = run(true);
  mc::SysExploreResult oracle = run(false);
  EXPECT_GT(cached.stats.states, 0u);
  EXPECT_EQ(cached.stats.states, oracle.stats.states);
  EXPECT_EQ(cached.visited, oracle.visited);
}

// ---------------------------------------------------------------------------
// End to end: detect -> report -> recover with a timeout heal
// ---------------------------------------------------------------------------

TEST(FixdPipeline, TimeoutHealClosesLoop) {
  apps::KvLagConfig cfg;
  cfg.total_ops = 1;
  auto w = apps::make_kv_lag_world(2, cfg);

  // The environment misbehaves once: a single op delivery outlives the
  // (too short) retransmit timeout, and the replicas diverge.
  fault::FaultInjector inj;
  fault::FaultSpec delay;
  delay.kind = fault::FaultKind::kMessageDelay;
  delay.target = 1;
  delay.delay_min = 20;
  delay.delay_max = 20;
  inj.add(delay);
  inj.attach(*w);

  core::FixdOptions o;
  o.install_invariants = apps::install_kv_lag_invariants;
  o.investigate.max_states = 20000;
  // Initial checkpoints only: the rollback returns to the start, where the
  // abstract-time Investigator exhibits the timer/ack race from scratch.
  o.tm.cic = false;
  o.attempt_timeout_tuning = true;
  o.timeout_site = apps::kv_lag_timeout_site(cfg);
  o.tuner.validate = timed_delay_opts({});

  core::FixdController fixd(*w, o);
  core::FixdReport rep = fixd.run_protected();

  EXPECT_TRUE(rep.completed) << rep.render();
  EXPECT_EQ(rep.faults_detected, 1u);
  EXPECT_EQ(rep.heals_applied, 1u);
  EXPECT_EQ(rep.timeout_heals, 1u);
  EXPECT_EQ(rep.restarts, 0u);
  ASSERT_EQ(rep.tunes.size(), 1u);
  EXPECT_TRUE(rep.tunes[0].ok) << rep.tunes[0].error;
  // The investigation evidence implicates the timeout machinery.
  ASSERT_EQ(rep.bugs.size(), 1u);
  ASSERT_FALSE(rep.bugs[0].trails.empty());
  // The live system now runs the healed configuration and finished clean.
  for (ProcessId p = 0; p < w->size(); ++p) {
    EXPECT_EQ(w->process(p).version(), 2u);
  }
  const auto& prim =
      dynamic_cast<const apps::ILagReplica&>(std::as_const(*w).process(0));
  EXPECT_TRUE(prim.finished());
  EXPECT_GT(prim.retransmit_timeout(), cfg.retransmit_timeout);
  EXPECT_EQ(prim.retransmit_timeout(), rep.tunes[0].healed_value);
  EXPECT_FALSE(w->has_violation());
  // Same seed, same loop: the whole recovery is reproducible.
  EXPECT_EQ(rep.tunes[0].trajectory_digest(), [&] {
    auto w2 = apps::make_kv_lag_world(2, cfg);
    fault::FaultInjector inj2;
    inj2.add(delay);
    inj2.attach(*w2);
    core::FixdController fixd2(*w2, o);
    core::FixdReport rep2 = fixd2.run_protected();
    EXPECT_EQ(rep2.timeout_heals, 1u);
    return rep2.tunes.empty() ? 0ull : rep2.tunes[0].trajectory_digest();
  }());
}

}  // namespace
}  // namespace fixd
