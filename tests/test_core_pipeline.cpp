// End-to-end FixD pipeline: detect -> rollback -> collect -> investigate ->
// heal/restart -> resume, on the example applications; and the
// controller's Scroll, trimmed behind the Time Machine's horizon.
#include <gtest/gtest.h>

#include <utility>

#include "apps/elect_split.hpp"
#include "apps/kv_partition.hpp"
#include "apps/kv_store.hpp"
#include "apps/leader_election.hpp"
#include "apps/rep_counter.hpp"
#include "apps/token_ring.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/fixd.hpp"
#include "fault/injector.hpp"

namespace fixd::core {
namespace {

using apps::CounterConfig;
using apps::make_counter_world;

FixdOptions counter_options() {
  FixdOptions o;
  o.install_invariants = apps::install_counter_invariants;
  o.investigate.max_states = 4000;
  o.investigate.max_depth = 40;
  return o;
}

TEST(FixdPipeline, HealsBuggyCounterAndCompletes) {
  auto w = make_counter_world(3, 1, CounterConfig{4});
  heal::PatchRegistry patches;
  patches.add(apps::counter_fix_patch(CounterConfig{4}));
  FixdController fixd(*w, counter_options(), patches);
  FixdReport rep = fixd.run_protected();

  EXPECT_TRUE(rep.completed) << rep.render();
  EXPECT_EQ(rep.faults_detected, 1u);
  EXPECT_GE(rep.heals_applied + rep.restarts, 1u);
  // After recovery all processes agree on the correct sum.
  for (ProcessId p = 0; p < w->size(); ++p) {
    const auto& c = dynamic_cast<const apps::ICounter&>(w->process(p));
    EXPECT_TRUE(c.done());
    EXPECT_EQ(c.total(), apps::counter_expected_sum(3, CounterConfig{4}));
  }
  EXPECT_EQ(w->process(0).version(), 2u);  // running the fixed code
}

TEST(FixdPipeline, ReportCarriesBugEvidence) {
  auto w = make_counter_world(3, 1, CounterConfig{4});
  heal::PatchRegistry patches;
  patches.add(apps::counter_fix_patch(CounterConfig{4}));
  FixdController fixd(*w, counter_options(), patches);
  FixdReport rep = fixd.run_protected();

  ASSERT_EQ(rep.bugs.size(), 1u);
  const BugReport& bug = rep.bugs[0];
  EXPECT_EQ(bug.violation.invariant, "local");
  EXPECT_GT(bug.collect.checkpoints_collected, 0u);
  EXPECT_GT(bug.collect.control_bytes, 0u);
  EXPECT_GT(bug.explore.states, 0u);
  // The scroll recorded the run.
  EXPECT_GT(rep.scroll_records, 0u);
  std::string text = rep.render();
  EXPECT_NE(text.find("FixD bug report"), std::string::npos);
  EXPECT_NE(text.find("recovery line"), std::string::npos);
}

TEST(FixdPipeline, InvestigatorFindsTrailFromRolledBackState) {
  auto w = make_counter_world(3, 1, CounterConfig{4});
  heal::PatchRegistry patches;
  patches.add(apps::counter_fix_patch(CounterConfig{4}));
  FixdOptions o = counter_options();
  // The recovery line can domino well before the fault; from there the
  // violating state is deep and the v1 bug is data-dependent (any complete
  // interleaving re-triggers it), so random-walk search is the right tool —
  // BFS exhausts its budget on breadth first.
  o.investigate.order = mc::SearchOrder::kRandomWalk;
  o.investigate.max_depth = 120;
  o.investigate.walk_restarts = 64;
  FixdController fixd(*w, o, patches);
  FixdReport rep = fixd.run_protected();
  ASSERT_EQ(rep.bugs.size(), 1u);
  // The rolled-back state deterministically re-violates, so the explorer
  // must find at least one trail.
  EXPECT_FALSE(rep.bugs[0].trails.empty());
}

TEST(FixdPipeline, WithoutPatchFallsBackToRestartAndGivesUp) {
  auto w = make_counter_world(3, 1, CounterConfig{4});
  FixdOptions o = counter_options();
  o.max_recovery_attempts = 2;
  FixdController fixd(*w, o, heal::PatchRegistry{});
  FixdReport rep = fixd.run_protected();
  // Restarting buggy code re-violates: the controller gives up after the
  // attempt budget, reporting honestly.
  EXPECT_FALSE(rep.completed);
  EXPECT_GE(rep.restarts, 1u);
  EXPECT_GE(rep.faults_detected, 1u);
}

TEST(FixdPipeline, NoFaultMeansNoIntervention) {
  auto w = make_counter_world(3, 2, CounterConfig{3});
  heal::PatchRegistry patches;
  patches.add(apps::counter_fix_patch(CounterConfig{3}));
  FixdController fixd(*w, counter_options(), patches);
  FixdReport rep = fixd.run_protected();
  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.faults_detected, 0u);
  EXPECT_EQ(rep.heals_applied, 0u);
  EXPECT_EQ(rep.restarts, 0u);
  EXPECT_TRUE(rep.bugs.empty());
}

TEST(FixdPipeline, HealsSplitBrainElection) {
  apps::ElectionConfig cfg;
  std::uint64_t seed = apps::find_colliding_env_seed(4, cfg);
  rt::WorldOptions wopts;
  wopts.env_seed = seed;
  auto w = apps::make_election_world(4, 1, cfg, wopts);

  heal::PatchRegistry patches;
  patches.add(apps::election_fix_patch(cfg));
  FixdOptions o;
  o.install_invariants = apps::install_election_invariants;
  o.investigate.max_states = 4000;
  o.investigate.max_depth = 40;
  FixdController fixd(*w, o, patches);
  FixdReport rep = fixd.run_protected();

  EXPECT_TRUE(rep.completed) << rep.render();
  EXPECT_EQ(rep.faults_detected, 1u);
  std::size_t leaders = 0;
  for (ProcessId p = 0; p < w->size(); ++p) {
    const auto& e = dynamic_cast<const apps::IElector&>(w->process(p));
    if (e.declared_leader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1u);
}

TEST(FixdPipeline, HealsKvDivergenceUnderReordering) {
  apps::KvConfig cfg;
  cfg.total_ops = 40;
  cfg.key_space = 2;

  // Find a latency-jitter seed where v1 actually diverges.
  std::uint64_t bad_seed = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    rt::WorldOptions wopts;
    wopts.net = net::NetworkOptions::reordering();
    wopts.net.seed = seed * 7919;
    auto probe = apps::make_kv_world(2, 1, cfg, wopts);
    if (probe->run(20000).reason == rt::StopReason::kViolation) {
      bad_seed = seed;
      break;
    }
  }
  ASSERT_NE(bad_seed, 0u);

  rt::WorldOptions wopts;
  wopts.net = net::NetworkOptions::reordering();
  wopts.net.seed = bad_seed * 7919;
  auto w = apps::make_kv_world(2, 1, cfg, wopts);
  heal::PatchRegistry patches;
  patches.add(apps::kv_fix_patch(cfg));
  FixdOptions o;
  o.install_invariants = apps::install_kv_invariants;
  o.investigate.max_states = 1500;  // the state space is heavy; keep small
  o.investigate.max_depth = 30;
  o.max_recovery_attempts = 4;
  FixdController fixd(*w, o, patches);
  FixdReport rep = fixd.run_protected();

  EXPECT_TRUE(rep.completed) << rep.render();
  EXPECT_GE(rep.faults_detected, 1u);
  const auto& primary = dynamic_cast<const apps::IKvReplica&>(w->process(0));
  const auto& backup = dynamic_cast<const apps::IKvReplica&>(w->process(1));
  EXPECT_EQ(primary.content_digest(), backup.content_digest());
}

// --- partition-era faults: the recovery escalation ladder -------------------

struct SplitBrainOutcome {
  FixdReport rep;
  std::size_t leaders = 0;
  std::size_t blocked_links = 0;
  bool violation = false;
  std::uint64_t final_digest = 0;
  std::vector<std::byte> scroll_bytes;
};

/// One full protected run of the elect_split split-brain under a live
/// asymmetric partition that never heals by itself. A decoy patch (for a
/// different application) is registered so the patch-registry rung attempts
/// and visibly fails before the ladder escalates to the recovery-line rung.
SplitBrainOutcome run_split_brain_pipeline() {
  SplitBrainOutcome out;
  auto w = apps::make_elect_split_world(3, 1);
  fault::FaultInjector inj;
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kPartition;
  spec.group_a = {0};
  spec.group_b = {2};
  spec.symmetric = false;  // leader→victim cut only: the split-brain shape
  inj.add(spec);
  inj.attach(*w);

  heal::PatchRegistry patches;
  patches.add(apps::counter_fix_patch(CounterConfig{2}));  // decoy: wrong app

  FixdOptions o;
  o.install_invariants = apps::install_elect_split_invariants;
  o.investigate.max_states = 2000;
  o.investigate.max_depth = 30;
  o.investigate.model_partition = true;  // investigate under the cut model
  o.line_budget = 2;
  o.restart_on_heal_failure = false;  // the ladder must resolve at the line
  FixdController fixd(*w, o, patches);
  out.rep = fixd.run_protected();

  for (ProcessId p = 0; p < w->size(); ++p) {
    const auto& e = dynamic_cast<const apps::IElectSplit&>(
        std::as_const(*w).process(p));
    if (e.leading()) ++out.leaders;
  }
  out.blocked_links = std::as_const(*w).network().blocked_link_count();
  out.violation = w->has_violation();
  out.final_digest = w->digest();
  BinaryWriter bw;
  fixd.the_scroll().save(bw);
  out.scroll_bytes = bw.bytes();
  inj.detach(*w);
  return out;
}

TEST(FixdPipeline, PartitionHealClosesLoop) {
  SplitBrainOutcome a = run_split_brain_pipeline();
  const FixdReport& rep = a.rep;
  EXPECT_TRUE(rep.completed) << rep.render();
  EXPECT_GE(rep.faults_detected, 1u);
  EXPECT_EQ(rep.restarts, 0u);
  EXPECT_EQ(rep.heals_applied, 0u);  // the decoy never applied

  // The ladder escalated past at least one failed rung before the
  // recovery-line rung healed the cut.
  ASSERT_FALSE(rep.ladder.empty()) << rep.render();
  bool failed_rung_first = false;
  bool line_ok = false;
  for (const RungOutcome& ro : rep.ladder) {
    if (ro.rung == RecoveryRung::kRecoveryLine && ro.ok) {
      line_ok = true;
      break;
    }
    if (!ro.ok) failed_rung_first = true;
  }
  EXPECT_TRUE(failed_rung_first) << rep.render();
  EXPECT_TRUE(line_ok) << rep.render();

  // The investigation ran from the rolled-back state with the partition
  // model in scope.
  ASSERT_FALSE(rep.bugs.empty());
  EXPECT_GT(rep.bugs[0].explore.states, 0u);

  // The resumed run finished clean: one leader, cut healed, no violation.
  EXPECT_EQ(a.leaders, 1u);
  EXPECT_EQ(a.blocked_links, 0u);
  EXPECT_FALSE(a.violation);

  // The whole loop — injection, rollback, investigation, line heal,
  // resumption — is deterministic: a same-seed rerun reproduces the
  // trajectory byte for byte.
  SplitBrainOutcome b = run_split_brain_pipeline();
  EXPECT_EQ(a.final_digest, b.final_digest);
  EXPECT_EQ(a.scroll_bytes, b.scroll_bytes);
  ASSERT_EQ(a.rep.ladder.size(), b.rep.ladder.size());
  for (std::size_t i = 0; i < a.rep.ladder.size(); ++i) {
    EXPECT_EQ(a.rep.ladder[i].rung, b.rep.ladder[i].rung) << i;
    EXPECT_EQ(a.rep.ladder[i].ok, b.rep.ladder[i].ok) << i;
    EXPECT_EQ(a.rep.ladder[i].detail, b.rep.ladder[i].detail) << i;
  }
}

TEST(FixdPipeline, StaleReadUnderPartitionEscalatesToLineHeal) {
  // A cut on the replication link leaves the backup stale; the client's
  // monotonic-read invariant trips live. The registered v2 patch cannot
  // apply while replication traffic is stranded on the cut (the update
  // point is not quiescent), so the ladder escalates to the line rung,
  // which rolls behind the onset and heals the link — after which even the
  // v1 code completes correctly, because the staleness was the partition's.
  auto w = apps::make_kv_partition_world(2, 1);
  fault::FaultInjector inj;
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kPartition;
  spec.group_a = {0};
  spec.group_b = {1};
  spec.symmetric = false;
  inj.add(spec);
  inj.attach(*w);

  heal::PatchRegistry patches;
  patches.add(apps::kv_partition_fix_patch());

  FixdOptions o;
  o.install_invariants = apps::install_kv_partition_invariants;
  o.investigate.max_states = 1500;
  o.investigate.max_depth = 30;
  o.line_budget = 2;
  o.restart_on_heal_failure = false;
  FixdController fixd(*w, o, patches);
  FixdReport rep = fixd.run_protected();

  EXPECT_TRUE(rep.completed) << rep.render();
  EXPECT_GE(rep.faults_detected, 1u);
  bool line_ok = false;
  for (const RungOutcome& ro : rep.ladder) {
    if (ro.rung == RecoveryRung::kRecoveryLine && ro.ok) line_ok = true;
  }
  EXPECT_TRUE(line_ok) << rep.render();

  const auto& client = dynamic_cast<const apps::IKvPartClient&>(
      std::as_const(*w).process(2));
  EXPECT_TRUE(client.monotonic_ok());
  EXPECT_EQ(client.reads_done(), apps::KvPartitionConfig{}.reads);
  EXPECT_EQ(client.last_seen(), apps::KvPartitionConfig{}.writes);
  EXPECT_EQ(std::as_const(*w).network().blocked_link_count(), 0u);
  EXPECT_FALSE(w->has_violation());
  inj.detach(*w);
}

std::unique_ptr<rt::World> make_partitioned_kv(fault::FaultInjector& inj) {
  auto w = apps::make_kv_partition_world(2, 1);
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kPartition;
  spec.group_a = {0};
  spec.group_b = {1};
  spec.symmetric = false;
  inj.add(spec);
  inj.attach(*w);
  return w;
}

FixdOptions small_store_line_options() {
  FixdOptions o;
  o.install_invariants = apps::install_kv_partition_invariants;
  o.investigate.max_states = 1500;
  o.investigate.max_depth = 30;
  o.line_budget = 2;
  o.tm.store_capacity = 2;
  return o;
}

// The same stale read with stores of two checkpoints: the horizon keeps
// up with the run, so the partition onset lies behind it and no line can
// reach back there. The line rung refuses before rolling anything back,
// and the ladder escalates to a restart, which completes the run.
TEST(FixdPipeline, OnsetBehindTheHorizonEscalates) {
  fault::FaultInjector inj;
  auto w = make_partitioned_kv(inj);
  FixdController fixd(*w, small_store_line_options());
  FixdReport rep = fixd.run_protected();

  EXPECT_TRUE(rep.completed) << rep.render();
  bool line_refused = false;
  for (const RungOutcome& ro : rep.ladder) {
    if (ro.rung != RecoveryRung::kRecoveryLine) continue;
    EXPECT_FALSE(ro.ok) << rep.render();
    if (ro.detail == "onset behind the horizon") line_refused = true;
  }
  EXPECT_TRUE(line_refused) << rep.render();
  EXPECT_GE(rep.restarts, 1u) << rep.render();
  EXPECT_GT(fixd.time_machine().stats().horizon_advances, 0u);
  inj.detach(*w);
}

// The refused rung leaves the world as it found it: with no restart to
// follow, the run ends in the same state as one whose line rung is off.
TEST(FixdPipeline, RefusedLineRungLeavesTheWorldUnchanged) {
  std::uint64_t digest[2] = {0, 0};
  for (std::size_t budget : {0, 2}) {
    fault::FaultInjector inj;
    auto w = make_partitioned_kv(inj);
    FixdOptions o = small_store_line_options();
    o.line_budget = budget;
    o.restart_on_heal_failure = false;
    FixdController fixd(*w, o);
    FixdReport rep = fixd.run_protected();
    EXPECT_FALSE(rep.completed) << rep.render();
    ASSERT_EQ(rep.ladder.size(), budget == 0 ? 0u : 1u) << rep.render();
    if (budget > 0) {
      EXPECT_EQ(rep.ladder[0].detail, "onset behind the horizon");
    }
    digest[budget == 0 ? 0 : 1] = w->digest();
    inj.detach(*w);
  }
  EXPECT_EQ(digest[0], digest[1]);
}

// The rollback lands strictly before the violating step. CIC takes the
// sender's checkpoint after the violating event has run, so a checkpoint at
// the violation's own step may already hold the bad state; pinning there
// undid nothing.
TEST(FixdPipeline, RollbackPinsACheckpointBeforeTheViolation) {
  auto w = make_counter_world(4, 1, CounterConfig{6});
  FixdOptions o = counter_options();
  o.max_recovery_attempts = 1;  // stop after the rollback and investigation
  FixdController fixd(*w, o);
  FixdReport rep = fixd.run_protected();
  ASSERT_EQ(rep.bugs.size(), 1u);
  const BugReport& bug = rep.bugs[0];
  ASSERT_NE(bug.violation.pid, kNoProcess);
  EXPECT_GT(bug.line.line.total_events_undone(), 0u) << rep.render();
  const ckpt::StoredCheckpoint* pinned =
      fixd.time_machine().store(bug.violation.pid).find(
          bug.line.ids[bug.violation.pid]);
  ASSERT_NE(pinned, nullptr);
  EXPECT_LT(pinned->data->step, bug.violation.step);
}

// A global violation (two leaders) pins every process before it, not just
// p0: a line that leaves the other leader standing is still split, and the
// investigation starts from a state that already violates.
TEST(FixdPipeline, GlobalViolationRollsEveryProcessBack) {
  apps::ElectionConfig cfg;
  rt::WorldOptions wopts;
  wopts.env_seed = apps::find_colliding_env_seed(5, cfg);
  auto w = apps::make_election_world(5, 1, cfg, wopts);
  FixdOptions o;
  o.install_invariants = apps::install_election_invariants;
  o.investigate.order = mc::SearchOrder::kBfs;
  o.investigate.max_states = 20000;
  o.investigate.max_depth = 160;
  o.max_recovery_attempts = 1;
  FixdController fixd(*w, o);
  FixdReport rep = fixd.run_protected();
  ASSERT_EQ(rep.bugs.size(), 1u);
  const BugReport& bug = rep.bugs[0];
  ASSERT_EQ(bug.violation.pid, kNoProcess);
  EXPECT_GT(bug.line.line.total_events_undone(), 0u) << rep.render();
  for (ProcessId p = 0; p < w->size(); ++p) {
    const ckpt::StoredCheckpoint* pinned =
        fixd.time_machine().store(p).find(bug.line.ids[p]);
    ASSERT_NE(pinned, nullptr) << "p" << p;
    EXPECT_LT(pinned->data->step, bug.violation.step) << "p" << p;
  }
  ASSERT_FALSE(bug.trails.empty()) << rep.render();
  for (const mc::SysViolation& t : bug.trails) {
    EXPECT_FALSE(t.trail.steps.empty()) << rep.render();
  }
}

TEST(FixdPipeline, PhaseTimingsArePopulated) {
  auto w = make_counter_world(3, 1, CounterConfig{4});
  heal::PatchRegistry patches;
  patches.add(apps::counter_fix_patch(CounterConfig{4}));
  FixdController fixd(*w, counter_options(), patches);
  FixdReport rep = fixd.run_protected();
  EXPECT_GT(rep.phases.run_ms, 0.0);
  EXPECT_GE(rep.phases.rollback_ms, 0.0);
  EXPECT_GE(rep.phases.investigate_ms, 0.0);
  EXPECT_GT(rep.phases.total_ms(), 0.0);
}

TEST(FixdPipeline, ScrollAvailableAfterRun) {
  auto w = make_counter_world(2, 2, CounterConfig{2});
  FixdController fixd(*w, counter_options(), heal::PatchRegistry{});
  fixd.run_protected();
  EXPECT_GT(fixd.the_scroll().size(), 0u);
  EXPECT_GT(fixd.time_machine().stats().checkpoints, 0u);
}

// --- the Scroll behind the horizon -----------------------------------------

std::vector<scroll::ScrollRecord> records_of(const scroll::Scroll& s) {
  std::vector<scroll::ScrollRecord> out;
  scroll::Scroll::Cursor c = s.cursor();
  scroll::ScrollRecord r;
  while (c.next(r)) out.push_back(r);
  return out;
}

/// The protect workload's world: kv-store v2, four replicas, reordering
/// network, seed 1.
std::unique_ptr<rt::World> make_protect_world(std::uint64_t ops) {
  apps::KvConfig cfg;
  cfg.total_ops = ops;
  cfg.key_space = 64;
  rt::WorldOptions wo;
  wo.seed = 1;
  wo.net = net::NetworkOptions::reordering();
  wo.net.seed = hash_combine(0x70726f74656374ull, 1);
  return apps::make_kv_world(4, 2, cfg, wo);
}

FixdOptions kv_options() {
  FixdOptions o;
  o.install_invariants = apps::install_kv_invariants;
  return o;
}

/// Checks the controller's Scroll against `shadow`, an untrimmed Scroll
/// with the same preset on the same world since the controller attached:
/// it holds the shadow's tail, record for record, and the send of every
/// message in flight across the horizon (pending, or delivered after its
/// receiver's horizon checkpoint, and sent at or behind its sender's). In
/// a run without rollback or restart, where clocks never rewind, no record
/// it dropped is after its process's horizon checkpoint. Returns how many
/// crossing messages it checked.
std::size_t expect_shadow_tail(FixdController& fixd,
                               const scroll::Scroll& shadow,
                               const rt::World& w, bool rewinds) {
  const std::vector<scroll::ScrollRecord> all = records_of(shadow);
  const std::vector<scroll::ScrollRecord> held = records_of(fixd.the_scroll());
  EXPECT_LE(held.size(), all.size());
  if (held.size() > all.size()) return 0;
  const std::size_t cut = all.size() - held.size();
  EXPECT_EQ(fixd.the_scroll().stats().trimmed, cut);
  for (std::size_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(held[i], all[cut + i]) << "held record " << i;
    if (held[i] != all[cut + i]) return 0;
  }

  const ckpt::TimeMachine& tm = fixd.time_machine();
  std::vector<const rt::ProcessCheckpoint*> front;
  for (ProcessId p = 0; p < w.size(); ++p) {
    front.push_back(tm.store(p).entries().front().data.get());
  }
  std::vector<net::Message> crossing;
  for (const net::Message* m : w.network().pending()) {
    if (m->vclock[m->src] <= front[m->src]->vclock[m->src]) {
      crossing.push_back(*m);
    }
  }
  tm.delivered_log().for_each([&](const ckpt::DeliveredLog::View& v) {
    if (v.head.send_stamp <= front[v.head.src]->vclock[v.head.src]) {
      crossing.push_back(v.decode());
    }
  });
  for (const net::Message& m : crossing) {
    // Its send: the newest send record of the same sender, lamport time
    // and content.
    std::size_t at = all.size();
    for (std::size_t i = all.size(); i-- > 0;) {
      const scroll::ScrollRecord& r = all[i];
      if (r.kind == scroll::RecordKind::kSend && r.pid == m.src &&
          r.lamport == m.lamport && r.digest == m.content_digest()) {
        at = i;
        break;
      }
    }
    EXPECT_LT(at, all.size()) << "p" << m.src << " L" << m.lamport;
    EXPECT_GE(at, cut) << "the send of a crossing message was trimmed: "
                       << all[at].to_string();
  }
  if (!rewinds) {
    for (std::size_t i = 0; i < cut; ++i) {
      EXPECT_LE(all[i].lamport, front[all[i].pid]->lamport)
          << "trimmed a record after the horizon: " << all[i].to_string();
    }
  }
  return crossing.size();
}

// Differential: on the protect workload's world, the controller's Scroll
// is the tail of an untrimmed shadow Scroll at every point of the run, and
// holds the send of every message in flight across the horizon. Small
// stores move the horizon past messages still pending.
TEST(FixdPipeline, TrimmedScrollIsTheShadowsTail) {
  for (std::size_t cap : {ckpt::TimeMachineOptions{}.store_capacity,
                          std::size_t{2}}) {
    SCOPED_TRACE("store capacity " + std::to_string(cap));
    auto w = make_protect_world(2000);
    FixdOptions o = kv_options();
    o.tm.store_capacity = cap;
    FixdController fixd(*w, o);
    scroll::Scroll shadow(fixd.the_scroll().preset());
    w->add_observer(&shadow);
    std::size_t crossings = 0;
    const bool clean = !HasFailure();
    for (int slice = 0; slice < 1000; ++slice) {
      const FixdReport rep = fixd.run_protected(211);
      ASSERT_TRUE(rep.completed);
      crossings += expect_shadow_tail(fixd, shadow, *w, /*rewinds=*/false);
      if ((clean && HasFailure()) ||
          rep.final_run.reason != rt::StopReason::kMaxSteps) {
        break;
      }
    }
    w->remove_observer(&shadow);
    EXPECT_TRUE(w->all_halted());
    EXPECT_GT(fixd.time_machine().stats().horizon_advances, 20u);
    EXPECT_GT(fixd.the_scroll().stats().trimmed, shadow.size() / 2);
    EXPECT_GT(crossings, 0u);  // the check above is not vacuous
  }
}

// The same through rollbacks, which rewind clocks and re-inject crossing
// messages: every few slices the Time Machine rolls one process back to a
// random checkpoint, and the run still completes.
TEST(FixdPipeline, TrimmedScrollIsTheShadowsTailThroughRollbacks) {
  for (std::size_t cap : {ckpt::TimeMachineOptions{}.store_capacity,
                          std::size_t{2}}) {
    SCOPED_TRACE("store capacity " + std::to_string(cap));
    auto w = make_protect_world(2000);
    FixdOptions o = kv_options();
    o.tm.store_capacity = cap;
    FixdController fixd(*w, o);
    ckpt::TimeMachine& tm = fixd.time_machine();
    scroll::Scroll shadow(fixd.the_scroll().preset());
    w->add_observer(&shadow);
    Rng rng(cap);
    const bool clean = !HasFailure();
    for (int slice = 0; slice < 1000; ++slice) {
      const FixdReport rep = fixd.run_protected(211);
      ASSERT_TRUE(rep.completed);
      expect_shadow_tail(fixd, shadow, *w, /*rewinds=*/true);
      if ((clean && HasFailure()) ||
          rep.final_run.reason != rt::StopReason::kMaxSteps) {
        break;
      }
      if (slice % 4 == 3) {
        const auto pid = static_cast<ProcessId>(rng.next_below(w->size()));
        tm.rollback_to(pid, rng.next_below(tm.store(pid).size()));
        expect_shadow_tail(fixd, shadow, *w, /*rewinds=*/true);
      }
    }
    w->remove_observer(&shadow);
    EXPECT_TRUE(w->all_halted());
    EXPECT_FALSE(w->has_violation());
    EXPECT_GE(tm.stats().rollbacks, 8u);
    EXPECT_GT(tm.stats().messages_reinjected, 0u);
    EXPECT_GT(fixd.the_scroll().stats().trimmed, shadow.size() / 2);
  }
}

// A reset makes the current state the horizon: the Scroll then holds
// nothing from before it but the sends of the messages still in flight,
// and nothing at all when none is, whether the Time Machine is reset
// directly or by the restart rung.
TEST(FixdPipeline, ResetKeepsOnlyTheSendsInFlight) {
  auto w = make_protect_world(200);
  FixdController fixd(*w, kv_options());
  scroll::Scroll shadow(fixd.the_scroll().preset());
  w->add_observer(&shadow);
  fixd.run_protected(300);
  ASSERT_FALSE(w->network().pending().empty());
  const std::uint64_t recorded = shadow.size();
  fixd.time_machine().reset();
  EXPECT_GT(expect_shadow_tail(fixd, shadow, *w, /*rewinds=*/false), 0u);
  EXPECT_LT(fixd.the_scroll().size(), recorded);

  fixd.run_protected();
  w->remove_observer(&shadow);
  ASSERT_TRUE(w->all_halted());
  ASSERT_TRUE(w->network().pending().empty());
  const scroll::ScrollStats before = fixd.the_scroll().stats();
  ASSERT_GT(before.records, 0u);
  fixd.time_machine().reset();
  EXPECT_EQ(fixd.the_scroll().size(), 0u);
  EXPECT_EQ(fixd.the_scroll().stats().trimmed,
            before.records + before.trimmed);
  EXPECT_EQ(fixd.the_scroll().stats().bytes, 0u);

  // The restart rung: the world restarts from its initial state, so the
  // records after it start the run over, each process's start first.
  auto c = make_counter_world(3, 1, CounterConfig{4});
  FixdOptions o = counter_options();
  o.max_recovery_attempts = 2;
  FixdController restarted(*c, o, heal::PatchRegistry{});
  scroll::Scroll full(restarted.the_scroll().preset());
  c->add_observer(&full);
  const FixdReport rep = restarted.run_protected();
  c->remove_observer(&full);
  ASSERT_EQ(rep.restarts, 1u);
  const std::vector<scroll::ScrollRecord> all = records_of(full);
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].kind == scroll::RecordKind::kEvent &&
        all[i].event.kind == rt::EventKind::kStart) {
      starts.push_back(i);
    }
  }
  ASSERT_EQ(starts.size(), 2 * c->size());  // the run, then the restart's
  const std::size_t restart_at = starts[c->size()];
  EXPECT_EQ(restarted.the_scroll().stats().trimmed, restart_at);
  EXPECT_EQ(restarted.the_scroll().size(), all.size() - restart_at);
}

// The always-on path holds O(horizon): the held Scroll's resident bytes
// peak no higher over a run four times as long.
TEST(FixdPipeline, HeldScrollDoesNotGrowWithTheRun) {
  std::size_t peak[2] = {0, 0};
  std::uint64_t held[2] = {0, 0};
  const std::uint64_t ops[2] = {20000, 80000};
  for (int i = 0; i < 2; ++i) {
    auto w = make_protect_world(ops[i]);
    FixdController fixd(*w, kv_options());
    const FixdReport rep = fixd.run_protected();
    ASSERT_TRUE(rep.completed);
    ASSERT_EQ(rep.faults_detected, 0u);
    peak[i] = fixd.the_scroll().peak_resident_bytes();
    held[i] = rep.scroll_records;
    EXPECT_GT(rep.scroll_trimmed, 10 * rep.scroll_records) << ops[i];
  }
  EXPECT_GT(peak[0], 0u);
  EXPECT_LE(static_cast<double>(peak[1]), 1.10 * static_cast<double>(peak[0]))
      << "peak resident " << peak[0] << " B at 20000 ops, " << peak[1]
      << " B at 80000";
  EXPECT_LE(static_cast<double>(held[1]), 2.0 * static_cast<double>(held[0]));
}

// The bug report's excerpt is the newest records held, newest last: it
// ends at the violating event and shows deliveries on the way there.
TEST(FixdPipeline, ExcerptEndsAtTheViolation) {
  auto w = make_counter_world(3, 1, CounterConfig{4});
  FixdOptions o = counter_options();
  o.max_recovery_attempts = 1;  // report the fault, then stop
  FixdController fixd(*w, o);
  scroll::Scroll shadow(fixd.the_scroll().preset());
  w->add_observer(&shadow);
  const FixdReport rep = fixd.run_protected();
  w->remove_observer(&shadow);
  ASSERT_EQ(rep.bugs.size(), 1u);
  const std::string& excerpt = rep.bugs[0].scroll_excerpt;

  // The shadow stopped at the fault: its newest event is the violating
  // one, and its newest record ends the excerpt.
  const std::vector<scroll::ScrollRecord> all = records_of(shadow);
  ASSERT_FALSE(all.empty());
  std::size_t violating = all.size();
  while (violating-- > 0 &&
         all[violating].kind != scroll::RecordKind::kEvent) {
  }
  ASSERT_LT(violating, all.size());
  EXPECT_EQ(all[violating].pid, rep.bugs[0].violation.pid);
  EXPECT_NE(excerpt.find(all[violating].to_string() + "\n"),
            std::string::npos)
      << excerpt;
  EXPECT_NE(excerpt.find(" DELIVER "), std::string::npos) << excerpt;
  const std::string newest = all.back().to_string() + "\n";
  ASSERT_GE(excerpt.size(), newest.size());
  EXPECT_EQ(excerpt.substr(excerpt.size() - newest.size()), newest)
      << excerpt;
}

}  // namespace
}  // namespace fixd::core
