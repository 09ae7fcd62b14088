#include "core/fixd.hpp"

#include <algorithm>

#include "common/hash.hpp"

namespace fixd::core {

namespace {
/// Does any trail step on a violation path involve timer behaviour — a
/// timer event or a modelled delivery delay? That is the signal that the
/// bug may be a timeout-configuration bug rather than a code bug.
bool timer_implicated(const BugReport& bug) {
  for (const mc::SysViolation& sv : bug.trails) {
    for (const mc::SysAction& step : sv.trail.steps) {
      if (step.kind == mc::SysAction::Kind::kDelayMessage) {
        return true;
      }
      if (step.kind == mc::SysAction::Kind::kRuntime &&
          step.event.kind == rt::EventKind::kTimer) {
        return true;
      }
    }
  }
  return false;
}
}  // namespace

FixdController::FixdController(rt::World& world, FixdOptions opts,
                               heal::PatchRegistry patches)
    : world_(world),
      opts_(std::move(opts)),
      patches_(std::move(patches)),
      scroll_(scroll::LoggingPreset::digests()),
      tm_(world, opts_.tm) {
  FIXD_CHECK_MSG(world_.sealed(), "FixD: world must be sealed");
  // Every exploration the controller runs checks the application's
  // invariants unless its options name an installer of their own.
  for (mc::SysExploreOptions* o :
       {&opts_.investigate, &opts_.tuner.validate}) {
    if (!o->install_invariants) {
      o->install_invariants = opts_.install_invariants;
    }
  }
  world_.set_stop_on_violation(true);
  world_.add_observer(&scroll_);
  // The Scroll keeps only what lies after the Time Machine's horizon, and
  // the sends of the messages in flight across it; after a reset with none
  // in flight, nothing from before it.
  tm_.set_horizon_listener([this](const ckpt::TimeMachine::Horizon& h) {
    const bool in_flight = std::ranges::any_of(
        h.crossing_send_stamps,
        [](std::uint64_t stamp) { return stamp != ~std::uint64_t{0}; });
    if (h.reset && !in_flight) {
      scroll_.clear();
    } else {
      scroll_.trim(h.capture_serial, h.crossing_send_stamps);
    }
  });
  tm_.attach();
  initial_ = world_.snapshot(/*cow=*/true);
}

FixdController::~FixdController() {
  world_.remove_observer(&scroll_);
  tm_.detach();
}

FixdReport FixdController::run_protected(std::uint64_t max_steps) {
  FixdReport rep;
  std::size_t attempt = 0;

  while (true) {
    auto t0 = Clock::now();
    rt::RunResult run = world_.run(max_steps);
    rep.phases.run_ms += ms_since(t0);
    rep.final_run = run;

    if (run.reason != rt::StopReason::kViolation) {
      rep.completed = true;
      break;
    }

    ++rep.faults_detected;
    BugReport bug = handle_fault(attempt, rep);
    rep.bugs.push_back(bug);

    if (attempt + 1 >= opts_.max_recovery_attempts) {
      rep.completed = false;
      break;
    }
    if (!recover(rep.bugs.back(), rep)) {
      rep.completed = false;
      break;
    }
    ++attempt;
  }

  const scroll::ScrollStats held = scroll_.stats();
  rep.scroll_records = held.records;
  rep.scroll_trimmed = held.trimmed;
  rep.scroll_bytes = held.bytes;
  return rep;
}

BugReport FixdController::handle_fault(std::size_t attempt, FixdReport& rep) {
  BugReport bug;
  FIXD_CHECK_MSG(world_.has_violation(), "handle_fault without violation");
  bug.violation = world_.violations().front();
  // The newest records held, newest last: the excerpt ends at the
  // violating event.
  bug.scroll_excerpt = scroll_.render(40);

  // --- Phase: roll back to a consistent line (§3.2) ------------------------
  auto t0 = Clock::now();
  const bool global = bug.violation.pid == kNoProcess;
  const ProcessId failed = global ? 0 : bug.violation.pid;
  // Pin the failed process, or every process for a global violation, at
  // its latest checkpoint strictly before the violation step, deepened by
  // `attempt` on retries. A checkpoint taken at that step may already hold
  // the violating state (CIC's send-side one is taken after the event).
  std::vector<std::ptrdiff_t> pinned(world_.size(), -1);
  for (ProcessId p = 0; p < world_.size(); ++p) {
    if (!global && p != failed) continue;
    const auto& entries = tm_.store(p).entries();
    std::size_t idx = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].data->step < bug.violation.step) idx = i;
    }
    pinned[p] = static_cast<std::ptrdiff_t>(idx > attempt ? idx - attempt : 0);
  }
  bug.line = tm_.rollback_pinned(pinned);

  // Work retained = events whose effects survive the rollback.
  std::uint64_t retained = 0;
  for (ProcessId p = 0; p < world_.size(); ++p) {
    retained += world_.events_handled(p);
  }
  rep.work_retained_events = retained;
  rep.phases.rollback_ms += ms_since(t0);

  // --- Phase: collect checkpoints + models (Fig. 4) -------------------------
  // Every healthy process replies to the fault notification with (a) a
  // checkpoint consistent with the recovery line — serialized through the
  // wire format and round-tripped, so the cost is the real cost — and (b) a
  // model of its behaviour (here: the implementation itself, per §3.3).
  t0 = Clock::now();
  for (ProcessId p = 0; p < world_.size(); ++p) {
    if (p == failed) continue;
    ++bug.collect.control_messages;  // FAULT_NOTIFY failed -> p
    bug.collect.control_bytes += 16;
    rt::ProcessCheckpoint ckpt = world_.capture_process(p, /*cow=*/false);
    BinaryWriter w;
    ckpt.save(w);
    ++bug.collect.control_messages;  // CKPT_REPLY p -> failed
    bug.collect.control_bytes += w.size();
    // Round-trip: the investigating node reconstructs the checkpoint from
    // wire bytes (catches any non-transmissible state early).
    BinaryReader r(w.bytes());
    rt::ProcessCheckpoint back;
    back.load(r);
    FIXD_CHECK_MSG(back.root == ckpt.root,
                   "checkpoint wire round-trip mismatch");
    ++bug.collect.checkpoints_collected;
    ++bug.collect.models_collected;  // clone_behavior() is the model
  }
  rep.phases.collect_ms += ms_since(t0);

  // --- Phase: investigate (§3.3) --------------------------------------------
  t0 = Clock::now();
  // The violation that triggered us must not leak into the explorer's
  // baseline; the rolled-back state is presumed clean.
  world_.clear_violations();
  bool investigated = false;
  if (!opts_.investigate_endpoint.empty()) {
    // Delegate to the fixdd daemon. The request-id is a pure function of
    // (job seed, fault #, recovery attempt), so if this whole recovery is
    // re-entered the daemon's idempotency ledger hands back the same job
    // instead of double-running it. submit_and_wait_or_degrade falls back
    // to an in-process run of the same job when the daemon stays
    // unreachable past the client's retry budget.
    try {
      svc::Client client(svc::Endpoint::parse(opts_.investigate_endpoint),
                         opts_.investigate_retry);
      const svc::ScenarioRegistry registry =
          svc::ScenarioRegistry::with_builtins();
      const std::uint64_t rid = hash_combine(
          hash_combine(0x696e76657374ull ^ opts_.investigate_job.seed,
                       rep.faults_detected),
          attempt);
      svc::InvestigationOutcome out = svc::submit_and_wait_or_degrade(
          client, registry, opts_.investigate_job, rid);
      bug.trails = out.result.violations;
      bug.explore = out.result.stats;
      if (out.degraded) {
        bug.investigated_via = "degraded: " + out.degraded_reason;
        ++rep.investigate_fallbacks;
      } else {
        bug.investigated_via = "daemon";
        ++rep.remote_investigations;
      }
      investigated = true;
    } catch (const TimeoutError& e) {
      bug.investigated_via = std::string("degraded: ") + e.what();
      ++rep.investigate_fallbacks;
    }
  }
  if (!investigated) {
    mc::SystemExplorer explorer(world_, opts_.investigate);
    mc::SysExploreResult res = explorer.explore();
    bug.trails = res.violations;
    bug.explore = res.stats;
  }
  rep.phases.investigate_ms += ms_since(t0);
  return bug;
}

bool FixdController::recover(const BugReport& bug, FixdReport& rep) {
  auto t0 = Clock::now();
  auto done = [&](bool ok) {
    rep.phases.heal_ms += ms_since(t0);
    return ok;
  };
  auto attempted = [&](RecoveryRung rung, bool ok, std::string detail) {
    rep.ladder.push_back({rung, ok, std::move(detail)});
  };

  // --- Rung 1: timeout tuner ------------------------------------------------
  if (opts_.attempt_timeout_tuning && !opts_.timeout_site.target_type.empty()
      && timer_implicated(bug)) {
    heal::TimeoutTuner tuner(world_, opts_.timeout_site, opts_.tuner);
    heal::TunerResult tr = tuner.tune();
    const bool tuned = tr.ok;
    const heal::UpdatePatch patch = tr.patch;
    rep.tunes.push_back(std::move(tr));
    if (tuned) {
      heal::HealOptions hopts;
      // A configuration-only update: old-state/new-state equivalence holds
      // with traffic in flight, so the rolled-back (mid-run) state is an
      // acceptable update point.
      hopts.require_quiescent_inbound = false;
      heal::Healer healer(world_, hopts);
      heal::HealReport hr = healer.apply_all(patch);
      if (hr.ok) {
        ++rep.heals_applied;
        ++rep.timeout_heals;
        world_.clear_violations();
        tm_.reset();  // old-config checkpoints are not valid restore points
        attempted(RecoveryRung::kTimeoutTuner, true, patch.description);
        return done(true);
      }
      attempted(RecoveryRung::kTimeoutTuner, false,
                "tuned patch failed to apply");
    } else {
      attempted(RecoveryRung::kTimeoutTuner, false,
                "no validated timeout configuration found");
    }
    // Fall through: escalate.
  }

  // --- Rung 2: static patch registry ----------------------------------------
  if (patches_.size() > 0) {
    // Pick the patch matching the faulty process (or any process if the
    // violation was global).
    const heal::UpdatePatch* patch = nullptr;
    if (bug.violation.pid != kNoProcess) {
      patch = patches_.find(world_.process(bug.violation.pid));
    }
    if (!patch) {
      for (ProcessId p = 0; p < world_.size() && !patch; ++p) {
        patch = patches_.find(world_.process(p));
      }
    }
    if (patch) {
      heal::Healer healer(world_);
      heal::HealReport hr = healer.apply_all(*patch);
      if (hr.ok) {
        ++rep.heals_applied;
        world_.clear_violations();
        tm_.reset();  // old-version checkpoints are not valid restore points
        attempted(RecoveryRung::kPatchRegistry, true, patch->description);
        return done(true);
      }
      attempted(RecoveryRung::kPatchRegistry, false,
                "patch found but did not apply: " + patch->description);
    } else {
      attempted(RecoveryRung::kPatchRegistry, false,
                "no registered patch matches any live process");
    }
  }

  // --- Rung 3: recovery-line rollback behind the partition onset ------------
  if (line_uses_ < opts_.line_budget) {
    std::string detail;
    const bool ok = recover_via_line(bug, detail);
    attempted(RecoveryRung::kRecoveryLine, ok, std::move(detail));
    if (ok) return done(true);
  }

  // --- Rung 4: restart from scratch -----------------------------------------
  if (opts_.restart_on_heal_failure) {
    // §3.4: "the simplest option ... restarted from the beginning". Apply
    // any applicable patches to the fresh instances so the restart is with
    // corrected code when a fix exists.
    world_.restore(initial_);
    world_.clear_violations();
    if (patches_.size() > 0) {
      heal::Healer healer(world_);
      for (const auto& patch : patches_.all()) {
        healer.apply_all(patch);  // best effort; failure means no such proc
      }
    }
    tm_.reset();
    ++rep.restarts;
    attempted(RecoveryRung::kRestart, true, "restarted from initial state");
    return done(true);
  }

  return done(false);
}

bool FixdController::recover_via_line(const BugReport& bug,
                                      std::string& detail) {
  const std::size_t use = line_uses_++;
  const ProcessId failed =
      bug.violation.pid == kNoProcess ? 0 : bug.violation.pid;

  // Partition-onset proxy: the oldest send stranded behind a blocked link.
  // A message queued on a cut link was sent no later than the cut itself,
  // so rolling behind the earliest of them lands behind the onset — an
  // over-approximation in the backward (safe) direction. With no cut and
  // nothing stranded, the violation time itself bounds the search.
  const net::SimNetwork& net = world_.network();
  VirtualTime onset = bug.violation.at;
  for (const net::Message* m : net.pending()) {
    if (net.link_blocked(m->src, m->dst) && m->sent_at < onset) {
      onset = m->sent_at;
    }
  }

  // Cap EVERY process at its latest checkpoint at-or-behind the onset —
  // not just the implicated one. Post-onset progress that never crossed a
  // channel (a unilateral leader declaration on the starved side of a cut)
  // is causally consistent with any peer state, so a single-process pin
  // would leave it standing. The failed process is deepened by one per
  // prior use of this rung (deterministic backoff). An onset older than a
  // process's horizon checkpoint has no line behind it: the rung refuses
  // before rolling anything back.
  std::vector<std::ptrdiff_t> pinned(world_.size(), -1);
  std::size_t failed_idx = 0;
  for (ProcessId p = 0; p < world_.size(); ++p) {
    const auto& entries = tm_.store(p).entries();
    if (entries.front().data->at > onset) {
      detail = "onset behind the horizon";
      return false;
    }
    std::size_t idx = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].data->at <= onset) idx = i;  // ascending; keep latest
    }
    if (p == failed) {
      idx = (idx > use) ? idx - use : 0;
      failed_idx = idx;
    }
    pinned[p] = static_cast<std::ptrdiff_t>(idx);
  }
  ckpt::RecoveryLine line = tm_.rollback_pinned(pinned);

  // Heal the cut: the resumed run models the partition as over. Collected
  // first, then healed through the model wrappers so the replay key chain
  // advances instead of breaking. The injector that cut these links stays
  // in its fired state and will not re-cut.
  std::vector<net::SimNetwork::LinkKey> cuts(net.blocked_links().begin(),
                                             net.blocked_links().end());
  for (const auto& [src, dst] : cuts) world_.model_heal_link(src, dst);
  world_.clear_violations();

  // Validation replay: a bounded exploration from the healed line with the
  // partition/restart models switched on, so adversarial re-cuts are in
  // scope. Evidence for the report, not a gate — the code bug is still
  // reachable under a fresh partition; what gates resumption is the
  // *current* state being invariant-clean.
  mc::SysExploreOptions vopts = opts_.investigate;
  vopts.model_partition = true;
  vopts.model_restart = true;
  mc::SystemExplorer explorer(world_, vopts);
  mc::SysExploreResult vres = explorer.explore();

  world_.recheck_invariants();
  if (world_.has_violation()) {
    detail = "rolled p" + std::to_string(failed) + " to checkpoint " +
             std::to_string(failed_idx) + " but invariants still fail";
    return false;
  }
  detail = "rolled back " + std::to_string(line.line.total_rollback()) +
           " checkpoint(s), healed " + std::to_string(cuts.size()) +
           " link(s); validation found " + std::to_string(vres.violations.size()) +
           " trail(s) under re-partition";
  return true;
}

}  // namespace fixd::core
