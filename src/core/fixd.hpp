// The FixD controller: the glue the paper contributes (§3, Fig. 4).
//
// Wires the four components over a running world:
//
//   Scroll        records the run (attached as an observer), keeping
//                 what lies after the Time Machine's horizon
//   Time Machine  checkpoints per policy; rolls back on fault
//   Investigator  explores from the restored state; returns trails
//   Healer        applies a registered patch, or restarts from scratch
//
// run_protected() drives the loop:
//
//   run ──fault──> rollback to a consistent line (failed process pins it)
//        └──────── collect checkpoints+models from the other processes
//                  (the Fig. 4 exchange: serialized ProcessCheckpoints —
//                  round-tripped through the wire format so the cost is
//                  real, and accounted as control-plane traffic)
//        └──────── investigate: SystemExplorer finds violation trails
//        └──────── heal: dynamic update at the rolled-back state; if no
//                  patch applies, restart from the initial state (§3.4's
//                  "simplest option")
//        └──────── resume; repeat up to max_recovery_attempts
//
// Escalation: on the r-th attempt for the same fault, the failed process is
// rolled back r extra checkpoints — "maybe the latest checkpoint is already
// inside the doomed region".
//
// recover() itself is an escalation ladder (RecoveryRung): timeout tuner →
// static patch registry → recovery-line rollback behind the partition onset
// → restart from scratch. Every attempt is recorded in FixdReport::ladder.
// The recovery-line rung has a per-run budget that defaults to 0, so the
// tuner→patch→restart behaviour is unchanged unless it is opted into.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/timemachine.hpp"
#include "heal/healer.hpp"
#include "heal/patch.hpp"
#include "heal/timeout_tuner.hpp"
#include "mc/sysmodel.hpp"
#include "rt/world.hpp"
#include "scroll/scroll.hpp"
#include "svc/client.hpp"

namespace fixd::core {

/// Rungs of the recovery escalation ladder, in the order recover() tries
/// them. The tuner runs when a timeout site is registered and the trails
/// implicate a timer, the patch rung when the registry holds a patch; the
/// recovery-line rung runs while its budget has uses left and deepens its
/// rollback by one checkpoint per prior use — a deterministic backoff, so
/// the same fault schedule walks the same ladder on every run.
enum class RecoveryRung : std::uint8_t {
  kTimeoutTuner,   ///< synthesize + validate a timeout-configuration patch
  kPatchRegistry,  ///< dynamic update from the static patch registry
  kRecoveryLine,   ///< roll back behind the partition onset, heal the cut
  kRestart,        ///< restart from the initial state (§3.4's simplest option)
};

const char* to_string(RecoveryRung r);

/// One attempted rung, in attempt order, with what happened.
struct RungOutcome {
  RecoveryRung rung = RecoveryRung::kTimeoutTuner;
  bool ok = false;
  std::string detail;
};

struct FixdOptions {
  ckpt::TimeMachineOptions tm = [] {
    ckpt::TimeMachineOptions o;
    o.cic = true;  // the paper's communication-induced policy (§4.2)
    return o;
  }();
  mc::SysExploreOptions investigate;
  bool restart_on_heal_failure = true;
  std::size_t max_recovery_attempts = 3;
  /// Registers the application's invariants on investigation worlds: the
  /// constructor copies it into `investigate` and `tuner.validate` where
  /// those carry no installer of their own.
  std::function<void(rt::World&)> install_invariants;

  /// Timeout healing (heal/timeout_tuner.hpp): when a bug report's trails
  /// implicate timer behaviour (a timer fired, was cancelled, or a
  /// delivery was delayed on the path to the violation) and a timeout
  /// site is registered, recover() runs the TimeoutTuner on the
  /// rolled-back state and applies the synthesized patch on success —
  /// tried before the static patch registry, since a validated
  /// configuration fix is cheaper than a code swap.
  bool attempt_timeout_tuning = false;
  /// The tunable the tuner searches (empty target_type = none registered).
  heal::TimeoutSite timeout_site;
  heal::TunerOptions tuner;

  /// How many times per run_protected() call the kRecoveryLine rung may
  /// fire. 0 (the default) disables it, keeping the tuner→patch→restart
  /// ladder.
  ///
  /// kRecoveryLine rolls every process to a consistent line behind the
  /// partition onset (the oldest send stranded on a blocked link), heals
  /// the cut, and resumes once the restored state passes an invariant
  /// recheck; a bounded re-exploration with the partition model switched
  /// on runs first as recorded evidence.
  std::size_t line_budget = 0;

  /// Remote investigation: when non-empty, the investigate phase is
  /// delegated to a fixdd daemon at this endpoint ("unix:/path" or
  /// "tcp:HOST:PORT") — the controller submits `investigate_job` with an
  /// idempotent request-id derived from (job seed, fault #, attempt), so
  /// a retried recovery never double-runs the search. If the daemon is
  /// unreachable after the retry budget the controller falls back to an
  /// in-process run of the same job and records the degradation in
  /// BugReport::investigated_via and FixdReport::investigate_fallbacks.
  /// Empty (the default) keeps the legacy local SystemExplorer path.
  std::string investigate_endpoint;
  /// The scenario-addressed job the daemon runs on our behalf. The daemon
  /// explores a registered scenario family, not this controller's world_;
  /// the caller is responsible for pointing the spec at the family that
  /// models the protected application.
  svc::JobSpec investigate_job;
  svc::RetryPolicy investigate_retry;
};

/// Fig. 4 exchange accounting.
struct CollectStats {
  std::uint64_t control_messages = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t checkpoints_collected = 0;
  std::uint64_t models_collected = 0;
};

struct PhaseBreakdown {
  double run_ms = 0;
  double rollback_ms = 0;
  double collect_ms = 0;
  double investigate_ms = 0;
  double heal_ms = 0;
  double total_ms() const {
    return run_ms + rollback_ms + collect_ms + investigate_ms + heal_ms;
  }
};

struct BugReport {
  rt::Violation violation;
  ckpt::RecoveryLine line;
  CollectStats collect;
  std::vector<mc::SysViolation> trails;
  mc::ExploreStats explore;
  /// How the investigation ran: "local" (legacy in-process explorer),
  /// "daemon" (delegated to fixdd), or "degraded: <reason>" (daemon
  /// configured but unreachable — ran the job in-process instead).
  std::string investigated_via = "local";
  std::string scroll_excerpt;

  std::string render() const;
};

struct FixdReport {
  bool completed = false;
  rt::RunResult final_run;
  std::size_t faults_detected = 0;
  std::size_t heals_applied = 0;
  /// Of heals_applied, how many were TimeoutTuner patches.
  std::size_t timeout_heals = 0;
  /// Every tuner run (successful or not), in recovery order.
  std::vector<heal::TunerResult> tunes;
  std::size_t restarts = 0;
  /// Every rung attempted across all recoveries, in attempt order.
  std::vector<RungOutcome> ladder;
  std::vector<BugReport> bugs;
  PhaseBreakdown phases;
  std::uint64_t scroll_records = 0;  ///< held at the end of the run
  std::uint64_t scroll_trimmed = 0;  ///< dropped behind the horizon
  std::uint64_t scroll_bytes = 0;    ///< of the records held
  std::uint64_t work_retained_events = 0;  ///< events preserved by rollbacks
  /// Investigations served by a fixdd daemon vs. fallen back in-process
  /// (daemon configured but unreachable after the retry budget).
  std::size_t remote_investigations = 0;
  std::size_t investigate_fallbacks = 0;

  std::string render() const;
};

class FixdController {
 public:
  FixdController(rt::World& world, FixdOptions opts,
                 heal::PatchRegistry patches = {});
  ~FixdController();

  FixdController(const FixdController&) = delete;
  FixdController& operator=(const FixdController&) = delete;

  /// Run the application under FixD protection.
  FixdReport run_protected(std::uint64_t max_steps = 1ull << 40);

  const scroll::Scroll& the_scroll() const { return scroll_; }
  ckpt::TimeMachine& time_machine() { return tm_; }

 private:
  using Clock = std::chrono::steady_clock;
  static double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  }

  /// The Fig. 4 pipeline for the current violation. Returns the bug report;
  /// `attempt` deepens the rollback.
  BugReport handle_fault(std::size_t attempt, FixdReport& rep);

  /// Walk the escalation ladder; returns true if the run may resume.
  bool recover(const BugReport& bug, FixdReport& rep);

  /// Rung 3 (kRecoveryLine): roll behind the partition onset, heal the
  /// cut links, validate, recheck. Fills `detail` either way.
  bool recover_via_line(const BugReport& bug, std::string& detail);

  rt::World& world_;
  FixdOptions opts_;
  heal::PatchRegistry patches_;
  /// Records with LoggingPreset::digests(); trimmed as the horizon moves.
  scroll::Scroll scroll_;
  ckpt::TimeMachine tm_;
  rt::WorldSnapshot initial_;
  std::size_t line_uses_ = 0;  ///< kRecoveryLine firings (backoff input)
};

}  // namespace fixd::core
