#include <sstream>

#include "core/fixd.hpp"

namespace fixd::core {

const char* to_string(RecoveryRung r) {
  switch (r) {
    case RecoveryRung::kTimeoutTuner: return "timeout-tuner";
    case RecoveryRung::kPatchRegistry: return "patch-registry";
    case RecoveryRung::kRecoveryLine: return "recovery-line";
    case RecoveryRung::kRestart: return "restart";
  }
  return "?";
}

std::string BugReport::render() const {
  std::ostringstream os;
  os << "=== FixD bug report ===\n";
  os << "violation: " << violation.to_string() << "\n";
  os << "recovery line: rollback depth " << line.line.total_rollback()
     << " checkpoints, " << line.line.total_events_undone()
     << " events undone, " << line.dropped << " in-flight messages dropped, "
     << line.reinjected << " re-injected\n";
  os << "collection: " << collect.control_messages << " control messages, "
     << collect.control_bytes << " bytes, " << collect.checkpoints_collected
     << " checkpoints, " << collect.models_collected << " models\n";
  os << "investigation (" << investigated_via << "): " << explore.states
     << " states, " << explore.transitions << " transitions, "
     << trails.size() << " violating trail(s)"
     << (explore.truncated ? " (budget hit)" : "") << "\n";
  for (std::size_t i = 0; i < trails.size(); ++i) {
    os << "--- trail " << (i + 1) << " (depth " << trails[i].depth
       << "): " << trails[i].violation.to_string() << "\n"
       << trails[i].trail.render();
  }
  if (!scroll_excerpt.empty()) {
    os << "--- scroll excerpt ---\n" << scroll_excerpt;
  }
  return os.str();
}

std::string FixdReport::render() const {
  std::ostringstream os;
  os << "=== FixD run report ===\n";
  os << "completed: " << (completed ? "yes" : "NO") << "\n";
  os << "faults detected: " << faults_detected << ", heals applied: "
     << heals_applied << ", restarts: " << restarts << "\n";
  for (const auto& rung : ladder) {
    os << "ladder: " << to_string(rung.rung) << " "
       << (rung.ok ? "ok" : "FAILED");
    if (!rung.detail.empty()) os << " — " << rung.detail;
    os << "\n";
  }
  if (remote_investigations + investigate_fallbacks > 0) {
    os << "investigations: " << remote_investigations << " via daemon, "
       << investigate_fallbacks << " degraded in-process\n";
  }
  os << "scroll: " << scroll_records << " records held, " << scroll_trimmed
     << " trimmed, " << scroll_bytes << " bytes\n";
  os << "phases (ms): run " << phases.run_ms << ", rollback "
     << phases.rollback_ms << ", collect " << phases.collect_ms
     << ", investigate " << phases.investigate_ms << ", heal "
     << phases.heal_ms << "\n";
  for (const auto& bug : bugs) {
    os << bug.render();
  }
  return os.str();
}

}  // namespace fixd::core
