// Deterministic replay and divergence detection.
//
// Replay drives a *fresh* world (same processes, same options) with a
// ReplayScheduler built from a recorded scroll's schedule, while a second
// scroll records the re-execution. Comparing the two scrolls record by
// record yields either "identical run" or the exact first point of
// divergence — the Jockey/Flashback capability (§2.3) on our substrate.
//
// A RecordedEnvSource can replace the live environment during replay
// ("re-running the application in the absence of the remote entities"):
// environment reads are answered from the recording instead of the model.
#pragma once

#include <optional>
#include <string>

#include "rt/hooks.hpp"
#include "rt/world.hpp"
#include "scroll/scroll.hpp"

namespace fixd::scroll {

/// Feeds recorded environment-read values back during replay, walking the
/// recording, which must outlive the source and not change meanwhile.
class RecordedEnvSource final : public rt::EnvSource {
 public:
  explicit RecordedEnvSource(const Scroll& recorded)
      : cursor_(recorded.cursor()) {}

  std::optional<std::uint64_t> next_env(ProcessId pid,
                                        std::string_view key) override;

 private:
  Scroll::Cursor cursor_;
};

struct ReplayReport {
  bool ok = false;
  std::uint64_t steps = 0;
  std::uint64_t final_digest = 0;   ///< world digest after replay
  std::string divergence;          ///< empty when ok
  std::size_t divergence_index = 0;///< record index of first mismatch

  std::string to_string() const {
    if (ok) {
      return "replay ok: " + std::to_string(steps) + " steps, digest " +
             std::to_string(final_digest);
    }
    return "replay DIVERGED at record " + std::to_string(divergence_index) +
           ": " + divergence;
  }
};

class ReplayEngine {
 public:
  /// Replay `recorded` against `fresh` (a world constructed identically to
  /// the recorded one, not yet run). Installs a ReplayScheduler and a
  /// verification scroll; returns the comparison.
  ///
  /// `use_recorded_env=true` answers env reads from the recording (black-box
  /// environment); false re-runs the live env model (which is deterministic,
  /// so both should agree unless the environment model changed).
  static ReplayReport replay(rt::World& fresh, const Scroll& recorded,
                             bool use_recorded_env = true);

  /// Compare two scrolls; nullopt when they match, else (index, message).
  static std::optional<std::pair<std::size_t, std::string>> compare(
      const Scroll& a, const Scroll& b);
};

}  // namespace fixd::scroll
