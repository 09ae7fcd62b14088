// The Healer (§3.4, Fig. 5): applying a fix to a running system.
//
// Given a rolled-back (or live) world and an UpdatePatch, the Healer:
//   1. checks the update point is safe — the target must not be inside any
//      speculation (always checked when a SpeculationManager is given) and,
//      by default, must have no in-flight inbound traffic (quiescence, the
//      condition under which old-state ≡ new-state equivalence can be
//      established mechanically);
//   2. extracts the old state, runs the state transformer, loads it into a
//      fresh instance of the new behaviour, carries the COW heap across;
//   3. swaps the process objects in place (same pid; clocks/timers survive);
//   4. re-validates invariants; on any failure the swap is rolled back and
//      the report says why (the caller then falls back to restart).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ckpt/speculation.hpp"
#include "heal/patch.hpp"
#include "rt/world.hpp"

namespace fixd::heal {

struct HealOptions {
  /// Refuse the update while messages addressed to the target are in flight.
  bool require_quiescent_inbound = true;
  /// Re-run all invariants after the swap; roll the swap back if any fires.
  bool revalidate_invariants = true;
};

struct HealReport {
  bool ok = false;
  std::vector<ProcessId> updated;
  std::string error;  ///< first failure (empty when ok)

  std::string to_string() const {
    if (ok) {
      std::string s = "healed processes:";
      for (ProcessId p : updated) s += " p" + std::to_string(p);
      return s;
    }
    return "heal failed: " + error;
  }
};

class Healer {
 public:
  explicit Healer(rt::World& world, HealOptions opts = {})
      : world_(world), opts_(opts) {}

  /// Why `pid` cannot be updated right now; nullopt = safe.
  std::optional<std::string> check_update_point(
      ProcessId pid, const ckpt::SpeculationManager* specs) const;

  /// Update one process.
  HealReport apply(ProcessId pid, const UpdatePatch& patch,
                   const ckpt::SpeculationManager* specs = nullptr);

  /// Update every process the patch applies to. Fails atomically: either
  /// all applicable processes update or none do.
  HealReport apply_all(const UpdatePatch& patch,
                       const ckpt::SpeculationManager* specs = nullptr);

 private:
  /// Build the updated replacement for the live process; null on failure
  /// (with `error` set).
  std::unique_ptr<rt::Process> build_replacement(ProcessId pid,
                                                 const UpdatePatch& patch,
                                                 std::string& error);

  rt::World& world_;
  HealOptions opts_;
};

}  // namespace fixd::heal
