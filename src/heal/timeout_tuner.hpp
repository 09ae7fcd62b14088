// The TimeoutTuner: self-configuring timeout healing.
//
// Closes the detect -> report -> recover loop for *configuration* bugs:
// when the Investigator's trails implicate a timer (a timeout fired where
// it should not have, or a delivery outlived it), there is often no buggy
// line of code to swap — the timeout value itself undercuts the
// environment. The tuner searches candidate timeout values and synthesizes
// the fix as an ordinary dynamic update (heal/patch.hpp) whose
// StateTransform rewrites the stored configuration, so the Healer's
// machinery (quiescence checks, atomic swap, invariant revalidation)
// applies unchanged.
//
// Search: an exponential ladder doubling from the current value until a
// candidate validates clean, then bisection down to the smallest clean
// value (bounded-delay environments make "clean" monotone in the timeout;
// the bisection assumes that, but every *accepted* value was itself
// validated directly, so a non-monotone site can at worst make the result
// non-minimal, never unsound). The search is bounded by two constants in
// timeout_tuner.cpp: no candidate above 16384 and at most 24 probes; a
// ladder that reaches the first bound without a clean value gives up.
//
// Validation: each candidate is probed on a fresh clone of the base world
// — the patch is applied to the clone, then the Investigator re-explores
// in TIMED mode (SysExploreOptions::abstract_time = false) with the delay
// environment model. Timed mode is essential: abstract time ignores ready
// times and deadlines, so every timeout value behaves identically there;
// only timed exploration can distinguish a timeout that dominates the
// modelled worst-case delay (model_delay_horizon) from one that undercuts
// it. A candidate is accepted only at zero violations.
//
// Determinism: probes are pure functions of (base snapshot, candidate,
// options) — cloning drops hooks, the explorer is deterministic, and the
// ladder/bisection arithmetic has no randomness — so two same-seed runs
// produce byte-identical trajectories (TunerResult::trajectory_digest).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "heal/healer.hpp"
#include "heal/patch.hpp"
#include "mc/sysmodel.hpp"
#include "rt/world.hpp"

namespace fixd::heal {

/// Where a tunable timeout lives: which process type owns it, its current
/// value, and how to build the candidate patch. Applications export these
/// next to their fix patches (e.g. apps::kv_lag_timeout_site).
struct TimeoutSite {
  /// Shows up in reports.
  std::string name;
  /// Process::type_name() owning the timeout.
  std::string target_type;
  /// Version the candidate patches upgrade from.
  std::uint32_t from_version = 1;
  /// Application timer kind backed by this timeout (report metadata; the
  /// tuner itself searches by value, not by kind).
  std::uint32_t timer_kind = 0;
  /// The currently configured value (the ladder's starting rung).
  VirtualTime current = 0;
  /// Builds the dynamic update that sets the timeout to `candidate`.
  std::function<UpdatePatch(VirtualTime candidate)> make_patch;
};

struct TunerOptions {
  /// Exploration options for candidate validation, invariant installer
  /// included (clones carry no invariants). abstract_time is forced to
  /// false (see file comment); enable model_message_delay (and friends)
  /// here to validate against the adversarial environment.
  mc::SysExploreOptions validate;
};

/// One validated candidate.
struct TunerProbe {
  VirtualTime candidate = 0;
  bool passed = false;          ///< zero violations in timed re-exploration
  std::size_t violations = 0;
  std::uint64_t states = 0;     ///< explored states (probe cost)
};

struct TunerResult {
  bool ok = false;
  /// The accepted (validated-clean) timeout value.
  VirtualTime healed_value = 0;
  /// Every probe in search order — the tuner's full trajectory.
  std::vector<TunerProbe> trajectory;
  /// The synthesized dynamic update for healed_value (valid iff ok).
  UpdatePatch patch;
  std::string error;  ///< set iff !ok
  /// Total states explored across all probes (convergence cost).
  std::uint64_t states_explored() const;
  /// Order-sensitive digest of the trajectory; equal digests mean the two
  /// searches took byte-identical paths (the determinism contract).
  std::uint64_t trajectory_digest() const;
  std::string render() const;
};

class TimeoutTuner {
 public:
  /// `base` is the state to heal from (typically the world the Time
  /// Machine just rolled back). It is cloned per probe, never modified.
  TimeoutTuner(rt::World& base, TimeoutSite site, TunerOptions opts = {});

  TunerResult tune();

 private:
  TunerProbe probe(VirtualTime candidate, std::string& error);

  rt::World& base_;
  TimeoutSite site_;
  TunerOptions opts_;
};

}  // namespace fixd::heal
