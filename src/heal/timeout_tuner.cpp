#include "heal/timeout_tuner.hpp"

#include "common/hash.hpp"

namespace fixd::heal {

namespace {
/// The ladder gives up rather than probe a candidate above this.
constexpr VirtualTime kMaxTimeout = 1ull << 14;
/// Total probe budget (ladder + bisection).
constexpr std::size_t kMaxProbes = 24;
}  // namespace

std::uint64_t TunerResult::states_explored() const {
  std::uint64_t total = 0;
  for (const TunerProbe& p : trajectory) total += p.states;
  return total;
}

std::uint64_t TunerResult::trajectory_digest() const {
  Hasher h;
  for (const TunerProbe& p : trajectory) {
    h.update_u64(p.candidate);
    h.update_u64(p.passed ? 1 : 0);
    h.update_u64(p.violations);
    h.update_u64(p.states);
  }
  h.update_u64(ok ? 1 : 0);
  h.update_u64(healed_value);
  return h.digest();
}

std::string TunerResult::render() const {
  std::string s = ok ? "tuned timeout -> " + std::to_string(healed_value)
                     : "tuning failed: " + error;
  s += " (" + std::to_string(trajectory.size()) + " probes:";
  for (const TunerProbe& p : trajectory) {
    s += " " + std::to_string(p.candidate) + (p.passed ? "+" : "-");
  }
  s += ")";
  return s;
}

TimeoutTuner::TimeoutTuner(rt::World& base, TimeoutSite site,
                           TunerOptions opts)
    : base_(base), site_(std::move(site)), opts_(std::move(opts)) {
  FIXD_CHECK_MSG(static_cast<bool>(site_.make_patch),
                 "TimeoutTuner: site has no make_patch");
}

TunerProbe TimeoutTuner::probe(VirtualTime candidate, std::string& error) {
  TunerProbe pr;
  pr.candidate = candidate;

  // Fresh clone per probe: hooks/invariants are dropped, so the candidate
  // patch is evaluated on exactly the rolled-back state and nothing else.
  std::unique_ptr<rt::World> w = base_.clone();

  HealOptions hopts;
  // The candidate changes configuration only — old-state/new-state
  // equivalence holds with traffic in flight, so the usual quiescence
  // precondition is waived for the probe. Invariants are not installed on
  // the clone, so there is nothing to revalidate at swap time either (the
  // timed re-exploration below is the real validation).
  hopts.require_quiescent_inbound = false;
  hopts.revalidate_invariants = false;
  Healer healer(*w, hopts);
  HealReport hr = healer.apply_all(site_.make_patch(candidate));
  if (!hr.ok) {
    error = "candidate " + std::to_string(candidate) +
            " failed to apply: " + hr.error;
    return pr;
  }

  mc::SysExploreOptions vopts = opts_.validate;
  vopts.abstract_time = false;  // timed: the value must gate enabledness
  mc::SystemExplorer explorer(*w, vopts);
  mc::SysExploreResult res = explorer.explore();
  pr.violations = res.violations.size();
  pr.states = res.stats.states;
  pr.passed = res.violations.empty();
  return pr;
}

TunerResult TimeoutTuner::tune() {
  TunerResult res;
  std::string error;

  // Rung 0: the current value. If it already validates clean the bug was
  // not (or not only) this timeout — report that rather than "healing"
  // with a no-op.
  VirtualTime lo = site_.current > 0 ? site_.current : 1;
  TunerProbe base = probe(lo, error);
  res.trajectory.push_back(base);
  if (!error.empty()) {
    res.error = error;
    return res;
  }
  if (base.passed) {
    res.error = "current value " + std::to_string(lo) +
                " already validates clean; nothing to tune";
    return res;
  }

  // Exponential ladder: double until a candidate validates clean.
  VirtualTime hi = lo;
  bool found = false;
  while (res.trajectory.size() < kMaxProbes) {
    if (hi > kMaxTimeout / 2) break;
    hi *= 2;
    TunerProbe p = probe(hi, error);
    res.trajectory.push_back(p);
    if (!error.empty()) {
      res.error = error;
      return res;
    }
    if (p.passed) {
      found = true;
      break;
    }
    lo = hi;  // highest known-failing rung
  }
  if (!found) {
    res.error = "no timeout <= " + std::to_string(kMaxTimeout) +
                " validates clean (" + std::to_string(res.trajectory.size()) +
                " probes)";
    return res;
  }

  // Bisect (lo fails, hi passes) down to the smallest clean value. Every
  // move of `hi` is to a directly-validated candidate.
  while (hi - lo > 1 && res.trajectory.size() < kMaxProbes) {
    VirtualTime mid = lo + (hi - lo) / 2;
    TunerProbe p = probe(mid, error);
    res.trajectory.push_back(p);
    if (!error.empty()) {
      res.error = error;
      return res;
    }
    if (p.passed) {
      hi = mid;
    } else {
      lo = mid;
    }
  }

  res.ok = true;
  res.healed_value = hi;
  res.patch = site_.make_patch(hi);
  return res;
}

}  // namespace fixd::heal
