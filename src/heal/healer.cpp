#include "heal/healer.hpp"

namespace fixd::heal {

std::optional<std::string> Healer::check_update_point(
    ProcessId pid, const ckpt::SpeculationManager* specs) const {
  if (opts_.require_quiescent_inbound) {
    // O(1): the network maintains per-destination in-flight counters for
    // non-control traffic (SimNetwork::inflight_to), so the common all-clear
    // answer never rescans pending(). The scan only runs on refusal, to
    // name a concrete offending message in the error.
    if (world_.network().inflight_to(pid) != 0) {
      for (const net::Message* m : world_.network().pending()) {
        if (m->dst == pid && !m->control) {
          return "inbound message in flight (msg#" + std::to_string(m->id) +
                 " from p" + std::to_string(m->src) + ")";
        }
      }
      FIXD_CHECK_MSG(false, "inflight counter disagrees with pending set");
    }
  }
  if (specs != nullptr) {
    auto taints = specs->taints_of(pid);
    if (!taints.empty()) {
      return "process is inside speculation s" + std::to_string(taints[0]);
    }
  }
  return std::nullopt;
}

std::unique_ptr<rt::Process> Healer::build_replacement(
    ProcessId pid, const UpdatePatch& patch, std::string& error) {
  rt::Process& old = world_.process(pid);
  if (!patch.applies_to(old)) {
    error = "patch targets " + patch.target_type + " v" +
            std::to_string(patch.from_version) + ", process p" +
            std::to_string(pid) + " is " + old.type_name() + " v" +
            std::to_string(old.version());
    return nullptr;
  }

  BinaryWriter old_root;
  old.save_root(old_root);

  BinaryWriter new_root;
  BinaryReader in(old_root.bytes());
  if (!patch.transform(in, new_root)) {
    error = "state transform rejected the old state";
    return nullptr;
  }

  std::unique_ptr<rt::Process> fresh = patch.factory();
  if (!fresh) {
    error = "patch factory returned null";
    return nullptr;
  }
  try {
    BinaryReader nr(new_root.bytes());
    fresh->load_root(nr);
  } catch (const FixdError& e) {
    error = std::string("new version rejected transformed state: ") +
            e.what();
    return nullptr;
  }

  if (patch.carry_heap && old.cow_heap() != nullptr &&
      fresh->cow_heap() != nullptr) {
    BinaryWriter hw;
    old.cow_heap()->save(hw);
    BinaryReader hr(hw.bytes());
    fresh->cow_heap()->load(hr);
  }

  if (patch.validate) {
    if (auto err = patch.validate(*fresh)) {
      error = "post-update validation failed: " + *err;
      return nullptr;
    }
  }
  return fresh;
}

HealReport Healer::apply(ProcessId pid, const UpdatePatch& patch,
                         const ckpt::SpeculationManager* specs) {
  HealReport rep;
  if (auto unsafe = check_update_point(pid, specs)) {
    rep.error = "unsafe update point for p" + std::to_string(pid) + ": " +
                *unsafe;
    return rep;
  }
  std::string error;
  auto fresh = build_replacement(pid, patch, error);
  if (!fresh) {
    rep.error = std::move(error);
    return rep;
  }

  auto old = world_.swap_process(pid, std::move(fresh));

  if (opts_.revalidate_invariants) {
    std::size_t before = world_.violations().size();
    world_.recheck_invariants();
    if (world_.violations().size() > before) {
      rep.error = "post-update invariant violation: " +
                  world_.violations().back().to_string();
      // The probe's violations are not real run faults; drop them.
      auto kept = world_.violations();
      kept.resize(before);
      world_.clear_violations();
      for (auto& v : kept) world_.record_violation(std::move(v));
      world_.swap_process(pid, std::move(old));
      return rep;
    }
  }

  rep.ok = true;
  rep.updated.push_back(pid);
  return rep;
}

HealReport Healer::apply_all(const UpdatePatch& patch,
                             const ckpt::SpeculationManager* specs) {
  HealReport rep;
  std::vector<ProcessId> targets;
  for (ProcessId pid = 0; pid < world_.size(); ++pid) {
    if (patch.applies_to(world_.process(pid))) targets.push_back(pid);
  }
  if (targets.empty()) {
    rep.error = "no process matches patch for " + patch.target_type + " v" +
                std::to_string(patch.from_version);
    return rep;
  }

  // Stage 1: safety checks and replacement construction for all targets —
  // nothing is swapped until everything is known-good (atomicity).
  std::vector<std::unique_ptr<rt::Process>> replacements;
  for (ProcessId pid : targets) {
    if (auto unsafe = check_update_point(pid, specs)) {
      rep.error = "unsafe update point for p" + std::to_string(pid) + ": " +
                  *unsafe;
      return rep;
    }
    std::string error;
    auto fresh = build_replacement(pid, patch, error);
    if (!fresh) {
      rep.error = "p" + std::to_string(pid) + ": " + error;
      return rep;
    }
    replacements.push_back(std::move(fresh));
  }

  // Stage 2: swap all.
  std::vector<std::unique_ptr<rt::Process>> olds;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    olds.push_back(
        world_.swap_process(targets[i], std::move(replacements[i])));
  }

  if (opts_.revalidate_invariants) {
    std::size_t before = world_.violations().size();
    world_.recheck_invariants();
    if (world_.violations().size() > before) {
      rep.error = "post-update invariant violation: " +
                  world_.violations().back().to_string();
      auto kept = world_.violations();
      kept.resize(before);
      world_.clear_violations();
      for (auto& v : kept) world_.record_violation(std::move(v));
      for (std::size_t i = 0; i < targets.size(); ++i) {
        world_.swap_process(targets[i], std::move(olds[i]));
      }
      return rep;
    }
  }

  rep.ok = true;
  rep.updated = targets;
  return rep;
}

}  // namespace fixd::heal
