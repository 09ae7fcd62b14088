// Distributed speculations: communication-induced lightweight checkpointing
// (§4.2, the mechanism proposed for the Time Machine).
//
// A speculation is a computation based on an assumption. Entering one takes
// a lightweight (COW) checkpoint of the initiator. While speculative, the
// process's messages carry the speculation id as a *taint*; any process that
// receives tainted data is absorbed: it checkpoints (before the receive) and
// joins the speculation. Then:
//
//   commit  — the assumption held: entry checkpoints are discarded, taints
//             scrubbed from processes and in-flight messages.
//   abort   — the assumption failed: every member rolls back to its entry
//             checkpoint, in-flight tainted messages are discarded, and each
//             member's on_spec_aborted handler runs (the "different
//             execution path upon rollback").
//
// Aborts cascade: if rolling process p back to speculation S's entry point
// also rewinds p past its absorption into another speculation T, then T's
// record of p is stale and T must abort as well.
//
// Aborts are deferred: a handler that calls ctx.spec_abort keeps executing;
// the world applies rollbacks after the handler returns (rolling back the
// C++ stack mid-handler is not survivable).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "rt/hooks.hpp"
#include "rt/world.hpp"

namespace fixd::ckpt {

struct SpecStats {
  std::uint64_t begun = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t absorptions = 0;
  std::uint64_t rollbacks = 0;          ///< process rollbacks performed
  std::uint64_t cascade_aborts = 0;     ///< aborts triggered by other aborts
  std::uint64_t messages_discarded = 0; ///< tainted in-flight drops
};

class SpeculationManager final : public rt::SpecHooks {
 public:
  SpeculationManager() = default;

  /// Install on a world (sets the world's spec hooks to this).
  void attach(rt::World& world) { world.set_spec_hooks(this); }

  // --- rt::SpecHooks -------------------------------------------------------
  std::vector<SpecId> taints_of(ProcessId pid) const override;
  void before_deliver(rt::World& w, const net::Message& msg) override;
  SpecId begin(rt::World& w, ProcessId pid, std::string assumption) override;
  void commit(rt::World& w, ProcessId pid, SpecId id) override;
  void abort(rt::World& w, ProcessId pid, SpecId id) override;
  void apply_deferred(rt::World& w) override;

  // --- introspection -------------------------------------------------------
  bool active(SpecId id) const { return specs_.count(id) != 0; }
  std::size_t active_count() const { return specs_.size(); }
  /// Members of a speculation in absorption order (owner first).
  std::vector<ProcessId> members_of(SpecId id) const;
  const SpecStats& stats() const { return stats_; }

 private:
  struct Member {
    ProcessId pid;
    rt::ProcessCheckpoint entry;  ///< state right before joining
  };
  struct Spec {
    SpecId id = kNoSpec;
    ProcessId owner = kNoProcess;
    std::string assumption;
    std::vector<Member> members;  ///< owner first, then absorption order
    bool has_member(ProcessId pid) const {
      for (const auto& m : members)
        if (m.pid == pid) return true;
      return false;
    }
  };

  /// `floor` tracks, per process, the oldest entry checkpoint restored so
  /// far within the current cascade (by capture serial): a member already
  /// rolled back to an older state must not be re-forwarded to a newer one.
  void do_abort(rt::World& w, SpecId id,
                std::map<ProcessId, std::uint64_t>& floor);

  std::map<SpecId, Spec> specs_;
  std::map<ProcessId, std::vector<SpecId>> taints_;
  std::vector<SpecId> deferred_aborts_;
  SpecId next_id_ = 1;
  SpecStats stats_;
};

}  // namespace fixd::ckpt
