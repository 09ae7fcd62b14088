#include "ckpt/speculation.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace fixd::ckpt {

std::vector<SpecId> SpeculationManager::taints_of(ProcessId pid) const {
  auto it = taints_.find(pid);
  if (it == taints_.end()) return {};
  return it->second;
}

void SpeculationManager::before_deliver(rt::World& w,
                                        const net::Message& msg) {
  // Absorption: joining every active speculation tainting the message that
  // the receiver is not yet part of. The entry checkpoint is taken *before*
  // the receive mutates the receiver (Fig. 6: "each process saves a
  // checkpoint before receiving a new message").
  for (SpecId sid : msg.spec_taints) {
    auto it = specs_.find(sid);
    if (it == specs_.end()) continue;  // already committed/aborted
    Spec& spec = it->second;
    if (spec.has_member(msg.dst)) continue;
    Member m;
    m.pid = msg.dst;
    m.entry = w.capture_process(msg.dst, /*cow=*/true);
    spec.members.push_back(std::move(m));
    taints_[msg.dst].push_back(sid);
    ++stats_.absorptions;
    w.notify_spec_event(msg.dst, sid, rt::RuntimeObserver::SpecOp::kAbsorb);
  }
}

SpecId SpeculationManager::begin(rt::World& w, ProcessId pid,
                                 std::string assumption) {
  Spec spec;
  spec.id = next_id_++;
  spec.owner = pid;
  spec.assumption = std::move(assumption);
  Member m;
  m.pid = pid;
  m.entry = w.capture_process(pid, /*cow=*/true);
  spec.members.push_back(std::move(m));
  taints_[pid].push_back(spec.id);
  SpecId id = spec.id;
  specs_.emplace(id, std::move(spec));
  ++stats_.begun;
  w.notify_spec_event(pid, id, rt::RuntimeObserver::SpecOp::kBegin);
  return id;
}

void SpeculationManager::commit(rt::World& w, ProcessId pid, SpecId id) {
  auto it = specs_.find(id);
  FIXD_CHECK_MSG(it != specs_.end(), "commit: unknown speculation");
  FIXD_CHECK_MSG(it->second.owner == pid,
                 "commit: only the owner may validate the assumption");
  // The assumption held: drop entry checkpoints, scrub taints everywhere.
  for (const Member& m : it->second.members) {
    auto& tv = taints_[m.pid];
    std::erase(tv, id);
  }
  w.network().scrub_taint(id);
  specs_.erase(it);
  ++stats_.committed;
  w.notify_spec_event(pid, id, rt::RuntimeObserver::SpecOp::kCommit);
}

void SpeculationManager::abort(rt::World& w, ProcessId pid, SpecId id) {
  auto it = specs_.find(id);
  FIXD_CHECK_MSG(it != specs_.end(), "abort: unknown speculation");
  FIXD_CHECK_MSG(it->second.has_member(pid),
                 "abort: only a member may invalidate the assumption");
  if (std::find(deferred_aborts_.begin(), deferred_aborts_.end(), id) ==
      deferred_aborts_.end()) {
    deferred_aborts_.push_back(id);
  }
  w.notify_spec_event(pid, id, rt::RuntimeObserver::SpecOp::kAbort);
}

void SpeculationManager::apply_deferred(rt::World& w) {
  std::map<ProcessId, std::uint64_t> floor;
  while (!deferred_aborts_.empty()) {
    SpecId id = deferred_aborts_.front();
    deferred_aborts_.erase(deferred_aborts_.begin());
    if (specs_.count(id)) do_abort(w, id, floor);
  }
}

void SpeculationManager::do_abort(rt::World& w, SpecId id,
                                  std::map<ProcessId, std::uint64_t>& floor) {
  Spec spec = std::move(specs_.at(id));
  specs_.erase(id);

  // Roll every member back to its entry checkpoint — unless the member has
  // already been rolled back at least that far by an earlier abort in this
  // cascade (restoring a later entry would resurrect undone state). Entry
  // checkpoints are ordered by their world-unique capture serial.
  for (const Member& m : spec.members) {
    auto it = floor.find(m.pid);
    std::uint64_t current_floor =
        it == floor.end() ? ~0ull : it->second;
    if (m.entry.capture_serial < current_floor) {
      w.restore_process(m.pid, m.entry);
      floor[m.pid] = m.entry.capture_serial;
      ++stats_.rollbacks;
    }
  }

  // Cascade: another speculation T whose member p joined at-or-after p's
  // entry into this speculation has a stale entry checkpoint — T must abort
  // too. Detected by comparing entry step counters.
  for (const Member& m : spec.members) {
    for (auto& [tid, tspec] : specs_) {
      for (const Member& tm : tspec.members) {
        if (tm.pid == m.pid && tm.entry.step >= m.entry.step) {
          if (std::find(deferred_aborts_.begin(), deferred_aborts_.end(),
                        tid) == deferred_aborts_.end()) {
            deferred_aborts_.push_back(tid);
            ++stats_.cascade_aborts;
          }
        }
      }
    }
  }

  // Discard speculative traffic still in flight.
  stats_.messages_discarded += w.network().drop_tainted(id);

  // Clear membership taints.
  for (const Member& m : spec.members) {
    std::erase(taints_[m.pid], id);
  }

  ++stats_.aborted;

  // Alternate execution path, owner first then absorption order.
  for (const Member& m : spec.members) {
    w.notify_spec_aborted(m.pid, id, spec.assumption);
  }
}

std::vector<ProcessId> SpeculationManager::members_of(SpecId id) const {
  std::vector<ProcessId> out;
  auto it = specs_.find(id);
  if (it == specs_.end()) return out;
  for (const auto& m : it->second.members) out.push_back(m.pid);
  return out;
}

}  // namespace fixd::ckpt
