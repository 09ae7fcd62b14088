#include "ckpt/timemachine.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace fixd::ckpt {

TimeMachine::TimeMachine(rt::World& world, TimeMachineOptions opts)
    : world_(world), opts_(opts) {}

TimeMachine::~TimeMachine() {
  if (attached_) detach();
}

void TimeMachine::attach() {
  FIXD_CHECK_MSG(world_.sealed(), "attach: world must be sealed");
  FIXD_CHECK_MSG(!attached_, "attach: already attached");
  stores_.clear();
  stores_.resize(world_.size(), CheckpointStore(opts_.store_capacity));
  world_.add_interceptor(this);
  world_.add_observer(this);
  attached_ = true;
  for (ProcessId pid = 0; pid < world_.size(); ++pid) {
    take_checkpoint(pid, CkptReason::kInitial);
  }
}

void TimeMachine::detach() {
  if (!attached_) return;
  world_.remove_interceptor(this);
  world_.remove_observer(this);
  attached_ = false;
}

void TimeMachine::reset() {
  FIXD_CHECK_MSG(attached_, "reset: not attached");
  stores_.assign(world_.size(), CheckpointStore(opts_.store_capacity));
  delivered_log_.clear();
  for (ProcessId pid = 0; pid < world_.size(); ++pid) {
    take_checkpoint(pid, CkptReason::kInitial);
  }
  settle_horizon(/*reset=*/true);
}

CheckpointId TimeMachine::take_checkpoint(ProcessId pid, CkptReason reason) {
  FIXD_CHECK_MSG(pid < stores_.size(), "take_checkpoint: bad pid");
  if (stores_[pid].full()) advance_horizon();
  // Captures go through the world's capture cache: checkpointing a process
  // that is clean since its last capture stores a shared pointer.
  CheckpointId id =
      stores_[pid].push(reason, world_.capture_process_shared(pid));
  ++stats_.checkpoints;
  switch (reason) {
    case CkptReason::kInitial: ++stats_.ckpt_initial; break;
    case CkptReason::kPeriodic: ++stats_.ckpt_periodic; break;
    case CkptReason::kCic: ++stats_.ckpt_cic; break;
    case CkptReason::kSpecEntry:
    case CkptReason::kManual: ++stats_.ckpt_manual; break;
  }
  return id;
}

const CheckpointStore& TimeMachine::store(ProcessId pid) const {
  FIXD_CHECK_MSG(pid < stores_.size(), "store: bad pid");
  return stores_[pid];
}

std::uint64_t TimeMachine::retained_bytes() const {
  std::uint64_t n = 0;
  for (const auto& s : stores_) n += s.retained_bytes();
  return n;
}

bool TimeMachine::before_event(rt::World& w, const rt::EventDesc& ev) {
  if (opts_.cic) {
    if (ev.kind == rt::EventKind::kDeliver) {
      take_checkpoint(ev.pid, CkptReason::kCic);
    }
    // Const access: the mutable network() accessor breaks the replay key
    // chain, which would defeat this interceptor's purity declaration.
    submitted_before_event_ = std::as_const(w).network().stats().submitted;
  }
  return true;
}

void TimeMachine::after_event(rt::World& w, const rt::EventDesc& ev) {
  if (opts_.cic &&
      std::as_const(w).network().stats().submitted > submitted_before_event_) {
    // The handler sent messages: checkpoint the sender so receivers of
    // those messages never have to domino past this point.
    take_checkpoint(ev.pid, CkptReason::kCic);
  }
  if (opts_.periodic_interval == 0) return;
  std::uint64_t handled = w.events_handled(ev.pid);
  if (handled > 0 && handled % opts_.periodic_interval == 0) {
    take_checkpoint(ev.pid, CkptReason::kPeriodic);
  }
}

void TimeMachine::on_deliver(const rt::World& w, const net::Message& msg) {
  delivered_log_.append(msg, w.vclock_of(msg.dst)[msg.dst]);
}

void TimeMachine::advance_horizon() {
  const std::size_t n = stores_.size();
  std::vector<std::ptrdiff_t> cap(n);
  for (std::size_t p = 0; p < n; ++p) {
    cap[p] = static_cast<std::ptrdiff_t>(stores_[p].size() / 2);
  }
  const LineResult line = RecoveryLineSolver::solve_pinned(stores_, cap);
  bool moved = false;
  for (std::size_t p = 0; p < n; ++p) {
    if (line.index[p] == 0) continue;
    stores_[p].drop_before(line.index[p]);
    moved = true;
  }
  if (!moved) return;
  ++stats_.horizon_advances;

  settle_horizon(/*reset=*/false);
}

void TimeMachine::settle_horizon(bool reset) {
  const std::size_t n = stores_.size();
  std::vector<std::uint64_t> own(n);
  Horizon h;
  h.reset = reset;
  h.capture_serial = ~std::uint64_t{0};
  h.crossing_send_stamps.assign(n, ~std::uint64_t{0});
  for (std::size_t p = 0; p < n; ++p) {
    const rt::ProcessCheckpoint& front = *stores_[p].entries().front().data;
    own[p] = front.vclock[p];
    h.capture_serial = std::min(h.capture_serial, front.capture_serial);
  }
  const auto note = [&](ProcessId src, std::uint64_t send_stamp) {
    if (send_stamp <= own[src]) {
      h.crossing_send_stamps[src] =
          std::min(h.crossing_send_stamps[src], send_stamp);
    }
  };
  // A delivery at or behind the receiver's horizon checkpoint can never be
  // undone, so no rollback will re-inject it. The same pass notes the
  // crossing sends among the deliveries it keeps.
  delivered_log_.retain_if([&](const DeliveredLog::View& v) {
    if (v.head.dst_own_after <= own[v.head.dst]) return false;
    note(v.head.src, v.head.send_stamp);
    return true;
  });
  for (const net::Message* m : world_.network().pending()) {
    if (m->vclock.size() > 0) note(m->src, m->vclock[m->src]);
  }
  if (horizon_listener_) horizon_listener_(h);
}

RecoveryLine TimeMachine::compute_line() const {
  return line_of(RecoveryLineSolver::solve(stores_));
}

RecoveryLine TimeMachine::line_of(LineResult line) const {
  RecoveryLine rl;
  rl.line = std::move(line);
  rl.ids.resize(stores_.size());
  for (std::size_t p = 0; p < stores_.size(); ++p) {
    rl.ids[p] = stores_[p].at(rl.line.index[p]).id;
  }
  return rl;
}

RecoveryLine TimeMachine::rollback() {
  RecoveryLine rl = compute_line();
  execute_line(rl);
  return rl;
}

RecoveryLine TimeMachine::rollback_to(ProcessId failed,
                                      std::size_t ckpt_index) {
  FIXD_CHECK_MSG(failed < stores_.size(), "rollback_to: bad pid");
  std::vector<std::ptrdiff_t> pinned(stores_.size(), -1);
  pinned[failed] = static_cast<std::ptrdiff_t>(ckpt_index);
  return rollback_pinned(pinned);
}

RecoveryLine TimeMachine::rollback_pinned(
    const std::vector<std::ptrdiff_t>& pinned) {
  FIXD_CHECK_MSG(pinned.size() == stores_.size(),
                 "rollback_pinned: pin vector size mismatch");
  RecoveryLine rl = line_of(RecoveryLineSolver::solve_pinned(stores_, pinned));
  execute_line(rl);
  return rl;
}

void TimeMachine::execute_line(RecoveryLine& rl) {
  const std::size_t n = stores_.size();

  // 1. Restore every process to its chosen checkpoint.
  std::vector<const VectorClock*> cut(n);
  for (ProcessId pid = 0; pid < n; ++pid) {
    const StoredCheckpoint& sc = stores_[pid].at(rl.line.index[pid]);
    // Shared overload: a process already holding this checkpoint's content
    // is skipped, and the capture cache re-warms for the next checkpoint.
    world_.restore_process(pid, sc.data);
    cut[pid] = &sc.data->vclock;
  }

  // 2. Drop in-flight messages sent after the line (their sends have been
  //    undone; the re-execution will regenerate them).
  std::vector<MsgId> to_drop;
  for (const net::Message* m : world_.network().pending()) {
    if (m->vclock.size() == 0) continue;  // pre-seal traffic (not possible)
    if (m->vclock[m->src] > (*cut[m->src])[m->src]) {
      to_drop.push_back(m->id);
    }
  }
  for (MsgId id : to_drop) world_.network().drop(id, /*forced=*/true);
  rl.dropped = to_drop.size();
  stats_.messages_dropped += to_drop.size();

  // 3. Re-inject logged messages that crossed the line: sent before the
  //    sender's cut, delivered after the receiver's cut. Without this the
  //    rollback would lose them (the classic in-transit message problem).
  //    Only the records re-injected are decoded. The line is at or after
  //    the horizon, and the log holds every delivery after it.
  delivered_log_.retain_if([&](const DeliveredLog::View& rec) {
    const DeliveredLog::Head& h = rec.head;
    if (h.dst_own_after <= (*cut[h.dst])[h.dst]) return true;
    if (h.send_stamp <= (*cut[h.src])[h.src]) {
      world_.network().reinject(rec.decode());
      ++rl.reinjected;
      ++stats_.messages_reinjected;
    }
    // Either way this delivery has been undone; forget it. Re-deliveries
    // will be logged afresh.
    return false;
  });

  // 4. Checkpoints in the undone future are no longer valid restore points.
  for (ProcessId pid = 0; pid < n; ++pid) {
    stores_[pid].truncate_after(rl.line.index[pid]);
  }

  ++stats_.rollbacks;
}

}  // namespace fixd::ckpt
