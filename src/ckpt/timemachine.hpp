// The Time Machine (§3.2, Fig. 2): rollback of the distributed application
// to a consistent global state.
//
// Attached to a world, the Time Machine:
//   - takes an initial checkpoint of every process,
//   - takes periodic and/or communication-induced checkpoints per policy,
//   - logs delivered messages (sender-based message logging, one compact
//     record each in a DeliveredLog) so that a rollback can re-inject
//     messages that were in flight across the recovery line,
//   - computes consistent recovery lines over the checkpoint histories
//     (RecoveryLineSolver, reading the stores in place) and performs the
//     actual rollback: restore each process, drop channel traffic sent
//     after the line, re-inject logged messages delivered after the line.
//
// History is bounded by one horizon: a consistent line kept as the front
// of every CheckpointStore (the initial checkpoints at attach() and
// reset()). When a store is full, the horizon advances to the latest
// consistent line with every process capped at half its store, and the
// delivered log drops every record at or behind it. Every line the solver
// returns is at or after the horizon, and the log holds every delivery
// after it, so no rollback loses a message that crossed its line. A log
// kept beside the Time Machine (the controller's Scroll) follows the
// horizon through its listener.
//
// Checkpoints are COW captures: shared page tables, taken through the
// world's capture cache. A checkpoint that must leave the process (the
// controller's Fig. 4 exchange) is serialized at that point, not here.
#pragma once

#include <functional>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/delivered_log.hpp"
#include "ckpt/recovery.hpp"
#include "rt/hooks.hpp"
#include "rt/world.hpp"

namespace fixd::ckpt {

struct TimeMachineOptions {
  std::size_t store_capacity = 64;
  /// Take a checkpoint of a process every N events it handles (0 = off).
  std::uint64_t periodic_interval = 0;
  /// Communication-induced: checkpoint before every receive (Fig. 6) and
  /// after any event in which the process sent messages. The send-side half
  /// keeps pure senders checkpointed — without it their only checkpoint is
  /// the initial one and every receiver dominoes back to the start.
  bool cic = false;
};

struct TimeMachineStats {
  std::uint64_t checkpoints = 0;
  std::uint64_t ckpt_initial = 0;
  std::uint64_t ckpt_periodic = 0;
  std::uint64_t ckpt_cic = 0;
  std::uint64_t ckpt_manual = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t messages_dropped = 0;    ///< sent-after-line channel drops
  std::uint64_t messages_reinjected = 0; ///< logged deliveries re-injected
  std::uint64_t horizon_advances = 0;    ///< times the horizon moved forward
};

/// A computed (and possibly executed) recovery line.
struct RecoveryLine {
  LineResult line;
  std::vector<CheckpointId> ids;  ///< chosen checkpoint id per process
  std::size_t dropped = 0;
  std::size_t reinjected = 0;
};

class TimeMachine final : public rt::StepInterceptor,
                          public rt::RuntimeObserver {
 public:
  TimeMachine(rt::World& world, TimeMachineOptions opts = {});
  ~TimeMachine() override;

  TimeMachine(const TimeMachine&) = delete;
  TimeMachine& operator=(const TimeMachine&) = delete;

  /// Hook into the world and take initial checkpoints. World must be sealed.
  void attach();
  void detach();
  bool attached() const { return attached_; }

  const TimeMachineOptions& options() const { return opts_; }

  /// Drop all history (stores + delivered-message log) and re-take initial
  /// checkpoints of the current state, which become the horizon. Used
  /// after a restart or a dynamic update: old-version checkpoints are not
  /// valid restore points for the new code, so the updated system starts a
  /// fresh checkpoint era.
  void reset();

  /// Manual checkpoint of one process. Advances the horizon first when
  /// the process's store is full.
  CheckpointId take_checkpoint(ProcessId pid,
                               CkptReason reason = CkptReason::kManual);

  const CheckpointStore& store(ProcessId pid) const;

  /// Compute the most recent consistent line without executing it.
  RecoveryLine compute_line() const;

  /// Compute a line with `failed` pinned to its checkpoint `ckpt_index`
  /// (the faulty process chooses how far back it must go; the rest of the
  /// system adapts), then execute the rollback.
  RecoveryLine rollback_to(ProcessId failed, std::size_t ckpt_index);

  /// Compute a line with every process capped at `pinned[p]` (-1 = free,
  /// its latest), then execute the rollback. The escalation ladder's
  /// recovery-line rung uses this to put the whole system behind a
  /// partition onset: one process alone can be consistently restored to a
  /// pre-onset checkpoint while a peer keeps post-onset local progress
  /// (e.g. a unilateral leader declaration) that no channel ever carried.
  RecoveryLine rollback_pinned(const std::vector<std::ptrdiff_t>& pinned);

  /// Roll back to the most recent consistent line.
  RecoveryLine rollback();

  const TimeMachineStats& stats() const { return stats_; }

  /// Where the horizon stands, for a log kept beside the Time Machine (the
  /// controller's Scroll) that drops what lies behind it.
  struct Horizon {
    /// reset() made the current state the horizon: with no message in
    /// flight across it, nothing recorded before it is needed.
    bool reset = false;
    /// The world capture serial of the horizon's oldest checkpoint:
    /// everything the world did before that capture lies behind every
    /// process's horizon checkpoint. Capture serials never rewind.
    std::uint64_t capture_serial = 0;
    /// The horizon's channel state, by sender: the least send stamp (the
    /// sender's own vclock entry at the send) of a message it sent at or
    /// behind its horizon checkpoint that is still pending or was
    /// delivered after the receiver's; all ones when there is none. The
    /// sender's own clock stays at or above it from the send on, for as
    /// long as the message is in flight: a rollback of the sender to
    /// before the send drops the message or undoes its delivery.
    std::vector<std::uint64_t> crossing_send_stamps;
  };
  /// Called each time the horizon moves: after an advance, and at the end
  /// of reset(). One listener; an empty function removes it.
  void set_horizon_listener(std::function<void(const Horizon&)> listener) {
    horizon_listener_ = std::move(listener);
  }

  /// Total retained checkpoint storage (bytes) across processes.
  std::uint64_t retained_bytes() const;

  /// The delivered-message log: every delivery after the horizon, oldest
  /// first (and none at or behind it).
  const DeliveredLog& delivered_log() const { return delivered_log_; }

  // --- rt::StepInterceptor --------------------------------------------------
  bool before_event(rt::World& w, const rt::EventDesc& ev) override;
  void after_event(rt::World& w, const rt::EventDesc& ev) override;

  /// The time machine is a passive interceptor: it captures state but
  /// never changes which event runs or what it does, so the world
  /// trajectory is independent of its internal state. Declaring purity
  /// with the default zero digest keeps replay-warm keying alive while a
  /// time machine is attached (docs/ROBUSTNESS.md, purity table).
  bool replay_pure() const override { return true; }

  // --- rt::RuntimeObserver --------------------------------------------------
  void on_deliver(const rt::World& w, const net::Message& msg) override;

 private:
  /// Moves every store's front to the latest consistent line with each
  /// process capped at half its store, then settles the horizon there.
  void advance_horizon();
  /// Drops the deliveries at or behind the horizon (every store's front)
  /// from the log, in one pass that notes the crossing sends of those it
  /// keeps, and tells the listener where the horizon stands.
  void settle_horizon(bool reset);
  /// `line` with the checkpoint id each process is restored to.
  RecoveryLine line_of(LineResult line) const;
  void execute_line(RecoveryLine& rl);

  rt::World& world_;
  TimeMachineOptions opts_;
  std::vector<CheckpointStore> stores_;
  DeliveredLog delivered_log_;
  TimeMachineStats stats_;
  std::function<void(const Horizon&)> horizon_listener_;
  std::uint64_t submitted_before_event_ = 0;
  bool attached_ = false;
};

}  // namespace fixd::ckpt
