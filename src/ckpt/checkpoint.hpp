// Checkpoint storage: per-process histories of captured states.
//
// Each process accumulates checkpoints (initial, periodic, communication-
// induced, speculation-entry, manual). The front entry is pinned: under the
// Time Machine it is the process's checkpoint on the horizon, the oldest
// consistent line any rollback may reach (the initial checkpoint until the
// horizon first advances). A push into a full store evicts the oldest entry
// behind the front; the Time Machine advances the horizon first, so that
// eviction happens only when the horizon cannot move this process.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "rt/world.hpp"

namespace fixd::ckpt {

enum class CkptReason : std::uint8_t {
  kInitial = 0,   ///< taken when the Time Machine attaches
  kPeriodic = 1,  ///< every N events
  kCic = 2,       ///< communication-induced: before a receive (§4.2, Fig. 6)
  kSpecEntry = 3, ///< speculation begin / absorption
  kManual = 4,
};

struct StoredCheckpoint {
  CheckpointId id = kNoCheckpoint;  ///< per-process, monotonically increasing
  CkptReason reason = CkptReason::kManual;
  /// Shared with the world's capture cache (and other stores) when the
  /// process was clean between captures: consecutive checkpoints of an
  /// unchanged process cost one pointer, not one copy.
  std::shared_ptr<const rt::ProcessCheckpoint> data;
};

class CheckpointStore {
 public:
  /// `capacity` counts the pinned front checkpoint, so it must leave at
  /// least one rotating slot: below 2 throws ConfigError.
  explicit CheckpointStore(std::size_t capacity = 64);

  /// Append a checkpoint; evicts the oldest entry behind the front if full.
  CheckpointId push(CkptReason reason,
                    std::shared_ptr<const rt::ProcessCheckpoint> data);

  /// Convenience for callers holding a checkpoint by value.
  CheckpointId push(CkptReason reason, rt::ProcessCheckpoint data) {
    return push(reason, std::make_shared<const rt::ProcessCheckpoint>(
                            std::move(data)));
  }

  std::size_t size() const { return entries_.size(); }
  bool full() const { return entries_.size() >= capacity_; }

  /// Entries oldest-to-newest (ascending id: ids are monotonic and
  /// eviction only removes from the front region). A deque so that
  /// evicting slot 1 and dropping a run of front entries are O(1) per
  /// entry instead of shifting every retained checkpoint.
  const std::deque<StoredCheckpoint>& entries() const { return entries_; }

  /// Entry `index`'s vector clock, unchecked: a store reads as one row of
  /// the recovery-line solver's history, in place.
  const VectorClock& operator[](std::size_t index) const {
    return entries_[index].data->vclock;
  }

  const StoredCheckpoint& latest() const;
  const StoredCheckpoint& at(std::size_t index) const;
  /// Binary search over the id-sorted entries.
  const StoredCheckpoint* find(CheckpointId id) const;

  /// Cumulative storage cost of retained checkpoints; entries sharing one
  /// underlying checkpoint are counted once.
  std::uint64_t retained_bytes() const;

  /// Total checkpoints ever pushed (including evicted).
  std::uint64_t total_pushed() const { return total_pushed_; }

  /// Drop every checkpoint newer than `index` (after a rollback the undone
  /// future must not be restorable).
  void truncate_after(std::size_t index);
  /// Drop every checkpoint older than `index`, which becomes the front (the
  /// horizon advanced past them). They are released one per later push,
  /// the rhythm of a ring's eviction: freeing half a store at once leaves
  /// the allocator's caches cold for the captures that follow. Live and
  /// dropped entries together never exceed the capacity.
  void drop_before(std::size_t index);

 private:
  std::size_t capacity_;
  std::deque<StoredCheckpoint> entries_;
  /// Dropped by drop_before() and not yet released.
  std::vector<std::shared_ptr<const rt::ProcessCheckpoint>> dropped_;
  CheckpointId next_id_ = 0;
  std::uint64_t total_pushed_ = 0;
};

}  // namespace fixd::ckpt
