#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/error.hpp"

namespace fixd::ckpt {

CheckpointStore::CheckpointStore(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ < 2) {
    throw ConfigError("checkpoint store capacity " +
                      std::to_string(capacity_) +
                      " leaves no slot beside the pinned front checkpoint; "
                      "the minimum is 2");
  }
}

CheckpointId CheckpointStore::push(
    CkptReason reason, std::shared_ptr<const rt::ProcessCheckpoint> data) {
  FIXD_CHECK_MSG(data != nullptr, "push: null checkpoint");
  StoredCheckpoint sc;
  sc.id = next_id_++;
  sc.reason = reason;
  sc.data = std::move(data);
  if (!dropped_.empty()) dropped_.pop_back();
  // Keep the front pinned; evicting slot 1 shifts only the front entry.
  if (full()) entries_.erase(entries_.begin() + 1);
  entries_.push_back(std::move(sc));
  ++total_pushed_;
  return entries_.back().id;
}

const StoredCheckpoint& CheckpointStore::latest() const {
  FIXD_CHECK_MSG(!entries_.empty(), "checkpoint store is empty");
  return entries_.back();
}

const StoredCheckpoint& CheckpointStore::at(std::size_t index) const {
  FIXD_CHECK_MSG(index < entries_.size(), "checkpoint index out of range");
  return entries_[index];
}

const StoredCheckpoint* CheckpointStore::find(CheckpointId id) const {
  // Ids are assigned monotonically and eviction preserves order, so the
  // deque is always sorted by id.
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const StoredCheckpoint& e, CheckpointId v) { return e.id < v; });
  return (it != entries_.end() && it->id == id) ? &*it : nullptr;
}

std::uint64_t CheckpointStore::retained_bytes() const {
  std::uint64_t n = 0;
  std::unordered_set<const rt::ProcessCheckpoint*> seen;
  for (const auto& e : entries_) {
    if (seen.insert(e.data.get()).second) n += e.data->size_bytes();
  }
  return n;
}

void CheckpointStore::truncate_after(std::size_t index) {
  FIXD_CHECK_MSG(index < entries_.size(), "truncate_after out of range");
  entries_.resize(index + 1);
}

void CheckpointStore::drop_before(std::size_t index) {
  FIXD_CHECK_MSG(index < entries_.size(), "drop_before out of range");
  for (std::size_t i = 0; i < index; ++i) {
    dropped_.push_back(std::move(entries_[i].data));
  }
  entries_.erase(entries_.begin(), entries_.begin() + index);
}

}  // namespace fixd::ckpt
