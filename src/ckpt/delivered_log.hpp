// The Time Machine's delivered-message log (sender-based message logging,
// §3.2): every delivered message, oldest first, so that a rollback can
// re-inject the ones that were in flight across the recovery line.
//
// Each delivery is written straight from the observed message as one
// record of a RecordLog (common/record_log.hpp): a head (what a rollback
// filters on) and a body (the rest of the message), every integer a varint:
//
//   head  src, dst, send stamp vclock[src], dst_own_after (the receiver's
//         own component after the delivery)
//   body  tag, payload length and bytes, sent_at, latency, lamport,
//         vclock size and entries, taint count and taints, control
//
// The message id is not stored: SimNetwork::reinject assigns a new one.
// The log is a ring of `capacity` records, evicting the oldest, and marks
// per destination the newest delivery it evicted, so that a rollback
// reaching behind the ring is counted, never silent.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/record_log.hpp"
#include "net/message.hpp"

namespace fixd::ckpt {

class DeliveredLog {
 public:
  /// What a rollback filters on, read without decoding the message.
  struct Head {
    ProcessId src = kNoProcess;
    ProcessId dst = kNoProcess;
    std::uint64_t send_stamp = 0;     ///< the message's vclock[src]
    std::uint64_t dst_own_after = 0;  ///< receiver's vclock[dst] after it
  };

  /// One logged record as retain_if() presents it.
  struct View {
    Head head;
    std::span<const std::byte> body;

    /// The logged message (id 0; the rest as delivered).
    net::Message decode() const;
  };

  explicit DeliveredLog(std::size_t capacity) : capacity_(capacity) {}

  /// Log one delivery; evicts the oldest record when over capacity.
  void append(const net::Message& msg, std::uint64_t dst_own_after);

  /// Visit every record oldest first; drop those for which `keep(view)`
  /// returns false and compact the rest in place, order kept. `keep` may
  /// decode the view it is given; it must not touch the log.
  template <typename Keep>
  void retain_if(Keep&& keep) {
    records_.retain_if(
        [&](std::span<const std::byte> rec) { return keep(parse(rec)); });
  }

  /// The largest dst_own_after of a delivery to `dst` the ring evicted and
  /// no rollback has undone since (0 when none). A rollback that puts
  /// `dst`'s own clock below it may need a delivery the log no longer
  /// holds.
  std::uint64_t evicted_mark(ProcessId dst) const {
    return dst < evicted_mark_.size() ? evicted_mark_[dst] : 0;
  }
  /// A rollback put `dst`'s own clock back to `own`: evicted deliveries
  /// after it are undone, so the mark falls to at most `own`.
  void rolled_back(ProcessId dst, std::uint64_t own) {
    if (dst < evicted_mark_.size()) {
      evicted_mark_[dst] = std::min(evicted_mark_[dst], own);
    }
  }

  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  void clear() { *this = DeliveredLog(capacity_); }

  /// Bytes the log holds allocated: every chunk's full capacity.
  std::size_t resident_bytes() const { return records_.resident_bytes(); }
  /// The largest chunk now allocated (0 when none).
  std::size_t largest_chunk_bytes() const {
    return records_.largest_chunk_bytes();
  }

 private:
  static View parse(std::span<const std::byte> rec);

  std::size_t capacity_;
  RecordLog records_;
  std::vector<std::uint64_t> evicted_mark_;  ///< by destination
};

}  // namespace fixd::ckpt
