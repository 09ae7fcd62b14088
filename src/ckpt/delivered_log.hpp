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
// The log has no capacity of its own: the Time Machine drops the records
// at or behind its horizon, which no rollback can undo, and keeps every
// delivery after it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

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

  /// Log one delivery.
  void append(const net::Message& msg, std::uint64_t dst_own_after);

  /// Visit every record oldest first; drop those for which `keep(view)`
  /// returns false and compact the rest in place, order kept. `keep` may
  /// decode the view it is given; it must not touch the log.
  template <typename Keep>
  void retain_if(Keep&& keep) {
    records_.retain_if(
        [&](std::span<const std::byte> rec) { return keep(parse(rec)); });
  }

  /// Visit every record oldest first, without changing the log.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    RecordLog::Cursor c = records_.cursor();
    std::span<const std::byte> rec;
    while (c.next(rec)) visit(parse(rec));
  }

  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  void clear() { records_.clear(); }

  /// Bytes the log holds allocated: every chunk's full capacity.
  std::size_t resident_bytes() const { return records_.resident_bytes(); }
  /// The largest chunk now allocated (0 when none).
  std::size_t largest_chunk_bytes() const {
    return records_.largest_chunk_bytes();
  }

 private:
  static View parse(std::span<const std::byte> rec);

  RecordLog records_;
};

}  // namespace fixd::ckpt
