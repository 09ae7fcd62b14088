// The Time Machine's delivered-message log (sender-based message logging,
// §3.2): every delivered message, oldest first, so that a rollback can
// re-inject the ones that were in flight across the recovery line.
//
// The log does not keep net::Message copies. Each delivery is written
// straight from the observed message as one variable-length record into
// byte chunks that never move; chunks grow from 4 KiB to a 1 MiB cap, so a
// short run maps a few KiB. A record is a head (what a rollback filters on)
// and a body (the rest of the message), every integer a LEB128 varint as
// BinaryWriter::write_varint writes it:
//
//   head  length of the rest, src, dst, send stamp vclock[src],
//         dst_own_after (the receiver's own component after the delivery)
//   body  tag, payload length and bytes, sent_at, latency, lamport,
//         vclock size and entries, taint count and taints, control
//
// The message id is not stored: SimNetwork::reinject assigns a new one.
// The log is a ring of `capacity` records; the oldest is evicted first and
// a chunk is freed once its last record is.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <span>

#include "net/message.hpp"

namespace fixd::ckpt {

class DeliveredLog {
 public:
  /// Chunk k holds min(kFirstChunkBytes << k, kMaxChunkBytes) bytes, or
  /// one record's bytes if that is larger.
  static constexpr std::size_t kFirstChunkBytes = std::size_t{4} << 10;
  static constexpr std::size_t kMaxChunkBytes = std::size_t{1} << 20;

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
  void retain_if(Keep&& keep);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear();

  /// Bytes the log holds allocated: every chunk's full capacity.
  std::size_t resident_bytes() const { return resident_; }
  /// The largest chunk now allocated (0 when none).
  std::size_t largest_chunk_bytes() const;

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t capacity = 0;
    std::size_t used = 0;  ///< end of the last record in the chunk
  };

  /// Parses the record at `at` (ending no later than `end`); returns its
  /// view and sets `bytes` to its whole encoded size.
  static View parse(const std::byte* at, const std::byte* end,
                    std::size_t& bytes);
  void evict_oldest();
  /// Frees leading chunks whose records are all gone (never the last).
  void drop_consumed_front();

  std::size_t capacity_;
  /// Oldest chunk first; records never span chunks, and the first record
  /// of chunks_.front() starts at head_.
  std::deque<Chunk> chunks_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t resident_ = 0;
  /// Chunks allocated since the last clear(): sets the next one's size.
  std::size_t chunks_made_ = 0;
};

template <typename Keep>
void DeliveredLog::retain_if(Keep&& keep) {
  // Kept records move down to a write position that never passes the one
  // being read: it starts at the head, and moves to a later chunk only when
  // the record does not fit the current one, which the record's own chunk
  // always does.
  std::size_t wc = 0;
  std::size_t wo = head_;
  std::size_t kept = 0;
  for (std::size_t rc = 0; rc < chunks_.size(); ++rc) {
    const Chunk& src = chunks_[rc];
    std::size_t ro = rc == 0 ? head_ : 0;
    while (ro < src.used) {
      std::size_t bytes = 0;
      const View v = parse(src.data.get() + ro, src.data.get() + src.used,
                           bytes);
      if (keep(v)) {
        while (wo + bytes > chunks_[wc].capacity) {
          chunks_[wc].used = wo;
          ++wc;
          wo = 0;
        }
        if (wc != rc || wo != ro) {
          std::memmove(chunks_[wc].data.get() + wo, src.data.get() + ro,
                       bytes);
        }
        wo += bytes;
        ++kept;
      }
      ro += bytes;
    }
  }
  if (chunks_.empty()) return;
  chunks_[wc].used = wo;
  while (chunks_.size() > wc + 1) {
    resident_ -= chunks_.back().capacity;
    chunks_.pop_back();
  }
  size_ = kept;
  drop_consumed_front();
  if (kept == 0) head_ = chunks_.front().used = 0;
}

}  // namespace fixd::ckpt
