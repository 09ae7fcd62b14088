// One store for append-only logs of byte records, under both the Scroll
// (scroll/scroll.hpp) and the Time Machine's delivered-message log
// (ckpt/delivered_log.hpp); each keeps only its codec.
//
// A record is its length as a varint (put_varint) and that many bytes, so
// the store walks, evicts and compacts records without their codec. They
// go into chunks that never move, never spanning two. A new chunk is an
// eighth of what the log holds allocated, rounded up to 4 KiB, from 4 KiB
// to a 1 MiB cap, or one record if larger: a short run maps a few KiB, and
// a long log's chunk being filled leaves about an eighth of it empty where
// doubling chunks would leave up to half.
//
// Each chunk counts its records, so a log whose owner knows where its
// chunks begin can free whole leading chunks without reading a record
// (drop_front_chunks).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <span>
#include <vector>

#include "common/serialize.hpp"

namespace fixd {

class RecordLog {
 public:
  static constexpr std::size_t kFirstChunkBytes = std::size_t{4} << 10;
  static constexpr std::size_t kMaxChunkBytes = std::size_t{1} << 20;

  /// Appends a record of `n` bytes; returns where the caller writes them.
  /// Allocates only when the record does not fit the last chunk.
  std::byte* append(std::size_t n);

  /// Evicts the oldest record (the first a cursor reads); its chunk is
  /// freed with the chunk's last record, unless it is the last chunk.
  void pop_front();

  /// Chunks held, oldest first; append() adds one only when a record does
  /// not fit the last.
  std::size_t chunk_count() const { return chunks_.size(); }
  /// Records held in chunk `k`.
  std::size_t chunk_records(std::size_t k) const { return chunks_[k].records; }
  /// Frees the `k` oldest chunks with their records, reading none of them:
  /// O(k). `k` must leave the last chunk.
  void drop_front_chunks(std::size_t k);

  /// Walks the records oldest first, or from chunk `k`'s first held
  /// record; a change to the log invalidates it.
  class Cursor {
   public:
    /// Sets `rec` to the next record's bytes; false past the newest.
    bool next(std::span<const std::byte>& rec);

   private:
    friend class RecordLog;
    Cursor(const RecordLog& log, std::size_t chunk)
        : log_(&log), chunk_(chunk), offset_(chunk == 0 ? log.head_ : 0) {}
    const RecordLog* log_;
    std::size_t chunk_;
    std::size_t offset_;
  };
  Cursor cursor(std::size_t chunk = 0) const { return Cursor(*this, chunk); }

  /// Drops the records for which `keep(bytes)`, called oldest first, is
  /// false; compacts the rest in place and frees emptied chunks. `keep`
  /// must not touch the log.
  template <typename Keep>
  void retain_if(Keep&& keep);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear() { *this = RecordLog(); }

  /// Bytes of the records held, length prefixes included.
  std::size_t record_bytes() const { return bytes_; }
  /// Bytes the log holds allocated: every chunk's full capacity.
  std::size_t resident_bytes() const;
  std::size_t largest_chunk_bytes() const;

 private:
  struct Chunk {
    /// Sized to its last record's end, within the capacity reserved when
    /// it is made, so they never move (a copy's chunks are full).
    std::vector<std::byte> bytes;
    std::size_t records = 0;  ///< held: popped ones are not counted
  };

  /// The record at `at`: sets `body` to its bytes; returns its whole size.
  static std::size_t parse(const std::byte* at,
                           std::span<const std::byte>& body);
  /// Frees leading chunks whose records are all gone (never the last).
  void drop_consumed_front();

  std::deque<Chunk> chunks_;  ///< oldest first; its first record at head_
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t bytes_ = 0;
};

inline std::size_t RecordLog::parse(const std::byte* at,
                                    std::span<const std::byte>& body) {
  std::uint64_t n = 0;
  const std::byte* p = get_varint(at, n);
  body = {p, static_cast<std::size_t>(n)};
  return static_cast<std::size_t>(p - at) + body.size();
}

inline bool RecordLog::Cursor::next(std::span<const std::byte>& rec) {
  const std::deque<Chunk>& chunks = log_->chunks_;
  while (chunk_ < chunks.size() && offset_ == chunks[chunk_].bytes.size()) {
    ++chunk_;
    offset_ = 0;
  }
  if (chunk_ == chunks.size()) return false;
  offset_ += parse(chunks[chunk_].bytes.data() + offset_, rec);
  return true;
}

template <typename Keep>
void RecordLog::retain_if(Keep&& keep) {
  // Kept records move down to a write position that never passes the one
  // being read: it starts at the head, and moves to a later chunk only when
  // the record does not fit the current one, which the record's own chunk
  // always does. A chunk's count restarts when the writer enters it, after
  // the reader has left it.
  std::size_t wc = 0;
  std::size_t wo = head_;
  std::size_t kept = 0;
  std::size_t kept_bytes = 0;
  if (!chunks_.empty()) chunks_[0].records = 0;
  for (std::size_t rc = 0; rc < chunks_.size(); ++rc) {
    const std::byte* src = chunks_[rc].bytes.data();
    const std::size_t end = chunks_[rc].bytes.size();
    for (std::size_t ro = rc == 0 ? head_ : 0; ro < end;) {
      std::span<const std::byte> body;
      const std::size_t bytes = parse(src + ro, body);
      if (keep(body)) {
        while (wo + bytes > chunks_[wc].bytes.capacity()) {
          chunks_[wc].bytes.resize(wo);
          ++wc;
          wo = 0;
          chunks_[wc].records = 0;
        }
        std::vector<std::byte>& dst = chunks_[wc].bytes;
        if (dst.size() < wo + bytes) dst.resize(wo + bytes);  // capacity
        if (wc != rc || wo != ro) {
          std::memmove(dst.data() + wo, src + ro, bytes);
        }
        wo += bytes;
        ++chunks_[wc].records;
        ++kept;
        kept_bytes += bytes;
      }
      ro += bytes;
    }
  }
  if (chunks_.empty()) return;
  chunks_[wc].bytes.resize(wo);
  chunks_.resize(wc + 1);
  size_ = kept;
  bytes_ = kept_bytes;
  drop_consumed_front();
  if (kept == 0) {
    head_ = 0;
    chunks_.front().bytes.clear();
  }
}

}  // namespace fixd
