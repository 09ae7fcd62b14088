#include "common/record_log.hpp"

#include <algorithm>

namespace fixd {

std::byte* RecordLog::append(std::size_t n) {
  const std::size_t bytes = varint_size(n) + n;
  if (chunks_.empty() ||
      chunks_.back().size() + bytes > chunks_.back().capacity()) {
    const std::size_t eighth = (resident_bytes() / 8 + kFirstChunkBytes - 1) /
                               kFirstChunkBytes * kFirstChunkBytes;
    chunks_.emplace_back().reserve(std::max(
        std::clamp(eighth, kFirstChunkBytes, kMaxChunkBytes), bytes));
  }
  Chunk& c = chunks_.back();
  const std::size_t at = c.size();
  c.resize(at + bytes);
  ++size_;
  bytes_ += bytes;
  return put_varint(c.data() + at, n);
}

void RecordLog::pop_front() {
  // Only the last chunk is ever kept drained, so a non-empty log's oldest
  // record starts at head_.
  std::span<const std::byte> body;
  const std::size_t bytes = parse(chunks_.front().data() + head_, body);
  head_ += bytes;
  bytes_ -= bytes;
  --size_;
  drop_consumed_front();
}

void RecordLog::drop_consumed_front() {
  while (chunks_.size() > 1 && head_ == chunks_.front().size()) {
    chunks_.pop_front();
    head_ = 0;
  }
}

std::size_t RecordLog::resident_bytes() const {
  std::size_t n = 0;
  for (const Chunk& c : chunks_) n += c.capacity();
  return n;
}

std::size_t RecordLog::largest_chunk_bytes() const {
  std::size_t m = 0;
  for (const Chunk& c : chunks_) m = std::max(m, c.capacity());
  return m;
}

}  // namespace fixd
