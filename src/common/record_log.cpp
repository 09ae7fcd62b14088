#include "common/record_log.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace fixd {

std::byte* RecordLog::append(std::size_t n) {
  const std::size_t bytes = varint_size(n) + n;
  if (chunks_.empty() ||
      chunks_.back().bytes.size() + bytes > chunks_.back().bytes.capacity()) {
    const std::size_t eighth = (resident_bytes() / 8 + kFirstChunkBytes - 1) /
                               kFirstChunkBytes * kFirstChunkBytes;
    chunks_.emplace_back().bytes.reserve(std::max(
        std::clamp(eighth, kFirstChunkBytes, kMaxChunkBytes), bytes));
  }
  Chunk& c = chunks_.back();
  const std::size_t at = c.bytes.size();
  c.bytes.resize(at + bytes);
  ++c.records;
  ++size_;
  bytes_ += bytes;
  return put_varint(c.bytes.data() + at, n);
}

void RecordLog::pop_front() {
  // Only the last chunk is ever kept drained, so a non-empty log's oldest
  // record starts at head_.
  std::span<const std::byte> body;
  const std::size_t bytes =
      parse(chunks_.front().bytes.data() + head_, body);
  head_ += bytes;
  bytes_ -= bytes;
  --size_;
  --chunks_.front().records;
  drop_consumed_front();
}

void RecordLog::drop_front_chunks(std::size_t k) {
  FIXD_CHECK_MSG(k < chunks_.size(), "drop_front_chunks: must leave the last");
  for (std::size_t i = 0; i < k; ++i) {
    const Chunk& c = chunks_.front();
    size_ -= c.records;
    bytes_ -= c.bytes.size() - head_;
    head_ = 0;
    chunks_.pop_front();
  }
}

void RecordLog::drop_consumed_front() {
  while (chunks_.size() > 1 && head_ == chunks_.front().bytes.size()) {
    chunks_.pop_front();
    head_ = 0;
  }
}

std::size_t RecordLog::resident_bytes() const {
  std::size_t n = 0;
  for (const Chunk& c : chunks_) n += c.bytes.capacity();
  return n;
}

std::size_t RecordLog::largest_chunk_bytes() const {
  std::size_t m = 0;
  for (const Chunk& c : chunks_) m = std::max(m, c.bytes.capacity());
  return m;
}

}  // namespace fixd
