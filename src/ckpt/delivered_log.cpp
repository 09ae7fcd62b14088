#include "ckpt/delivered_log.hpp"

#include <algorithm>

#include "common/serialize.hpp"

namespace fixd::ckpt {

void DeliveredLog::append(const net::Message& msg,
                          std::uint64_t dst_own_after) {
  if (capacity_ == 0) return;
  const std::size_t n = msg.vclock.size();
  const std::uint64_t send_stamp = msg.vclock[msg.src];

  std::size_t rest = varint_size(msg.src) + varint_size(msg.dst) +
                     varint_size(send_stamp) + varint_size(dst_own_after) +
                     varint_size(msg.tag) + varint_size(msg.payload.size()) +
                     msg.payload.size() + varint_size(msg.sent_at) +
                     varint_size(msg.latency) + varint_size(msg.lamport) +
                     varint_size(n) + varint_size(msg.spec_taints.size()) + 1;
  for (std::size_t i = 0; i < n; ++i) rest += varint_size(msg.vclock[i]);
  for (SpecId s : msg.spec_taints) rest += varint_size(s);
  const std::size_t bytes = varint_size(rest) + rest;

  if (chunks_.empty() ||
      chunks_.back().used + bytes > chunks_.back().capacity) {
    static_assert((kFirstChunkBytes << 8) == kMaxChunkBytes);
    const std::size_t grown =
        kFirstChunkBytes << std::min<std::size_t>(chunks_made_, 8);
    Chunk c;
    c.capacity = std::max(grown, bytes);
    c.data = std::make_unique_for_overwrite<std::byte[]>(c.capacity);
    resident_ += c.capacity;
    ++chunks_made_;
    chunks_.push_back(std::move(c));
  }
  Chunk& c = chunks_.back();
  std::byte* p = c.data.get() + c.used;
  p = put_varint(p, rest);
  p = put_varint(p, msg.src);
  p = put_varint(p, msg.dst);
  p = put_varint(p, send_stamp);
  p = put_varint(p, dst_own_after);
  p = put_varint(p, msg.tag);
  p = put_varint(p, msg.payload.size());
  if (!msg.payload.empty()) {
    std::memcpy(p, msg.payload.data(), msg.payload.size());
    p += msg.payload.size();
  }
  p = put_varint(p, msg.sent_at);
  p = put_varint(p, msg.latency);
  p = put_varint(p, msg.lamport);
  p = put_varint(p, n);
  for (std::size_t i = 0; i < n; ++i) p = put_varint(p, msg.vclock[i]);
  p = put_varint(p, msg.spec_taints.size());
  for (SpecId s : msg.spec_taints) p = put_varint(p, s);
  *p = static_cast<std::byte>(msg.control ? 1 : 0);
  c.used += bytes;

  if (++size_ > capacity_) evict_oldest();
}

void DeliveredLog::evict_oldest() {
  Chunk& front = chunks_.front();
  BinaryReader r(std::span<const std::byte>(front.data.get() + head_,
                                            front.used - head_));
  const std::size_t rest = r.read_varint();
  head_ += r.position() + rest;
  --size_;
  drop_consumed_front();
}

void DeliveredLog::drop_consumed_front() {
  while (chunks_.size() > 1 && head_ == chunks_.front().used) {
    resident_ -= chunks_.front().capacity;
    chunks_.pop_front();
    head_ = 0;
  }
}

DeliveredLog::View DeliveredLog::parse(const std::byte* at,
                                       const std::byte* end,
                                       std::size_t& bytes) {
  BinaryReader r(std::span<const std::byte>(at, end));
  const std::size_t rest = r.read_varint();
  bytes = r.position() + rest;
  r = BinaryReader(std::span<const std::byte>(at + r.position(), rest));
  View v;
  v.head.src = static_cast<ProcessId>(r.read_varint());
  v.head.dst = static_cast<ProcessId>(r.read_varint());
  v.head.send_stamp = r.read_varint();
  v.head.dst_own_after = r.read_varint();
  v.body = r.read_raw(r.remaining());
  return v;
}

net::Message DeliveredLog::View::decode() const {
  BinaryReader r(body);
  net::Message m;
  m.src = head.src;
  m.dst = head.dst;
  m.tag = static_cast<net::Tag>(r.read_varint());
  const std::size_t len = r.read_varint();
  const std::span<const std::byte> payload = r.read_raw(len);
  m.payload.assign(payload.begin(), payload.end());
  m.sent_at = r.read_varint();
  m.latency = r.read_varint();
  m.lamport = r.read_varint();
  std::vector<std::uint64_t> clock(r.read_varint());
  for (std::uint64_t& c : clock) c = r.read_varint();
  m.vclock = VectorClock(std::move(clock));
  m.spec_taints.resize(r.read_varint());
  for (SpecId& s : m.spec_taints) s = r.read_varint();
  m.control = r.read_u8() != 0;
  return m;
}

void DeliveredLog::clear() {
  chunks_.clear();
  head_ = 0;
  size_ = 0;
  resident_ = 0;
  chunks_made_ = 0;
}

std::size_t DeliveredLog::largest_chunk_bytes() const {
  std::size_t m = 0;
  for (const Chunk& c : chunks_) m = std::max(m, c.capacity);
  return m;
}

}  // namespace fixd::ckpt
