#include "ckpt/delivered_log.hpp"

namespace fixd::ckpt {

void DeliveredLog::append(const net::Message& msg,
                          std::uint64_t dst_own_after) {
  const std::size_t n = msg.vclock.size();
  const std::uint64_t send_stamp = msg.vclock[msg.src];

  std::size_t bytes = varint_size(msg.src) + varint_size(msg.dst) +
                      varint_size(send_stamp) + varint_size(dst_own_after) +
                      varint_size(msg.tag) + varint_size(msg.payload.size()) +
                      msg.payload.size() + varint_size(msg.sent_at) +
                      varint_size(msg.latency) + varint_size(msg.lamport) +
                      varint_size(n) + varint_size(msg.spec_taints.size()) + 1;
  for (std::size_t i = 0; i < n; ++i) bytes += varint_size(msg.vclock[i]);
  for (SpecId s : msg.spec_taints) bytes += varint_size(s);

  std::byte* p = records_.append(bytes);
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
}

DeliveredLog::View DeliveredLog::parse(std::span<const std::byte> rec) {
  // Unchecked: the log reads only records it wrote.
  const std::byte* p = rec.data();
  std::uint64_t v = 0;
  View out;
  p = get_varint(p, v);
  out.head.src = static_cast<ProcessId>(v);
  p = get_varint(p, v);
  out.head.dst = static_cast<ProcessId>(v);
  p = get_varint(p, out.head.send_stamp);
  p = get_varint(p, out.head.dst_own_after);
  out.body = rec.subspan(static_cast<std::size_t>(p - rec.data()));
  return out;
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

}  // namespace fixd::ckpt
