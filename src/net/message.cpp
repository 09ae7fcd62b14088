#include "net/message.hpp"

#include "common/hash.hpp"

namespace fixd::net {

void Message::save(BinaryWriter& w) const {
  w.write_u64(id);
  w.write_u32(src);
  w.write_u32(dst);
  w.write_u32(tag);
  w.write_bytes(payload);
  w.write_u64(sent_at);
  w.write_u64(latency);
  w.write_u64(lamport);
  vclock.save(w);
  w.write_pod_vector(spec_taints);
  w.write_bool(control);
}

void Message::load(BinaryReader& r) {
  id = r.read_u64();
  src = r.read_u32();
  dst = r.read_u32();
  tag = r.read_u32();
  payload = r.read_bytes();
  sent_at = r.read_u64();
  latency = r.read_u64();
  lamport = r.read_u64();
  vclock.load(r);
  spec_taints = r.read_pod_vector<SpecId>();
  control = r.read_bool();
  invalidate_digest_memo();
}

std::uint64_t Message::content_digest_uncached() const {
  Hasher h;
  h.update_u64(src);
  h.update_u64(dst);
  h.update_u64(tag);
  h.update(payload);
  return h.digest();
}

std::uint64_t Message::state_digest() const {
  // One scratch writer per thread, reused: a cold channel digest hashes
  // each of its messages, and the bytes hashed are the same as a fresh
  // writer's.
  thread_local BinaryWriter w;
  w.clear();
  save(w);
  return hash_bytes(w.bytes());
}

std::string Message::brief() const {
  return "msg#" + std::to_string(id) + " " + std::to_string(src) + "->" +
         std::to_string(dst) + " tag=" + std::to_string(tag) + " (" +
         std::to_string(payload.size()) + "B)" +
         (control ? " [ctl]" : "") +
         (spec_taints.empty() ? "" : " [spec]");
}

}  // namespace fixd::net
