// Messages exchanged by processes in the simulated distributed world.
//
// A message carries, besides its payload:
//  - a Lamport stamp and the sender's vector clock (piggybacked, as real
//    causal-logging systems do) — the Scroll and the recovery-line solver
//    depend on them;
//  - the set of speculation ids the sender was executing under when it sent
//    the message ("speculative data", §4.2): receivers are absorbed into
//    those speculations;
//  - a control flag distinguishing FixD's own fault-response protocol
//    messages (Fig. 4) from application traffic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/serialize.hpp"
#include "common/sync.hpp"
#include "common/types.hpp"

namespace fixd::net {

/// Application-defined message kind; apps use small enums cast to u32.
using Tag = std::uint32_t;

/// Memoized content digest with copy-cold / move-warm semantics: a copied
/// message starts with a cold memo (the copy's public fields may be
/// mutated independently, as fault-injection copy-corrupt paths do), while
/// a move transfers warmth (SimNetwork warms at enqueue, then moves the
/// message into its pending map). Mirrors mem::Page's cache-dropping copy.
struct DigestMemo {
  DigestMemo() = default;
  DigestMemo(const DigestMemo&) {}
  DigestMemo& operator=(const DigestMemo&) {
    valid = false;
    return *this;
  }
  DigestMemo(DigestMemo&& o) noexcept : value(o.value), valid(o.valid) {
    o.valid = false;
  }
  DigestMemo& operator=(DigestMemo&& o) noexcept {
    value = o.value;
    valid = o.valid;
    o.valid = false;
    return *this;
  }

  mutable std::uint64_t value = 0;
  mutable bool valid = false;
};

struct Message {
  MsgId id = 0;
  ProcessId src = kNoProcess;
  ProcessId dst = kNoProcess;
  Tag tag = 0;
  std::vector<std::byte> payload;

  /// Virtual time at which the message was submitted.
  VirtualTime sent_at = 0;
  /// Delivery latency assigned by the network (seeded jitter makes timed
  /// runs genuinely reorder across channels).
  VirtualTime latency = 1;
  /// Sender's Lamport clock after the send event.
  LamportTime lamport = 0;
  /// Sender's vector clock after the send event.
  VectorClock vclock;
  /// Speculations this message is tainted by (sorted, unique).
  std::vector<SpecId> spec_taints;
  /// True for FixD control-plane traffic (fault notify / checkpoint reply).
  bool control = false;

  /// Payload helpers -----------------------------------------------------
  template <typename T>
  static std::vector<std::byte> encode(const T& body) {
    BinaryWriter w;
    body.save(w);
    return w.take();
  }

  template <typename T>
  T decode() const {
    BinaryReader r(payload);
    T body;
    body.load(r);
    return body;
  }

  void save(BinaryWriter& w) const;
  void load(BinaryReader& r);

  /// Approximate retained memory (object plus owned buffers); used by
  /// snapshot/frontier accounting.
  std::uint64_t retained_bytes() const {
    return sizeof(Message) + payload.size() +
           vclock.size() * sizeof(std::uint64_t) +
           spec_taints.size() * sizeof(SpecId);
  }

  /// Stable content digest (excludes id so retransmissions compare equal).
  ///
  /// Returns the memo when one is warm, else computes from scratch — it
  /// never self-memoizes, and copies start cold (see DigestMemo), so
  /// mutating a free-standing or copied message (public fields) is always
  /// reflected. SimNetwork warms the memo on enqueue and re-warms it in
  /// mutate(), which is what makes the model checker's in-flight multiset
  /// hash a cheap sorted merge: every *pending* message carries a valid
  /// memo, and pending messages are only mutable through
  /// SimNetwork::mutate.
  std::uint64_t content_digest() const {
    return memo_.valid ? memo_.value : content_digest_uncached();
  }

  /// From-scratch recompute bypassing the memo (verification/bench hook).
  std::uint64_t content_digest_uncached() const;

  /// Full-state digest: hash of the complete wire encoding (id, routing,
  /// payload, timing, clocks, taints, control flag). Feeds SimNetwork's
  /// per-channel digests, which need the *entire* message state, not the
  /// id-stable content subset. Not memoized: the channel digest memo is
  /// the cache, so only a cold channel re-hashes its messages.
  std::uint64_t state_digest() const;

  /// Precompute and pin the content digest (SimNetwork, at enqueue).
  void warm_digest_memo() const {
    memo_.value = content_digest_uncached();
    memo_.valid = true;
  }

  /// Drop the content memo (deserialization, before an in-place mutation).
  void invalidate_digest_memo() { memo_.valid = false; }

  /// Published across threads (a NetSnapshot containing this message
  /// crossed a thread boundary — see common/sync.hpp): SimNetwork::take
  /// then delivers a copy instead of moving the payload out, because the
  /// use_count()==1 fast path cannot order a remote reader's last read
  /// before the local move. Copy-cold like the digest memo.
  void mark_cross_thread() const { xt_.mark(); }
  bool cross_thread() const { return xt_.marked(); }

  std::string brief() const;

  // Memo; public so Message stays an aggregate. Not serialized.
  DigestMemo memo_;
  SharedMark xt_;
};

}  // namespace fixd::net
