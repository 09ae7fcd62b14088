#include "net/network.hpp"

#include <algorithm>
#include <bit>

#include "common/hash.hpp"

namespace fixd::net {

std::uint64_t NetSnapshot::size_bytes() const {
  std::uint64_t n = 0;
  for (const auto& [id, m] : messages) n += m->retained_bytes();
  for (const auto& [key, q] : channels) n += q.size() * sizeof(MsgId);
  return n;
}

void NetSnapshot::share_across_threads() const {
  if (xt_marked_.test_and_mark()) return;
  for (const auto& [id, m] : messages) m->mark_cross_thread();
}

namespace {

/// The accumulator mixes each content digest before summing so that the
/// wrapping sum stays collision-resistant for multisets (raw sums cancel
/// structured digests too easily); mix64 is bijective, so distinct
/// multisets keep distinct term sets.
std::uint64_t acc_term(std::uint64_t content_digest) {
  return mix64(content_digest);
}

}  // namespace

SimNetwork::SimNetwork(NetworkOptions options)
    : options_(options), rng_(options.seed) {}

void SimNetwork::touch() {
  digest_memo_.reset();
  snap_cache_.reset();
}

void SimNetwork::touch_channel(const ChannelKey& key) {
  channel_digest_cache_.erase(key);
  touch();
}

void SimNetwork::idx_add(ProcessId dst, MsgId id, const DeliverableEntry& e) {
  if (!deliv_valid_) return;
  deliv_index_[dst].add(id, e);
  if (listener_) listener_->on_deliverable_add(dst, id, e);
}

void SimNetwork::idx_remove(ProcessId dst, MsgId id) {
  if (!deliv_valid_) return;
  auto it = deliv_index_.find(dst);
  if (it == deliv_index_.end() || !it->second.remove(id)) return;
  if (it->second.empty()) deliv_index_.erase(it);
  if (listener_) listener_->on_deliverable_remove(dst, id);
}

void SimNetwork::idx_add_head(const std::deque<MsgId>& q) {
  if (!deliv_valid_ || q.empty()) return;
  const Message& m = *messages_.at(q.front());
  if (link_blocked(m.src, m.dst)) return;  // deferred behind the partition
  idx_add(m.dst, m.id, {m.sent_at + m.latency, m.control});
}

void SimNetwork::inflight_add(const Message& m) {
  if (!m.control) ++inflight_[m.dst];
}

void SimNetwork::inflight_sub(const Message& m) {
  if (m.control) return;
  auto it = inflight_.find(m.dst);
  FIXD_CHECK_MSG(it != inflight_.end() && it->second > 0,
                 "inflight counter underflow");
  if (--it->second == 0) inflight_.erase(it);
}

std::uint64_t SimNetwork::inflight_to_uncached(ProcessId dst) const {
  std::uint64_t n = 0;
  for (const auto& [id, m] : messages_) {
    if (m->dst == dst && !m->control) ++n;
  }
  return n;
}

void SimNetwork::idx_invalidate() {
  // Flag-only: this rides the explorer's restore-per-transition path, and
  // most invalidations are superseded by the next one before any enabled-
  // set query happens (sibling transitions). ensure_deliv_index() clears.
  deliv_valid_ = false;
}

void SimNetwork::ensure_deliv_index() const {
  if (deliv_valid_) return;
  // Rebuild in place: empty the buckets but keep their storage (and the
  // map nodes for recurring destinations) — the explorer rebuilds once
  // per expansion over near-identical destination sets, so steady-state
  // rebuilds allocate nothing.
  for (auto& [dst, b] : deliv_index_) b.clear();
  if (options_.fifo) {
    for (const auto& [key, q] : channels_) {
      if (q.empty() || blocked_.count(key)) continue;
      const Message& m = *messages_.at(q.front());
      deliv_index_[m.dst].add(m.id, {m.sent_at + m.latency, m.control});
    }
  } else {
    for (const auto& [id, m] : messages_) {
      if (link_blocked(m->src, m->dst)) continue;
      deliv_index_[m->dst].add(id, {m->sent_at + m->latency, m->control});
    }
  }
  std::erase_if(deliv_index_, [](const auto& kv) {
    return kv.second.empty();
  });
  deliv_valid_ = true;
  ++deliv_epoch_;  // delta-mirroring consumers must resync wholesale
}

std::shared_ptr<const Message> SimNetwork::warm_or_make(Message&& msg) {
  if (warm_step_key_ == 0) {
    // Created non-const (as everywhere): take()'s uniquely-owned move-out
    // path sheds const, which is only defined for non-const objects.
    return std::make_shared<Message>(std::move(msg));
  }
  if (warm_ring_.empty()) warm_ring_.resize(kWarmRingSlots);
  const std::uint64_t k =
      hash_combine(warm_step_key_, ++warm_ordinal_);
  WarmMsgSlot& slot = warm_ring_[static_cast<std::size_t>(k) &
                                 (kWarmRingSlots - 1)];
  if (slot.key == k && slot.msg) {
    // Reuse only on full equality — the key narrows the search, the
    // compare decides, so a collision can never share wrong content.
    const Message& c = *slot.msg;
    if (c.id == msg.id && c.src == msg.src && c.dst == msg.dst &&
        c.tag == msg.tag && c.sent_at == msg.sent_at &&
        c.latency == msg.latency && c.lamport == msg.lamport &&
        c.control == msg.control && c.vclock == msg.vclock &&
        c.spec_taints == msg.spec_taints && c.payload == msg.payload) {
      ++warm_hits_;
      return slot.msg;
    }
  }
  std::shared_ptr<const Message> sp =
      std::make_shared<Message>(std::move(msg));
  slot = {k, sp};
  return sp;
}

void SimNetwork::set_replay_warm(bool on) {
  warm_on_ = on;
  warm_step_key_ = 0;
  warm_ring_.clear();
  warm_hits_ = 0;
}

void SimNetwork::enqueue(Message msg) {
  MsgId id = msg.id;
  // Every pending message carries warm digest memos, so state hashing over
  // the in-flight traffic never re-hashes payloads.
  msg.warm_digest_memo();
  content_acc_ += acc_term(msg.content_digest());
  inflight_add(msg);
  ChannelKey key{msg.src, msg.dst};
  auto& q = channels_[key];
  q.push_back(id);
  touch_channel(key);
  // FIFO: the message is deliverable only when it heads its channel;
  // reordering: every pending message is deliverable. A blocked link
  // defers either way.
  if ((!options_.fifo || q.size() == 1) && !blocked_.count(key)) {
    idx_add(msg.dst, id, {msg.sent_at + msg.latency, msg.control});
  }
  messages_.emplace(id, warm_or_make(std::move(msg)));
}

std::optional<MsgId> SimNetwork::submit(Message&& msg) {
  ++stats_.submitted;
  stats_.bytes_submitted += msg.payload.size();

  // Control-plane traffic bypasses the loss policy: the fault-response
  // protocol must be reliable for FixD itself to function.
  const bool lossy_eligible = !msg.control;

  if (lossy_eligible && options_.drop_prob > 0.0 &&
      rng_.next_bool(options_.drop_prob)) {
    ++stats_.dropped_policy;
    touch();  // stats and RNG advanced even though nothing was enqueued
    return std::nullopt;
  }

  msg.id = next_id_++;
  msg.latency = draw_latency();
  MsgId id = msg.id;

  bool dup = lossy_eligible && options_.dup_prob > 0.0 &&
             rng_.next_bool(options_.dup_prob);
  if (dup) {
    Message copy = msg;
    copy.id = next_id_++;
    copy.latency = draw_latency();
    ++stats_.duplicated;
    enqueue(std::move(copy));
  }
  enqueue(std::move(msg));
  return id;
}

VirtualTime SimNetwork::draw_latency() {
  if (options_.latency_max <= options_.latency_min)
    return options_.latency_min;
  return options_.latency_min +
         rng_.next_below(options_.latency_max - options_.latency_min + 1);
}

bool SimNetwork::is_deliverable(MsgId id) const {
  auto it = messages_.find(id);
  if (it == messages_.end()) return false;
  if (link_blocked(it->second->src, it->second->dst)) return false;
  if (!options_.fifo) return true;
  const auto& q = channels_.at({it->second->src, it->second->dst});
  return !q.empty() && q.front() == id;
}

std::vector<MsgId> SimNetwork::deliverable() const {
  std::vector<MsgId> out;
  if (options_.fifo) {
    for (const auto& [key, q] : channels_) {
      if (!q.empty() && !blocked_.count(key)) out.push_back(q.front());
    }
    std::sort(out.begin(), out.end());
  } else {
    out.reserve(messages_.size());
    for (const auto& [id, m] : messages_) {
      if (!link_blocked(m->src, m->dst)) out.push_back(id);
    }
  }
  return out;
}

std::vector<const Message*> SimNetwork::pending() const {
  std::vector<const Message*> out;
  out.reserve(messages_.size());
  for (const auto& [id, m] : messages_) out.push_back(m.get());
  return out;
}

const Message* SimNetwork::peek(MsgId id) const {
  auto it = messages_.find(id);
  return it == messages_.end() ? nullptr : it->second.get();
}

Message SimNetwork::take(MsgId id) {
  FIXD_CHECK_MSG(is_deliverable(id),
                 "take: message not deliverable: " + std::to_string(id));
  auto it = messages_.find(id);
  std::shared_ptr<const Message> sp = std::move(it->second);
  messages_.erase(it);
  ChannelKey key{sp->src, sp->dst};
  auto& q = channels_[key];
  auto qit = std::find(q.begin(), q.end(), id);
  FIXD_CHECK(qit != q.end());
  q.erase(qit);
  touch_channel(key);
  idx_remove(sp->dst, id);
  if (options_.fifo) idx_add_head(q);  // the next message becomes the head
  content_acc_ -= acc_term(sp->content_digest());
  inflight_sub(*sp);
  ++stats_.delivered;
  stats_.bytes_delivered += sp->payload.size();
  if (sp.use_count() == 1 && !sp->cross_thread()) {
    // Sole owner (no live snapshot shares the buffer, and the buffer never
    // crossed a thread boundary): move the payload out. The object was
    // created non-const (make_shared<Message>), so shedding const on the
    // uniquely-owned instance is well-defined.
    return std::move(const_cast<Message&>(*sp));
  }
  return *sp;  // shared with a snapshot or another thread: deliver a copy
}

bool SimNetwork::drop(MsgId id, bool forced) {
  auto it = messages_.find(id);
  if (it == messages_.end()) return false;
  ChannelKey key{it->second->src, it->second->dst};
  content_acc_ -= acc_term(it->second->content_digest());
  inflight_sub(*it->second);
  const ProcessId dst = it->second->dst;
  auto& q = channels_[key];
  const bool was_head = !q.empty() && q.front() == id;
  auto qit = std::find(q.begin(), q.end(), id);
  if (qit != q.end()) q.erase(qit);
  messages_.erase(it);
  touch_channel(key);
  if (!options_.fifo || was_head) {
    idx_remove(dst, id);
    if (options_.fifo) idx_add_head(q);
  }
  if (forced) {
    ++stats_.dropped_forced;
  } else {
    ++stats_.dropped_policy;
  }
  return true;
}

std::optional<MsgId> SimNetwork::duplicate(MsgId id) {
  auto it = messages_.find(id);
  if (it == messages_.end()) return std::nullopt;
  Message copy = *it->second;
  copy.id = next_id_++;
  ++stats_.duplicated;
  MsgId nid = copy.id;
  enqueue(std::move(copy));
  return nid;
}

std::size_t SimNetwork::drop_tainted(SpecId spec) {
  std::vector<MsgId> victims;
  for (const auto& [id, m] : messages_) {
    if (std::find(m->spec_taints.begin(), m->spec_taints.end(), spec) !=
        m->spec_taints.end()) {
      victims.push_back(id);
    }
  }
  for (MsgId id : victims) drop(id, /*forced=*/true);
  return victims.size();
}

std::size_t SimNetwork::scrub_taint(SpecId spec) {
  std::size_t n = 0;
  for (auto& [id, sp] : messages_) {
    auto it = std::find(sp->spec_taints.begin(), sp->spec_taints.end(), spec);
    if (it == sp->spec_taints.end()) continue;
    // Copy-on-write: snapshots sharing the old buffer keep the taint.
    content_acc_ -= acc_term(sp->content_digest());
    Message m = *sp;
    m.spec_taints.erase(m.spec_taints.begin() +
                        (it - sp->spec_taints.begin()));
    m.warm_digest_memo();
    content_acc_ += acc_term(m.content_digest());
    touch_channel({m.src, m.dst});
    sp = std::make_shared<Message>(std::move(m));
    ++n;
  }
  return n;
}

bool SimNetwork::mutate(MsgId id, const std::function<void(Message&)>& fn) {
  auto it = messages_.find(id);
  if (it == messages_.end()) return false;
  Message m = *it->second;  // copy-on-write; snapshots keep the original
  fn(m);
  FIXD_CHECK_MSG(m.id == id && m.src == it->second->src &&
                     m.dst == it->second->dst,
                 "mutate must not change routing identity (drop + submit)");
  content_acc_ -= acc_term(it->second->content_digest());
  m.warm_digest_memo();  // re-pin after the mutation
  content_acc_ += acc_term(m.content_digest());
  if (it->second->control != m.control) {
    inflight_sub(*it->second);
    inflight_add(m);
  }
  touch_channel({m.src, m.dst});
  // Refresh the deliverable entry: the mutation may have changed the
  // ready time (sent_at/latency) or the control flag.
  if (deliv_valid_) {
    auto bit = deliv_index_.find(m.dst);
    if (bit != deliv_index_.end() && bit->second.contains(id)) {
      idx_remove(m.dst, id);
      idx_add(m.dst, id, {m.sent_at + m.latency, m.control});
    }
  }
  it->second = std::make_shared<Message>(std::move(m));
  return true;
}

bool SimNetwork::delay(MsgId id, VirtualTime extra) {
  // mutate() already does everything delaying needs: copy-on-write of the
  // immutable pending object, digest upkeep, and the deliverable-entry
  // refresh that republishes the new ready time to the enabled index.
  return mutate(id, [extra](Message& m) { m.latency += extra; });
}

bool SimNetwork::cut_link(ProcessId src, ProcessId dst) {
  if (!blocked_.insert({src, dst}).second) return false;
  // Retract the link's deliverable entries: FIFO exposes only the channel
  // head, reordering exposes the whole queue. The messages themselves stay
  // pending (deferred, not lost) and keep their in-flight counts.
  auto cit = channels_.find({src, dst});
  if (cit != channels_.end() && !cit->second.empty()) {
    if (options_.fifo) {
      idx_remove(dst, cit->second.front());
    } else {
      for (MsgId id : cit->second) idx_remove(dst, id);
    }
  }
  touch();
  return true;
}

bool SimNetwork::heal_link(ProcessId src, ProcessId dst) {
  if (blocked_.erase({src, dst}) == 0) return false;
  auto cit = channels_.find({src, dst});
  if (cit != channels_.end() && !cit->second.empty()) {
    if (options_.fifo) {
      idx_add_head(cit->second);
    } else if (deliv_valid_) {
      for (MsgId id : cit->second) {
        const Message& m = *messages_.at(id);
        idx_add(dst, id, {m.sent_at + m.latency, m.control});
      }
    }
  }
  touch();
  return true;
}

std::size_t SimNetwork::heal_all_links() {
  std::vector<LinkKey> keys(blocked_.begin(), blocked_.end());
  for (const LinkKey& k : keys) heal_link(k.first, k.second);
  return keys.size();
}

std::uint64_t SimNetwork::links_digest() const {
  if (blocked_.empty()) return 0;
  Hasher h;
  h.update_u64(blocked_.size());
  for (const auto& [s, d] : blocked_) {
    h.update_u64(s);
    h.update_u64(d);
  }
  return h.digest();
}

MsgId SimNetwork::reinject(Message msg) {
  msg.id = next_id_++;
  MsgId id = msg.id;
  ++stats_.submitted;
  stats_.bytes_submitted += msg.payload.size();
  enqueue(std::move(msg));
  return id;
}

void SimNetwork::save(BinaryWriter& w) const {
  w.write_bool(options_.fifo);
  w.write_f64(options_.drop_prob);
  w.write_f64(options_.dup_prob);
  w.write_u64(options_.latency_min);
  w.write_u64(options_.latency_max);
  w.write_u64(options_.seed);
  rng_.save(w);
  w.write_u64(next_id_);
  w.write_varint(messages_.size());
  for (const auto& [id, m] : messages_) m->save(w);
  w.write_varint(channels_.size());
  for (const auto& [key, q] : channels_) {
    w.write_u32(key.first);
    w.write_u32(key.second);
    w.write_varint(q.size());
    for (MsgId id : q) w.write_u64(id);
  }
  // Stats are part of the observable run and must restore with the state
  // so that rolled-back executions do not double-count.
  w.write_u64(stats_.submitted);
  w.write_u64(stats_.delivered);
  w.write_u64(stats_.dropped_policy);
  w.write_u64(stats_.dropped_forced);
  w.write_u64(stats_.duplicated);
  w.write_u64(stats_.bytes_submitted);
  w.write_u64(stats_.bytes_delivered);
  w.write_varint(blocked_.size());
  for (const auto& [s, d] : blocked_) {
    w.write_u32(s);
    w.write_u32(d);
  }
}

void SimNetwork::load(BinaryReader& r) {
  options_.fifo = r.read_bool();
  options_.drop_prob = r.read_f64();
  options_.dup_prob = r.read_f64();
  options_.latency_min = r.read_u64();
  options_.latency_max = r.read_u64();
  options_.seed = r.read_u64();
  rng_.load(r);
  next_id_ = r.read_u64();
  messages_.clear();
  content_acc_ = 0;
  inflight_.clear();
  std::size_t n = static_cast<std::size_t>(r.read_varint());
  for (std::size_t i = 0; i < n; ++i) {
    Message m;
    m.load(r);
    m.warm_digest_memo();  // restore the pending-message memo invariant
    content_acc_ += acc_term(m.content_digest());
    inflight_add(m);
    MsgId id = m.id;
    messages_.emplace(id, std::make_shared<Message>(std::move(m)));
  }
  channels_.clear();
  std::size_t nc = static_cast<std::size_t>(r.read_varint());
  for (std::size_t i = 0; i < nc; ++i) {
    ProcessId a = r.read_u32();
    ProcessId b = r.read_u32();
    std::size_t qn = static_cast<std::size_t>(r.read_varint());
    auto& q = channels_[{a, b}];
    for (std::size_t j = 0; j < qn; ++j) q.push_back(r.read_u64());
  }
  stats_.submitted = r.read_u64();
  stats_.delivered = r.read_u64();
  stats_.dropped_policy = r.read_u64();
  stats_.dropped_forced = r.read_u64();
  stats_.duplicated = r.read_u64();
  stats_.bytes_submitted = r.read_u64();
  stats_.bytes_delivered = r.read_u64();
  blocked_.clear();
  std::size_t nb = static_cast<std::size_t>(r.read_varint());
  for (std::size_t i = 0; i < nb; ++i) {
    ProcessId s = r.read_u32();
    ProcessId d = r.read_u32();
    blocked_.insert(blocked_.end(), {s, d});
  }
  channel_digest_cache_.clear();
  touch();
  idx_invalidate();
}

std::shared_ptr<const NetSnapshot> SimNetwork::snapshot() const {
  if (!snap_cache_) {
    auto s = std::make_shared<NetSnapshot>();
    s->options = options_;
    s->rng = rng_;
    s->next_id = next_id_;
    // The live maps iterate in key order, so the flat vectors come out
    // sorted in one pass (restore relies on that for its end-hint
    // rebuild).
    s->messages.reserve(messages_.size());
    for (const auto& [id, m] : messages_) s->messages.emplace_back(id, m);
    s->channels.reserve(channels_.size());
    for (const auto& [key, q] : channels_) {
      s->channels.emplace_back(
          key, std::vector<MsgId>(q.begin(), q.end()));
    }
    s->stats = stats_;
    s->blocked_links.assign(blocked_.begin(), blocked_.end());
    s->channel_digests.reserve(channel_digest_cache_.size());
    for (const auto& [key, d] : channel_digest_cache_) {
      s->channel_digests.emplace_back(key, d);
    }
    s->digest_memo = digest_memo_;
    s->content_acc = content_acc_;
    snap_cache_ = std::move(s);
  }
  return snap_cache_;
}

void SimNetwork::restore(const std::shared_ptr<const NetSnapshot>& snap) {
  FIXD_CHECK_MSG(snap != nullptr, "restore: null network snapshot");
  if (snap_cache_ == snap) return;  // current state already matches
  options_ = snap->options;
  rng_ = snap->rng;
  next_id_ = snap->next_id;
  // The snapshot's vectors are key-sorted, so inserting with an end hint
  // rebuilds each map in O(entries) — the same cost the old wholesale
  // map-to-map copy paid.
  messages_.clear();
  inflight_.clear();
  for (const auto& [id, m] : snap->messages) {
    inflight_add(*m);
    messages_.emplace_hint(messages_.end(), id, m);
  }
  channels_.clear();
  for (const auto& [key, q] : snap->channels) {
    channels_.emplace_hint(channels_.end(), key,
                           std::deque<MsgId>(q.begin(), q.end()));
  }
  stats_ = snap->stats;
  blocked_.clear();
  for (const auto& k : snap->blocked_links)
    blocked_.insert(blocked_.end(), k);
  // Adopt whatever was warm at capture (cold stays cold — conservative).
  channel_digest_cache_.clear();
  for (const auto& [key, d] : snap->channel_digests) {
    channel_digest_cache_.emplace_hint(channel_digest_cache_.end(), key, d);
  }
  digest_memo_ = snap->digest_memo;
  content_acc_ = snap->content_acc;
  // The deliverable index is rebuilt lazily at the next enabled-set
  // query, not copied per restore: the explorer restores once per
  // transition but asks "what can fire next?" once per expansion.
  idx_invalidate();
  snap_cache_ = snap;
}

std::uint64_t SimNetwork::channel_digest(const std::deque<MsgId>& q,
                                         bool cached) const {
  Hasher h;
  h.update_u64(q.size());
  for (MsgId id : q) {
    const auto& m = messages_.at(id);
    h.update_u64(cached ? m->state_digest() : m->state_digest_uncached());
  }
  return h.digest();
}

// Digest formula: options, RNG state, id counter, then one digest per
// nonempty channel in key order (covering every pending message's full
// wire state and its queue position), then stats. Empty channel entries
// are skipped so the digest is a function of logical state alone.
std::uint64_t SimNetwork::digest_impl(bool cached) const {
  Hasher h;
  h.update_u64(options_.fifo ? 1 : 0);
  h.update_u64(std::bit_cast<std::uint64_t>(options_.drop_prob));
  h.update_u64(std::bit_cast<std::uint64_t>(options_.dup_prob));
  h.update_u64(options_.latency_min);
  h.update_u64(options_.latency_max);
  h.update_u64(options_.seed);
  h.update_u64(blocked_.size());
  for (const auto& [bs, bd] : blocked_) {
    h.update_u64(bs);
    h.update_u64(bd);
  }
  BinaryWriter rw;
  rng_.save(rw);
  h.update(rw.bytes());
  h.update_u64(next_id_);
  for (const auto& [key, q] : channels_) {
    if (q.empty()) continue;
    h.update_u64(key.first);
    h.update_u64(key.second);
    std::uint64_t cd;
    if (cached) {
      auto it = channel_digest_cache_.find(key);
      if (it == channel_digest_cache_.end()) {
        cd = channel_digest(q, /*cached=*/true);
        channel_digest_cache_.emplace(key, cd);
      } else {
        cd = it->second;
      }
    } else {
      cd = channel_digest(q, /*cached=*/false);
    }
    h.update_u64(cd);
  }
  h.update_u64(stats_.submitted);
  h.update_u64(stats_.delivered);
  h.update_u64(stats_.dropped_policy);
  h.update_u64(stats_.dropped_forced);
  h.update_u64(stats_.duplicated);
  h.update_u64(stats_.bytes_submitted);
  h.update_u64(stats_.bytes_delivered);
  return h.digest();
}

std::uint64_t SimNetwork::digest() const {
  if (!digest_memo_) digest_memo_ = digest_impl(/*cached=*/true);
  return *digest_memo_;
}

std::uint64_t SimNetwork::digest_uncached() const {
  return digest_impl(/*cached=*/false);
}

std::uint64_t SimNetwork::content_digest_acc_uncached() const {
  std::uint64_t acc = 0;
  for (const auto& [id, m] : messages_) {
    acc += acc_term(m->content_digest_uncached());
  }
  return acc;
}

}  // namespace fixd::net
