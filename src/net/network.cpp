#include "net/network.hpp"

#include <algorithm>
#include <bit>

#include "common/hash.hpp"

namespace fixd::net {

std::uint64_t NetSnapshot::table_bytes() const {
  return sizeof(NetSnapshot) + messages.size() * sizeof(Pending) +
         channels.size() * sizeof(Channel) + queued.size() * sizeof(MsgId) +
         inflight.size() * sizeof(inflight.front()) +
         blocked.size() * sizeof(ChannelKey);
}

std::uint64_t NetSnapshot::size_bytes() const {
  std::uint64_t n = table_bytes();
  for (const auto& [id, m] : messages) n += m->retained_bytes();
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

/// First entry of a vector of (key, value) pairs, sorted by key, whose key
/// is not below `k`.
template <class Vec, class K>
auto lower_bound_first(Vec& v, const K& k) {
  return std::lower_bound(v.begin(), v.end(), k,
                          [](const auto& e, const K& x) { return e.first < x; });
}

template <class Vec>
auto lower_bound_channel(Vec& v, const NetState::ChannelKey& k) {
  return std::lower_bound(
      v.begin(), v.end(), k,
      [](const NetState::Channel& c, const auto& x) { return c.key < x; });
}

}  // namespace

SimNetwork::SimNetwork(NetworkOptions options) {
  st_.options = options;
  st_.rng = Rng(options.seed);
}

void SimNetwork::touch() {
  st_.digest_memo.reset();
  snap_cache_.reset();
}

void SimNetwork::touch_channel(const Channel& c) {
  c.digest_valid = false;
  touch();
}

const Message& SimNetwork::pending_at(MsgId id) const {
  const Message* m = peek(id);
  FIXD_CHECK_MSG(m != nullptr,
                 "queued message not pending: " + std::to_string(id));
  return *m;
}

const NetState::Channel* SimNetwork::find_channel(const ChannelKey& key) const {
  auto it = lower_bound_channel(st_.channels, key);
  return it != st_.channels.end() && it->key == key ? &*it : nullptr;
}

NetState::Channel& SimNetwork::channel_for(const ChannelKey& key) {
  auto it = lower_bound_channel(st_.channels, key);
  if (it != st_.channels.end() && it->key == key) return *it;
  // A new channel's queue starts where the next channel's begins.
  const auto begin = static_cast<std::uint32_t>(
      it == st_.channels.end() ? st_.queued.size() : it->begin);
  return *st_.channels.insert(it, Channel{key, begin, 0});
}

void SimNetwork::queue_push(Channel& c, MsgId id) {
  st_.queued.insert(st_.queued.begin() + c.begin + c.len, id);
  ++c.len;
  for (Channel* n = &c + 1; n != st_.channels.data() + st_.channels.size();
       ++n) {
    ++n->begin;
  }
}

bool SimNetwork::queue_erase(Channel& c, MsgId id) {
  const auto first = st_.queued.begin() + c.begin;
  const auto it = std::find(first, first + c.len, id);
  if (it == first + c.len) return false;
  st_.queued.erase(it);
  --c.len;
  for (Channel* n = &c + 1; n != st_.channels.data() + st_.channels.size();
       ++n) {
    --n->begin;
  }
  return true;
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

void SimNetwork::idx_add_head(const Channel& c) {
  if (!deliv_valid_ || c.len == 0) return;
  const Message& m = pending_at(st_.queue(c).front());
  if (link_blocked(m.src, m.dst)) return;  // deferred behind the partition
  idx_add(m.dst, m.id, {m.sent_at + m.latency, m.control});
}

// Drained destinations keep their (zero) slot: the set of destinations is
// small and stable, so the vector stops changing shape early.
void SimNetwork::inflight_add(const Message& m) {
  if (m.control) return;
  auto it = lower_bound_first(st_.inflight, m.dst);
  if (it == st_.inflight.end() || it->first != m.dst) {
    it = st_.inflight.insert(it, {m.dst, 0});
  }
  ++it->second;
}

void SimNetwork::inflight_sub(const Message& m) {
  if (m.control) return;
  auto it = lower_bound_first(st_.inflight, m.dst);
  FIXD_CHECK_MSG(it != st_.inflight.end() && it->first == m.dst &&
                     it->second > 0,
                 "inflight counter underflow");
  --it->second;
}

std::uint64_t SimNetwork::inflight_to(ProcessId dst) const {
  auto it = lower_bound_first(st_.inflight, dst);
  return it != st_.inflight.end() && it->first == dst ? it->second : 0;
}

std::uint64_t SimNetwork::inflight_to_uncached(ProcessId dst) const {
  std::uint64_t n = 0;
  for (const auto& [id, m] : st_.messages) {
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
  if (st_.options.fifo) {
    for (const Channel& c : st_.channels) {
      if (c.len == 0 || link_blocked(c.key.first, c.key.second)) continue;
      const Message& m = pending_at(st_.queue(c).front());
      deliv_index_[m.dst].add(m.id, {m.sent_at + m.latency, m.control});
    }
  } else {
    for (const auto& [id, m] : st_.messages) {
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
  // Every pending message carries a warm content memo, so the in-flight
  // accumulator and mc digests never re-hash payloads. The full-state
  // digest is computed only when a cold channel digest is read.
  msg.warm_digest_memo();
  st_.content_acc += acc_term(msg.content_digest());
  inflight_add(msg);
  Channel& c = channel_for({msg.src, msg.dst});
  queue_push(c, id);
  touch_channel(c);
  // FIFO: the message is deliverable only when it heads its channel;
  // reordering: every pending message is deliverable. A blocked link
  // defers either way.
  if ((!st_.options.fifo || c.len == 1) && !link_blocked(msg.src, msg.dst)) {
    idx_add(msg.dst, id, {msg.sent_at + msg.latency, msg.control});
  }
  // Ids only grow, so this appends — except under a policy duplicate,
  // which takes the next id but is enqueued before its original.
  st_.messages.emplace(lower_bound_first(st_.messages, id), id,
                       warm_or_make(std::move(msg)));
}

std::optional<MsgId> SimNetwork::submit(Message&& msg) {
  NetStats& stats = st_.stats;
  ++stats.submitted;
  stats.bytes_submitted += msg.payload.size();

  // Control-plane traffic bypasses the loss policy: the fault-response
  // protocol must be reliable for FixD itself to function.
  const bool lossy_eligible = !msg.control;

  if (lossy_eligible && st_.options.drop_prob > 0.0 &&
      st_.rng.next_bool(st_.options.drop_prob)) {
    ++stats.dropped_policy;
    touch();  // stats and RNG advanced even though nothing was enqueued
    return std::nullopt;
  }

  msg.id = st_.next_id++;
  msg.latency = draw_latency();
  MsgId id = msg.id;

  bool dup = lossy_eligible && st_.options.dup_prob > 0.0 &&
             st_.rng.next_bool(st_.options.dup_prob);
  if (dup) {
    Message copy = msg;
    copy.id = st_.next_id++;
    copy.latency = draw_latency();
    ++stats.duplicated;
    enqueue(std::move(copy));
  }
  enqueue(std::move(msg));
  return id;
}

VirtualTime SimNetwork::draw_latency() {
  const NetworkOptions& o = st_.options;
  if (o.latency_max <= o.latency_min) return o.latency_min;
  return o.latency_min +
         st_.rng.next_below(o.latency_max - o.latency_min + 1);
}

bool SimNetwork::is_deliverable(MsgId id) const {
  const Message* m = peek(id);
  if (!m || link_blocked(m->src, m->dst)) return false;
  if (!st_.options.fifo) return true;
  const Channel* c = find_channel({m->src, m->dst});
  FIXD_CHECK_MSG(c != nullptr, "pending message without a channel");
  return c->len != 0 && st_.queue(*c).front() == id;
}

std::vector<MsgId> SimNetwork::deliverable() const {
  std::vector<MsgId> out;
  if (st_.options.fifo) {
    for (const Channel& c : st_.channels) {
      if (c.len != 0 && !link_blocked(c.key.first, c.key.second)) {
        out.push_back(st_.queue(c).front());
      }
    }
    std::sort(out.begin(), out.end());
  } else {
    out.reserve(st_.messages.size());
    for (const auto& [id, m] : st_.messages) {
      if (!link_blocked(m->src, m->dst)) out.push_back(id);
    }
  }
  return out;
}

std::vector<const Message*> SimNetwork::pending() const {
  std::vector<const Message*> out;
  out.reserve(st_.messages.size());
  for (const auto& [id, m] : st_.messages) out.push_back(m.get());
  return out;
}

const Message* SimNetwork::peek(MsgId id) const {
  auto it = lower_bound_first(st_.messages, id);
  return it != st_.messages.end() && it->first == id ? it->second.get()
                                                     : nullptr;
}

Message SimNetwork::take(MsgId id) {
  FIXD_CHECK_MSG(is_deliverable(id),
                 "take: message not deliverable: " + std::to_string(id));
  auto it = lower_bound_first(st_.messages, id);
  std::shared_ptr<const Message> sp = std::move(it->second);
  st_.messages.erase(it);
  Channel& c = channel_for({sp->src, sp->dst});
  FIXD_CHECK(queue_erase(c, id));
  touch_channel(c);
  idx_remove(sp->dst, id);
  if (st_.options.fifo) idx_add_head(c);  // the next message becomes the head
  st_.content_acc -= acc_term(sp->content_digest());
  inflight_sub(*sp);
  ++st_.stats.delivered;
  st_.stats.bytes_delivered += sp->payload.size();
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
  auto it = lower_bound_first(st_.messages, id);
  if (it == st_.messages.end() || it->first != id) return false;
  const Message& m = *it->second;
  const ProcessId dst = m.dst;
  st_.content_acc -= acc_term(m.content_digest());
  inflight_sub(m);
  Channel& c = channel_for({m.src, m.dst});
  const bool was_head = c.len != 0 && st_.queue(c).front() == id;
  queue_erase(c, id);
  st_.messages.erase(it);
  touch_channel(c);
  if (!st_.options.fifo || was_head) {
    idx_remove(dst, id);
    if (st_.options.fifo) idx_add_head(c);
  }
  if (forced) {
    ++st_.stats.dropped_forced;
  } else {
    ++st_.stats.dropped_policy;
  }
  return true;
}

std::optional<MsgId> SimNetwork::duplicate(MsgId id) {
  const Message* orig = peek(id);
  if (!orig) return std::nullopt;
  Message copy = *orig;
  copy.id = st_.next_id++;
  ++st_.stats.duplicated;
  MsgId nid = copy.id;
  enqueue(std::move(copy));
  return nid;
}

std::size_t SimNetwork::drop_tainted(SpecId spec) {
  std::vector<MsgId> victims;
  for (const auto& [id, m] : st_.messages) {
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
  for (auto& [id, sp] : st_.messages) {
    auto it = std::find(sp->spec_taints.begin(), sp->spec_taints.end(), spec);
    if (it == sp->spec_taints.end()) continue;
    // Copy-on-write: snapshots sharing the old buffer keep the taint.
    st_.content_acc -= acc_term(sp->content_digest());
    Message m = *sp;
    m.spec_taints.erase(m.spec_taints.begin() +
                        (it - sp->spec_taints.begin()));
    m.warm_digest_memo();
    st_.content_acc += acc_term(m.content_digest());
    touch_channel(channel_for({m.src, m.dst}));
    sp = std::make_shared<Message>(std::move(m));
    ++n;
  }
  return n;
}

bool SimNetwork::mutate(MsgId id, const std::function<void(Message&)>& fn) {
  auto it = lower_bound_first(st_.messages, id);
  if (it == st_.messages.end() || it->first != id) return false;
  Message m = *it->second;  // copy-on-write; snapshots keep the original
  fn(m);
  FIXD_CHECK_MSG(m.id == id && m.src == it->second->src &&
                     m.dst == it->second->dst,
                 "mutate must not change routing identity (drop + submit)");
  st_.content_acc -= acc_term(it->second->content_digest());
  m.warm_digest_memo();  // re-pin after the mutation
  st_.content_acc += acc_term(m.content_digest());
  if (it->second->control != m.control) {
    inflight_sub(*it->second);
    inflight_add(m);
  }
  touch_channel(channel_for({m.src, m.dst}));
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
  const LinkKey key{src, dst};
  auto bit = std::lower_bound(st_.blocked.begin(), st_.blocked.end(), key);
  if (bit != st_.blocked.end() && *bit == key) return false;
  st_.blocked.insert(bit, key);
  // Retract the link's deliverable entries: FIFO exposes only the channel
  // head, reordering exposes the whole queue. The messages themselves stay
  // pending (deferred, not lost) and keep their in-flight counts.
  const Channel* c = find_channel(key);
  if (c && c->len != 0) {
    if (st_.options.fifo) {
      idx_remove(dst, st_.queue(*c).front());
    } else {
      for (MsgId id : st_.queue(*c)) idx_remove(dst, id);
    }
  }
  touch();
  return true;
}

bool SimNetwork::heal_link(ProcessId src, ProcessId dst) {
  const LinkKey key{src, dst};
  auto bit = std::lower_bound(st_.blocked.begin(), st_.blocked.end(), key);
  if (bit == st_.blocked.end() || *bit != key) return false;
  st_.blocked.erase(bit);
  const Channel* c = find_channel(key);
  if (c && c->len != 0) {
    if (st_.options.fifo) {
      idx_add_head(*c);
    } else if (deliv_valid_) {
      for (MsgId id : st_.queue(*c)) {
        const Message& m = pending_at(id);
        idx_add(dst, id, {m.sent_at + m.latency, m.control});
      }
    }
  }
  touch();
  return true;
}

std::size_t SimNetwork::heal_all_links() {
  const std::vector<LinkKey> keys = st_.blocked;
  for (const LinkKey& k : keys) heal_link(k.first, k.second);
  return keys.size();
}

std::uint64_t SimNetwork::links_digest() const {
  if (st_.blocked.empty()) return 0;
  Hasher h;
  h.update_u64(st_.blocked.size());
  for (const auto& [s, d] : st_.blocked) {
    h.update_u64(s);
    h.update_u64(d);
  }
  return h.digest();
}

MsgId SimNetwork::reinject(Message msg) {
  msg.id = st_.next_id++;
  MsgId id = msg.id;
  ++st_.stats.submitted;
  st_.stats.bytes_submitted += msg.payload.size();
  enqueue(std::move(msg));
  return id;
}

void SimNetwork::save(BinaryWriter& w) const {
  const NetworkOptions& o = st_.options;
  w.write_bool(o.fifo);
  w.write_f64(o.drop_prob);
  w.write_f64(o.dup_prob);
  w.write_u64(o.latency_min);
  w.write_u64(o.latency_max);
  w.write_u64(o.seed);
  st_.rng.save(w);
  w.write_u64(st_.next_id);
  w.write_varint(st_.messages.size());
  for (const auto& [id, m] : st_.messages) m->save(w);
  w.write_varint(st_.channels.size());
  for (const Channel& c : st_.channels) {
    w.write_u32(c.key.first);
    w.write_u32(c.key.second);
    w.write_varint(c.len);
    for (MsgId id : st_.queue(c)) w.write_u64(id);
  }
  // Stats are part of the observable run and must restore with the state
  // so that rolled-back executions do not double-count.
  const NetStats& s = st_.stats;
  w.write_u64(s.submitted);
  w.write_u64(s.delivered);
  w.write_u64(s.dropped_policy);
  w.write_u64(s.dropped_forced);
  w.write_u64(s.duplicated);
  w.write_u64(s.bytes_submitted);
  w.write_u64(s.bytes_delivered);
  w.write_varint(st_.blocked.size());
  for (const auto& [src, dst] : st_.blocked) {
    w.write_u32(src);
    w.write_u32(dst);
  }
}

void SimNetwork::load(BinaryReader& r) {
  st_ = NetState{};  // rebuilt below through the ordinary helpers
  NetworkOptions& o = st_.options;
  o.fifo = r.read_bool();
  o.drop_prob = r.read_f64();
  o.dup_prob = r.read_f64();
  o.latency_min = r.read_u64();
  o.latency_max = r.read_u64();
  o.seed = r.read_u64();
  st_.rng.load(r);
  st_.next_id = r.read_u64();
  std::size_t n = static_cast<std::size_t>(r.read_varint());
  for (std::size_t i = 0; i < n; ++i) {
    Message m;
    m.load(r);
    m.warm_digest_memo();  // restore the pending-message memo invariant
    if (peek(m.id)) continue;  // a repeated id keeps its first record
    st_.content_acc += acc_term(m.content_digest());
    inflight_add(m);
    const MsgId id = m.id;
    st_.messages.emplace(lower_bound_first(st_.messages, id), id,
                         std::make_shared<Message>(std::move(m)));
  }
  std::size_t nc = static_cast<std::size_t>(r.read_varint());
  for (std::size_t i = 0; i < nc; ++i) {
    ProcessId a = r.read_u32();
    ProcessId b = r.read_u32();
    std::size_t qn = static_cast<std::size_t>(r.read_varint());
    Channel& c = channel_for({a, b});
    for (std::size_t j = 0; j < qn; ++j) queue_push(c, r.read_u64());
  }
  NetStats& s = st_.stats;
  s.submitted = r.read_u64();
  s.delivered = r.read_u64();
  s.dropped_policy = r.read_u64();
  s.dropped_forced = r.read_u64();
  s.duplicated = r.read_u64();
  s.bytes_submitted = r.read_u64();
  s.bytes_delivered = r.read_u64();
  std::size_t nb = static_cast<std::size_t>(r.read_varint());
  for (std::size_t i = 0; i < nb; ++i) {
    const LinkKey key{r.read_u32(), r.read_u32()};
    auto bit = std::lower_bound(st_.blocked.begin(), st_.blocked.end(), key);
    if (bit == st_.blocked.end() || *bit != key) st_.blocked.insert(bit, key);
  }
  touch();
  idx_invalidate();
}

std::shared_ptr<const NetSnapshot> SimNetwork::snapshot() const {
  if (!snap_cache_) snap_cache_ = std::make_shared<const NetSnapshot>(st_);
  return snap_cache_;
}

void SimNetwork::restore(const std::shared_ptr<const NetSnapshot>& snap) {
  FIXD_CHECK_MSG(snap != nullptr, "restore: null network snapshot");
  if (snap_cache_ == snap) return;  // current state already matches
  // One representation on both sides: copy-assignment reuses the live
  // vectors' storage, and the snapshot's channel digest memos and content
  // accumulator come along (whatever was warm at capture stays warm).
  st_ = *snap;
  // The deliverable index is rebuilt lazily at the next enabled-set
  // query, not copied per restore: the explorer restores once per
  // transition but asks "what can fire next?" once per expansion.
  idx_invalidate();
  snap_cache_ = snap;
}

std::uint64_t SimNetwork::channel_digest(const Channel& c) const {
  Hasher h;
  h.update_u64(c.len);
  for (MsgId id : st_.queue(c)) h.update_u64(pending_at(id).state_digest());
  return h.digest();
}

// Digest formula: options, RNG state, id counter, then one digest per
// nonempty channel in key order (covering every pending message's full
// wire state and its queue position), then stats. Empty channel entries
// are skipped so the digest is a function of logical state alone.
std::uint64_t SimNetwork::digest_impl(bool cached) const {
  const NetworkOptions& o = st_.options;
  Hasher h;
  h.update_u64(o.fifo ? 1 : 0);
  h.update_u64(std::bit_cast<std::uint64_t>(o.drop_prob));
  h.update_u64(std::bit_cast<std::uint64_t>(o.dup_prob));
  h.update_u64(o.latency_min);
  h.update_u64(o.latency_max);
  h.update_u64(o.seed);
  h.update_u64(st_.blocked.size());
  for (const auto& [bs, bd] : st_.blocked) {
    h.update_u64(bs);
    h.update_u64(bd);
  }
  BinaryWriter rw;
  st_.rng.save(rw);
  h.update(rw.bytes());
  h.update_u64(st_.next_id);
  for (const Channel& c : st_.channels) {
    if (c.len == 0) continue;
    h.update_u64(c.key.first);
    h.update_u64(c.key.second);
    std::uint64_t cd;
    if (!cached) {
      cd = channel_digest(c);
    } else if (c.digest_valid) {
      cd = c.digest;
    } else {
      cd = c.digest = channel_digest(c);
      c.digest_valid = true;
    }
    h.update_u64(cd);
  }
  const NetStats& s = st_.stats;
  h.update_u64(s.submitted);
  h.update_u64(s.delivered);
  h.update_u64(s.dropped_policy);
  h.update_u64(s.dropped_forced);
  h.update_u64(s.duplicated);
  h.update_u64(s.bytes_submitted);
  h.update_u64(s.bytes_delivered);
  return h.digest();
}

std::uint64_t SimNetwork::digest() const {
  if (!st_.digest_memo) st_.digest_memo = digest_impl(/*cached=*/true);
  return *st_.digest_memo;
}

std::uint64_t SimNetwork::digest_uncached() const {
  return digest_impl(/*cached=*/false);
}

std::uint64_t SimNetwork::content_digest_acc_uncached() const {
  std::uint64_t acc = 0;
  for (const auto& [id, m] : st_.messages) {
    acc += acc_term(m->content_digest_uncached());
  }
  return acc;
}

}  // namespace fixd::net
