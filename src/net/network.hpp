// The simulated network connecting processes.
//
// The network is the system's central source of nondeterminism: *which*
// pending message is delivered next is the scheduler's choice, and the set
// of choices the network exposes is its delivery discipline:
//
//  - reliable FIFO:  per (src,dst) channel order is preserved; the
//    deliverable set is the head of each nonempty channel (MPI-like).
//  - reordering:     any pending message may be delivered (fully async).
//  - lossy:          seeded drop/duplicate applied at submit time, on top of
//    either discipline — deterministic given the seed, so runs replay.
//
// The Investigator model-checks over exactly this deliverable set, and can
// additionally install *environment models* (mc/sysmodel.hpp) that turn each
// pending message into deliver/drop/duplicate actions — the paper's "swap
// the real communication actions for models" (§4.3).
//
// All state (pending messages, channel queues, loss RNG) is serializable so
// world snapshots capture in-flight traffic.
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/sync.hpp"
#include "net/message.hpp"

namespace fixd::net {

struct NetStats {
  std::uint64_t submitted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_policy = 0;   ///< dropped by loss policy
  std::uint64_t dropped_forced = 0;   ///< dropped by fault injection / aborts
  std::uint64_t duplicated = 0;
  std::uint64_t bytes_submitted = 0;
  std::uint64_t bytes_delivered = 0;
};

/// Configuration for a simulated network.
struct NetworkOptions {
  bool fifo = true;        ///< per-channel FIFO vs arbitrary reorder
  double drop_prob = 0.0;  ///< iid drop probability at submit
  double dup_prob = 0.0;   ///< iid duplicate probability at submit
  /// Per-message delivery latency drawn uniformly from [min, max] (virtual
  /// time). Jitter makes timed-mode runs reorder across channels.
  VirtualTime latency_min = 1;
  VirtualTime latency_max = 1;
  std::uint64_t seed = 0x5eedf00dull;

  static NetworkOptions reliable_fifo() { return {}; }
  static NetworkOptions reordering(VirtualTime lat_min = 1,
                                   VirtualTime lat_max = 4) {
    NetworkOptions o;
    o.fifo = false;
    o.latency_min = lat_min;
    o.latency_max = lat_max;
    return o;
  }
  static NetworkOptions lossy(double drop, double dup, std::uint64_t seed,
                              bool fifo = true) {
    NetworkOptions o;
    o.fifo = fifo;
    o.drop_prob = drop;
    o.dup_prob = dup;
    o.seed = seed;
    return o;
  }
};

/// One deliverable message as tracked by the incremental deliverable
/// index: the ready time and control flag are cached in the entry so
/// enabled-set materialization needs no per-message map lookup.
struct DeliverableEntry {
  VirtualTime at = 0;    ///< sent_at + latency (refreshed by mutate)
  bool control = false;  ///< FixD control-plane traffic

  auto operator<=>(const DeliverableEntry&) const = default;
};

/// Per-destination bucket of currently deliverable messages. Stored flat:
/// `by_id` is a vector sorted by ascending id (the canonical
/// materialization order), so an in-place rebuild after a restore reuses
/// its storage. The ready-time ordering that
/// timed-mode time-warp selection iterates is derived lazily (`at_view`),
/// so abstract-time exploration never pays for maintaining it.
struct DeliverableBucket {
  /// (id, entry), ascending by id.
  std::vector<std::pair<MsgId, DeliverableEntry>> by_id;

  // Copies travel through snapshots; they drop the derived at view (the
  // receiver rebuilds it lazily if it ever runs timed) so the hot-path
  // copy is the one flat by_id buffer. Moves keep it.
  DeliverableBucket() = default;
  DeliverableBucket(const DeliverableBucket& o) : by_id(o.by_id) {}
  DeliverableBucket& operator=(const DeliverableBucket& o) {
    by_id = o.by_id;
    by_at_.clear();
    at_valid_ = false;
    return *this;
  }
  DeliverableBucket(DeliverableBucket&&) = default;
  DeliverableBucket& operator=(DeliverableBucket&&) = default;

  std::size_t size() const { return by_id.size(); }
  bool empty() const { return by_id.empty(); }
  bool contains(MsgId id) const {
    auto it = lower_bound(id);
    return it != by_id.end() && it->first == id;
  }
  /// Earliest ready time in the bucket (bucket must be nonempty).
  VirtualTime min_at() const { return at_view().front().first; }

  /// (at, id) ascending; rebuilt on first use after a mutation.
  const std::vector<std::pair<VirtualTime, MsgId>>& at_view() const {
    if (!at_valid_) {
      by_at_.clear();
      by_at_.reserve(by_id.size());
      for (const auto& [id, e] : by_id) by_at_.emplace_back(e.at, id);
      std::sort(by_at_.begin(), by_at_.end());
      at_valid_ = true;
    }
    return by_at_;
  }

  void add(MsgId id, DeliverableEntry e) {
    // Ids are assigned monotonically, so inserts land at the back in the
    // common case and the sorted insert degenerates to a push_back.
    by_id.insert(lower_bound(id), {id, e});
    at_valid_ = false;
  }

  /// Empty the bucket keeping its capacity (rebuild reuse).
  void clear() {
    by_id.clear();
    at_valid_ = false;
  }

  /// Remove `id` if present; returns whether it was.
  bool remove(MsgId id) {
    auto it = lower_bound(id);
    if (it == by_id.end() || it->first != id) return false;
    by_id.erase(it);
    at_valid_ = false;
    return true;
  }

 private:
  std::vector<std::pair<MsgId, DeliverableEntry>>::const_iterator
  lower_bound(MsgId id) const {
    return std::lower_bound(
        by_id.begin(), by_id.end(), id,
        [](const auto& p, MsgId v) { return p.first < v; });
  }
  std::vector<std::pair<MsgId, DeliverableEntry>>::iterator
  lower_bound(MsgId id) {
    return std::lower_bound(
        by_id.begin(), by_id.end(), id,
        [](const auto& p, MsgId v) { return p.first < v; });
  }

  mutable std::vector<std::pair<VirtualTime, MsgId>> by_at_;
  mutable bool at_valid_ = false;
};

/// dst -> deliverable bucket; empty buckets are erased so iterating the
/// index touches only destinations that actually have deliverable traffic.
using DeliverableIndex = std::map<ProcessId, DeliverableBucket>;

/// Observer of deliverable-set deltas. While the deliverable index is
/// live, SimNetwork publishes an add/remove for every change to "which
/// message may be delivered next" (submit, take, drop, duplicate, mutate,
/// reinject). When the whole in-flight state is replaced (restore / load)
/// the index is merely invalidated — no deltas fire — and the consumer
/// detects the rebuild through deliv_epoch() and resyncs wholesale. The
/// World maintains its enabled-event index from exactly this protocol —
/// see docs/PERF.md for the invalidation contract.
class DeliverableListener {
 public:
  virtual ~DeliverableListener() = default;
  virtual void on_deliverable_add(ProcessId dst, MsgId id,
                                  const DeliverableEntry& e) = 0;
  virtual void on_deliverable_remove(ProcessId dst, MsgId id) = 0;
};

/// The in-flight network state in its one representation: the live
/// SimNetwork holds one, and every NetSnapshot is one. Every table is a
/// flat vector, so capture is a copy of this struct and restore is a
/// copy-assignment into storage the live network already owns — once its
/// capacity is warm, a restore allocates nothing and converts nothing.
/// Pending messages are immutable and shared with snapshots
/// (SimNetwork::mutate replaces a message, it never edits one in place),
/// so a copy is one pointer per message, never a re-serialization.
struct NetState {
  using ChannelKey = std::pair<ProcessId, ProcessId>;
  /// (id, message); the id sits beside the pointer so lookups binary-search
  /// one array without dereferencing.
  using Pending = std::pair<MsgId, std::shared_ptr<const Message>>;

  /// One (src,dst) channel: its FIFO queue is queued[begin, begin + len).
  /// A drained channel keeps its entry (save() writes it; digests skip
  /// it). The digest memo is filled by the live network's const digest()
  /// and travels with captures, so a restore re-warms the digest pipeline
  /// instead of chilling it.
  struct Channel {
    ChannelKey key;
    std::uint32_t begin = 0;
    std::uint32_t len = 0;
    mutable std::uint64_t digest = 0;
    mutable bool digest_valid = false;
  };

  NetworkOptions options;
  Rng rng;
  MsgId next_id = 1;
  /// Ascending id; ids only grow, so enqueue appends in the common case.
  std::vector<Pending> messages;
  /// Ascending key.
  std::vector<Channel> channels;
  /// Every channel's queue, concatenated in channel order.
  std::vector<MsgId> queued;
  /// dst -> in-flight non-control message count, ascending dst.
  std::vector<std::pair<ProcessId, std::uint64_t>> inflight;
  /// Blocked (src,dst) links (the partition mask), ascending.
  std::vector<ChannelKey> blocked;
  NetStats stats;
  mutable std::optional<std::uint64_t> digest_memo;
  /// Order-independent accumulator over pending message content digests
  /// (see SimNetwork::content_digest_acc).
  std::uint64_t content_acc = 0;

  std::span<const MsgId> queue(const Channel& c) const {
    return {queued.data() + c.begin, c.len};
  }
};

/// An immutable capture of in-flight network state: a copy of the live
/// network's NetState, sharing its message buffers.
struct NetSnapshot : NetState {
  explicit NetSnapshot(const NetState& s) : NetState(s) {}

  /// Bytes of the snapshot's own tables: the struct plus its flat
  /// vectors, message pointers included, message contents excluded. The
  /// one formula for a capture's cost beyond its (shareable) messages —
  /// size_bytes() and the explorer's frontier meter both use it.
  std::uint64_t table_bytes() const;

  /// Approximate retained size: table_bytes() plus every message's
  /// retained bytes. Shared buffers are charged in full — callers that
  /// track sharing dedupe by message pointer instead.
  std::uint64_t size_bytes() const;

  /// Publish this snapshot across threads (parallel explorer): marks every
  /// shared message so delivery on any thread copies instead of moving.
  /// Memoized per snapshot object.
  void share_across_threads() const;

 private:
  SharedMark xt_marked_;
};

class SimNetwork {
 public:
  /// A directed (src,dst) link, the unit of the partition mask.
  using LinkKey = std::pair<ProcessId, ProcessId>;

  explicit SimNetwork(NetworkOptions options = {});

  const NetworkOptions& options() const { return st_.options; }

  /// Submit a message; assigns Message::id. Loss policy may drop or
  /// duplicate it (duplicates get fresh ids). Returns the assigned id, or
  /// nullopt if the policy dropped the message — in which case `msg` is
  /// left untouched (not moved from), so the caller still holds what it
  /// sent.
  std::optional<MsgId> submit(Message&& msg);

  /// Ids currently eligible for delivery, in deterministic (ascending id
  /// within channel-order) sequence. FIFO mode: one per nonempty channel.
  /// Recomputed from scratch per call — this is the verification oracle
  /// for the incremental deliverable index below, mirroring the
  /// digest/digest_uncached split.
  std::vector<MsgId> deliverable() const;

  /// The incrementally maintained deliverable set, bucketed by
  /// destination: updated in O(log) at every submit/take/drop/duplicate/
  /// mutate/reinject while live, and *invalidated* (not copied) when the
  /// whole in-flight state is replaced (restore / load) — the accessors
  /// below rebuild it lazily on first use afterwards, so the explorer's
  /// restore-per-transition loop pays one rebuild per expansion at most
  /// and a live run pays none. Contains the same ids as deliverable(),
  /// keyed with their ready times, regardless of whether the destination
  /// can currently receive (receivability is the World's concern — it
  /// masks whole buckets by process lifecycle state).
  const DeliverableIndex& deliv_index() const {
    ensure_deliv_index();
    return deliv_index_;
  }

  /// Bucket for one destination (nullptr when it has no deliverable
  /// traffic) and its size; O(log buckets).
  const DeliverableBucket* deliv_bucket(ProcessId dst) const {
    ensure_deliv_index();
    auto it = deliv_index_.find(dst);
    return it == deliv_index_.end() ? nullptr : &it->second;
  }
  std::size_t deliv_bucket_size(ProcessId dst) const {
    const DeliverableBucket* b = deliv_bucket(dst);
    return b ? b->size() : 0;
  }

  /// Rebuild the deliverable index now if a restore/load invalidated it.
  /// Idempotent and cheap when already valid; bumps deliv_epoch() on an
  /// actual rebuild.
  void ensure_deliv_index() const;

  /// False between a wholesale state replacement and the next rebuild.
  /// While false, mutations skip index upkeep entirely (no deltas fire).
  bool deliv_index_valid() const { return deliv_valid_; }

  /// Incremented on every wholesale index rebuild. A consumer mirroring
  /// the index through deltas compares epochs to detect that it must
  /// resync from scratch instead.
  std::uint64_t deliv_epoch() const { return deliv_epoch_; }

  /// Install the deliverable-delta observer (one per network; the owning
  /// World). Pass nullptr to detach.
  void set_deliverable_listener(DeliverableListener* l) { listener_ = l; }

  /// All in-flight messages (deliverable or queued behind channel heads).
  std::vector<const Message*> pending() const;

  std::size_t pending_count() const { return st_.messages.size(); }

  /// Apply an extra delivery delay to a pending message (timeout-fault
  /// injection / the kDelayMessage model action): clones the immutable
  /// message with `latency += extra` and refreshes its deliverable entry.
  /// Returns false if the message is gone.
  bool delay(MsgId id, VirtualTime extra);

  // --- link-reachability mask (partitions) ---------------------------------
  /// A blocked (src,dst) link defers its traffic: pending messages on the
  /// link stay pending (they still count as in-flight — the Healer's
  /// quiescence question is unchanged by a partition) but leave the
  /// deliverable set until the link heals. Cut/heal publish incremental
  /// index deltas like any other deliverable-set change, so the World's
  /// enabled-event index mirrors the mask without a rebuild.
  /// Returns whether the call changed the mask.
  bool cut_link(ProcessId src, ProcessId dst);
  bool heal_link(ProcessId src, ProcessId dst);
  /// Heal every blocked link; returns how many were blocked.
  std::size_t heal_all_links();
  bool link_blocked(ProcessId src, ProcessId dst) const {
    return !st_.blocked.empty() &&
           std::binary_search(st_.blocked.begin(), st_.blocked.end(),
                              LinkKey{src, dst});
  }
  std::size_t blocked_link_count() const { return st_.blocked.size(); }
  /// Ascending.
  const std::vector<LinkKey>& blocked_links() const { return st_.blocked; }
  /// Order-sensitive digest of the mask (folded into the world's canonical
  /// digest so partitioned states never dedup against unpartitioned ones).
  std::uint64_t links_digest() const;

  /// In-flight non-control messages destined to `dst`, maintained
  /// incrementally. Unlike deliv_bucket_size this also counts messages
  /// queued behind FIFO channel heads — which is exactly the quiescence
  /// question the Healer's update-point check asks. Bit-identical to
  /// inflight_to_uncached() by contract.
  std::uint64_t inflight_to(ProcessId dst) const;

  /// From-scratch recount over the pending messages; verification oracle for
  /// tests, mirroring the digest/digest_uncached split.
  std::uint64_t inflight_to_uncached(ProcessId dst) const;

  const Message* peek(MsgId id) const;

  /// Remove and return a deliverable message. Throws if not deliverable.
  Message take(MsgId id);

  /// Force-drop a pending message (fault injection / speculation abort).
  bool drop(MsgId id, bool forced = true);

  /// Duplicate a pending message in place (fault injection); returns new id.
  std::optional<MsgId> duplicate(MsgId id);

  /// Drop every pending message tainted by `spec` (speculation abort path).
  std::size_t drop_tainted(SpecId spec);

  /// Remove `spec` from the taint sets of all pending messages (commit path).
  std::size_t scrub_taint(SpecId spec);

  /// Re-inject a logged message after a rollback (message-logging recovery).
  /// Bypasses the loss policy; assigns a fresh id which is returned.
  MsgId reinject(Message msg);

  /// Mutate a pending message (fault injection: corruption). The pending
  /// object is immutable (snapshots may share it), so this clones it, runs
  /// `fn` on the clone, and swaps the clone in. `fn` must not change the
  /// routing identity (id/src/dst) — rerouting is drop + submit. Returns
  /// false if the message is gone.
  bool mutate(MsgId id, const std::function<void(Message&)>& fn);

  const NetStats& stats() const { return st_.stats; }

  void save(BinaryWriter& w) const;
  void load(BinaryReader& r);

  /// O(pending) pointer-sharing capture of the in-flight state. Repeated
  /// calls with no intervening mutation return the same shared snapshot.
  std::shared_ptr<const NetSnapshot> snapshot() const;

  /// Restore to a snapshot's exact state: copy-assigns its NetState into
  /// the live storage, O(pending + channels) flat copies that allocate
  /// nothing once capacity is warm. A restore to the snapshot that already
  /// describes the current state (pointer equality via the snapshot cache)
  /// is a no-op.
  void restore(const std::shared_ptr<const NetSnapshot>& snap);

  /// Digest of in-flight state (part of the world digest). Incremental:
  /// folds per-channel digests cached until a channel is touched
  /// (enqueue / deliver / drop / mutate / scrub / load). A cold channel
  /// hashes each of its messages' full wire state (Message::state_digest);
  /// the channel memo is the only cache, so the send path never hashes
  /// it. Bit-identical to digest_uncached() by contract.
  std::uint64_t digest() const;

  /// From-scratch recompute bypassing the channel caches. Verification
  /// oracle for tests and bench/fig9_digest.
  std::uint64_t digest_uncached() const;

  /// Order-independent digest of the in-flight *content* multiset: the
  /// wrapping sum of mix64(content_digest) over all pending messages,
  /// maintained incrementally at every enqueue/remove/replace. This is
  /// what World::mc_digest folds for the network share of the canonical
  /// state — O(1) per call instead of re-sorting per-message digests.
  /// Bit-identical to content_digest_acc_uncached() by contract.
  std::uint64_t content_digest_acc() const { return st_.content_acc; }

  /// From-scratch recompute bypassing the accumulator and the per-message
  /// memos. Verification oracle for tests.
  std::uint64_t content_digest_acc_uncached() const;

  // --- replay-warmed message objects (driven by rt::World) -----------------
  /// While a deterministically keyed event executes (rt::World::dispatch
  /// brackets it with begin/end), every message enqueued is keyed by
  /// (event key, enqueue ordinal) against a small direct-mapped ring: a
  /// re-execution of the same prefix re-derives the same key and — after a
  /// full field-equality check, so reuse is bit-exact by construction, not
  /// by hash — shares the previously allocated immutable Message object
  /// instead of duplicating it. Sibling trail-frontier anchors then hold
  /// the same message pointers for replay-created traffic, which is where
  /// most of a trail frontier's memory went. Bounded retention:
  /// kWarmRingSlots shared messages, overwritten direct-mapped.
  void begin_warm_step(std::uint64_t key) {
    warm_step_key_ = warm_on_ ? key : 0;
    warm_ordinal_ = 0;
  }
  void end_warm_step() { warm_step_key_ = 0; }
  /// Toggle the ring (rt::World::set_replay_warm forwards); clears it.
  void set_replay_warm(bool on);
  /// Messages served shared from the ring (observability for tests).
  std::uint64_t warm_hits() const { return warm_hits_; }

 private:
  using ChannelKey = NetState::ChannelKey;
  using Channel = NetState::Channel;

  bool is_deliverable(MsgId id) const;
  void enqueue(Message msg);
  VirtualTime draw_latency();
  /// Share from the warm ring when an identical message was created under
  /// the same replay key before; else allocate and publish. See
  /// begin_warm_step.
  std::shared_ptr<const Message> warm_or_make(Message&& msg);

  // --- flat-storage helpers (binary searches over the sorted vectors) ----
  /// The pending message `id`; it must exist.
  const Message& pending_at(MsgId id) const;
  const Channel* find_channel(const ChannelKey& key) const;
  /// The channel for `key`, inserted empty at its sorted position if new.
  Channel& channel_for(const ChannelKey& key);
  /// Append `id` to / remove `id` from `c`'s queue, shifting the queues of
  /// later channels. queue_erase returns whether `id` was queued.
  void queue_push(Channel& c, MsgId id);
  bool queue_erase(Channel& c, MsgId id);

  /// Deliverable-index deltas (publish to the listener); no-ops while the
  /// index is invalidated. idx_add_head re-adds the new head of a FIFO
  /// channel after its old head left.
  void idx_add(ProcessId dst, MsgId id, const DeliverableEntry& e);
  void idx_remove(ProcessId dst, MsgId id);
  void idx_add_head(const Channel& c);
  /// Drop the index (wholesale state replacement; rebuilt lazily).
  void idx_invalidate();

  /// Maintain the per-destination in-flight counters (non-control only).
  void inflight_add(const Message& m);
  void inflight_sub(const Message& m);

  /// Any state changed (stats/RNG included): drop the whole-network memo
  /// and the snapshot cache.
  void touch();
  /// A channel's queue or a message in it changed: additionally drop that
  /// channel's digest memo.
  void touch_channel(const Channel& c);

  std::uint64_t digest_impl(bool cached) const;
  std::uint64_t channel_digest(const Channel& c) const;

  /// Everything a snapshot captures, in the one flat representation.
  NetState st_;
  /// Incremental deliverable index (see deliv_index()); mutable for the
  /// lazy rebuild under const accessors, like the digest memos.
  mutable DeliverableIndex deliv_index_;
  mutable bool deliv_valid_ = true;
  mutable std::uint64_t deliv_epoch_ = 0;
  DeliverableListener* listener_ = nullptr;
  /// The snapshot describing the current state, if one is warm.
  mutable std::shared_ptr<const NetSnapshot> snap_cache_;

  /// Replay-warm message ring (see begin_warm_step). Direct-mapped: the
  /// slot is the key's low bits, so lookup and insert are one probe; a
  /// colliding insert simply evicts (sharing degrades, correctness can't —
  /// reuse requires full equality).
  static constexpr std::size_t kWarmRingSlots = 2048;
  struct WarmMsgSlot {
    std::uint64_t key = 0;
    std::shared_ptr<const Message> msg;
  };
  bool warm_on_ = true;
  std::uint64_t warm_step_key_ = 0;
  std::uint64_t warm_ordinal_ = 0;
  std::uint64_t warm_hits_ = 0;
  std::vector<WarmMsgSlot> warm_ring_;
};

}  // namespace fixd::net
