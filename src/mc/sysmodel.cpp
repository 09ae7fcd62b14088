#include "mc/sysmodel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

#include "common/hash.hpp"
#include "mc/concurrent.hpp"
#include "mc/visited.hpp"

namespace fixd::mc {

namespace {

using SteadyClock = std::chrono::steady_clock;

double ms_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - t0)
      .count();
}

/// mc_digest deliberately abstracts virtual time away (canonical dedup).
/// In timed exploration the *relative* readiness layout — how far each
/// pending delivery and armed timer is from now — decides which actions
/// are co-enabled, so the dedup digest must fold it in or states that
/// differ only by a delay would collapse into each other and the delayed
/// subtree would be pruned. Order-independent wrapping sum, keyed by
/// content (not path-dependent ids), relative to now (not absolute time,
/// which grows monotonically and would make every state unique).
std::uint64_t readiness_digest(const rt::World& w) {
  std::uint64_t acc = 0;
  const VirtualTime now = w.now();
  for (const net::Message* m : w.network().pending()) {
    const VirtualTime at = m->sent_at + m->latency;
    const VirtualTime rel = at > now ? at - now : 0;
    acc += mix64(hash_combine(mix64(m->content_digest()), rel));
  }
  for (ProcessId p = 0; p < w.size(); ++p) {
    for (const rt::Timer& t : w.timers_of(p).view()) {
      const VirtualTime rel = t.deadline > now ? t.deadline - now : 0;
      acc += mix64(hash_combine(hash_combine(p, t.kind), rel));
    }
  }
  return acc;
}

/// The dedup digest of `w`, its time charged (sampled) to stats.digest_ms.
std::uint64_t timed_mc_digest(rt::World& w, ExploreStats& stats,
                              SampledTimer& timer, bool abstract_time) {
  return timer(stats.digest_ms, [&] {
    const std::uint64_t d = w.mc_digest();
    return abstract_time ? d : hash_combine(d, readiness_digest(w));
  });
}

}  // namespace

/// The indirection between frontier nodes and their shared snapshot (see
/// the declaration comment in sysmodel.hpp). Untracked anchors are
/// immutable after publication, so `snap` is read lock-free exactly like
/// the old direct shared_ptr<const WorldSnapshot> field. Tracked anchors
/// (budgeted trail mode) hand every `snap` transition to the
/// AnchorRegistry's mutex.
struct SystemExplorer::Anchor {
  /// The materialized state; null while evicted (tracked anchors only).
  std::shared_ptr<const rt::WorldSnapshot> snap;
  /// Root-relative rebuild recipe: the path chain at the anchor point and
  /// its action count. Only filled for tracked anchors — untracked ones
  /// are never evicted, so they never need rebuilding.
  const PathNode* path = nullptr;
  std::uint32_t depth = 0;
  std::uint32_t slot = 0;   ///< registry slot index (tracked only)
  bool tracked = false;     ///< registered with the registry (evictable)
  bool pinned = false;      ///< the root anchor: never evicted
  std::atomic<bool> ref{false};  ///< clock reference bit (second chance)
  std::uint64_t est_bytes = 0;   ///< registry accounting at admit time
};

/// Residency bookkeeping for evictable trail-mode anchors. One mutex
/// guards every tracked anchor's `snap` transitions plus the clock state —
/// eviction is rare relative to node pops (each anchor serves up to
/// anchor_interval children), so a single lock does not serialize the
/// workers the way a per-node lock would.
///
/// Accounting: an anchor's charge is its snapshot's size_bytes() — an
/// upper bound, since COW interiors may be shared with sibling anchors or
/// the live worlds. An anchor that dies (all its nodes popped) while
/// resident keeps its charge until the clock next sweeps its slot; the
/// transient over-count only makes eviction more eager, never lets the
/// budget be exceeded unnoticed. peak_resident() therefore bounds true
/// anchor residency from above.
class SystemExplorer::AnchorRegistry {
 public:
  explicit AnchorRegistry(std::uint64_t budget) : budget_(budget) {}

  /// The pinned root anchor every rebuild replays from. Must be called
  /// before any worker starts; `snap` stays immutable afterwards.
  void set_root(std::shared_ptr<Anchor> a) {
    a->pinned = true;
    root_ = std::move(a);
  }
  const std::shared_ptr<const rt::WorldSnapshot>& root_snap() const {
    return root_->snap;
  }

  /// Register a freshly snapshotted anchor as evictable.
  void admit(const std::shared_ptr<Anchor>& a) {
    std::lock_guard<std::mutex> lk(mu_);
    a->tracked = true;
    a->ref.store(true, std::memory_order_relaxed);
    a->est_bytes = a->snap->size_bytes();
    a->slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back({a, a->est_bytes});
    resident_ += a->est_bytes;
    peak_ = std::max(peak_, resident_);
    evict_to_budget_locked();
  }

  /// The anchor's snapshot if resident (marks it recently used), else null
  /// — the caller must rebuild and install().
  std::shared_ptr<const rt::WorldSnapshot> acquire(Anchor& a) {
    std::lock_guard<std::mutex> lk(mu_);
    if (a.snap) a.ref.store(true, std::memory_order_relaxed);
    return a.snap;
  }

  /// Re-install a rebuilt snapshot. If a concurrent rebuild won the race
  /// the argument is dropped (the states are bit-identical by replay
  /// determinism, so either winner is correct).
  void install(Anchor& a, std::shared_ptr<const rt::WorldSnapshot> s) {
    std::lock_guard<std::mutex> lk(mu_);
    if (a.snap) return;
    a.snap = std::move(s);
    a.ref.store(true, std::memory_order_relaxed);
    a.est_bytes = a.snap->size_bytes();
    slots_[a.slot].charged = a.est_bytes;
    resident_ += a.est_bytes;
    peak_ = std::max(peak_, resident_);
    evict_to_budget_locked();
  }

  std::uint64_t evictions() const {
    std::lock_guard<std::mutex> lk(mu_);
    return evictions_;
  }
  std::uint64_t peak_resident() const {
    std::lock_guard<std::mutex> lk(mu_);
    return peak_;
  }

 private:
  struct Slot {
    std::weak_ptr<Anchor> wp;
    /// Mirror of the anchor's currently-counted bytes, so an expired slot
    /// (anchor died while resident) can still be refunded.
    std::uint64_t charged = 0;
  };

  /// Clock (second-chance) sweep: clear a set ref bit on first encounter,
  /// evict on the second. Two full passes bound the scan — after one pass
  /// every surviving ref bit is clear, so the second pass must evict
  /// unless everything is dead, pinned, or already evicted.
  void evict_to_budget_locked() {
    std::size_t scanned = 0;
    const std::size_t bound = slots_.size() * 2 + 1;
    while (resident_ > budget_ && !slots_.empty() && scanned++ < bound) {
      if (hand_ >= slots_.size()) hand_ = 0;
      Slot& sl = slots_[hand_++];
      std::shared_ptr<Anchor> a = sl.wp.lock();
      if (!a) {  // anchor died; refund whatever it still had charged
        resident_ -= sl.charged;
        sl.charged = 0;
        continue;
      }
      if (!a->snap || a->pinned) continue;
      if (a->ref.load(std::memory_order_relaxed)) {
        a->ref.store(false, std::memory_order_relaxed);
        continue;
      }
      a->snap.reset();
      resident_ -= sl.charged;
      sl.charged = 0;
      ++evictions_;
    }
  }

  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  std::size_t hand_ = 0;
  std::uint64_t budget_;
  std::uint64_t resident_ = 0;
  std::uint64_t peak_ = 0;
  std::uint64_t evictions_ = 0;
  std::shared_ptr<Anchor> root_;
};

/// Peak-frontier accounting with sharing awareness: every buffer a node
/// can reach — its snapshot shell, COW checkpoints, heap pages, message
/// objects, the net table — is charged once per unique pointer
/// (pointer-keyed refcounts), so snapshot-mode and trail-mode numbers are
/// honestly comparable and entries shared across sibling anchors by the
/// replay-warm machinery show up as real savings. The variant Node has
/// exactly one snapshot field, so a single node can no longer reach the
/// same checkpoint through two routes (the old snap-vs-anchor shape
/// could, and double-counted the per-node proc-table term for it); the
/// refcounts still dedupe any aliasing *across* nodes. Each worker keeps a
/// private meter (Node::owner tags the pusher), so a one-worker search has
/// one exact meter. With more workers, a worker charges at push
/// and refunds only nodes it both pushed and popped, so the rare stolen
/// node stays charged on its victim's meter —
/// per-worker peaks are upper bounds with slack bounded by steal
/// traffic, and the merged peak_frontier_bytes (sum of peaks) bounds the
/// run's shared-aware peak from above with no cross-thread meter access.
/// Budgeted trail mode (frontier_budget_bytes > 0) splits the accounting:
/// anchor snapshots may be evicted/rebuilt concurrently by the
/// AnchorRegistry, which tracks their residency itself, so the meter is
/// told not to dereference them (charge_snapshots = false) and charges
/// only node shells; peak_frontier_bytes then reports
/// meter peak + registry peak. The Anchor struct itself rides in the
/// not-metered bucket alongside shared_ptr control blocks (it is ~40
/// bytes per anchor_interval-node cohort), keeping unbudgeted trail
/// accounting byte-identical to the pre-anchor representation.
class SystemExplorer::FrontierMeter {
 public:
  void set_charge_snapshots(bool v) { charge_snapshots_ = v; }
  void push(const Node& n) {
    cur_ += node_cost(n, +1);
    if (cur_ > peak_) peak_ = cur_;
  }
  void pop(const Node& n) { cur_ -= node_cost(n, -1); }
  std::uint64_t peak() const { return peak_; }

 private:
  /// Charge `bytes` when `p` first enters the frontier, refund when the
  /// last reference leaves. Returns the delta actually applied.
  std::uint64_t charge(const void* p, std::uint64_t bytes, int dir) {
    if (!p) return 0;
    if (dir > 0) return refs_.acquire(p) ? bytes : 0;
    return refs_.release(p) ? bytes : 0;
  }

  std::uint64_t snapshot_cost(const rt::WorldSnapshot& s, int dir) {
    std::uint64_t n = 0;
    for (const auto& p : s.procs) {
      if (!p) continue;
      // size_bytes covers root/info plus the COW page *table*; the
      // resident page content is charged per unique page so diverged
      // pages pinned only by the frontier show up honestly.
      n += charge(p.get(), p->size_bytes(), dir);
      if (p->heap_snap) {
        for (const auto& page : p->heap_snap->pages()) {
          if (page) n += charge(page.get(), page->size(), dir);
        }
      }
    }
    if (s.net) {
      for (const auto& [id, m] : s.net->messages) {
        n += charge(m.get(), m->retained_bytes(), dir);
      }
      n += charge(s.net.get(), s.net->table_bytes(), dir);
    }
    return n;
  }

  std::uint64_t node_cost(const Node& n, int dir) {
    std::uint64_t shared = 0;
    // Tracked anchors' snap may be swapped by the registry on another
    // thread, so the budgeted meter never dereferences it; untracked
    // anchors are immutable, exactly like the old direct snapshot field.
    const rt::WorldSnapshot* s =
        (n.state && charge_snapshots_) ? n.state->snap.get() : nullptr;
    if (s) {
      // The snapshot shell (struct + proc pointer table) is itself shared:
      // one per anchor in trail mode (all descendants charge it once), one
      // per node in snapshot mode.
      const std::uint64_t shell =
          sizeof(rt::WorldSnapshot) +
          s->procs.capacity() *
              sizeof(std::shared_ptr<const rt::ProcessCheckpoint>);
      shared += charge(s, shell, dir);
      shared += snapshot_cost(*s, dir);
    }
    return sizeof(Node) + shared;
  }

  PtrRefCounts refs_;
  std::uint64_t cur_ = 0;
  std::uint64_t peak_ = 0;
  bool charge_snapshots_ = true;
};

// ---------------------------------------------------------------------------
// Search coordination state
// ---------------------------------------------------------------------------

/// POR bookkeeping for one search: shared expansion records plus the root
/// anchor every backtrack node re-materializes from (root snapshot +
/// deterministic replay of the path prefix — the same machinery trail
/// frontiers use, which is why backtracking works identically in snapshot
/// and trail modes and across workers).
struct SystemExplorer::PorState {
  explicit PorState(std::size_t stripes) : recs(stripes) {}
  StripedPorRecords recs;
  /// The root *anchor* (pinned, never evicted) — backtrack nodes point at
  /// it and re-materialize by full-path replay.
  std::shared_ptr<Anchor> root;
};

/// Everything the workers share. The visited set and the per-worker
/// deques are individually synchronized; the atomics below carry the
/// global budgets. `active` counts frontier nodes that are queued or being
/// expanded — it is incremented *before* a child is pushed and decremented
/// *after* its expansion finishes, so an idle worker observing active == 0
/// knows the search is complete (no node can reappear). Every striped
/// structure is sized by stripes_for(workers): one stripe for a one-worker
/// search (a budgeted visited set keeps 64, its spill granularity).
struct SystemExplorer::Shared {
  Shared(const SysExploreOptions& o, std::size_t n_workers)
      : por(stripes_for(n_workers)) {
    if (o.dedup) {
      visited.emplace(stripes_for(n_workers), o.visited_budget_bytes,
                      o.spill_dir);
    }
  }

  /// The visited-set stats (all zero with dedup off).
  void report_visited(ExploreStats& s) const {
    if (!visited) return;
    s.visited_resident_bytes = visited->resident_bytes();
    s.visited_peak_resident_bytes = visited->peak_resident_bytes();
    s.visited_spilled_bytes = visited->spilled_bytes();
    s.spilled_bytes = visited->spill_bytes_written();
    s.bloom_fp_rate = visited->bloom_fp_rate();
  }

  /// The search's visited set (none with dedup off). Under
  /// visited_budget_bytes it spills to its own scratch directory (RAII:
  /// spill files vanish on every exit path); either way it keeps
  /// per-stripe linearizability, so exactly one worker wins each digest.
  std::optional<VisitedSet> visited;
  PorState por;
  /// States counted over the whole search (root included): the budget
  /// authority. `slice_base` is its value when the current slice began,
  /// so a slice's own count is states - slice_base.
  std::atomic<std::uint64_t> states{0};
  std::uint64_t slice_base = 0;
  std::atomic<std::uint64_t> violation_count{0};
  std::atomic<std::size_t> active{0};
  std::atomic<bool> stop{false};
  /// Clean-boundary pause (opts.pause_check): unlike `stop`, workers do
  /// NOT abandon an in-flight expansion — they finish pushing (or
  /// deduping) every child, then stop popping and return, leaving the
  /// un-expanded frontier parked in the worker deques for capture.
  std::atomic<bool> paused{false};

  /// First worker exception, re-thrown with its original type on the
  /// calling thread after join (an exception escaping a std::thread would
  /// terminate).
  std::mutex err_mu;
  std::exception_ptr error;

  std::vector<std::unique_ptr<Worker>> workers;
};

/// One worker: a scratch world, a stealable frontier deque, and private
/// stats/violations merged after join.
struct SystemExplorer::Worker {
  std::size_t id = 0;
  /// The world this worker expands on: the explorer's own scratch_ in a
  /// one-worker search, else `own_world`, a private clone of the root.
  rt::World* world = nullptr;
  std::unique_ptr<rt::World> own_world;
  StealableDeque<Node> deque;
  /// Private frontier meter (owner-paired charges; see FrontierMeter).
  FrontierMeter meter;
  /// This worker's reachability-graph edges. Only the owner appends
  /// (std::deque keeps existing element addresses stable across
  /// push_back); other workers read nodes through raw parent pointers
  /// published by the frontier-deque mutexes. Freed wholesale after join.
  std::deque<PathNode> arena;
  ExploreStats stats;
  SampledTimer digest_timer;
  SampledTimer snapshot_timer;
  std::vector<SysViolation> violations;
  /// Digests this worker inserted first during the current slice (only
  /// with opts.collect_visited).
  std::vector<std::uint64_t> fresh;
};

// ---------------------------------------------------------------------------
// SystemExplorer
// ---------------------------------------------------------------------------

SystemExplorer::SystemExplorer(rt::World& base, SysExploreOptions opts)
    : base_(base), opts_(std::move(opts)) {
  scratch_ = base_.clone();
  scratch_->set_abstract_time(opts_.abstract_time);
  scratch_->set_stop_on_violation(false);
  if (opts_.install_invariants) opts_.install_invariants(*scratch_);
}

SystemExplorer::~SystemExplorer() = default;

void SystemExplorer::materialize(rt::World& w, const Node& n,
                                 Worker& me) const {
  ExploreStats& stats = me.stats;
  // Snapshot mode: n.state is the node's exact state (replay_len == 0).
  // Trail mode: n.state is the anchor; re-execute the suffix after it.
  Anchor& anchor = *n.state;
  if (reg_ && anchor.tracked) {
    std::shared_ptr<const rt::WorldSnapshot> snap = reg_->acquire(anchor);
    if (snap) {
      w.restore(*snap);
    } else {
      // Evicted: rebuild by root-anchored deterministic replay — the same
      // mechanism POR backtrack nodes always use, so eviction cannot
      // change what any node materializes to. The rebuilt snapshot is
      // re-installed so one rebuild serves every node on this anchor.
      std::vector<const SysAction*> prefix(anchor.depth);
      const PathNode* p = anchor.path;
      for (std::size_t i = anchor.depth; i-- > 0;) {
        prefix[i] = &p->action;
        p = p->parent;
      }
      w.restore(*reg_->root_snap());
      w.clear_violations();
      for (const SysAction* a : prefix) apply_action(w, *a);
      w.clear_violations();
      stats.replayed_actions += anchor.depth;
      reg_->install(anchor, capture(w, stats, me.snapshot_timer));
      ++stats.anchor_recomputes;
      // w already sits at the anchor state; fall through to the suffix.
    }
  } else {
    w.restore(*anchor.snap);
  }
  if (n.replay_len == 0) return;
  // The path chain stores the route youngest-first; collect the suffix,
  // then re-execute oldest-first. Determinism makes this bit-identical to
  // the state captured when the node was created.
  std::vector<const SysAction*> suffix(n.replay_len);
  const PathNode* p = n.path;
  for (std::size_t i = n.replay_len; i-- > 0;) {
    suffix[i] = &p->action;
    p = p->parent;
  }
  w.clear_violations();
  for (const SysAction* a : suffix) apply_action(w, *a);
  // Violations raised along the replayed prefix were recorded when it was
  // first explored; drop the duplicates.
  w.clear_violations();
  stats.replayed_actions += n.replay_len;
}

std::vector<SysAction> SystemExplorer::enabled_actions(
    const rt::World& w) const {
  std::vector<SysAction> out;
  for (const rt::EventDesc& ev : w.enabled_events()) {
    SysAction a;
    a.kind = SysAction::Kind::kRuntime;
    a.event = ev;
    out.push_back(a);
  }
  if (opts_.model_message_loss || opts_.model_message_duplication) {
    // Enumerate from the network's incremental deliverable index (the
    // control flag is cached in the entries, so no per-message lookups);
    // the canonical order is globally ascending message id. The
    // uncached-oracle toggle covers this consumer too, so a bypassed
    // world's whole action set really is index-free.
    std::vector<std::pair<MsgId, bool>> deliv;
    if (w.use_enabled_index()) {
      for (const auto& [dst, b] : w.network().deliv_index()) {
        for (const auto& [id, e] : b.by_id) deliv.emplace_back(id, e.control);
      }
      std::sort(deliv.begin(), deliv.end());
    } else {
      for (MsgId id : w.network().deliverable()) {
        deliv.emplace_back(id, w.network().peek(id)->control);
      }
    }
    for (const auto& [id, control] : deliv) {
      if (control) continue;  // FixD's own protocol stays reliable
      if (opts_.model_message_loss) {
        SysAction a;
        a.kind = SysAction::Kind::kDropMessage;
        a.msg = id;
        out.push_back(a);
      }
      if (opts_.model_message_duplication) {
        SysAction a;
        a.kind = SysAction::Kind::kDupMessage;
        a.msg = id;
        out.push_back(a);
      }
    }
  }
  if (opts_.model_message_delay) {
    std::vector<MsgId> deliv;
    if (w.use_enabled_index()) {
      for (const auto& [dst, b] : w.network().deliv_index()) {
        for (const auto& [id, e] : b.by_id) deliv.push_back(id);
      }
      std::sort(deliv.begin(), deliv.end());
    } else {
      deliv = w.network().deliverable();
    }
    for (MsgId id : deliv) {
      const net::Message* m = w.network().peek(id);
      if (m->control) continue;
      // The horizon bounds the accumulated latency a message can pick up
      // through delay actions, keeping timed exploration finite — without
      // it, enough stacked delays beat any finite timeout and the tuner
      // could never converge.
      if (m->latency >= opts_.model_delay_horizon) continue;
      SysAction a;
      a.kind = SysAction::Kind::kDelayMessage;
      a.msg = id;
      a.delay = opts_.model_delay_quantum;
      out.push_back(a);
    }
  }
  if (opts_.model_partition) {
    // Heal actions: every blocked link (the mask is a sorted set, so the
    // canonical order is free). Cut actions: every distinct unblocked link
    // with pending traffic, gated by the simultaneous-cut bound — cutting
    // an idle link is a no-op until traffic appears, and enumerating only
    // loaded links keeps the branching factor proportional to the
    // in-flight footprint. Both derive from pending()/blocked_links(),
    // not the deliverable index, so the uncached-oracle toggle cannot
    // change this consumer's view.
    for (const auto& [s, d] : w.network().blocked_links()) {
      SysAction a;
      a.kind = SysAction::Kind::kHealLinks;
      a.src = s;
      a.dst = d;
      out.push_back(a);
    }
    if (w.network().blocked_link_count() < opts_.max_cut_links) {
      std::vector<std::pair<ProcessId, ProcessId>> links;
      for (const net::Message* m : w.network().pending()) {
        if (w.network().link_blocked(m->src, m->dst)) continue;
        links.emplace_back(m->src, m->dst);
      }
      std::sort(links.begin(), links.end());
      links.erase(std::unique(links.begin(), links.end()), links.end());
      for (const auto& [s, d] : links) {
        SysAction a;
        a.kind = SysAction::Kind::kPartitionLinks;
        a.src = s;
        a.dst = d;
        out.push_back(a);
      }
    }
  }
  if (opts_.model_restart) {
    for (ProcessId p = 0; p < w.size(); ++p) {
      if (!w.is_crashed(p)) continue;
      SysAction a;
      a.kind = SysAction::Kind::kRestartProcess;
      a.event.kind = rt::EventKind::kStart;  // unused; pid is the payload
      a.event.pid = p;
      out.push_back(a);
    }
  }
  return out;
}

void SystemExplorer::apply_action(rt::World& w, const SysAction& a) {
  switch (a.kind) {
    case SysAction::Kind::kRuntime:
      w.execute_event(a.event);
      break;
    case SysAction::Kind::kDropMessage:
      // The model_* wrappers advance the replay-warm key chain (the
      // raw network() accessor would break it — these are legitimate
      // replayed trail actions, not exogenous surgery).
      w.model_drop_message(a.msg);
      break;
    case SysAction::Kind::kDupMessage:
      w.model_duplicate_message(a.msg);
      break;
    case SysAction::Kind::kDelayMessage:
      w.model_delay_message(a.msg, a.delay);
      break;
    case SysAction::Kind::kPartitionLinks:
      w.model_cut_link(a.src, a.dst);
      break;
    case SysAction::Kind::kHealLinks:
      w.model_heal_link(a.src, a.dst);
      break;
    case SysAction::Kind::kRestartProcess:
      w.model_restart_process(a.event.pid);
      break;
  }
}

namespace {

/// Nonzero token for a specific (pid, timer) pair. A hash collision only
/// makes two distinct timers look dependent — conservative, never wrong.
std::uint64_t timer_token(ProcessId pid, TimerId timer) {
  return hash_combine(static_cast<std::uint64_t>(pid) + 1, timer) | 1;
}

}  // namespace

ActionFootprint SystemExplorer::footprint(const rt::World& w,
                                          const SysAction& a) {
  ActionFootprint f;
  // Resolve a message id against the live network: the message's channel
  // is part of the footprint because channels are FIFO — two actions on
  // the same directed link are order-sensitive even when they touch
  // different messages (dropping the head changes what is deliverable).
  auto channel_of = [&](MsgId id) {
    const net::Message* m = w.network().peek(id);
    if (m != nullptr) {
      f.link_src = m->src;
      f.link_dst = m->dst;
    } else {
      // Unknown message (stale enumeration — should not happen): collide
      // with every process rather than silently commute.
      f.procs = ~std::uint64_t{0};
    }
    f.msg = id;
  };
  switch (a.kind) {
    case SysAction::Kind::kRuntime:
      f.procs = ActionFootprint::proc_bit(a.event.pid);
      if (a.event.kind == rt::EventKind::kDeliver) {
        // The delivery consumes a specific message from a specific
        // channel; the handler's own mutations stay inside procs (sends
        // only append, and race detection covers the conflicts they
        // create downstream).
        f.msg = a.event.msg;
        const net::Message* m = w.network().peek(a.event.msg);
        if (m != nullptr) {
          f.link_src = m->src;
          f.link_dst = m->dst;
        } else {
          f.procs = ~std::uint64_t{0};
        }
      } else if (a.event.kind == rt::EventKind::kTimer) {
        f.timer = timer_token(a.event.pid, a.event.timer);
      }
      break;
    case SysAction::Kind::kRestartProcess:
      // Touches only the restarted process (its local state and every
      // delivery/timer the crash was masking — those carry the same pid).
      f.procs = ActionFootprint::proc_bit(a.event.pid);
      break;
    case SysAction::Kind::kDropMessage:
    case SysAction::Kind::kDupMessage:
    case SysAction::Kind::kDelayMessage:
      channel_of(a.msg);
      break;
    case SysAction::Kind::kPartitionLinks:
    case SysAction::Kind::kHealLinks:
      // A cut/heal gates enabledness for everything on its directed link
      // (delivery, drop, dup, delay — all carry the link), and both move
      // the global blocked-link count that bounds further cut enumeration
      // (max_cut_links), so any two cut/heal actions are mutually
      // dependent via the budget. The old scalar fingerprint collapsed
      // these to one value that `fa != fb` then declared independent of
      // every delivery — the inverse of the intended conservatism. The
      // destination's *local state* is untouched (a cut defers traffic,
      // never loses it), so procs stays empty: a cut commutes with
      // deliveries on other links even toward the same process.
      f.link_src = a.src;
      f.link_dst = a.dst;
      f.cut_budget = true;
      break;
  }
  return f;
}

std::uint64_t SystemExplorer::action_key(const SysAction& a) {
  Hasher h;
  h.update_u64(static_cast<std::uint64_t>(a.kind));
  h.update_u64(static_cast<std::uint64_t>(a.event.kind));
  h.update_u64(a.event.pid);
  h.update_u64(a.event.msg);
  h.update_u64(a.event.timer);
  h.update_u64(a.msg);
  h.update_u64(a.delay);
  h.update_u64(a.src);
  h.update_u64(a.dst);
  return h.digest();
}

std::vector<std::size_t> SystemExplorer::source_closure(
    const std::vector<ActionFootprint>& fps,
    const std::vector<std::size_t>& seeds) {
  std::vector<char> in(fps.size(), 0);
  std::vector<std::size_t> stack;
  for (std::size_t s : seeds) {
    if (s < fps.size() && !in[s]) {
      in[s] = 1;
      stack.push_back(s);
    }
  }
  // Dependency closure: within one class, actions can disable each other
  // (dropping the message a delivery would consume, a cut blocking its
  // link, a delivery cancelling a same-process timer), so partial
  // exploration of a class is not sound — the source set takes whole
  // classes, and only disjoint classes are deferred.
  while (!stack.empty()) {
    const std::size_t i = stack.back();
    stack.pop_back();
    for (std::size_t j = 0; j < fps.size(); ++j) {
      if (!in[j] && !independent(fps[i], fps[j])) {
        in[j] = 1;
        stack.push_back(j);
      }
    }
  }
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < fps.size(); ++i) {
    if (in[i]) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> SystemExplorer::por_select(
    PorState& ps, std::uint64_t digest,
    const std::vector<ActionFootprint>& fps,
    const std::vector<std::uint64_t>& keys, ExploreStats& stats) {
  std::vector<std::uint64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::uint64_t> take;
  bool first = false;
  ps.recs.begin_expand(digest, sorted, take, first);

  std::vector<std::size_t> seeds;
  for (std::uint64_t k : take) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] == k) {
        seeds.push_back(i);
        break;
      }
    }
  }
  if (first) seeds.push_back(0);
  if (seeds.empty()) return {};
  std::vector<std::size_t> sel = source_closure(fps, seeds);
  stats.por_deferred += keys.size() - sel.size();
  // Mark the selection done *before* executing it, so a race request
  // arriving concurrently sees these keys covered instead of pushing a
  // redundant backtrack node.
  std::vector<std::uint64_t> sel_keys;
  sel_keys.reserve(sel.size());
  for (std::size_t i : sel) sel_keys.push_back(keys[i]);
  ps.recs.commit_done(digest, sel_keys);
  return sel;
}

void SystemExplorer::por_race_detect(PorState& ps, const Node& cur,
                                     const ActionFootprint& fa,
                                     std::uint64_t akey,
                                     std::vector<Node>& backtracks,
                                     ExploreStats& stats) const {
  const PathNode* e = cur.path;
  std::uint32_t d = cur.depth;
  while (e != nullptr && d > 0) {
    --d;  // depth of e's pre-state
    if (!independent(fa, e->fp)) {
      const auto req = ps.recs.request(e->pre_digest, akey);
      if (req == StripedPorRecords::Request::kRegistered) {
        // Reverse the race: re-expand e's pre-state running `akey` there.
        // The node re-materializes from the root anchor by replaying the
        // path prefix, so it is valid in both frontier modes.
        Node b;
        b.state = ps.root;
        b.path = e->parent;
        b.replay_len = d;
        b.depth = d;
        backtracks.push_back(std::move(b));
        ++stats.por_backtracks;
        return;
      }
      if (req != StripedPorRecords::Request::kNotEnabled) return;
      // kNotEnabled: the action did not exist at this ancestor (its
      // message/timer is causally downstream of this prefix, or its link
      // was blocked) — the reversal may still be possible at an older
      // state, so keep walking.
    }
    e = e->parent;
  }
}

Trail SystemExplorer::trail_of(const PathNode* path) {
  std::size_t n = 0;
  for (const PathNode* p = path; p != nullptr; p = p->parent) ++n;
  Trail t;
  t.steps.resize(n);
  for (const PathNode* p = path; p != nullptr; p = p->parent) {
    t.steps[--n] = p->action;
  }
  return t;
}

void SystemExplorer::check_pause_resume_options() const {
  if (!opts_.pause_check && !opts_.capture_frontier && !resuming() &&
      opts_.resume_frontier.empty()) {
    return;
  }
  if (opts_.order != SearchOrder::kBfs && opts_.order != SearchOrder::kDfs) {
    throw ConfigError(
        "pause/resume: only kBfs/kDfs graph searches are sliceable "
        "(kRandomWalk pop order is not checkpoint-stable)");
  }
  if (!opts_.dedup) {
    throw ConfigError(
        "pause/resume requires dedup: visited-set identity "
        "(preseed ∪ reachable-from-frontier) is the resume contract");
  }
  if (opts_.por) {
    throw ConfigError(
        "pause/resume: por carries traversal-order-sensitive state that a "
        "checkpoint does not capture");
  }
  if (!resuming() && !opts_.resume_frontier.empty()) {
    throw ConfigError(
        "resume_frontier requires the checkpoint's visited set in "
        "resume_visited (it must include the root digest)");
  }
}

std::vector<SystemExplorer::Node> SystemExplorer::resume_nodes(
    const std::shared_ptr<Anchor>& root_anchor,
    std::deque<PathNode>& arena) const {
  std::vector<Node> out;
  out.reserve(opts_.resume_frontier.size());
  for (const Trail& t : opts_.resume_frontier) {
    const PathNode* parent = nullptr;
    for (const SysAction& a : t.steps) {
      arena.push_back({parent, a, ActionFootprint{}, 0});
      parent = &arena.back();
    }
    Node nd;
    nd.state = root_anchor;
    nd.path = parent;
    nd.replay_len = static_cast<std::uint32_t>(t.steps.size());
    nd.depth = static_cast<std::uint32_t>(t.steps.size());
    out.push_back(std::move(nd));
  }
  return out;
}

SysExploreResult SystemExplorer::explore() {
  auto t0 = SteadyClock::now();
  if (opts_.order == SearchOrder::kPriority) {
    throw ConfigError(
        "SystemExplorer: kPriority is not supported (use kBfs, kDfs or "
        "kRandomWalk; ModelD's Explorer keeps best-first search)");
  }
  check_pause_resume_options();
  SysExploreResult res = opts_.order == SearchOrder::kRandomWalk
                             ? random_walk()
                             : graph_search();
  res.stats.wall_ms = ms_since(t0);
  return res;
}

bool SystemExplorer::probe_root(SysExploreResult& res) {
  // Probe the investigated state itself first — the violation might
  // already hold (e.g. the Time Machine rolled back insufficiently far).
  scratch_->clear_violations();
  scratch_->recheck_invariants();
  ++res.stats.states;
  for (const rt::Violation& v : scratch_->violations()) {
    res.violations.push_back({v, Trail{}, 0});
  }
  scratch_->clear_violations();
  return res.violations.size() < opts_.max_violations;
}

std::shared_ptr<const rt::WorldSnapshot> SystemExplorer::capture(
    rt::World& w, ExploreStats& stats, SampledTimer& timer) const {
  return timer(stats.snapshot_ms, [&] {
    auto snap =
        std::make_shared<const rt::WorldSnapshot>(w.snapshot(/*cow=*/true));
    if (opts_.workers > 1) snap->share_across_threads();
    return snap;
  });
}

// ---------------------------------------------------------------------------
// Graph search: one engine for every worker count
// ---------------------------------------------------------------------------

void SystemExplorer::push(Shared& sh, Worker& me, Node&& nd) {
  nd.owner = static_cast<std::uint32_t>(me.id);
  sh.active.fetch_add(1);
  me.meter.push(nd);
  me.deque.push_back(std::move(nd));
}

// The *reduction semantics* — footprints, POR selection and race
// detection — live in helpers of their own; tests/test_mc_parallel.cpp
// checks this engine at every worker count against an independent
// reference BFS written only against the public rt::World API.
void SystemExplorer::expand(Shared& sh, Worker& me, Node cur) {
  rt::World& w = *me.world;
  ExploreStats& stats = me.stats;
  std::vector<Node> backtracks;

  if (cur.depth >= opts_.max_depth) {
    stats.truncated = true;
    return;
  }

  materialize(w, cur, me);
  std::vector<SysAction> actions = enabled_actions(w);

  // Keys and footprints are computed against the pre-state (footprints
  // peek queued messages to resolve channels), before any action runs.
  const std::size_t n_act = actions.size();
  std::vector<std::uint64_t> keys(n_act);
  std::vector<ActionFootprint> fps(n_act);
  for (std::size_t i = 0; i < n_act; ++i) {
    keys[i] = action_key(actions[i]);
    fps[i] = footprint(w, actions[i]);
  }

  std::uint64_t cur_digest = 0;
  std::vector<std::size_t> run;
  if (opts_.por && n_act > 0) {
    cur_digest =
        timed_mc_digest(w, stats, me.digest_timer, opts_.abstract_time);
    run = por_select(sh.por, cur_digest, fps, keys, stats);
  } else {
    run.resize(n_act);
    for (std::size_t i = 0; i < n_act; ++i) run[i] = i;
  }

  // Each expansion materializes cur once (above): the first child that
  // runs applies its action straight onto w, and every later child
  // restores `parent`, one capture of this state, instead of re-replaying
  // cur's trail suffix. When the children's replay distance would reach
  // the interval, that capture is promoted to a new anchor shared by all
  // of them (one anchor per expanded node, not per child); snapshot mode
  // re-anchors whenever replay_len > 0 (only POR backtracks and resumed
  // checkpoint trails: root anchor + full-path replay). Otherwise a trail
  // node with more than one child to run keeps the capture transient: it
  // is never pushed, metered or registered, and dies with this expansion,
  // so the children still hang off cur.state. With replay_len == 0 no
  // capture is needed; the per-child materialize is one restore.
  std::shared_ptr<const rt::WorldSnapshot> parent;
  if (!actions.empty() &&
      (opts_.trail_frontier ? cur.replay_len + 1 >= opts_.anchor_interval
                            : cur.replay_len > 0)) {
    auto anchor = std::make_shared<Anchor>();
    anchor->snap = parent = capture(w, stats, me.snapshot_timer);
    if (reg_) {
      // Evictable: record the root-relative rebuild recipe first.
      anchor->path = cur.path;
      anchor->depth = cur.depth;
      reg_->admit(anchor);
    }
    cur.state = std::move(anchor);
    cur.replay_len = 0;
  } else if (cur.replay_len > 0 && run.size() > 1) {
    parent = capture(w, stats, me.snapshot_timer);
  }
  bool at_parent = true;

  for (std::size_t i : run) {
    if (sh.stop.load(std::memory_order_acquire)) return;
    const SysAction& a = actions[i];
    const std::uint64_t akey = keys[i];
    const ActionFootprint& afp = fps[i];

    if (!at_parent) {
      if (parent) {
        w.restore(*parent);
      } else {
        materialize(w, cur, me);
      }
    }
    w.clear_violations();
    apply_action(w, a);
    at_parent = false;
    ++stats.transitions;

    if (opts_.por) {
      por_race_detect(sh.por, cur, afp, akey, backtracks, stats);
      for (Node& b : backtracks) push(sh, me, std::move(b));
      backtracks.clear();
    }

    std::size_t depth = cur.depth + 1;
    const PathNode* path = nullptr;

    if (!w.violations().empty()) {
      me.arena.push_back({cur.path, a, afp, cur_digest});
      path = &me.arena.back();
      for (const rt::Violation& v : w.violations()) {
        me.violations.push_back({v, trail_of(path), depth});
        if (sh.violation_count.fetch_add(1) + 1 >= opts_.max_violations) {
          sh.stop.store(true, std::memory_order_release);
          return;
        }
      }
    }

    if (opts_.dedup) {
      const std::uint64_t h =
          timed_mc_digest(w, stats, me.digest_timer, opts_.abstract_time);
      if (!sh.visited->insert(h)) {
        ++stats.duplicates;
        // The edge (if allocated for the violation trail above) was never
        // published to a frontier node; the Trail copied its actions.
        if (path) me.arena.pop_back();
        continue;
      }
      if (opts_.collect_visited) me.fresh.push_back(h);
    }
    stats.max_depth = std::max<std::uint64_t>(stats.max_depth, depth);
    // The shared counter is the budget authority (per-worker counts would
    // race past it); it already includes the root.
    if (sh.states.fetch_add(1) + 1 >= opts_.max_states) {
      stats.truncated = true;
      sh.stop.store(true, std::memory_order_release);
      return;
    }

    Node child;
    if (!path) {
      me.arena.push_back({cur.path, a, afp, cur_digest});
      path = &me.arena.back();
    }
    child.path = path;
    child.depth = static_cast<std::uint32_t>(depth);
    if (!opts_.trail_frontier) {
      // capture() publishes the snapshot before the push makes the node
      // stealable.
      child.state = std::make_shared<Anchor>();
      child.state->snap = capture(w, stats, me.snapshot_timer);
    } else {
      // The expansion re-anchored the parent when its children would
      // exceed the interval, so extending by one is always valid.
      child.state = cur.state;
      child.replay_len = cur.replay_len + 1;
    }
    push(sh, me, std::move(child));
  }
}

void SystemExplorer::worker_loop(Shared& sh, Worker& me) {
  const bool lifo = opts_.order == SearchOrder::kDfs;
  const std::size_t n = sh.workers.size();
  std::size_t idle_rounds = 0;
  while (true) {
    if (sh.stop.load(std::memory_order_acquire)) return;
    // Clean-boundary pause: checked BEFORE popping, so a paused worker
    // parks its remaining frontier untouched (in-flight expansions on
    // other workers still complete and push their children). pause_check
    // doubles as the lease heartbeat, so idle workers poll it too — but
    // only while the search has work: a pause with nothing queued or in
    // flight would read as a resumable checkpoint when the search is in
    // fact complete. The probe's `states` is the slice-wide shared total
    // — states are counted in sh.states, not per worker, and the
    // checkpoint threshold is defined over the whole slice's progress.
    if (sh.paused.load(std::memory_order_acquire)) return;
    if (opts_.pause_check && sh.active.load(std::memory_order_acquire) > 0) {
      ExploreStats probe = me.stats;
      probe.states = sh.states.load(std::memory_order_relaxed) - sh.slice_base;
      if (opts_.pause_check(probe)) {
        sh.paused.store(true, std::memory_order_release);
        return;
      }
    }
    Node cur;
    bool got = lifo ? me.deque.pop_back(cur) : me.deque.pop_front(cur);
    if (!got) {
      for (std::size_t k = 1; k < n && !got; ++k) {
        got = sh.workers[(me.id + k) % n]->deque.steal(cur, lifo);
      }
      if (got) ++me.stats.steals;
    }
    if (got && cur.owner == me.id) {
      // Refund only nodes this worker's meter charged; a stolen node
      // stays charged on its victim (the merged peak is an upper bound).
      me.meter.pop(cur);
    }
    if (!got) {
      if (sh.active.load(std::memory_order_acquire) == 0) return;
      // Back off when repeatedly idle: spinning at full speed would burn
      // a core per idle worker and contend the shard locks of the workers
      // still making progress.
      if (++idle_rounds < 16) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(
            std::min<std::size_t>(idle_rounds, 200)));
      }
      continue;
    }
    idle_rounds = 0;
    try {
      expand(sh, me, std::move(cur));
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(sh.err_mu);
        if (!sh.error) sh.error = std::current_exception();
      }
      sh.stop.store(true, std::memory_order_release);
      sh.active.fetch_sub(1);
      return;
    }
    sh.active.fetch_sub(1);
  }
}

std::unique_ptr<SystemExplorer::Shared> SystemExplorer::start_search(
    SysExploreResult& res) {
  // A search resumed from a checkpoint does not re-probe (or re-count)
  // the root: its first slice already did, and the checkpointed stats
  // accumulate across slices.
  if (!resuming() && !probe_root(res)) return nullptr;

  // Anchor eviction needs a replay recipe per node, which only trail-mode
  // graph searches have; snapshot mode ignores the frontier budget.
  reg_.reset();
  if (opts_.frontier_budget_bytes > 0 && opts_.trail_frontier) {
    reg_ = std::make_unique<AnchorRegistry>(opts_.frontier_budget_bytes);
  }
  const std::size_t n_workers = std::max<std::size_t>(1, opts_.workers);
  auto sh = std::make_unique<Shared>(opts_, n_workers);

  // One COW snapshot of the investigated state: the root node's anchor,
  // the POR backtrack anchor, and the image every worker world of a
  // multi-worker search is cloned from (capture() marks it shared before
  // any thread exists). One call each: both are timed.
  SampledTimer root_snapshot_timer, root_digest_timer;
  auto root_anchor = std::make_shared<Anchor>();
  root_anchor->snap = capture(*scratch_, res.stats, root_snapshot_timer);
  if (reg_) reg_->set_root(root_anchor);
  if (opts_.por) sh->por.root = root_anchor;
  if (opts_.dedup) {
    if (resuming()) {
      // Preseed with the checkpoint's visited set (root digest included);
      // children re-reaching pre-crash states dedup against it exactly as
      // the uninterrupted run deduped against its own history.
      for (std::uint64_t h : opts_.resume_visited) sh->visited->insert(h);
    } else {
      const std::uint64_t h = timed_mc_digest(*scratch_, res.stats,
                                              root_digest_timer,
                                              opts_.abstract_time);
      sh->visited->insert(h);
      if (opts_.collect_visited) res.visited.push_back(h);
    }
  }
  sh->states.store(res.stats.states);  // the probed root
  // Root violations count against the budget like any other.
  sh->violation_count.store(res.violations.size());

  // One worker expands on scratch_ itself, on the calling thread; more
  // workers each get a private clone of the root.
  for (std::size_t i = 0; i < n_workers; ++i) {
    auto wk = std::make_unique<Worker>();
    wk->id = i;
    if (n_workers == 1) {
      wk->world = scratch_.get();
    } else {
      wk->own_world = scratch_->clone_from_snapshot(*root_anchor->snap);
      if (opts_.install_invariants) opts_.install_invariants(*wk->own_world);
      wk->world = wk->own_world.get();
    }
    wk->meter.set_charge_snapshots(reg_ == nullptr);
    sh->workers.push_back(std::move(wk));
  }

  if (resuming()) {
    // Re-plant the checkpoint frontier in captured order, round-robin. At
    // one worker every node lands on the one deque, whose BFS pop_front /
    // DFS pop_back then reproduces the uninterrupted run's pop sequence
    // exactly. Path chains go into worker 0's arena (before any thread
    // starts, so single-writer holds).
    std::vector<Node> nodes = resume_nodes(root_anchor, sh->workers[0]->arena);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      push(*sh, *sh->workers[i % n_workers], std::move(nodes[i]));
    }
  } else {
    Node root;
    root.state = root_anchor;
    push(*sh, *sh->workers[0], std::move(root));
  }
  return sh;
}

SysExploreResult SystemExplorer::graph_search() {
  SysExploreResult res;
  // Continue the parked search in place, or start a new one. The search
  // is parked in live_ again only if this slice pauses; an exception or
  // a finished search drops it.
  std::unique_ptr<Shared> sh = std::move(live_);
  if (sh) {
    sh->paused.store(false);
    sh->slice_base = sh->states.load();
    for (const auto& wk : sh->workers) wk->stats = ExploreStats{};
  } else {
    sh = start_search(res);
    if (!sh) return res;
  }
  const std::size_t n_workers = sh->workers.size();

  if (n_workers == 1) {
    worker_loop(*sh, *sh->workers[0]);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(n_workers);
    Shared& s = *sh;
    for (std::size_t i = 0; i < n_workers; ++i) {
      threads.emplace_back([this, &s, i] { worker_loop(s, *s.workers[i]); });
    }
    for (auto& t : threads) t.join();
  }
  if (sh->error) std::rethrow_exception(sh->error);

  // Merge. The shared counter is the state total (root included); timing
  // counters sum across workers (CPU time, can exceed wall time).
  res.stats.states = sh->states.load() - sh->slice_base;
  for (const auto& wk : sh->workers) {
    res.stats.transitions += wk->stats.transitions;
    res.stats.duplicates += wk->stats.duplicates;
    res.stats.max_depth =
        std::max(res.stats.max_depth, wk->stats.max_depth);
    res.stats.truncated = res.stats.truncated || wk->stats.truncated;
    res.stats.digest_ms += wk->stats.digest_ms;
    res.stats.snapshot_ms += wk->stats.snapshot_ms;
    res.stats.replayed_actions += wk->stats.replayed_actions;
    res.stats.anchor_recomputes += wk->stats.anchor_recomputes;
    res.stats.steals += wk->stats.steals;
    res.stats.por_deferred += wk->stats.por_deferred;
    res.stats.por_backtracks += wk->stats.por_backtracks;
    // Sum-of-peaks upper bound plus the largest single-worker share (one
    // worker's meter is exact, and the share is reported as 0).
    res.stats.peak_frontier_bytes += wk->meter.peak();
    if (n_workers > 1) {
      res.stats.peak_frontier_bytes_max_worker = std::max(
          res.stats.peak_frontier_bytes_max_worker, wk->meter.peak());
    }
    for (auto& v : wk->violations) res.violations.push_back(std::move(v));
    wk->violations.clear();
    res.visited.insert(res.visited.end(), wk->fresh.begin(), wk->fresh.end());
    wk->fresh.clear();
  }
  std::sort(res.visited.begin(), res.visited.end());
  res.stats.workers = n_workers;
  if (n_workers > 1) {
    // Violations arrive in nondeterministic worker order; re-sort into a
    // stable shape (shallowest first, ties by invariant name). The count
    // may exceed max_violations by the few found concurrently with the
    // stop. One worker keeps discovery order, which is deterministic.
    std::stable_sort(res.violations.begin(), res.violations.end(),
                     [](const SysViolation& a, const SysViolation& b) {
                       if (a.depth != b.depth) return a.depth < b.depth;
                       return a.violation.invariant < b.violation.invariant;
                     });
  }
  if (reg_) {
    // Meter (node shells) + registry (resident anchor snapshots); see the
    // FrontierMeter comment for why budgeted mode splits these.
    res.stats.peak_frontier_bytes += reg_->peak_resident();
    res.stats.anchor_evictions = reg_->evictions();
  }
  sh->report_visited(res.stats);
  // A pause that raced a hard stop (budget/violation cap) is NOT a clean
  // boundary — stop abandons in-flight children — so it is not reported
  // as paused and nothing is captured. Neither is a pause with nothing
  // left queued: the search is complete.
  res.paused = sh->paused.load() && !sh->stop.load() && sh->active.load() > 0;
  if (!res.paused) return res;
  if (opts_.capture_frontier) {
    // Front-to-back deque order: resume's in-order re-plant restores the
    // identical pop order for both kBfs (pop_front) and kDfs (pop_back).
    for (const auto& wk : sh->workers) {
      wk->deque.for_each(
          [&](const Node& nd) { res.frontier.push_back(trail_of(nd.path)); });
    }
  }
  live_ = std::move(sh);
  return res;
}

// Walks are embarrassingly parallel: each is an independent seeded
// trajectory from the investigated root. The per-walk RNG is derived from
// (seed, walk index) — never shared across walks — so sharding the walk
// budget over workers cannot change any trajectory: workers == k runs
// exactly the walks workers == 1 runs (violations are re-sorted into walk
// order). Every worker count runs the same loop; one worker runs it on
// the calling thread. The only divergence is the early stop: a parallel
// run may finish the few walks in flight when the violation budget fills,
// so it can report slightly more walks' worth of violations than a
// one-worker run, which stops between walks.
SysExploreResult SystemExplorer::random_walk() {
  SysExploreResult res;

  rt::WorldSnapshot root = scratch_->snapshot(/*cow=*/true);

  /// One walk on `w`, appending (walk-tagged) violations to `out`.
  auto run_walk = [&](rt::World& w, std::deque<PathNode>& arena,
                      std::size_t walk, ExploreStats& stats,
                      std::vector<std::pair<std::size_t, SysViolation>>& out)
      -> std::size_t {
    Rng rng(hash_combine(opts_.seed, walk));
    w.restore(root);
    w.clear_violations();
    std::size_t found = 0;
    const PathNode* cur_path = nullptr;
    for (std::size_t d = 0; d < opts_.max_depth; ++d) {
      auto actions = enabled_actions(w);
      if (actions.empty()) break;
      const SysAction& a = actions[rng.next_below(actions.size())];
      apply_action(w, a);
      ++stats.transitions;
      ++stats.states;
      arena.push_back({cur_path, a, ActionFootprint{}, 0});
      cur_path = &arena.back();
      stats.max_depth = std::max<std::uint64_t>(stats.max_depth, d + 1);
      if (!w.violations().empty()) {
        for (const rt::Violation& v : w.violations()) {
          out.push_back({walk, {v, trail_of(cur_path), d + 1}});
          ++found;
        }
        break;
      }
    }
    return found;
  };

  const std::size_t n_workers = std::min<std::size_t>(
      std::max<std::size_t>(1, opts_.workers),
      std::max<std::size_t>(1, opts_.walk_restarts));

  // One worker walks on scratch_ itself, on the calling thread; more
  // workers each walk on a private clone of the root.
  if (n_workers > 1) root.share_across_threads();
  std::atomic<std::size_t> next_walk{0};
  std::atomic<std::size_t> violation_count{0};
  std::atomic<bool> stop{false};
  std::mutex err_mu;
  std::exception_ptr error;

  struct WalkWorker {
    rt::World* world = nullptr;
    std::unique_ptr<rt::World> own_world;
    std::deque<PathNode> arena;
    ExploreStats stats;
    std::vector<std::pair<std::size_t, SysViolation>> violations;
  };
  std::vector<WalkWorker> workers(n_workers);
  for (auto& wk : workers) {
    if (n_workers == 1) {
      wk.world = scratch_.get();
    } else {
      wk.own_world = scratch_->clone_from_snapshot(root);
      if (opts_.install_invariants) opts_.install_invariants(*wk.own_world);
      wk.world = wk.own_world.get();
    }
  }

  auto walk_loop = [&](WalkWorker& me) {
    try {
      while (!stop.load(std::memory_order_acquire)) {
        std::size_t walk = next_walk.fetch_add(1);
        if (walk >= opts_.walk_restarts) return;
        std::size_t found =
            run_walk(*me.world, me.arena, walk, me.stats, me.violations);
        if (found > 0 && violation_count.fetch_add(found) + found >=
                             opts_.max_violations) {
          stop.store(true, std::memory_order_release);
        }
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(err_mu);
        if (!error) error = std::current_exception();
      }
      stop.store(true, std::memory_order_release);
    }
  };
  if (n_workers == 1) {
    walk_loop(workers[0]);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(n_workers);
    for (auto& wk : workers) {
      threads.emplace_back([&walk_loop, &wk] { walk_loop(wk); });
    }
    for (auto& t : threads) t.join();
  }
  if (error) std::rethrow_exception(error);

  std::vector<std::pair<std::size_t, SysViolation>> tagged;
  for (auto& wk : workers) {
    res.stats.transitions += wk.stats.transitions;
    res.stats.states += wk.stats.states;
    res.stats.max_depth = std::max(res.stats.max_depth, wk.stats.max_depth);
    for (auto& v : wk.violations) tagged.push_back(std::move(v));
  }
  // Walks complete in nondeterministic worker order; walk-index order is
  // the one-worker report order.
  std::stable_sort(tagged.begin(), tagged.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  res.stats.workers = n_workers;
  res.violations.reserve(tagged.size());
  for (auto& [walk, v] : tagged) res.violations.push_back(std::move(v));
  return res;
}

std::vector<rt::Violation> SystemExplorer::replay_trail(
    rt::World& base, const Trail& trail,
    const std::function<void(rt::World&)>& install_invariants,
    bool abstract_time) {
  auto w = base.clone();
  w->set_abstract_time(abstract_time);
  w->set_stop_on_violation(false);
  if (install_invariants) install_invariants(*w);
  w->clear_violations();
  try {
    for (const SysAction& a : trail.steps) {
      apply_action(*w, a);
    }
  } catch (const FixdError&) {
    return {};  // trail not executable => did not reproduce
  }
  return w->violations();
}

}  // namespace fixd::mc
