// The World: a deterministic discrete-event simulation of a distributed
// system.
//
// A world owns N processes, the network between them, per-process logical
// clocks / RNGs / timers, and a scheduler. One call to step() executes one
// event (start, message delivery, or timer expiry) through a fixed pipeline:
//
//   interceptors.before_event       (fault injection, CIC checkpointing)
//   observers.on_event              (the Scroll's schedule record)
//   spec_hooks.before_deliver       (speculation absorption, §4.2)
//   clock merges -> handler runs    (the application code)
//   spec_hooks.apply_deferred       (speculation aborts -> rollbacks)
//   invariant checks                (fault detection: the acting process's
//                                    local invariants, then every global)
//   interceptors.after_event
//
// Determinism contract: given the same processes, options, scheduler and
// hooks, two runs produce bit-identical state (tested by digest equality).
// The only nondeterminism is the scheduler's choice among enabled events —
// which is exactly what the Scroll records and the Investigator explores.
#pragma once

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <typeinfo>
#include <vector>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/sync.hpp"
#include "net/network.hpp"
#include "rt/event.hpp"
#include "rt/hooks.hpp"
#include "rt/invariant.hpp"
#include "rt/process.hpp"
#include "rt/scheduler.hpp"
#include "rt/timer.hpp"

namespace fixd::rt {

struct WorldOptions {
  net::NetworkOptions net;
  /// Root seed; per-process RNG seeds are derived from it.
  std::uint64_t seed = 1;
  /// Seed of the default environment model (ctx.env_read values).
  std::uint64_t env_seed = 7;
  /// Abstract-time mode: every pending message and armed timer is enabled
  /// (the Investigator's view). Timed mode: events gate on virtual time.
  bool abstract_time = false;
  /// run() stops as soon as a violation is recorded.
  bool stop_on_violation = true;
};

/// Cached per-process digest components (the `full` one feeds
/// World::digest, the `mc` one World::mc_digest). Carried by checkpoints
/// so that restoring re-warms the world's digest cache instead of
/// invalidating it — the Investigator's restore-then-apply loop would
/// otherwise re-serialize every process per transition. The memo describes
/// the checkpoint's content, so adopting it on restore is correct no
/// matter what the world looked like before. Not serialized (a
/// deserialized checkpoint restores cold).
struct ProcDigestMemo {
  std::uint64_t full = 0;
  std::uint64_t mc = 0;
  bool full_valid = false;
  bool mc_valid = false;
};

/// A captured process state; cheap when `heap_snap` is used (COW pages).
struct ProcessCheckpoint {
  std::vector<std::byte> root;                  ///< Process::save_root bytes
  std::optional<mem::HeapSnapshot> heap_snap;   ///< COW capture (in-memory)
  std::vector<std::byte> heap_bytes;            ///< full capture (serialized)
  std::vector<std::byte> info;                  ///< clocks, rng, timers, flags
  VectorClock vclock;
  LamportTime lamport = 0;
  VirtualTime at = 0;
  std::uint64_t step = 0;
  /// World-unique, monotonically increasing capture id. Distinguishes
  /// captures taken within the same event (where clocks tie); the
  /// speculation cascade logic orders entry checkpoints by it.
  std::uint64_t capture_serial = 0;
  /// Digest components valid for this checkpoint's content (if they were
  /// warm at capture time); adopted by restore_process.
  ProcDigestMemo digest_memo;

  /// Approximate retained size: serialized bytes plus COW page-table cost.
  std::uint64_t size_bytes() const;

  /// Publish this checkpoint across threads (parallel explorer): pins the
  /// heap snapshot digest and marks its pages so writers COW instead of
  /// mutating in place. Memoized — repeat calls on a shared entry are O(1).
  void share_across_threads() const;

  /// Wire format (materializes COW heap content; used by the Fig. 4
  /// checkpoint-collection protocol).
  void save(BinaryWriter& w) const;
  void load(BinaryReader& r);

 private:
  SharedMark xt_marked_;
};

/// A captured global state: every process plus in-flight network traffic.
///
/// Copy-on-write across snapshots: per-process entries are shared
/// `ProcessCheckpoint`s reused from the world's capture cache whenever the
/// process is clean since its last capture, and the network entry shares
/// immutable per-message buffers (net::NetSnapshot). In the explorer's
/// restore-then-apply loop, capturing a child state after one event
/// re-captures exactly the one touched process plus the touched channels —
/// the capture dual of the incremental digest.
struct WorldSnapshot {
  std::vector<std::shared_ptr<const ProcessCheckpoint>> procs;
  std::shared_ptr<const net::NetSnapshot> net;
  VirtualTime now = 0;
  std::uint64_t step = 0;
  /// Globally unique capture identity (assigned by World::snapshot; 0 for
  /// hand-built snapshots). Restoring seeds the replay-warm key chain from
  /// it: deterministic re-executions from the same snapshot object derive
  /// the same per-event keys, which is what lets sibling trail replays
  /// share their captures. Copies keep the serial — identical content, so
  /// the keys stay content-faithful. Not serialized.
  std::uint64_t serial = 0;

  /// Approximate retained size; shared entries are charged in full (see
  /// ProcessCheckpoint::size_bytes). Callers that account for sharing
  /// dedupe by entry pointer.
  std::uint64_t size_bytes() const;

  /// Publish this snapshot across threads: every process checkpoint and
  /// the network snapshot are marked so the receiving thread's world can
  /// restore and mutate without racing the capturing thread (the parallel
  /// explorer calls this before pushing a frontier node other workers may
  /// steal). Amortized O(entries not yet marked).
  void share_across_threads() const;
};

/// The deterministic default environment model: the value a process reads
/// for (key, nth-read). Exposed so tests and workload builders can predict
/// environment inputs for a given seed.
std::uint64_t default_env_value(std::uint64_t env_seed, ProcessId pid,
                                std::string_view key, std::uint64_t count);

enum class StopReason { kQuiescent, kAllHalted, kMaxSteps, kViolation };

struct RunResult {
  StopReason reason = StopReason::kQuiescent;
  std::uint64_t steps = 0;
};

class World : private net::DeliverableListener {
 public:
  explicit World(WorldOptions opts = {});
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // --- construction -------------------------------------------------------
  /// Add a process before seal(); returns its id (dense, in add order).
  ProcessId add_process(std::unique_ptr<Process> p);

  /// Freeze membership; initializes vector clocks. Idempotent.
  void seal();
  bool sealed() const { return sealed_; }

  // --- accessors ----------------------------------------------------------
  const WorldOptions& options() const { return opts_; }

  /// Switch between timed and abstract-time enabled-event semantics (the
  /// Investigator explores in abstract time so timeout races are visible).
  void set_abstract_time(bool on) { opts_.abstract_time = on; }

  /// Toggle stop-on-violation for run().
  void set_stop_on_violation(bool on) { opts_.stop_on_violation = on; }
  std::size_t size() const { return procs_.size(); }
  /// Mutable access conservatively marks the process digest-dirty (the
  /// Healer's in-place patches and the fault injector's state corruption go
  /// through here). Mutating a process through a stashed pointer bypasses
  /// the digest cache — see docs/PERF.md for the full contract.
  Process& process(ProcessId pid);
  const Process& process(ProcessId pid) const;

  /// Typed access; throws ConfigError on type mismatch.
  template <typename T>
  T& process_as(ProcessId pid) {
    auto* p = dynamic_cast<T*>(&process(pid));
    if (!p) throw ConfigError("process_as: type mismatch for p" +
                              std::to_string(pid));
    return *p;
  }
  template <typename T>
  const T& process_as(ProcessId pid) const {
    // Routed through the const accessor: read-only typed access must not
    // mark the process digest-dirty.
    auto* p = dynamic_cast<const T*>(&process(pid));
    if (!p) throw ConfigError("process_as: type mismatch for p" +
                              std::to_string(pid));
    return *p;
  }

  /// Read-only view of process `pid` as interface `I`, or nullptr when the
  /// process does not implement it: what global invariants use to reach
  /// application state after every event. The first query fills a per-pid
  /// slot with the dynamic_cast result; later queries for the same `I`
  /// compare one type_info pointer and return the cached view. A query
  /// for another interface re-casts and refills the slot, so alternating
  /// interfaces stay correct, only slower. Never marks the process dirty.
  template <class I>
  const I* facet(ProcessId pid) const {
    FIXD_CHECK_MSG(pid < facets_.size(), "bad process id");
    FacetSlot& s = facets_[pid];
    if (s.type != &typeid(I)) {
      s.view = dynamic_cast<const I*>(procs_[pid].get());
      s.type = &typeid(I);
    }
    return static_cast<const I*>(s.view);
  }

  /// Replace a process object in place (the Healer's dynamic update).
  /// The new process keeps the same pid; runtime info (clocks, timers)
  /// is preserved. Returns the old process.
  std::unique_ptr<Process> swap_process(ProcessId pid,
                                        std::unique_ptr<Process> fresh);

  /// Mutable network access conservatively breaks the replay-warm key
  /// chain (direct surgery makes later states no longer a pure function of
  /// (snapshot, dispatched events)); use the model_* wrappers below when
  /// the mutation is itself a deterministic replayed action.
  net::SimNetwork& network() {
    replay_break();
    return net_;
  }
  const net::SimNetwork& network() const { return net_; }

  /// Environment-model network actions (the Investigator's drop/duplicate
  /// transitions). Semantically identical to network().drop/duplicate but
  /// advance the replay-warm key chain instead of breaking it, so trails
  /// containing them stay warmable.
  bool model_drop_message(MsgId id);
  std::optional<MsgId> model_duplicate_message(MsgId id);

  /// Timeout-class environment-model action: defer a pending delivery by
  /// `extra` virtual time. Like drop/duplicate above it advances the
  /// replay-warm key chain instead of breaking it. Delays gate enabledness
  /// only in timed mode (abstract time ignores ready times by
  /// construction).
  bool model_delay_message(MsgId id, VirtualTime extra);

  /// Partition-family environment-model actions: cut / heal one directed
  /// link, or restart a crashed process. Pure functions of world state
  /// (restart resumes with the crash-time state — the *durable* restart;
  /// amnesiac restarts need an initial checkpoint, which is injector
  /// territory), advancing the replay-warm key chain like the message
  /// models. Cut/heal return whether the mask changed; restart returns
  /// false when the process is not crashed.
  bool model_cut_link(ProcessId src, ProcessId dst);
  bool model_heal_link(ProcessId src, ProcessId dst);
  bool model_restart_process(ProcessId pid);

  /// Exogenous timer surgery (timeout-fault injection: stretch/shrink an
  /// armed timeout, or disarm it). Breaks the replay-warm chain like other
  /// out-of-band mutations. Returns false when the timer is not armed.
  bool retime_timer(ProcessId pid, TimerId id, VirtualTime new_deadline);
  bool cancel_timer(ProcessId pid, TimerId id);

  VirtualTime now() const { return now_; }
  std::uint64_t step_count() const { return step_; }
  /// The latest capture's capture_serial (0 before any): unlike the step
  /// count, no restore rewinds it.
  std::uint64_t capture_serial() const { return capture_seq_; }
  const VectorClock& vclock_of(ProcessId pid) const;
  LamportTime lamport_of(ProcessId pid) const;
  const TimerQueue& timers_of(ProcessId pid) const;

  bool is_started(ProcessId pid) const { return info(pid).started; }
  bool is_crashed(ProcessId pid) const { return info(pid).crashed; }
  bool is_halted(ProcessId pid) const { return info(pid).halted; }
  void set_crashed(ProcessId pid, bool crashed);
  std::uint64_t events_handled(ProcessId pid) const {
    return info(pid).handled;
  }

  // --- hooks ----------------------------------------------------------------
  void add_observer(RuntimeObserver* obs);
  void remove_observer(RuntimeObserver* obs);
  void add_interceptor(StepInterceptor* ic);
  void remove_interceptor(StepInterceptor* ic);
  void set_spec_hooks(SpecHooks* hooks) { spec_hooks_ = hooks; }
  SpecHooks* spec_hooks() const { return spec_hooks_; }
  void set_env_source(EnvSource* src) { env_source_ = src; }
  void set_scheduler(std::unique_ptr<Scheduler> s);
  Scheduler& scheduler() { return *scheduler_; }

  // --- invariants & violations ---------------------------------------------
  InvariantRegistry& invariants() { return invariants_; }
  const InvariantRegistry& invariants() const { return invariants_; }
  const std::vector<Violation>& violations() const { return violations_; }
  bool has_violation() const { return !violations_.empty(); }
  void clear_violations() { violations_.clear(); }
  void record_violation(Violation v);

  /// Evaluate every registered invariant against the current state and
  /// record any violations (used to probe a freshly restored state).
  void recheck_invariants();

  // --- execution --------------------------------------------------------------
  /// Events currently eligible to run (deterministic order).
  ///
  /// Materialized from the incrementally maintained enabled-event index:
  /// the network publishes deliverable-message deltas, timer mutations and
  /// process lifecycle flips resync their per-process buckets, so this
  /// call touches only processes that actually have enabled events — it
  /// never rescans all processes/messages/timers. In timed mode the
  /// ready/warp selection runs over the buckets' at-keyed orderings
  /// instead of filtering a fully built candidate set. Bit-identical
  /// (order included) to enabled_events_uncached() by contract.
  std::vector<EventDesc> enabled_events() const;

  /// From-scratch rescan of processes, deliverable messages, and armed
  /// timers, bypassing the enabled-event index. Verification oracle for
  /// tests and bench/fig9_digest, exactly like the digest layers.
  std::vector<EventDesc> enabled_events_uncached() const;

  /// Verification hook: when off, enabled_events()/quiescent() route
  /// through the uncached rescan (the index keeps being maintained), and
  /// index consumers like the explorer's environment-model action
  /// enumeration fall back to their rescan paths too. The differential
  /// explorer tests flip this to prove the index changes no visited
  /// state set.
  void set_use_enabled_index(bool on) { use_enabled_index_ = on; }
  bool use_enabled_index() const { return use_enabled_index_; }

  /// Execute one scheduler-chosen event. False iff no event is enabled.
  bool step();

  /// Run until quiescent / all halted / a violation (if configured) /
  /// max_steps executed.
  RunResult run(std::uint64_t max_steps = ~0ull);

  /// Execute a specific enabled event (the Investigator's transition).
  void execute_event(const EventDesc& ev);

  /// True iff no event is enabled. O(1) from the enabled-event index
  /// counters (in timed mode a nonempty candidate set always yields a
  /// nonempty ready set via the time warp, so the counters decide both
  /// modes).
  bool quiescent() const;
  bool all_halted() const;

  // --- state capture ------------------------------------------------------------
  /// Capture one process. `cow=true` uses the heap page-table snapshot
  /// (cheap); `cow=false` fully serializes (transmissible). Always a fresh
  /// capture with a fresh `capture_serial` (the speculation cascade needs
  /// unique serials); snapshot() goes through the shared variant below.
  ProcessCheckpoint capture_process(ProcessId pid, bool cow = true);

  /// COW capture through the per-process capture cache: returns the cached
  /// checkpoint when the process is clean since its last capture (the
  /// cached entry keeps its original capture_serial/at/step — the content
  /// is identical, only the capture moment is earlier), else captures
  /// fresh and re-warms the cache.
  std::shared_ptr<const ProcessCheckpoint> capture_process_shared(
      ProcessId pid);

  /// Restore one process (state + clocks + timers). The network is NOT
  /// touched: reconciling channels is the Time Machine's job.
  void restore_process(ProcessId pid, const ProcessCheckpoint& ckpt);

  /// Shared-checkpoint restore: a no-op when the process already holds
  /// exactly this checkpoint's content (capture-cache pointer equality),
  /// and re-warms the capture cache afterwards so the next snapshot()
  /// shares instead of re-capturing.
  void restore_process(ProcessId pid,
                       const std::shared_ptr<const ProcessCheckpoint>& ckpt);

  WorldSnapshot snapshot(bool cow = true);
  void restore(const WorldSnapshot& snap);

  // --- replay-warmed captures ---------------------------------------------
  /// Toggle replay warming (default on). While on, a deterministic
  /// re-execution after restore(WorldSnapshot) keys every dispatched
  /// event against the snapshot's identity; capture_process_shared then
  /// reuses the bit-identical shared checkpoint a previous replay of the
  /// same prefix produced (and SimNetwork reuses replay-created message
  /// objects the same way), so sibling trail-frontier anchors share
  /// entries instead of deep-copying identical content. Any mutation
  /// outside dispatched events (process()/set_crashed/swap/network()
  /// surgery/spec aborts) breaks the chain; spec hooks or an env source
  /// disable keying entirely, and so does any interceptor that does not
  /// declare replay purity (StepInterceptor::replay_pure — pure
  /// interceptors fold a state digest into each event key instead).
  /// Toggling clears all warm state.
  void set_replay_warm(bool on);
  bool replay_warm() const { return replay_warm_on_; }
  /// Captures served from / inserted into the replay-warm ring
  /// (observability; tests assert the machinery engages).
  std::uint64_t replay_warm_hits() const { return warm_hits_; }
  std::uint64_t replay_warm_misses() const { return warm_misses_; }

  /// Verification oracle: true iff the capture cache entry for `pid` (and
  /// therefore anything replay warming may have put there) describes the
  /// live process bit-exactly — root bytes, runtime info bytes, and heap
  /// content compared in full. A cold cache is trivially consistent. The
  /// replay-warm property suites call this after every materialization.
  bool verify_capture_cache(ProcessId pid) const;

  /// Clone the entire world (processes, network, clocks). Hooks, observers
  /// and invariants are NOT cloned; the clone gets a FIFO scheduler.
  std::unique_ptr<World> clone();

  /// Clone the world's *behavior* (process objects, options) and restore
  /// the given snapshot into it. Const and cache-free, so one thread can
  /// stamp out N worker worlds from one shared COW snapshot (mark it with
  /// WorldSnapshot::share_across_threads first when the clones will run on
  /// different threads). `snap` must have been captured from a world with
  /// the same process set.
  std::unique_ptr<World> clone_from_snapshot(const WorldSnapshot& snap) const;

  /// Exact state digest: changes iff any state byte changes. Includes
  /// clocks, ids and stats — two runs match iff they are bit-identical.
  ///
  /// Incremental: per-process components are cached and invalidated by the
  /// event pipeline (handler ran, restore, crash/start flag, swap), so one
  /// event costs O(changed state) to re-digest, not O(total state).
  std::uint64_t digest() const;

  /// Canonical digest for model-checker deduplication: abstracts away
  /// path-dependent bookkeeping (virtual time, Lamport/vector clocks,
  /// message ids, network statistics) while covering all decision-relevant
  /// state (process roots, heaps, flags, RNGs, armed timer kinds, the
  /// multiset of in-flight message contents). Incrementally cached like
  /// digest(); this is the Investigator's per-transition hot path.
  std::uint64_t mc_digest() const;

  /// From-scratch recomputations bypassing every cache (per-process, heap
  /// page, message memo). Bit-identical to digest()/mc_digest() by
  /// contract; verification hooks for tests and bench/fig9_digest.
  std::uint64_t digest_uncached() const;
  std::uint64_t mc_digest_uncached() const;

  /// Invoked by ckpt::SpeculationManager after rolling a process back, to
  /// run its alternate-path handler.
  void notify_spec_aborted(ProcessId pid, SpecId spec,
                           const std::string& assumption);

  /// Forward a speculation lifecycle event to the observers (the Scroll).
  void notify_spec_event(ProcessId pid, SpecId spec,
                         RuntimeObserver::SpecOp op);

  /// Total sends/deliveries executed (convenience for benches).
  const net::NetStats& net_stats() const { return net_.stats(); }

 private:
  struct ProcInfo {
    LamportClock lamport;
    VectorClock vclock;
    Rng rng;
    TimerQueue timers;
    std::uint64_t env_count = 0;
    std::uint64_t handled = 0;
    bool started = false;
    bool crashed = false;
    bool halted = false;

    void save(BinaryWriter& w) const;
    void load(BinaryReader& r);
  };

  class Ctx;
  friend class Ctx;

  ProcInfo& info(ProcessId pid);
  const ProcInfo& info(ProcessId pid) const;

  /// Drop the cached digest components and the cached capture of `pid`.
  /// Called by every mutation path: dispatch (handler/suppression),
  /// restore_process, swap_process, set_crashed, notify_spec_aborted,
  /// seal, and mutable process access.
  void mark_state_dirty(ProcessId pid) {
    if (pid < dcache_.size()) {
      dcache_[pid].full_valid = false;
      dcache_[pid].mc_valid = false;
      ckpt_cache_[pid].reset();
      // The content is about to change, so it no longer matches the last
      // replay key; dispatch re-establishes the key after the event.
      warm_key_[pid] = 0;
    }
  }

  // --- replay-warm key chain ----------------------------------------------
  /// An exogenous mutation happened: downstream states are no longer a
  /// pure function of (restored snapshot, dispatched events), so the key
  /// chain dies until the next full-snapshot restore re-seeds it.
  void replay_break() { replay_acc_ = 0; }
  /// True iff every attached interceptor declares replay purity (see
  /// StepInterceptor::replay_pure); vacuously true with none attached.
  bool interceptors_pure() const {
    for (const StepInterceptor* ic : interceptors_) {
      if (!ic->replay_pure()) return false;
    }
    return true;
  }
  /// True while dispatched events may be keyed: warming on and no hook
  /// whose state lives outside world snapshots — except interceptors that
  /// declare themselves pure functions of (world state, own state, event);
  /// dispatch folds their state digests into each event key, so their
  /// influence is part of the chain instead of invalidating it.
  bool replay_keyable() const {
    return replay_warm_on_ && replay_acc_ != 0 && interceptors_pure() &&
           spec_hooks_ == nullptr && env_source_ == nullptr;
  }
  /// Look up / publish the capture for `pid` under its current warm key.
  std::shared_ptr<const ProcessCheckpoint> warm_lookup(ProcessId pid) const;
  void warm_insert(ProcessId pid,
                   const std::shared_ptr<const ProcessCheckpoint>& ckpt);

  // --- enabled-event index ------------------------------------------------
  /// Sorted flat set of process ids. Process counts are small and
  /// membership flips ride the explorer's per-transition path, so a flat
  /// vector (binary-search insert/erase, no node allocations) beats a
  /// tree set.
  class PidSet {
   public:
    void insert(ProcessId pid) {
      auto it = std::lower_bound(v_.begin(), v_.end(), pid);
      if (it == v_.end() || *it != pid) v_.insert(it, pid);
    }
    void erase(ProcessId pid) {
      auto it = std::lower_bound(v_.begin(), v_.end(), pid);
      if (it != v_.end() && *it == pid) v_.erase(it);
    }
    bool empty() const { return v_.empty(); }
    std::size_t size() const { return v_.size(); }
    auto begin() const { return v_.begin(); }
    auto end() const { return v_.end(); }

   private:
    std::vector<ProcessId> v_;
  };

  /// Per-process cached contributions to the enabled-event index: which
  /// aggregate sets the process is a member of and how many events it
  /// currently contributes. The cache is what lets one resync adjust the
  /// global counters without rescanning other processes.
  struct EIdxProc {
    bool start = false;       ///< member of eidx_starts_
    bool deliv = false;       ///< member of eidx_deliv_procs_
    bool timer = false;       ///< member of eidx_timer_procs_
    std::size_t delivs = 0;   ///< contribution to eidx_n_delivs_
    std::size_t timers = 0;   ///< contribution to eidx_n_timers_
  };

  bool start_eligible(const ProcInfo& pi) const {
    return !pi.started && !pi.crashed && !pi.halted;
  }
  bool deliv_eligible(const ProcInfo& pi) const {
    // A halted process still receives (it just initiates nothing).
    return pi.started && !pi.crashed;
  }
  bool timer_eligible(const ProcInfo& pi) const {
    return pi.started && !pi.crashed && !pi.halted;
  }

  /// Resync one process's index contributions after its start flag /
  /// lifecycle flags / deliverable bucket / timer set changed. Each is
  /// O(log processes-with-events); callers use the narrowest one that
  /// covers the mutation (see docs/PERF.md for the site table). Const
  /// (mutable index state) because the lazy resync below runs under the
  /// const enabled_events()/quiescent() — same idiom as the digest memos.
  void eidx_sync_start(ProcessId pid) const;
  void eidx_sync_delivs(ProcessId pid) const;
  void eidx_sync_timers(ProcessId pid) const;
  void eidx_sync_proc(ProcessId pid) const {
    eidx_sync_start(pid);
    eidx_sync_delivs(pid);
    eidx_sync_timers(pid);
  }

  /// Bring the index current before materialization: rebuilds the
  /// network's deliverable index if a restore/load invalidated it, and
  /// re-derives per-process contributions when either a process restore
  /// invalidated the aggregates (eidx_valid_) or the network index was
  /// rebuilt wholesale (epoch mismatch). O(1) when nothing was
  /// invalidated, which is every call in a live run.
  void eidx_ensure() const;

  // net::DeliverableListener (the network's deliverable-set deltas).
  void on_deliverable_add(ProcessId dst, MsgId id,
                          const net::DeliverableEntry& e) override;
  void on_deliverable_remove(ProcessId dst, MsgId id) override;

  /// True iff ckpt_cache_[pid] still describes the process bit-exactly.
  /// The dirty bit covers every World-mediated mutation; heap content can
  /// additionally change through a stashed PagedHeap pointer, so the
  /// heap's self-invalidating digest arbitrates that case.
  bool capture_cache_valid(ProcessId pid) const;

  std::uint64_t proc_full_digest(ProcessId pid) const;
  std::uint64_t proc_mc_digest(ProcessId pid) const;
  std::uint64_t digest_impl(bool cached) const;
  std::uint64_t mc_digest_impl(bool cached) const;

  void dispatch(const EventDesc& ev);
  void run_handler(ProcessId pid, const std::function<void(Context&)>& body);
  void check_invariants(ProcessId pid, const EventDesc& ev);
  /// Evaluate every global invariant against the whole world.
  void check_globals();
  std::uint64_t default_env_value(ProcessId pid, std::string_view key,
                                  std::uint64_t count) const;

  /// One cached facet() result: the interface last asked for and the
  /// process viewed as it (stored as const void*, cast back to that type).
  struct FacetSlot {
    const std::type_info* type = nullptr;
    const void* view = nullptr;
  };

  WorldOptions opts_;
  bool sealed_ = false;
  std::vector<std::unique_ptr<Process>> procs_;
  /// facet() slots, one per pid, reset by add_process and swap_process
  /// (the only places that replace procs_[pid]). Filled under const
  /// without a lock: a World is used by one thread at a time (each
  /// explorer worker owns its scratch world).
  mutable std::vector<FacetSlot> facets_;
  std::vector<ProcInfo> infos_;
  net::SimNetwork net_;
  std::unique_ptr<Scheduler> scheduler_;
  InvariantRegistry invariants_;
  std::vector<Violation> violations_;
  std::vector<RuntimeObserver*> observers_;
  std::vector<StepInterceptor*> interceptors_;
  SpecHooks* spec_hooks_ = nullptr;
  EnvSource* env_source_ = nullptr;
  VirtualTime now_ = 0;
  std::uint64_t step_ = 0;
  std::uint64_t capture_seq_ = 0;  // never restored: stays world-unique
  bool in_handler_ = false;
  mutable std::vector<ProcDigestMemo> dcache_;
  /// Per-process capture cache: the shared checkpoint describing the
  /// process's current state, reset by mark_state_dirty and re-warmed by
  /// capture_process_shared / shared restore_process. This is what makes
  /// WorldSnapshot capture O(changed processes).
  std::vector<std::shared_ptr<const ProcessCheckpoint>> ckpt_cache_;
  /// Reused serialization scratch for digest computation and process
  /// capture (avoids one BinaryWriter allocation per process per digest
  /// call or checkpoint).
  mutable BinaryWriter digest_scratch_;

  // --- replay-warm state (see set_replay_warm) ----------------------------
  bool replay_warm_on_ = true;
  /// Running key of the deterministic event prefix executed since the last
  /// restore(WorldSnapshot): H(snapshot serial, event identities...).
  /// 0 = no pure-replay base (never restored, or broken by an exogenous
  /// mutation).
  std::uint64_t replay_acc_ = 0;
  /// Per process: the key of the last keyed event that mutated it (its
  /// content is the deterministic function of that key), 0 when unknown.
  /// Zeroed by mark_state_dirty, re-set by dispatch after the event.
  std::vector<std::uint64_t> warm_key_;
  /// Per process: small ring of recent (key → shared capture) pairs. A
  /// sibling replay of the same prefix re-derives the same key and shares
  /// the checkpoint instead of capturing a bit-identical copy. Bounded
  /// retention: kReplayWarmSlots entries per process, FIFO eviction.
  static constexpr std::size_t kReplayWarmSlots = 16;
  struct ReplayWarmSlot {
    std::uint64_t key = 0;
    std::shared_ptr<const ProcessCheckpoint> ckpt;
  };
  struct ReplayWarmRing {
    std::array<ReplayWarmSlot, kReplayWarmSlots> slots;
    std::uint8_t next = 0;
  };
  mutable std::vector<ReplayWarmRing> warm_ring_;
  mutable std::uint64_t warm_hits_ = 0;
  mutable std::uint64_t warm_misses_ = 0;

  /// Enabled-event index aggregates (see EIdxProc): the sorted sets hold
  /// exactly the processes that contribute enabled events of each kind,
  /// so materialization iterates contributors only, and the counters make
  /// quiescent() O(1). Maintained by the eidx_sync_* resyncs; timer and
  /// deliverable buckets themselves live in the TimerQueues and the
  /// network's deliverable index — the world holds no per-event copies.
  mutable std::vector<EIdxProc> eidx_;
  mutable PidSet eidx_starts_;
  mutable PidSet eidx_deliv_procs_;
  mutable PidSet eidx_timer_procs_;
  mutable std::size_t eidx_n_delivs_ = 0;
  mutable std::size_t eidx_n_timers_ = 0;
  /// Last network deliverable-index epoch the aggregates were derived
  /// against; a mismatch in eidx_ensure() triggers the wholesale resync.
  mutable std::uint64_t eidx_net_epoch_ = 0;
  /// False after a process restore: contributions may be stale across the
  /// board, so the per-site resyncs early-out (O(1) on the explorer's
  /// restore-per-transition path) and eidx_ensure() resyncs everyone at
  /// the next materialization. Live runs never clear it.
  mutable bool eidx_valid_ = true;
  bool use_enabled_index_ = true;
};

}  // namespace fixd::rt
