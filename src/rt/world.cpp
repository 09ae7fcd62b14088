#include "rt/world.hpp"

#include <algorithm>
#include <atomic>

#include "common/hash.hpp"

namespace fixd::rt {

namespace {

/// World-wide unique WorldSnapshot serials (cross-thread: parallel
/// explorer workers snapshot concurrently).
std::atomic<std::uint64_t> g_snapshot_serial{0};

/// Seed of a replay-warm key chain for one snapshot identity.
std::uint64_t replay_chain_seed(std::uint64_t serial) {
  return hash_combine(0x52e91a77c0ffeeull, serial);
}

/// Fold one dispatched event's identity into the chain. The identity
/// (kind + pid + msg + timer) pins the transition exactly: ids are unique
/// while pending/armed, so equal keys mean equal deterministic prefixes.
std::uint64_t replay_fold_event(std::uint64_t acc, const EventDesc& ev) {
  acc = hash_combine(acc, static_cast<std::uint64_t>(ev.kind));
  acc = hash_combine(acc, ev.pid);
  acc = hash_combine(acc, ev.msg);
  return hash_combine(acc, ev.timer);
}

}  // namespace

// ---------------------------------------------------------------------------
// ProcessCheckpoint
// ---------------------------------------------------------------------------

std::uint64_t ProcessCheckpoint::size_bytes() const {
  std::uint64_t n = root.size() + info.size();
  if (heap_snap) {
    // COW cost: the page table (one pointer per page), not the content.
    n += heap_snap->page_count() * sizeof(void*);
  }
  n += heap_bytes.size();
  return n;
}

void ProcessCheckpoint::share_across_threads() const {
  if (xt_marked_.test_and_mark()) return;
  if (heap_snap) heap_snap->share_across_threads();
}

void ProcessCheckpoint::save(BinaryWriter& w) const {
  w.write_bytes(root);
  w.write_bytes(info);
  vclock.save(w);
  w.write_u64(lamport);
  w.write_u64(at);
  w.write_u64(step);
  w.write_u64(capture_serial);
  if (heap_snap) {
    w.write_bool(true);
    BinaryWriter hw;
    heap_snap->save(hw);
    w.write_bytes(hw.bytes());
  } else if (!heap_bytes.empty()) {
    w.write_bool(true);
    w.write_bytes(heap_bytes);
  } else {
    w.write_bool(false);
  }
}

void ProcessCheckpoint::load(BinaryReader& r) {
  root = r.read_bytes();
  info = r.read_bytes();
  vclock.load(r);
  lamport = r.read_u64();
  at = r.read_u64();
  step = r.read_u64();
  capture_serial = r.read_u64();
  digest_memo = {};  // deserialized checkpoints restore cold
  heap_snap.reset();
  heap_bytes.clear();
  if (r.read_bool()) heap_bytes = r.read_bytes();
}

// ---------------------------------------------------------------------------
// WorldSnapshot
// ---------------------------------------------------------------------------

std::uint64_t WorldSnapshot::size_bytes() const {
  std::uint64_t n = 0;
  for (const auto& p : procs) {
    if (p) n += p->size_bytes();
  }
  if (net) n += net->size_bytes();
  return n;
}

void WorldSnapshot::share_across_threads() const {
  for (const auto& p : procs) {
    if (p) p->share_across_threads();
  }
  if (net) net->share_across_threads();
}

// ---------------------------------------------------------------------------
// World::ProcInfo
// ---------------------------------------------------------------------------

void World::ProcInfo::save(BinaryWriter& w) const {
  lamport.save(w);
  vclock.save(w);
  rng.save(w);
  timers.save(w);
  w.write_u64(env_count);
  w.write_u64(handled);
  w.write_bool(started);
  w.write_bool(crashed);
  w.write_bool(halted);
}

void World::ProcInfo::load(BinaryReader& r) {
  lamport.load(r);
  vclock.load(r);
  rng.load(r);
  timers.load(r);
  env_count = r.read_u64();
  handled = r.read_u64();
  started = r.read_bool();
  crashed = r.read_bool();
  halted = r.read_bool();
}

// ---------------------------------------------------------------------------
// Context implementation
// ---------------------------------------------------------------------------

class World::Ctx final : public Context {
 public:
  Ctx(World& w, ProcessId pid) : w_(w), pid_(pid) {}

  ProcessId self() const override { return pid_; }
  std::size_t world_size() const override { return w_.size(); }

  VirtualTime now() override {
    for (auto* o : w_.observers_) o->on_time_read(w_, pid_, w_.now_);
    return w_.now_;
  }

  std::uint64_t random_u64() override {
    std::uint64_t v = w_.infos_[pid_].rng.next_u64();
    for (auto* o : w_.observers_) o->on_rng(w_, pid_, v);
    return v;
  }

  std::uint64_t env_read(std::string_view key) override {
    auto& pi = w_.infos_[pid_];
    std::optional<std::uint64_t> fed;
    if (w_.env_source_) fed = w_.env_source_->next_env(pid_, key);
    std::uint64_t val =
        fed ? *fed : w_.default_env_value(pid_, key, pi.env_count);
    ++pi.env_count;
    std::string k(key);
    for (auto* o : w_.observers_) o->on_env_read(w_, pid_, k, val);
    return val;
  }

  void send(ProcessId dst, net::Tag tag,
            std::vector<std::byte> payload) override {
    FIXD_CHECK_MSG(dst < w_.size(), "send: destination out of range");
    auto& pi = w_.infos_[pid_];
    net::Message m;
    m.src = pid_;
    m.dst = dst;
    m.tag = tag;
    m.payload = std::move(payload);
    m.sent_at = w_.now_;
    pi.lamport.tick();
    m.lamport = pi.lamport.now();
    pi.vclock.tick(pid_);
    m.vclock = pi.vclock;
    if (w_.spec_hooks_) m.spec_taints = w_.spec_hooks_->taints_of(pid_);

    // Observers see the enqueued message itself (its digest memo is warm),
    // or, when the loss policy dropped it, the untouched `m` with id 0.
    const auto id = w_.net_.submit(std::move(m));
    if (w_.observers_.empty()) return;
    const net::Message& sent = id ? *w_.net_.peek(*id) : m;
    for (auto* o : w_.observers_) o->on_send(w_, sent);
  }

  TimerId set_timer(VirtualTime delay, std::uint32_t kind) override {
    TimerId id = w_.infos_[pid_].timers.arm(w_.now_, delay, kind);
    w_.eidx_sync_timers(pid_);
    return id;
  }

  bool cancel_timer(TimerId id) override {
    bool ok = w_.infos_[pid_].timers.cancel(id);
    if (ok) w_.eidx_sync_timers(pid_);
    return ok;
  }

  std::size_t cancel_timers(std::uint32_t kind) override {
    std::size_t n = w_.infos_[pid_].timers.cancel_by_kind(kind);
    if (n > 0) w_.eidx_sync_timers(pid_);
    return n;
  }

  SpecId spec_begin(std::string_view assumption) override {
    if (!w_.spec_hooks_) return kNoSpec;
    return w_.spec_hooks_->begin(w_, pid_, std::string(assumption));
  }

  void spec_commit(SpecId id) override {
    if (w_.spec_hooks_) w_.spec_hooks_->commit(w_, pid_, id);
  }

  void spec_abort(SpecId id) override {
    if (w_.spec_hooks_) w_.spec_hooks_->abort(w_, pid_, id);
  }

  void annotate(std::string note) override {
    for (auto* o : w_.observers_) o->on_annotation(w_, pid_, note);
  }

  void report_fault(std::string reason) override {
    Violation v;
    v.invariant = "local";
    v.pid = pid_;
    v.detail = std::move(reason);
    v.at = w_.now_;
    v.lamport = w_.infos_[pid_].lamport.now();
    v.step = w_.step_;
    w_.record_violation(std::move(v));
  }

  void halt() override {
    auto& pi = w_.infos_[pid_];
    pi.halted = true;
    pi.timers.clear();
    w_.eidx_sync_proc(pid_);
  }

 private:
  World& w_;
  ProcessId pid_;
};

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

World::World(WorldOptions opts)
    : opts_(opts),
      net_(opts.net),
      scheduler_(std::make_unique<FifoScheduler>()) {
  // The enabled-event index consumes the network's deliverable deltas.
  net_.set_deliverable_listener(this);
}

World::~World() = default;

ProcessId World::add_process(std::unique_ptr<Process> p) {
  FIXD_CHECK_MSG(!sealed_, "add_process after seal");
  FIXD_CHECK_MSG(p != nullptr, "add_process: null");
  ProcessId pid = static_cast<ProcessId>(procs_.size());
  p->id_ = pid;
  procs_.push_back(std::move(p));
  facets_.push_back({});
  ProcInfo pi;
  pi.rng = Rng(hash_combine(opts_.seed, pid));
  infos_.push_back(std::move(pi));
  dcache_.push_back({});
  ckpt_cache_.push_back(nullptr);
  warm_key_.push_back(0);
  warm_ring_.emplace_back();
  eidx_.push_back({});
  return pid;
}

void World::seal() {
  if (sealed_) return;
  sealed_ = true;
  for (auto& pi : infos_) pi.vclock = VectorClock(procs_.size());
  for (ProcessId pid = 0; pid < procs_.size(); ++pid) {
    mark_state_dirty(pid);
    eidx_sync_proc(pid);  // builds the enabled-event index from scratch
  }
}

Process& World::process(ProcessId pid) {
  FIXD_CHECK_MSG(pid < procs_.size(), "bad process id");
  // Conservative: the caller may mutate the process through this reference
  // (fault injection's corrupt_state, the Healer's patches, test pokes).
  // An external mutation also ends replay purity for *downstream* state
  // (later handlers observe its effects), hence the chain break.
  mark_state_dirty(pid);
  replay_break();
  return *procs_[pid];
}

const Process& World::process(ProcessId pid) const {
  FIXD_CHECK_MSG(pid < procs_.size(), "bad process id");
  return *procs_[pid];
}

std::unique_ptr<Process> World::swap_process(ProcessId pid,
                                             std::unique_ptr<Process> fresh) {
  FIXD_CHECK_MSG(pid < procs_.size(), "swap_process: bad id");
  FIXD_CHECK_MSG(fresh != nullptr, "swap_process: null");
  FIXD_CHECK_MSG(!in_handler_, "swap_process during a handler");
  fresh->id_ = pid;
  std::swap(procs_[pid], fresh);
  facets_[pid] = {};
  mark_state_dirty(pid);
  replay_break();
  return fresh;  // now holds the old process
}

World::ProcInfo& World::info(ProcessId pid) {
  FIXD_CHECK_MSG(pid < infos_.size(), "bad process id");
  return infos_[pid];
}

const World::ProcInfo& World::info(ProcessId pid) const {
  FIXD_CHECK_MSG(pid < infos_.size(), "bad process id");
  return infos_[pid];
}

const VectorClock& World::vclock_of(ProcessId pid) const {
  return info(pid).vclock;
}

LamportTime World::lamport_of(ProcessId pid) const {
  return info(pid).lamport.now();
}

const TimerQueue& World::timers_of(ProcessId pid) const {
  return info(pid).timers;
}

void World::set_crashed(ProcessId pid, bool crashed) {
  info(pid).crashed = crashed;
  mark_state_dirty(pid);
  replay_break();
  // Crash (or uncrash) enables/masks every bucket of this process at once.
  eidx_sync_proc(pid);
}

void World::add_observer(RuntimeObserver* obs) {
  FIXD_CHECK(obs != nullptr);
  observers_.push_back(obs);
}

void World::remove_observer(RuntimeObserver* obs) {
  std::erase(observers_, obs);
}

void World::add_interceptor(StepInterceptor* ic) {
  FIXD_CHECK(ic != nullptr);
  interceptors_.push_back(ic);
}

void World::remove_interceptor(StepInterceptor* ic) {
  std::erase(interceptors_, ic);
}

void World::set_scheduler(std::unique_ptr<Scheduler> s) {
  FIXD_CHECK(s != nullptr);
  scheduler_ = std::move(s);
}

void World::record_violation(Violation v) {
  violations_.push_back(std::move(v));
}

std::vector<EventDesc> World::enabled_events_uncached() const {
  FIXD_CHECK_MSG(sealed_, "world not sealed");
  std::vector<EventDesc> cand;

  for (ProcessId pid = 0; pid < procs_.size(); ++pid) {
    const ProcInfo& pi = infos_[pid];
    if (pi.crashed || pi.halted) continue;
    if (!pi.started) {
      EventDesc e;
      e.kind = EventKind::kStart;
      e.pid = pid;
      e.at = 0;
      cand.push_back(e);
    }
  }

  for (MsgId id : net_.deliverable()) {
    const net::Message* m = net_.peek(id);
    const ProcInfo& pi = infos_[m->dst];
    if (pi.crashed || !pi.started) continue;  // waits until dst can receive
    EventDesc e;
    e.kind = EventKind::kDeliver;
    e.pid = m->dst;
    e.msg = id;
    e.at = m->sent_at + m->latency;
    cand.push_back(e);
  }

  for (ProcessId pid = 0; pid < procs_.size(); ++pid) {
    const ProcInfo& pi = infos_[pid];
    if (pi.crashed || pi.halted || !pi.started) continue;
    for (const Timer& t : pi.timers.armed()) {
      EventDesc e;
      e.kind = EventKind::kTimer;
      e.pid = pid;
      e.timer = t.id;
      e.at = t.deadline;
      cand.push_back(e);
    }
  }

  if (opts_.abstract_time || cand.empty()) return cand;

  // Timed mode: only events ready at the current time are enabled; if none
  // is, virtual time warps to the earliest upcoming event group.
  std::vector<EventDesc> ready;
  for (const EventDesc& e : cand) {
    if (e.at <= now_) ready.push_back(e);
  }
  if (!ready.empty()) return ready;
  VirtualTime tmin = cand.front().at;
  for (const EventDesc& e : cand) tmin = std::min(tmin, e.at);
  for (const EventDesc& e : cand) {
    if (e.at == tmin) ready.push_back(e);
  }
  return ready;
}

namespace {

/// The canonical enabled-event order the uncached scan produces: starts
/// by pid, then deliveries by ascending message id, then timers by
/// (pid, deadline, id). The timed-mode selection collects ready events
/// bucket by bucket and re-sorts with this key.
bool enabled_order_less(const EventDesc& a, const EventDesc& b) {
  if (a.kind != b.kind) {
    return static_cast<int>(a.kind) < static_cast<int>(b.kind);
  }
  switch (a.kind) {
    case EventKind::kStart:
      return a.pid < b.pid;
    case EventKind::kDeliver:
      return a.msg < b.msg;
    case EventKind::kTimer:
      if (a.pid != b.pid) return a.pid < b.pid;
      if (a.at != b.at) return a.at < b.at;
      return a.timer < b.timer;
  }
  return false;
}

EventDesc make_start(ProcessId pid) {
  EventDesc e;
  e.kind = EventKind::kStart;
  e.pid = pid;
  e.at = 0;
  return e;
}

EventDesc make_deliver(ProcessId pid, MsgId id, VirtualTime at) {
  EventDesc e;
  e.kind = EventKind::kDeliver;
  e.pid = pid;
  e.msg = id;
  e.at = at;
  return e;
}

EventDesc make_timer(ProcessId pid, const Timer& t) {
  EventDesc e;
  e.kind = EventKind::kTimer;
  e.pid = pid;
  e.timer = t.id;
  e.at = t.deadline;
  return e;
}

}  // namespace

std::vector<EventDesc> World::enabled_events() const {
  FIXD_CHECK_MSG(sealed_, "world not sealed");
  if (!use_enabled_index_) return enabled_events_uncached();
  eidx_ensure();
  std::vector<EventDesc> out;

  if (opts_.abstract_time) {
    // Materialize the whole index: every contributor set holds exactly
    // the processes with enabled events of that kind, so this loop is
    // O(enabled), never O(world).
    out.reserve(eidx_starts_.size() + eidx_n_delivs_ + eidx_n_timers_);
    for (ProcessId pid : eidx_starts_) out.push_back(make_start(pid));
    const std::size_t deliv_begin = out.size();
    for (ProcessId pid : eidx_deliv_procs_) {
      const net::DeliverableBucket* b = net_.deliv_bucket(pid);
      for (const auto& [id, e] : b->by_id) {
        out.push_back(make_deliver(pid, id, e.at));
      }
    }
    if (eidx_deliv_procs_.size() > 1) {
      // Per-bucket runs are id-sorted; the canonical order is globally
      // ascending message id across destinations.
      std::sort(out.begin() + deliv_begin, out.end(),
                [](const EventDesc& a, const EventDesc& b) {
                  return a.msg < b.msg;
                });
    }
    for (ProcessId pid : eidx_timer_procs_) {
      for (const Timer& t : infos_[pid].timers.view()) {
        out.push_back(make_timer(pid, t));
      }
    }
    return out;
  }

  // Timed mode. The ready set is {e : e.at <= now}; when that is empty,
  // time warps to the earliest upcoming group {e : e.at == tmin}. Both
  // reduce to a prefix scan at a single cutoff over each bucket's
  // at-keyed ordering: since tmin is the global minimum, at <= tmin is
  // the same set as at == tmin.
  if (eidx_starts_.empty() && eidx_n_delivs_ == 0 && eidx_n_timers_ == 0) {
    return out;
  }
  VirtualTime tmin = ~VirtualTime{0};
  if (!eidx_starts_.empty()) tmin = 0;  // start events are ready at 0
  for (ProcessId pid : eidx_deliv_procs_) {
    tmin = std::min(tmin, net_.deliv_bucket(pid)->min_at());
  }
  for (ProcessId pid : eidx_timer_procs_) {
    tmin = std::min(tmin, infos_[pid].timers.view().front().deadline);
  }
  const VirtualTime cutoff = tmin <= now_ ? now_ : tmin;

  for (ProcessId pid : eidx_starts_) out.push_back(make_start(pid));
  for (ProcessId pid : eidx_deliv_procs_) {
    const auto& by_at = net_.deliv_bucket(pid)->at_view();
    for (auto it = by_at.begin(); it != by_at.end() && it->first <= cutoff;
         ++it) {
      out.push_back(make_deliver(pid, it->second, it->first));
    }
  }
  for (ProcessId pid : eidx_timer_procs_) {
    for (const Timer& t : infos_[pid].timers.view()) {
      if (t.deadline > cutoff) break;  // (deadline, id) sorted
      out.push_back(make_timer(pid, t));
    }
  }
  std::sort(out.begin(), out.end(), enabled_order_less);
  return out;
}

bool World::quiescent() const {
  FIXD_CHECK_MSG(sealed_, "world not sealed");
  if (!use_enabled_index_) return enabled_events_uncached().empty();
  eidx_ensure();
  // In timed mode a nonempty candidate set always produces a nonempty
  // ready set (the warp), so the abstract counters decide both modes.
  return eidx_starts_.empty() && eidx_n_delivs_ == 0 && eidx_n_timers_ == 0;
}

bool World::step() {
  auto enabled = enabled_events();
  if (enabled.empty()) return false;
  std::size_t idx = scheduler_->choose(enabled, *this);
  FIXD_CHECK_MSG(idx < enabled.size(), "scheduler chose out of range");
  dispatch(enabled[idx]);
  return true;
}

RunResult World::run(std::uint64_t max_steps) {
  // Note: a world where every process has halted but deliveries are still
  // pending keeps draining them (halted processes handle messages; they
  // just initiate nothing) — stopping early would hide faults that manifest
  // in the last in-flight messages.
  RunResult res;
  while (true) {
    if (opts_.stop_on_violation && has_violation()) {
      res.reason = StopReason::kViolation;
      return res;
    }
    if (res.steps >= max_steps) {
      res.reason = StopReason::kMaxSteps;
      return res;
    }
    if (!step()) {
      res.reason = all_halted() ? StopReason::kAllHalted
                                : StopReason::kQuiescent;
      return res;
    }
    ++res.steps;
  }
}

void World::execute_event(const EventDesc& ev) {
  switch (ev.kind) {
    case EventKind::kStart:
      FIXD_CHECK_MSG(!info(ev.pid).started, "execute: already started");
      break;
    case EventKind::kDeliver:
      FIXD_CHECK_MSG(net_.peek(ev.msg) != nullptr, "execute: no such message");
      break;
    case EventKind::kTimer:
      FIXD_CHECK_MSG(info(ev.pid).timers.find(ev.timer) != nullptr,
                     "execute: timer not armed");
      break;
  }
  dispatch(ev);
}

bool World::all_halted() const {
  for (const auto& pi : infos_) {
    if (!pi.halted && !pi.crashed) return false;
  }
  return !infos_.empty();
}

void World::run_handler(ProcessId pid,
                        const std::function<void(Context&)>& body) {
  Ctx ctx(*this, pid);
  in_handler_ = true;
  try {
    body(ctx);
  } catch (...) {
    in_handler_ = false;
    throw;
  }
  in_handler_ = false;
}

void World::dispatch(const EventDesc& ev) {
  FIXD_CHECK_MSG(!in_handler_, "reentrant dispatch");
  now_ = std::max(now_, ev.at);
  // Every dispatch path below mutates ev.pid's state (flags, clocks,
  // timers, RNG, root, heap); other processes change only through World
  // APIs that mark themselves. The dirty mark must come *after* the
  // before_event interceptors: a CIC checkpoint taken there may warm the
  // capture/digest caches with the (still-unmutated) pre-event state, and
  // marking first would let that warmth survive the handler's mutations.

  // Replay warming: this event extends the deterministic prefix executed
  // since the last snapshot restore, so derive its key up front (sends
  // inside the handler key their messages against it) and commit it at
  // the end — unless something mid-event broke purity (a spec rollback, a
  // hook mutating through the public accessors), in which case the chain
  // is already dead and the key is discarded.
  const std::uint64_t acc0 = replay_acc_;
  std::uint64_t rk = replay_keyable() ? replay_fold_event(acc0, ev) : 0;
  if (rk != 0 && !interceptors_.empty()) {
    // Pure interceptors (replay_keyable admits no other kind) may mutate
    // the world as a deterministic function of their own state; fold that
    // state into the key so equal keys keep meaning equal downstream
    // content even across injected schedules.
    for (const StepInterceptor* ic : interceptors_) {
      rk = hash_combine(rk, ic->replay_state_digest());
    }
  }
  if (rk) {
    net_.begin_warm_step(rk);
  } else {
    // Clear any stale step key (a prior dispatch that ended by
    // exception, or a chain broken mid-event, must not key this event's
    // sends under the old identity).
    net_.end_warm_step();
  }
  const auto commit_replay_key = [&] {
    if (!rk) return;
    net_.end_warm_step();
    if (replay_acc_ == acc0) {
      replay_acc_ = rk;
      warm_key_[ev.pid] = rk;
    }
  };

  bool suppressed = false;
  for (auto* ic : interceptors_) {
    if (!ic->before_event(*this, ev)) {
      suppressed = true;
      break;
    }
  }
  if (suppressed) {
    mark_state_dirty(ev.pid);
    // Consume the event without running its handler (crash/loss injection).
    switch (ev.kind) {
      case EventKind::kStart:
        infos_[ev.pid].started = true;
        eidx_sync_proc(ev.pid);
        break;
      case EventKind::kDeliver: {
        // A timeout fault may have *deferred* this delivery (pushed its
        // ready time past now_) rather than suppressed it; dropping would
        // turn a delay into a loss. Deferred messages stay pending. For
        // every pre-existing fault kind the message is still ready here
        // (enabled events have at <= now_ after the warp), so the drop
        // fires exactly as before.
        const net::Message* m = net_.peek(ev.msg);
        if (m != nullptr && m->sent_at + m->latency <= now_) {
          net_.drop(ev.msg, /*forced=*/true);  // index delta via listener
        }
        break;
      }
      case EventKind::kTimer: {
        // Same for a retimed timer: a deadline now in the future means a
        // fault stretched the timeout, and the timer must stay armed.
        const Timer* t = infos_[ev.pid].timers.find(ev.timer);
        if (t != nullptr && t->deadline <= now_) {
          infos_[ev.pid].timers.cancel(ev.timer);
        }
        eidx_sync_timers(ev.pid);
        break;
      }
    }
    ++step_;
    for (auto* ic : interceptors_) ic->after_event(*this, ev);
    // Reachable while keyed only via pure interceptors (suppression is
    // their doing); the suppression outcome above is a deterministic
    // function of (world, interceptor state, event), all folded into rk.
    commit_replay_key();
    return;
  }

  for (auto* o : observers_) o->on_event(*this, ev);

  mark_state_dirty(ev.pid);
  ProcInfo& pi = infos_[ev.pid];
  switch (ev.kind) {
    case EventKind::kStart: {
      pi.started = true;
      // Unmask before the handler runs: its sends/timer arms must land in
      // an index that already sees the process as started.
      eidx_sync_proc(ev.pid);
      pi.lamport.tick();
      pi.vclock.tick(ev.pid);
      run_handler(ev.pid,
                  [&](Context& c) { procs_[ev.pid]->on_start(c); });
      break;
    }
    case EventKind::kDeliver: {
      if (spec_hooks_) spec_hooks_->before_deliver(*this, *net_.peek(ev.msg));
      net::Message msg = net_.take(ev.msg);
      pi.lamport.merge(msg.lamport);
      pi.vclock.merge(msg.vclock, ev.pid);
      for (auto* o : observers_) o->on_deliver(*this, msg);
      run_handler(ev.pid,
                  [&](Context& c) { procs_[ev.pid]->on_message(c, msg); });
      break;
    }
    case EventKind::kTimer: {
      Timer t = pi.timers.take(ev.timer);
      eidx_sync_timers(ev.pid);
      pi.lamport.tick();
      pi.vclock.tick(ev.pid);
      run_handler(ev.pid,
                  [&](Context& c) { procs_[ev.pid]->on_timer(c, t); });
      break;
    }
  }
  ++pi.handled;
  ++step_;

  if (spec_hooks_) spec_hooks_->apply_deferred(*this);
  check_invariants(ev.pid, ev);
  for (auto* ic : interceptors_) ic->after_event(*this, ev);
  commit_replay_key();
}

void World::recheck_invariants() {
  for (const auto& li : invariants_.locals()) {
    std::vector<ProcessId> targets;
    if (li.pid == kNoProcess) {
      for (ProcessId p = 0; p < procs_.size(); ++p) targets.push_back(p);
    } else {
      targets.push_back(li.pid);
    }
    for (ProcessId target : targets) {
      auto r = li.fn(*procs_[target]);
      if (r) {
        Violation v;
        v.invariant = li.name;
        v.pid = target;
        v.detail = *r;
        v.at = now_;
        v.lamport = infos_[target].lamport.now();
        v.step = step_;
        record_violation(std::move(v));
      }
    }
  }
  check_globals();
}

void World::check_globals() {
  for (const auto& gi : invariants_.globals()) {
    auto r = gi.fn(*this);
    if (r) {
      Violation v;
      v.invariant = gi.name;
      v.pid = kNoProcess;
      v.detail = *r;
      v.at = now_;
      v.step = step_;
      record_violation(std::move(v));
    }
  }
}

void World::check_invariants(ProcessId pid, const EventDesc& ev) {
  (void)ev;
  for (const auto& li : invariants_.locals()) {
    ProcessId target = li.pid == kNoProcess ? pid : li.pid;
    if (li.pid != kNoProcess && li.pid != pid) continue;
    auto r = li.fn(*procs_[target]);
    if (r) {
      Violation v;
      v.invariant = li.name;
      v.pid = target;
      v.detail = *r;
      v.at = now_;
      v.lamport = infos_[target].lamport.now();
      v.step = step_;
      record_violation(std::move(v));
    }
  }
  check_globals();
}

std::uint64_t default_env_value(std::uint64_t env_seed, ProcessId pid,
                                std::string_view key, std::uint64_t count) {
  Hasher h(env_seed);
  h.update_u64(pid);
  h.update_string(key);
  h.update_u64(count);
  return h.digest();
}

std::uint64_t World::default_env_value(ProcessId pid, std::string_view key,
                                       std::uint64_t count) const {
  return rt::default_env_value(opts_.env_seed, pid, key, count);
}

void World::notify_spec_event(ProcessId pid, SpecId spec,
                              RuntimeObserver::SpecOp op) {
  for (auto* o : observers_) o->on_spec(*this, pid, spec, op);
}

void World::notify_spec_aborted(ProcessId pid, SpecId spec,
                                const std::string& assumption) {
  ProcInfo& pi = infos_[pid];
  mark_state_dirty(pid);
  replay_break();
  pi.lamport.tick();
  pi.vclock.tick(pid);
  run_handler(pid, [&](Context& c) {
    procs_[pid]->on_spec_aborted(c, spec, assumption);
  });
}

// ---------------------------------------------------------------------------
// Enabled-event index maintenance
// ---------------------------------------------------------------------------
//
// Each resync recomputes one process's eligibility and bucket size from
// the authoritative state (flags, TimerQueue, network deliverable index),
// diffs against the cached contribution (EIdxProc), and adjusts the
// global sets/counters by the delta — so a resync never needs to look at
// any other process.

void World::eidx_sync_start(ProcessId pid) const {
  if (pid >= eidx_.size() || !eidx_valid_) return;
  EIdxProc& e = eidx_[pid];
  const bool member = start_eligible(infos_[pid]);
  if (member == e.start) return;
  if (member) {
    eidx_starts_.insert(pid);
  } else {
    eidx_starts_.erase(pid);
  }
  e.start = member;
}

void World::eidx_sync_delivs(ProcessId pid) const {
  if (pid >= eidx_.size() || !eidx_valid_) return;
  // While the network index is invalidated (a restore/load replaced the
  // in-flight state), contributions are deliberately left stale: querying
  // the bucket here would force the rebuild per touched process, and
  // eidx_ensure() resyncs everyone wholesale at the next materialization.
  if (!net_.deliv_index_valid()) return;
  EIdxProc& e = eidx_[pid];
  const std::size_t n =
      deliv_eligible(infos_[pid]) ? net_.deliv_bucket_size(pid) : 0;
  const bool member = n > 0;
  if (member != e.deliv) {
    if (member) {
      eidx_deliv_procs_.insert(pid);
    } else {
      eidx_deliv_procs_.erase(pid);
    }
    e.deliv = member;
  }
  eidx_n_delivs_ += n - e.delivs;
  e.delivs = n;
}

void World::eidx_sync_timers(ProcessId pid) const {
  if (pid >= eidx_.size() || !eidx_valid_) return;
  EIdxProc& e = eidx_[pid];
  const std::size_t n =
      timer_eligible(infos_[pid]) ? infos_[pid].timers.size() : 0;
  const bool member = n > 0;
  if (member != e.timer) {
    if (member) {
      eidx_timer_procs_.insert(pid);
    } else {
      eidx_timer_procs_.erase(pid);
    }
    e.timer = member;
  }
  eidx_n_timers_ += n - e.timers;
  e.timers = n;
}

void World::on_deliverable_add(ProcessId dst, MsgId id,
                               const net::DeliverableEntry& e) {
  (void)id;
  (void)e;
  eidx_sync_delivs(dst);
}

void World::on_deliverable_remove(ProcessId dst, MsgId id) {
  (void)id;
  eidx_sync_delivs(dst);
}

void World::eidx_ensure() const {
  net_.ensure_deliv_index();
  if (eidx_valid_ && eidx_net_epoch_ == net_.deliv_epoch()) return;
  // Something was invalidated wholesale — the network index (restore/
  // load) and/or the per-process contributions (a process restore, which
  // can flip lifecycle flags and so stale all three kinds). Re-derive
  // every process against the current truth. The aggregates stay
  // internally consistent throughout (they always equal the sum of the
  // cached contributions), so per-process resyncs in any order land on
  // the exact index. O(processes · log); once per invalidation burst,
  // not per call.
  eidx_valid_ = true;  // re-arm the per-site resyncs before using them
  for (ProcessId pid = 0; pid < eidx_.size(); ++pid) eidx_sync_proc(pid);
  eidx_net_epoch_ = net_.deliv_epoch();
}

// ---------------------------------------------------------------------------
// State capture
// ---------------------------------------------------------------------------

ProcessCheckpoint World::capture_process(ProcessId pid, bool cow) {
  FIXD_CHECK_MSG(pid < procs_.size(), "capture: bad id");
  ProcessCheckpoint c;
  // Root and info serialize into the reused scratch writer and are copied
  // out at exact size: no writer growth per capture.
  BinaryWriter& w = digest_scratch_;
  w.clear();
  procs_[pid]->save_root(w);
  c.root.assign(w.bytes().begin(), w.bytes().end());
  if (mem::PagedHeap* h = procs_[pid]->cow_heap()) {
    if (cow) {
      c.heap_snap = h->snapshot();
    } else {
      BinaryWriter hw;
      h->save(hw);
      c.heap_bytes = hw.take();
    }
  }
  w.clear();
  infos_[pid].save(w);
  c.info.assign(w.bytes().begin(), w.bytes().end());
  c.vclock = infos_[pid].vclock;
  c.lamport = infos_[pid].lamport.now();
  c.at = now_;
  c.step = step_;
  c.capture_serial = ++capture_seq_;
  // Whatever digest components are warm now describe exactly the content
  // captured above, so the checkpoint can re-warm the cache on restore.
  c.digest_memo = dcache_[pid];
  return c;
}

bool World::capture_cache_valid(ProcessId pid) const {
  const auto& c = ckpt_cache_[pid];
  if (!c) return false;
  if (const mem::PagedHeap* h = procs_[pid]->cow_heap()) {
    // The heap may have been written through a stashed pointer without the
    // world's dirty bit firing; both digests below are memoized, so this
    // check costs O(pages touched since capture), usually O(1).
    if (!c->heap_snap || c->heap_snap->digest() != h->digest()) return false;
  }
  return true;
}

std::shared_ptr<const ProcessCheckpoint> World::warm_lookup(
    ProcessId pid) const {
  const std::uint64_t key = warm_key_[pid];
  for (const ReplayWarmSlot& s : warm_ring_[pid].slots) {
    if (s.key != key || !s.ckpt) continue;
    // The key is content-addressed by construction (determinism makes
    // (snapshot, prefix) → state a function), but a hash collision must
    // degrade to a fresh capture, never a wrong share: validate the cheap
    // invariant fields, and the heap through its self-invalidating digest
    // (which also covers stashed-pointer heap writes the dirty bit
    // misses — the same guard capture_cache_valid uses).
    if (s.ckpt->vclock != infos_[pid].vclock) continue;
    if (s.ckpt->lamport != infos_[pid].lamport.now()) continue;
    if (const mem::PagedHeap* h = procs_[pid]->cow_heap()) {
      if (!s.ckpt->heap_snap || s.ckpt->heap_snap->digest() != h->digest()) {
        continue;
      }
    }
    return s.ckpt;
  }
  return nullptr;
}

void World::warm_insert(ProcessId pid,
                        const std::shared_ptr<const ProcessCheckpoint>& ckpt) {
  ReplayWarmRing& r = warm_ring_[pid];
  r.slots[r.next] = {warm_key_[pid], ckpt};
  r.next = static_cast<std::uint8_t>((r.next + 1) % kReplayWarmSlots);
}

std::shared_ptr<const ProcessCheckpoint> World::capture_process_shared(
    ProcessId pid) {
  FIXD_CHECK_MSG(pid < procs_.size(), "capture: bad id");
  if (capture_cache_valid(pid)) return ckpt_cache_[pid];
  // Replay-warmed path: a previous deterministic replay of the same
  // prefix already captured exactly this content — share its checkpoint
  // instead of allocating a bit-identical copy (this is what makes
  // sibling trail anchors share entries).
  if (replay_warm_on_ && warm_key_[pid] != 0) {
    if (auto hit = warm_lookup(pid)) {
      ++warm_hits_;
      // The hit's memo describes this very content; adopt any component
      // the live cache lost (conservative: valid-only, like restore).
      ProcDigestMemo& d = dcache_[pid];
      if (!d.full_valid && hit->digest_memo.full_valid) {
        d.full = hit->digest_memo.full;
        d.full_valid = true;
      }
      if (!d.mc_valid && hit->digest_memo.mc_valid) {
        d.mc = hit->digest_memo.mc;
        d.mc_valid = true;
      }
      ckpt_cache_[pid] = hit;
      return hit;
    }
    ++warm_misses_;
  }
  auto sp = std::make_shared<const ProcessCheckpoint>(
      capture_process(pid, /*cow=*/true));
  ckpt_cache_[pid] = sp;
  if (replay_warm_on_ && warm_key_[pid] != 0) warm_insert(pid, sp);
  return sp;
}

void World::set_replay_warm(bool on) {
  replay_warm_on_ = on;
  // Toggling either way clears all warm state: rings drop their retained
  // checkpoints, keys die, and the chain re-seeds at the next restore.
  replay_acc_ = 0;
  std::fill(warm_key_.begin(), warm_key_.end(), 0);
  for (ReplayWarmRing& r : warm_ring_) r = ReplayWarmRing{};
  net_.set_replay_warm(on);
}

bool World::model_drop_message(MsgId id) {
  if (replay_keyable()) {
    replay_acc_ = hash_combine(replay_acc_, 0xd40bull ^ mix64(id));
  }
  return net_.drop(id, /*forced=*/true);
}

std::optional<MsgId> World::model_duplicate_message(MsgId id) {
  const std::uint64_t rk =
      replay_keyable() ? hash_combine(replay_acc_, 0xd0b1ull ^ mix64(id)) : 0;
  if (rk) net_.begin_warm_step(rk);
  auto r = net_.duplicate(id);
  if (rk) {
    net_.end_warm_step();
    replay_acc_ = rk;
  }
  return r;
}

bool World::model_delay_message(MsgId id, VirtualTime extra) {
  if (replay_keyable()) {
    replay_acc_ = hash_combine(replay_acc_,
                               0xde1aull ^ hash_combine(mix64(id), extra));
  }
  return net_.delay(id, extra);
}

bool World::model_cut_link(ProcessId src, ProcessId dst) {
  if (replay_keyable()) {
    replay_acc_ =
        hash_combine(replay_acc_, 0x9a27ull ^ hash_combine(src, dst));
  }
  return net_.cut_link(src, dst);
}

bool World::model_heal_link(ProcessId src, ProcessId dst) {
  if (replay_keyable()) {
    replay_acc_ =
        hash_combine(replay_acc_, 0x4ea1ull ^ hash_combine(src, dst));
  }
  return net_.heal_link(src, dst);
}

bool World::model_restart_process(ProcessId pid) {
  FIXD_CHECK_MSG(pid < procs_.size(), "model_restart_process: bad id");
  if (!infos_[pid].crashed) return false;
  const std::uint64_t rk =
      replay_keyable() ? hash_combine(replay_acc_, 0x4e57ull ^ mix64(pid))
                       : 0;
  mark_state_dirty(pid);
  infos_[pid].crashed = false;
  eidx_sync_proc(pid);
  if (rk) {
    replay_acc_ = rk;
    warm_key_[pid] = rk;
  }
  return true;
}

bool World::retime_timer(ProcessId pid, TimerId id,
                         VirtualTime new_deadline) {
  FIXD_CHECK_MSG(pid < procs_.size(), "retime_timer: bad id");
  replay_break();
  mark_state_dirty(pid);
  bool ok = infos_[pid].timers.retime(id, new_deadline);
  eidx_sync_timers(pid);
  return ok;
}

bool World::cancel_timer(ProcessId pid, TimerId id) {
  FIXD_CHECK_MSG(pid < procs_.size(), "cancel_timer: bad id");
  replay_break();
  mark_state_dirty(pid);
  bool ok = infos_[pid].timers.cancel(id);
  eidx_sync_timers(pid);
  return ok;
}

bool World::verify_capture_cache(ProcessId pid) const {
  FIXD_CHECK_MSG(pid < procs_.size(), "verify: bad id");
  const auto& c = ckpt_cache_[pid];
  if (!c) return true;  // a cold cache is trivially consistent
  BinaryWriter w;
  procs_[pid]->save_root(w);
  auto equals = [](const std::vector<std::byte>& a,
                   const std::vector<std::byte>& b) {
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin());
  };
  if (!equals(w.bytes(), c->root)) return false;
  BinaryWriter iw;
  infos_[pid].save(iw);
  if (!equals(iw.bytes(), c->info)) return false;
  if (c->vclock != infos_[pid].vclock) return false;
  if (c->lamport != infos_[pid].lamport.now()) return false;
  const mem::PagedHeap* h = procs_[pid]->cow_heap();
  if (h != nullptr) {
    if (!c->heap_snap && c->heap_bytes.empty()) return false;
    // Bit-exact content compare through the shared wire format (a
    // HeapSnapshot serializes identically to the heap it captured).
    BinaryWriter hw;
    h->save(hw);
    if (c->heap_snap) {
      BinaryWriter sw;
      c->heap_snap->save(sw);
      if (!equals(hw.bytes(), sw.bytes())) return false;
    } else if (!equals(hw.bytes(), c->heap_bytes)) {
      return false;
    }
  }
  return true;
}

void World::restore_process(ProcessId pid, const ProcessCheckpoint& ckpt) {
  FIXD_CHECK_MSG(pid < procs_.size(), "restore: bad id");
  // State motion outside the dispatched-event stream: the replay chain
  // dies here; restore(WorldSnapshot) re-seeds it after the last process.
  replay_break();
  BinaryReader rr(ckpt.root);
  procs_[pid]->load_root(rr);
  mem::PagedHeap* h = procs_[pid]->cow_heap();
  if (ckpt.heap_snap) {
    FIXD_CHECK_MSG(h != nullptr, "restore: checkpoint has heap, process not");
    h->restore(*ckpt.heap_snap);
  } else if (!ckpt.heap_bytes.empty()) {
    FIXD_CHECK_MSG(h != nullptr, "restore: checkpoint has heap, process not");
    BinaryReader hr(ckpt.heap_bytes);
    h->load(hr);
  }
  BinaryReader ir(ckpt.info);
  infos_[pid].load(ir);
  // The restored info may have flipped lifecycle flags and replaced the
  // timer set wholesale. Flag-only invalidation: this rides the
  // explorer's restore-per-transition path, so the full resync is
  // deferred to eidx_ensure() at the next enabled-set materialization.
  eidx_valid_ = false;
  // Adopt the checkpoint's memo: it matches the content just restored
  // (cold components stay cold, which is the conservative direction).
  dcache_[pid] = ckpt.digest_memo;
  // The content changed; a by-value checkpoint cannot re-warm the capture
  // cache (no shared handle) — the shared overload below re-warms it.
  ckpt_cache_[pid].reset();
  warm_key_[pid] = 0;  // content no longer matches any replay key
}

void World::restore_process(
    ProcessId pid, const std::shared_ptr<const ProcessCheckpoint>& ckpt) {
  FIXD_CHECK_MSG(ckpt != nullptr, "restore: null checkpoint");
  if (ckpt_cache_[pid] == ckpt && capture_cache_valid(pid)) {
    return;  // the process already holds exactly this content
  }
  restore_process(pid, *ckpt);
  // Re-warm: the process now holds exactly this checkpoint's content, so
  // the next snapshot() shares the entry instead of re-capturing. Only COW
  // captures qualify — a serialized-heap checkpoint has no page table to
  // validate against, so it restores cold.
  if (ckpt->heap_snap || procs_[pid]->cow_heap() == nullptr) {
    ckpt_cache_[pid] = ckpt;
  }
}

WorldSnapshot World::snapshot(bool cow) {
  WorldSnapshot s;
  s.procs.reserve(procs_.size());
  for (ProcessId pid = 0; pid < procs_.size(); ++pid) {
    if (cow) {
      s.procs.push_back(capture_process_shared(pid));
    } else {
      s.procs.push_back(std::make_shared<const ProcessCheckpoint>(
          capture_process(pid, /*cow=*/false)));
    }
  }
  s.net = net_.snapshot();
  s.now = now_;
  s.step = step_;
  s.serial = g_snapshot_serial.fetch_add(1, std::memory_order_relaxed) + 1;
  return s;
}

void World::restore(const WorldSnapshot& snap) {
  FIXD_CHECK_MSG(snap.procs.size() == procs_.size(),
                 "snapshot process count mismatch");
  for (ProcessId pid = 0; pid < procs_.size(); ++pid) {
    restore_process(pid, snap.procs[pid]);
  }
  net_.restore(snap.net);
  now_ = snap.now;
  step_ = snap.step;
  // Re-seed the replay-warm chain on this snapshot's identity: the world
  // now holds exactly its content, so a deterministic re-execution from
  // here derives content-faithful per-event keys. Hand-built snapshots
  // (serial 0) and disabled warming leave the chain dead.
  replay_acc_ = (replay_warm_on_ && snap.serial != 0)
                    ? replay_chain_seed(snap.serial)
                    : 0;
}

std::unique_ptr<World> World::clone() {
  WorldSnapshot snap = snapshot(/*cow=*/true);
  return clone_from_snapshot(snap);
}

std::unique_ptr<World> World::clone_from_snapshot(
    const WorldSnapshot& snap) const {
  auto w = std::make_unique<World>(opts_);
  for (const auto& p : procs_) w->add_process(p->clone_behavior());
  w->seal();
  w->restore(snap);
  return w;
}

// Per-process component of digest(): root bytes plus full runtime info.
// Serializes into the shared scratch writer (no per-call allocation once
// the buffer has grown to working size).
std::uint64_t World::proc_full_digest(ProcessId pid) const {
  BinaryWriter& w = digest_scratch_;
  Hasher h;
  w.clear();
  procs_[pid]->save_root(w);
  h.update(w.bytes());
  w.clear();
  infos_[pid].save(w);
  h.update(w.bytes());
  return h.digest();
}

// Per-process component of mc_digest(): root bytes plus the canonical
// (path-noise-free) subset of runtime info.
std::uint64_t World::proc_mc_digest(ProcessId pid) const {
  BinaryWriter& w = digest_scratch_;
  Hasher h;
  w.clear();
  procs_[pid]->save_root(w);
  h.update(w.bytes());
  const ProcInfo& pi = infos_[pid];
  h.update_u64((pi.started ? 1 : 0) | (pi.crashed ? 2 : 0) |
               (pi.halted ? 4 : 0));
  w.clear();
  pi.rng.save(w);
  h.update(w.bytes());
  h.update_u64(pi.env_count);
  // Armed timers: kinds in armed order (ids/deadlines are path noise).
  for (const Timer& t : pi.timers.view()) h.update_u64(t.kind);
  return h.digest();
}

std::uint64_t World::digest_impl(bool cached) const {
  Hasher h;
  h.update_u64(now_);
  h.update_u64(step_);
  for (ProcessId pid = 0; pid < procs_.size(); ++pid) {
    std::uint64_t pd;
    if (cached) {
      ProcDigestMemo& e = dcache_[pid];
      if (!e.full_valid) {
        e.full = proc_full_digest(pid);
        e.full_valid = true;
      }
      pd = e.full;
    } else {
      pd = proc_full_digest(pid);
    }
    h.update_u64(pd);
    // The heap digest is folded fresh each call: PagedHeap invalidates
    // itself on every write, so heap content is covered even when the
    // mutation bypassed the World API (e.g. via a stashed reference).
    if (const mem::PagedHeap* heap = procs_[pid]->cow_heap()) {
      h.update_u64(cached ? heap->digest() : heap->digest_uncached());
    }
  }
  h.update_u64(cached ? net_.digest() : net_.digest_uncached());
  return h.digest();
}

std::uint64_t World::mc_digest_impl(bool cached) const {
  Hasher h;
  for (ProcessId pid = 0; pid < procs_.size(); ++pid) {
    std::uint64_t pd;
    if (cached) {
      ProcDigestMemo& e = dcache_[pid];
      if (!e.mc_valid) {
        e.mc = proc_mc_digest(pid);
        e.mc_valid = true;
      }
      pd = e.mc;
    } else {
      pd = proc_mc_digest(pid);
    }
    h.update_u64(pd);
    if (const mem::PagedHeap* heap = procs_[pid]->cow_heap()) {
      h.update_u64(cached ? heap->digest() : heap->digest_uncached());
    }
    h.update_u64(0x7133);  // separator
  }
  // In-flight messages as an order-independent multiset accumulator (the
  // wrapping sum of mixed content digests, maintained incrementally by
  // SimNetwork) — O(1) per call instead of re-sorting per-message digests.
  h.update_u64(cached ? net_.content_digest_acc()
                      : net_.content_digest_acc_uncached());
  // The partition mask gates enabledness, so two states differing only in
  // blocked links must never dedup together.
  h.update_u64(net_.links_digest());
  return h.digest();
}

std::uint64_t World::digest() const { return digest_impl(/*cached=*/true); }

std::uint64_t World::digest_uncached() const {
  return digest_impl(/*cached=*/false);
}

std::uint64_t World::mc_digest() const {
  return mc_digest_impl(/*cached=*/true);
}

std::uint64_t World::mc_digest_uncached() const {
  return mc_digest_impl(/*cached=*/false);
}

}  // namespace fixd::rt
