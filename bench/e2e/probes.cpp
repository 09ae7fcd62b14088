// Per-layer probes, run at the end of a traced run on the workload's own
// models. Every number here comes from timing public calls from outside
// or from counters the program already returns (ExploreStats,
// ScrollStats, TimeMachineStats); nothing inside src/ is instrumented.
#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>

#include "bench.hpp"
#include "ckpt/timemachine.hpp"
#include "common/hash.hpp"
#include "core/fixd.hpp"
#include "scroll/scroll.hpp"

namespace fixd::e2e {
namespace {

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Intervals between successive pause_check polls on one worker thread:
/// the explorer polls once per frontier pop, so an interval is one pop
/// plus one expansion. Each polling thread appends to its own lane, so
/// the hot path takes no lock; lanes are read after explore() has joined
/// its workers.
class ExpandClock {
 public:
  ExpandClock() : id_(next_id_.fetch_add(1) + 1) {}
  ExpandClock(const ExpandClock&) = delete;
  ExpandClock& operator=(const ExpandClock&) = delete;

  std::function<bool(const mc::ExploreStats&)> hook() {
    return [this](const mc::ExploreStats&) {
      tick();
      return false;
    };
  }

  void append_to(std::vector<double>& out) const {
    for (const Lane& l : lanes_) {
      out.insert(out.end(), l.us.begin(), l.us.end());
    }
  }

 private:
  struct Lane {
    Clock::time_point last;
    bool started = false;
    std::vector<double> us;
  };

  void tick() {
    // Keyed by a process-unique id, not the object address: a later
    // ExpandClock may reuse this one's storage.
    thread_local std::uint64_t owner = 0;
    thread_local Lane* lane = nullptr;
    if (owner != id_) {
      std::lock_guard<std::mutex> lk(mu_);
      lane = &lanes_.emplace_back();
      owner = id_;
    }
    const Clock::time_point now = Clock::now();
    if (lane->started) {
      lane->us.push_back(
          std::chrono::duration<double, std::micro>(now - lane->last).count());
    }
    lane->last = now;
    lane->started = true;
  }

  static inline std::atomic<std::uint64_t> next_id_{0};
  const std::uint64_t id_;
  std::mutex mu_;
  std::deque<Lane> lanes_;  ///< guarded by mu_ on insert; stable addresses
};

struct McTotals {
  std::uint64_t states = 0, transitions = 0, replayed = 0, steals = 0;
  double wall_ms = 0, worker_ms = 0, digest_ms = 0, snapshot_ms = 0;
  std::uint64_t peak_frontier = 0, visited = 0;
  std::size_t searches = 0;
  std::vector<double> expand_us;
};

/// One full instrumented search of the model, as the workload runs it.
mc::ExploreStats probe_search(const Model& m, McTotals& mt) {
  ExpandClock clock;
  mc::SysExploreOptions o = m.explore;
  o.install_invariants = m.install;
  o.pause_check = clock.hook();
  auto w = m.make();
  mc::SystemExplorer ex(*w, o);
  const mc::SysExploreResult res = ex.explore();
  const mc::ExploreStats& s = res.stats;
  mt.states += s.states;
  mt.transitions += s.transitions;
  mt.replayed += s.replayed_actions;
  mt.steals += s.steals;
  mt.wall_ms += s.wall_ms;
  mt.worker_ms += s.wall_ms * static_cast<double>(s.workers);
  mt.digest_ms += s.digest_ms;
  mt.snapshot_ms += s.snapshot_ms;
  mt.peak_frontier = std::max(mt.peak_frontier, s.peak_frontier_bytes);
  mt.visited = std::max(mt.visited, s.visited_resident_bytes);
  ++mt.searches;
  clock.append_to(mt.expand_us);
  return s;
}

/// The frontier of a single-worker search paused halfway, as trails from
/// the root: up to `cap` states "at the BFS midpoint".
std::vector<mc::Trail> midpoint_trails(const Model& m, std::uint64_t states,
                                       std::size_t cap) {
  mc::SysExploreOptions o = m.explore;
  o.install_invariants = m.install;
  o.workers = 1;
  const std::uint64_t half = std::max<std::uint64_t>(1, states / 2);
  o.pause_check = [half](const mc::ExploreStats& s) {
    return s.states >= half;
  };
  o.capture_frontier = true;
  auto w = m.make();
  mc::SystemExplorer ex(*w, o);
  mc::SysExploreResult res = ex.explore();
  std::vector<mc::Trail> out;
  const std::size_t n = res.frontier.size();
  const std::size_t take = std::min(n, cap);
  for (std::size_t i = 0; i < take; ++i) {
    out.push_back(std::move(res.frontier[i * n / take]));
  }
  return out;
}

struct RtTotals {
  std::vector<double> execute, digest, enabled, recheck, snapshot, restore;
  double replay_us = 0;
  std::uint64_t replay_actions = 0;
};

/// Times replay_trail on each trail, then the explorer's per-transition
/// World calls at each trail's end state: enabled set, execute one event,
/// canonical digest, invariant recheck, child snapshot, restore parent.
void probe_states(const Model& m, const std::vector<mc::Trail>& trails,
                  RtTotals& rt) {
  auto base = m.make();
  const bool abstract_time = m.explore.abstract_time;
  for (const mc::Trail& tr : trails) {
    const auto t0 = Clock::now();
    mc::SystemExplorer::replay_trail(*base, tr, m.install, abstract_time);
    rt.replay_us += us_since(t0);
    rt.replay_actions += tr.length();
  }
  std::uint64_t pick = 0x5eed;
  for (const mc::Trail& tr : trails) {
    auto w = base->clone();
    m.install(*w);
    w->set_abstract_time(abstract_time);
    for (const mc::SysAction& a : tr.steps) w->execute_event(a.event);
    w->clear_violations();
    const rt::WorldSnapshot parent = w->snapshot();

    auto t0 = Clock::now();
    const std::vector<rt::EventDesc> evs = w->enabled_events();
    rt.enabled.push_back(us_since(t0));
    if (evs.empty()) continue;
    pick = hash_combine(pick, evs.size());
    const rt::EventDesc& ev = evs[pick % evs.size()];

    t0 = Clock::now();
    w->execute_event(ev);
    rt.execute.push_back(us_since(t0));
    t0 = Clock::now();
    volatile std::uint64_t d = w->mc_digest();
    (void)d;
    rt.digest.push_back(us_since(t0));
    t0 = Clock::now();
    w->recheck_invariants();
    rt.recheck.push_back(us_since(t0));
    w->clear_violations();
    t0 = Clock::now();
    const rt::WorldSnapshot child = w->snapshot();
    rt.snapshot.push_back(us_since(t0));
    t0 = Clock::now();
    w->restore(parent);
    rt.restore.push_back(us_since(t0));
  }
}

struct RunTotals {
  double bare_ms = 0, scroll_ms = 0, ckpt_ms = 0;
  std::uint64_t bare_ev = 0, scroll_ev = 0, ckpt_ev = 0;
  std::uint64_t scroll_bytes = 0, ckpts = 0, retained = 0, ckpt_runs = 0;
  std::vector<double> attach_ms;
};

/// The protection tax, layer by layer: the same run bare, with only the
/// Scroll observing, with only the Time Machine (CIC) intercepting, and
/// the FixdController constructor that attaches both.
void probe_runs(const Model& m, bool smoke, RunTotals& rt) {
  const double target_ms = smoke ? 20 : 200;
  double model_bare_ms = 0;
  for (int rep = 0; rep < 1000 && (rep < 3 || model_bare_ms < target_ms);
       ++rep) {
    {
      auto w = m.make();
      const auto t0 = Clock::now();
      const rt::RunResult r = w->run();
      const double ms = ms_since(t0);
      model_bare_ms += ms;
      rt.bare_ms += ms;
      rt.bare_ev += r.steps;
    }
    {
      auto w = m.make();
      scroll::Scroll s(scroll::LoggingPreset::digests());
      w->add_observer(&s);
      const auto t0 = Clock::now();
      const rt::RunResult r = w->run();
      rt.scroll_ms += ms_since(t0);
      w->remove_observer(&s);
      rt.scroll_ev += r.steps;
      rt.scroll_bytes += s.stats().bytes;
    }
    {
      auto w = m.make();
      ckpt::TimeMachineOptions to;
      to.cic = true;
      ckpt::TimeMachine tm(*w, to);
      tm.attach();
      const auto t0 = Clock::now();
      const rt::RunResult r = w->run();
      rt.ckpt_ms += ms_since(t0);
      rt.ckpt_ev += r.steps;
      rt.ckpts += tm.stats().checkpoints - tm.stats().ckpt_initial;
      rt.retained += tm.retained_bytes();
      ++rt.ckpt_runs;
      tm.detach();
    }
    {
      auto w = m.make();
      core::FixdOptions fo;
      fo.install_invariants = m.install;
      const auto t0 = Clock::now();
      core::FixdController ctl(*w, fo);
      rt.attach_ms.push_back(ms_since(t0));
    }
  }
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void probe_layers(const std::vector<Model>& models, bool smoke, Report& rep) {
  const std::size_t state_cap = (smoke ? 200 : 2000) / models.size() + 1;
  McTotals mt;
  RtTotals rt;
  RunTotals runs;
  for (const Model& m : models) {
    const mc::ExploreStats s = probe_search(m, mt);
    probe_states(m, midpoint_trails(m, s.states, state_cap), rt);
    probe_runs(m, smoke, runs);
  }

  rep.layer("rt.execute_event_us", mean(rt.execute), "us", rt.execute.size());
  rep.layer("rt.mc_digest_us", mean(rt.digest), "us", rt.digest.size());
  rep.layer("rt.enabled_events_us", mean(rt.enabled), "us",
            rt.enabled.size());
  rep.layer("rt.recheck_invariants_us", mean(rt.recheck), "us",
            rt.recheck.size());
  rep.layer("rt.snapshot_us", mean(rt.snapshot), "us", rt.snapshot.size());
  rep.layer("rt.restore_us", mean(rt.restore), "us", rt.restore.size());
  rep.layer("rt.bare_events_per_s", ratio(runs.bare_ev, runs.bare_ms / 1e3),
            "events/s", runs.attach_ms.size());

  const double bare_us = ratio(runs.bare_ms * 1e3, runs.bare_ev);
  const std::size_t nruns = runs.attach_ms.size();
  rep.layer("scroll.us_per_event",
            ratio(runs.scroll_ms * 1e3, runs.scroll_ev) - bare_us, "us", nruns);
  rep.layer("scroll.bytes_per_event", ratio(runs.scroll_bytes, runs.scroll_ev),
            "B", nruns);
  rep.layer("ckpt.us_per_event",
            ratio(runs.ckpt_ms * 1e3, runs.ckpt_ev) - bare_us, "us", nruns);
  rep.layer("ckpt.checkpoints_per_event", ratio(runs.ckpts, runs.ckpt_ev),
            "ratio", nruns);
  rep.layer("ckpt.retained_kib", ratio(runs.retained / 1024.0, runs.ckpt_runs),
            "KiB", nruns);
  rep.layer("core.attach_ms", percentile(runs.attach_ms, 0.5), "ms", nruns);

  rep.layer("mc.states_per_s", ratio(mt.states, mt.wall_ms / 1e3), "states/s",
            mt.searches);
  rep.layer("mc.expand_us_p50", percentile(mt.expand_us, 0.5), "us",
            mt.expand_us.size());
  rep.layer("mc.expand_us_p99", percentile(mt.expand_us, 0.99), "us",
            mt.expand_us.size());
  rep.layer("mc.new_state_ratio", ratio(mt.states, mt.transitions), "ratio",
            mt.searches);
  rep.layer("mc.digest_share", ratio(mt.digest_ms, mt.worker_ms), "ratio",
            mt.searches);
  rep.layer("mc.snapshot_share", ratio(mt.snapshot_ms, mt.worker_ms), "ratio",
            mt.searches);
  rep.layer("mc.replayed_actions_per_state", ratio(mt.replayed, mt.states),
            "ratio", mt.searches);
  rep.layer("mc.replay_trail_us_per_action",
            ratio(rt.replay_us, rt.replay_actions), "us", rt.replay_actions);
  rep.layer("mc.steals", ratio(mt.steals, mt.searches), "count", mt.searches);
  rep.layer("mc.peak_frontier_kib", mt.peak_frontier / 1024.0, "KiB",
            mt.searches);
  rep.layer("mc.visited_kib", mt.visited / 1024.0, "KiB", mt.searches);
}

}  // namespace fixd::e2e
