// Figure 1 — The Scroll: cost of recording the distributed components'
// actions.
//
// The paper's claim: "only nondeterministic actions ... and their outcome
// need to be recorded by the Scroll". This bench quantifies what that buys:
// the Scroll (nondet-only) vs digests vs a liblog-style full-payload log,
// across workloads and message sizes, plus replay fidelity for each preset.
// A last table runs the Scroll as FixdController keeps it, behind the Time
// Machine's horizon, on the e2e protect workload's kv config at two run
// lengths.
#include <sys/resource.h>

#include <cstdio>

#include "apps/kv_store.hpp"
#include "apps/rep_counter.hpp"
#include "apps/token_ring.hpp"
#include "bench_util.hpp"
#include "common/hash.hpp"
#include "core/fixd.hpp"
#include "scroll/replay.hpp"

namespace {

using namespace fixd;
using bench::WallTimer;

struct RunCost {
  std::uint64_t events = 0;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::uint64_t resident = 0;  ///< Scroll::resident_bytes() after the run
  double run_ms = 0;
  bool replay_ok = false;
};

template <typename MakeWorld>
RunCost measure(MakeWorld make, scroll::LoggingPreset preset,
                bool check_replay) {
  RunCost cost;
  auto w = make();
  scroll::Scroll log(preset);
  w->add_observer(&log);
  WallTimer t;
  auto res = w->run(2000000);
  cost.run_ms = t.ms();
  cost.events = res.steps;
  cost.records = log.stats().records;
  cost.bytes = log.stats().bytes;
  cost.resident = log.resident_bytes();
  w->remove_observer(&log);
  if (check_replay) {
    auto fresh = make();
    auto rep = scroll::ReplayEngine::replay(*fresh, log);
    cost.replay_ok = rep.ok && rep.final_digest == w->digest();
  }
  return cost;
}

/// Prints one table; returns false when a replay diverged, or when
/// `max_digests_resident` is set and the "Scroll + digests" row keeps more
/// resident bytes per record.
template <typename MakeWorld>
bool bench_workload(const char* name, MakeWorld make,
                    double max_digests_resident = 0) {
  struct Preset {
    const char* name;
    scroll::LoggingPreset preset;
  } presets[] = {
      {"none (baseline)", [] {
         scroll::LoggingPreset p;
         p.schedule = p.rng = p.time_reads = p.env_reads = false;
         p.annotations = p.spec_events = false;
         return p;
       }()},
      {"Scroll (nondet only)", scroll::LoggingPreset::nondet_only()},
      {"Scroll + digests", scroll::LoggingPreset::digests()},
      {"liblog-style (full)", scroll::LoggingPreset::full()},
  };

  bench::header(std::string("Fig.1 / workload: ") + name);
  bench::row("%-22s %10s %10s %12s %10s %8s %14s", "logging", "events",
             "records", "bytes", "B/event", "replay", "resident B/rec");
  bench::rule();
  bool ok = true;
  for (const auto& p : presets) {
    bool can_replay = p.preset.schedule;
    RunCost c = measure(make, p.preset, can_replay);
    if (can_replay && !c.replay_ok) ok = false;
    const double resident =
        c.records ? static_cast<double>(c.resident) / c.records : 0.0;
    bench::row("%-22s %10llu %10llu %12llu %10.1f %8s %14.1f", p.name,
               (unsigned long long)c.events, (unsigned long long)c.records,
               (unsigned long long)c.bytes,
               c.events ? static_cast<double>(c.bytes) / c.events : 0.0,
               can_replay ? (c.replay_ok ? "exact" : "FAIL") : "n/a",
               resident);
    if (max_digests_resident > 0 && p.preset.sends && !p.preset.payloads &&
        resident > max_digests_resident) {
      std::printf("FAIL: %s keeps %.1f resident B/rec (gate %.1f)\n", p.name,
                  resident, max_digests_resident);
      ok = false;
    }
  }
  return ok;
}

/// FixdController's Scroll, trimmed as the horizon moves, on the e2e
/// protect workload's world (kv-store v2, four replicas, reordering
/// network, seed 1) at 20000 and 80000 ops. Returns false when the held
/// records' peak resident bytes at 80000 ops exceed 1.10x those at 20000:
/// the always-on path must hold O(horizon), not O(run).
bool bench_controller_scroll() {
  bench::header("Fig.1 / FixdController Scroll (protect's kv config)");
  bench::row("%-8s %9s %8s %10s %10s %12s %12s", "ops", "events", "held",
             "trimmed", "resident", "peak resid.", "ru_maxrss");
  bench::rule();
  std::size_t peak[2] = {0, 0};
  const std::uint64_t ops[2] = {20000, 80000};
  for (int i = 0; i < 2; ++i) {
    apps::KvConfig cfg;
    cfg.total_ops = ops[i];
    cfg.key_space = 64;
    rt::WorldOptions wo;
    wo.seed = 1;
    wo.net = net::NetworkOptions::reordering();
    wo.net.seed = hash_combine(0x70726f74656374ull, 1);
    auto w = apps::make_kv_world(4, 2, cfg, wo);
    core::FixdOptions fo;
    fo.install_invariants = apps::install_kv_invariants;
    core::FixdController ctl(*w, fo);
    const core::FixdReport rep = ctl.run_protected();
    if (!rep.completed || rep.faults_detected != 0) {
      std::printf("FAIL: the protected kv run at %llu ops did not complete "
                  "cleanly\n", (unsigned long long)ops[i]);
      return false;
    }
    peak[i] = ctl.the_scroll().peak_resident_bytes();
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    bench::row("%-8llu %9llu %8llu %10llu %10zu %12zu %9.2f MiB",
               (unsigned long long)ops[i],
               (unsigned long long)rep.final_run.steps,
               (unsigned long long)rep.scroll_records,
               (unsigned long long)rep.scroll_trimmed,
               ctl.the_scroll().resident_bytes(), peak[i],
               static_cast<double>(ru.ru_maxrss) / 1024.0);
  }
  // resident: the held records' chunks at the end of the run; peak: the
  // most they took at any point of it (the gate). ru_maxrss is the
  // process's peak so far, this table's earlier runs included.
  const double ratio =
      peak[0] ? static_cast<double>(peak[1]) / static_cast<double>(peak[0])
              : 0.0;
  std::printf("peak resident at 80000 / 20000 ops: %.2fx (gate 1.10x)\n",
              ratio);
  if (peak[0] == 0 || ratio > 1.10) {
    std::printf("FAIL: the controller's Scroll grows with the run\n");
    return false;
  }
  return true;
}

}  // namespace

int main() {
  std::printf("FixD reproduction — Figure 1: the Scroll (logging cost and "
              "replay fidelity)\n");

  bool ok = true;
  ok &= bench_workload("rep-counter 4p x 16 incs", [] {
    return apps::make_counter_world(4, 2, apps::CounterConfig{16});
  });

  ok &= bench_workload("token-ring 5p x 40 rounds", [] {
    apps::TokenRingConfig cfg;
    cfg.target_rounds = 40;
    return apps::make_token_ring_world(5, 2, cfg);
  });

  // The Scroll's footprint gate: the digests preset, which FixdController
  // records under, keeps at most 16 resident bytes per kv-store record.
  ok &= bench_workload("kv-store 3p x 400 ops (64B values)", [] {
    apps::KvConfig cfg;
    cfg.total_ops = 400;
    cfg.key_space = 64;
    return apps::make_kv_world(3, 2, cfg);
  }, 16.0);

  ok &= bench_controller_scroll();

  std::printf(
      "\nShape check (paper): nondet-only logging is a small fraction of\n"
      "full interaction logging yet still replays the run exactly.\n");
  if (!ok) {
    std::printf("FAIL: a recorded run did not replay exactly, the kv-store "
                "digests Scroll outgrew its footprint gate, or the "
                "controller's Scroll grew with the run\n");
    return 1;
  }
  return 0;
}
