// The Time Machine: checkpoint policies, rollback with channel
// reconciliation and message re-injection, reset.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "apps/rep_counter.hpp"
#include "apps/kv_store.hpp"
#include "ckpt/timemachine.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"

namespace fixd::ckpt {
namespace {

using apps::CounterConfig;
using apps::make_counter_world;

TEST(TimeMachine, AttachTakesInitialCheckpoints) {
  auto w = make_counter_world(3, 2, CounterConfig{2});
  TimeMachine tm(*w);
  tm.attach();
  for (ProcessId p = 0; p < w->size(); ++p) {
    ASSERT_EQ(tm.store(p).size(), 1u);
    EXPECT_EQ(tm.store(p).entries()[0].reason, CkptReason::kInitial);
  }
  EXPECT_EQ(tm.stats().ckpt_initial, 3u);
}

TEST(TimeMachine, CicCheckpointsOnCommunicationEvents) {
  auto w = make_counter_world(3, 2, CounterConfig{2});
  TimeMachineOptions o;
  o.cic = true;
  TimeMachine tm(*w, o);
  tm.attach();
  w->run();
  // One checkpoint before every receive, plus one after each event that
  // sent messages (here: the three start handlers do all the sending).
  std::uint64_t delivered = w->network().stats().delivered;
  EXPECT_EQ(tm.stats().ckpt_cic, delivered + 3);
}

TEST(TimeMachine, CicKeepsPureSendersCheckpointed) {
  // The kv primary only sends (timer-driven); receive-only CIC would leave
  // it with just the initial checkpoint and every backup would domino to
  // the start. Send-side CIC keeps the latest line shallow.
  apps::KvConfig cfg;
  cfg.total_ops = 30;
  cfg.key_space = 8;
  auto w = apps::make_kv_world(3, 2, cfg);
  TimeMachineOptions o;
  o.cic = true;
  TimeMachine tm(*w, o);
  tm.attach();
  w->run(100000);
  EXPECT_GT(tm.store(0).size(), 1u);  // the primary has checkpoints
  RecoveryLine line = tm.compute_line();
  EXPECT_EQ(line.line.total_rollback(), 0u);  // latest line is consistent
}

TEST(TimeMachine, PeriodicPolicyCounts) {
  auto w = make_counter_world(3, 2, CounterConfig{4});
  TimeMachineOptions o;
  o.periodic_interval = 5;
  TimeMachine tm(*w, o);
  tm.attach();
  w->run();
  std::uint64_t expected = 0;
  for (ProcessId p = 0; p < w->size(); ++p) {
    expected += w->events_handled(p) / 5;
  }
  EXPECT_EQ(tm.stats().ckpt_periodic, expected);
}

TEST(TimeMachine, RollbackRestoresConsistentStateAndRunCompletes) {
  auto w = make_counter_world(3, 2, CounterConfig{3});
  TimeMachineOptions o;
  o.cic = true;
  TimeMachine tm(*w, o);
  tm.attach();

  w->run(12);  // partway through
  // Roll the world back: pin p0 at its latest checkpoint.
  std::size_t idx = tm.store(0).size() - 1;
  RecoveryLine line = tm.rollback_to(0, idx);
  EXPECT_TRUE(RecoveryLineSolver::consistent(
      [&] {
        std::vector<std::vector<VectorClock>> h(w->size());
        for (ProcessId p = 0; p < w->size(); ++p)
          for (const auto& e : tm.store(p).entries())
            h[p].push_back(e.data->vclock);
        return h;
      }(),
      line.line.index));

  // After rollback the run must still complete correctly: nothing lost,
  // nothing duplicated.
  rt::RunResult res = w->run();
  EXPECT_EQ(res.reason, rt::StopReason::kAllHalted);
  EXPECT_FALSE(w->has_violation()) << w->violations().front().to_string();
  for (ProcessId p = 0; p < w->size(); ++p) {
    const auto& c = dynamic_cast<const apps::ICounter&>(w->process(p));
    EXPECT_EQ(c.total(), apps::counter_expected_sum(3, CounterConfig{3}));
  }
}

class RollbackSweep : public ::testing::TestWithParam<std::uint64_t> {};

// Property: interrupt a run at a random point, roll back to the most recent
// line, resume — the protocol still completes with the correct result.
// This exercises dropped sent-after-line messages AND re-injected
// crossed-line messages.
TEST_P(RollbackSweep, RollbackResumeAlwaysCompletes) {
  std::uint64_t seed = GetParam();
  auto w = make_counter_world(4, 2, CounterConfig{3});
  w->set_scheduler(std::make_unique<rt::RandomScheduler>(seed));
  TimeMachineOptions o;
  o.cic = true;
  TimeMachine tm(*w, o);
  tm.attach();

  std::uint64_t cut = 5 + (seed % 25);
  w->run(cut);
  if (!w->all_halted()) {
    ProcessId failed = static_cast<ProcessId>(seed % w->size());
    std::size_t idx = tm.store(failed).size() - 1;
    if (idx > 0 && (seed % 3) == 0) --idx;  // sometimes deeper
    tm.rollback_to(failed, idx);
  }
  rt::RunResult res = w->run();
  EXPECT_EQ(res.reason, rt::StopReason::kAllHalted);
  ASSERT_FALSE(w->has_violation());
  for (ProcessId p = 0; p < w->size(); ++p) {
    const auto& c = dynamic_cast<const apps::ICounter&>(w->process(p));
    EXPECT_EQ(c.total(), apps::counter_expected_sum(4, CounterConfig{3}))
        << "seed " << seed << " p" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RollbackSweep,
                         ::testing::Range<std::uint64_t>(1, 25));

TEST(TimeMachine, CowCheckpointsAreCheapForHeapBackedState) {
  apps::KvConfig cfg;
  cfg.total_ops = 40;
  cfg.key_space = 64;
  auto w = apps::make_kv_world(2, 2, cfg);
  TimeMachine tm(*w);
  tm.attach();
  w->run();
  // COW checkpoints retain page tables, not full content: far below the
  // serialized store size per checkpoint.
  std::uint64_t retained = tm.retained_bytes();
  rt::ProcessCheckpoint full = w->capture_process(0, /*cow=*/false);
  EXPECT_GT(full.heap_bytes.size(), 0u);
  EXPECT_LT(retained / tm.stats().checkpoints,
            full.heap_bytes.size() + full.root.size());
}

TEST(TimeMachine, ResetStartsFreshEra) {
  auto w = make_counter_world(3, 2, CounterConfig{2});
  TimeMachineOptions o;
  o.cic = true;
  TimeMachine tm(*w, o);
  tm.attach();
  w->run(10);
  EXPECT_GT(tm.store(0).size() + tm.store(1).size(), 2u);
  tm.reset();
  for (ProcessId p = 0; p < w->size(); ++p) {
    EXPECT_EQ(tm.store(p).size(), 1u);
    EXPECT_EQ(tm.store(p).entries()[0].reason, CkptReason::kInitial);
  }
}

TEST(TimeMachine, RollbackTruncatesFutureCheckpoints) {
  auto w = make_counter_world(3, 2, CounterConfig{3});
  TimeMachineOptions o;
  o.cic = true;
  TimeMachine tm(*w, o);
  tm.attach();
  w->run(15);
  ASSERT_GT(tm.store(0).size(), 1u);
  RecoveryLine line = tm.rollback_to(0, 0);  // back to initial
  for (ProcessId p = 0; p < w->size(); ++p) {
    EXPECT_EQ(tm.store(p).size(), line.line.index[p] + 1);
  }
}

TEST(TimeMachine, DetachStopsCheckpointing) {
  auto w = make_counter_world(2, 2, CounterConfig{2});
  TimeMachineOptions o;
  o.cic = true;
  TimeMachine tm(*w, o);
  tm.attach();
  w->run(3);
  std::uint64_t count = tm.stats().checkpoints;
  tm.detach();
  w->run(5);
  EXPECT_EQ(tm.stats().checkpoints, count);
}

// --- Re-injection oracle -----------------------------------------------------
//
// A reference observer keeps what the delivered-message log must
// reproduce: a full copy of every delivered message and the receiver's own
// clock component after it. It never drops one. A rollback must re-inject
// exactly the crossings it holds, in log order. A crossing at or behind the
// Time Machine's horizon would be one the log has dropped, and so lost; the
// reference counts those, and must find none.

class ReferenceLog final : public rt::RuntimeObserver {
 public:
  void on_deliver(const rt::World& w, const net::Message& msg) override {
    records_.push_back({msg, w.vclock_of(msg.dst)[msg.dst]});
  }

  struct Rollback {
    std::vector<net::Message> reinjected;  ///< in log order
    std::size_t lost = 0;  ///< crossings at or behind the horizon
  };

  /// What a rollback to `cut` re-injects, and how many of those crossings
  /// lie at or behind `horizon` (per process, its own clock component);
  /// forgets every delivery the rollback undoes.
  Rollback roll_back(const std::vector<VectorClock>& cut,
                     const std::vector<std::uint64_t>& horizon) {
    Rollback out;
    std::deque<Record> keep;
    for (Record& r : records_) {
      const net::Message& m = r.msg;
      if (r.dst_own_after <= cut[m.dst][m.dst]) {
        keep.push_back(std::move(r));
        continue;
      }
      if (m.vclock[m.src] <= cut[m.src][m.src]) {
        if (r.dst_own_after <= horizon[m.dst]) ++out.lost;
        out.reinjected.push_back(m);
      }
    }
    records_ = std::move(keep);
    return out;
  }

 private:
  struct Record {
    net::Message msg;
    std::uint64_t dst_own_after;
  };
  std::deque<Record> records_;
};

void expect_same_message(const net::Message& got, const net::Message& want,
                         std::size_t i) {
  EXPECT_EQ(got.src, want.src) << "message " << i;
  EXPECT_EQ(got.dst, want.dst) << "message " << i;
  EXPECT_EQ(got.tag, want.tag) << "message " << i;
  EXPECT_EQ(got.payload, want.payload) << "message " << i;
  EXPECT_EQ(got.sent_at, want.sent_at) << "message " << i;
  EXPECT_EQ(got.latency, want.latency) << "message " << i;
  EXPECT_EQ(got.lamport, want.lamport) << "message " << i;
  EXPECT_EQ(got.vclock, want.vclock) << "message " << i;
  EXPECT_EQ(got.spec_taints, want.spec_taints) << "message " << i;
  EXPECT_EQ(got.control, want.control) << "message " << i;
  EXPECT_EQ(got.content_digest(), want.content_digest()) << "message " << i;
}

constexpr std::size_t kDefaultStore = TimeMachineOptions{}.store_capacity;

/// Rolls `w` back at a random (pid, index), through rollback_pinned when
/// `pinned` is set, and checks the drops and the re-injections against
/// `ref`; adds the crossings `ref` found behind the horizon to `lost`.
void rollback_against_reference(rt::World& w, TimeMachine& tm,
                                ReferenceLog& ref, Rng& rng, bool pinned,
                                std::size_t& lost) {
  const std::size_t n = w.size();
  std::vector<std::uint64_t> horizon;
  for (ProcessId p = 0; p < n; ++p) {
    horizon.push_back(tm.store(p).entries().front().data->vclock[p]);
  }
  std::unordered_set<MsgId> before;
  std::vector<net::Message> in_flight;
  for (const net::Message* m : w.network().pending()) {
    before.insert(m->id);
    in_flight.push_back(*m);
  }

  RecoveryLine rl;
  if (pinned) {
    std::vector<std::ptrdiff_t> pins(n, -1);
    for (ProcessId p = 0; p < n; ++p) {
      if (rng.next_below(2) == 0) {
        pins[p] = static_cast<std::ptrdiff_t>(
            rng.next_below(tm.store(p).size()));
      }
    }
    rl = tm.rollback_pinned(pins);
  } else {
    const auto pid = static_cast<ProcessId>(rng.next_below(n));
    rl = tm.rollback_to(pid, rng.next_below(tm.store(pid).size()));
  }

  std::vector<VectorClock> cut;
  for (ProcessId p = 0; p < n; ++p) {
    cut.push_back(tm.store(p).at(rl.line.index[p]).data->vclock);
  }
  std::size_t dropped = 0;
  for (const net::Message& m : in_flight) {
    if (m.vclock[m.src] > cut[m.src][m.src]) ++dropped;
  }
  const ReferenceLog::Rollback ref_rl = ref.roll_back(cut, horizon);
  const std::vector<net::Message>& want = ref_rl.reinjected;

  // Re-injected messages take fresh ids, so they are the pending messages
  // not pending before, in id order.
  std::vector<const net::Message*> got;
  for (const net::Message* m : w.network().pending()) {
    if (!before.contains(m->id)) got.push_back(m);
  }
  std::sort(got.begin(), got.end(),
            [](const net::Message* a, const net::Message* b) {
              return a->id < b->id;
            });

  EXPECT_EQ(rl.dropped, dropped);
  EXPECT_EQ(rl.reinjected, want.size());
  EXPECT_EQ(ref_rl.lost, 0u) << "crossing(s) behind the horizon";
  lost += ref_rl.lost;
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_same_message(*got[i], want[i], i);
  }
}

struct OracleCase {
  bool kv = false;
  std::uint64_t seed = 1;
  std::size_t store_capacity = kDefaultStore;
};

void PrintTo(const OracleCase& c, std::ostream* os) {
  *os << (c.kv ? "kv" : "counter") << " seed " << c.seed
      << " store capacity " << c.store_capacity;
}

class ReinjectionOracle : public ::testing::TestWithParam<OracleCase> {};

std::unique_ptr<rt::World> make_oracle_world(const OracleCase& c) {
  rt::WorldOptions wo;
  wo.seed = c.seed;
  wo.net = net::NetworkOptions::reordering();
  wo.net.seed = hash_combine(0x6f7261636c65ull, c.seed);
  if (c.kv) {
    apps::KvConfig cfg;
    cfg.total_ops = 60;
    cfg.key_space = 8;
    return apps::make_kv_world(4, 2, cfg, wo);
  }
  return make_counter_world(4, 2, CounterConfig{3}, wo);
}

struct OracleRun {
  std::uint64_t reinjected = 0;  ///< messages the rollbacks re-injected
  std::size_t lost = 0;          ///< crossings the reference found lost
  std::uint64_t advances = 0;    ///< TimeMachineStats::horizon_advances
};

// Three rollbacks per run, alternating rollback_to and rollback_pinned, so
// later ones read a log that earlier ones compacted; the run then
// finishes, which it cannot do if a rollback lost a crossing.
OracleRun run_oracle(const OracleCase& c) {
  auto w = make_oracle_world(c);
  TimeMachineOptions o;
  o.cic = true;
  o.store_capacity = c.store_capacity;
  TimeMachine tm(*w, o);
  ReferenceLog ref;
  w->add_observer(&ref);
  tm.attach();

  OracleRun run;
  Rng rng(c.seed);
  for (int round = 0; round < 3; ++round) {
    w->run(20 + rng.next_below(40));
    if (w->all_halted()) break;
    rollback_against_reference(*w, tm, ref, rng, round % 2 == 1, run.lost);
    if (::testing::Test::HasFatalFailure()) break;
  }
  if (!::testing::Test::HasFatalFailure()) {
    rt::RunResult res = w->run(200000);
    EXPECT_EQ(res.reason, rt::StopReason::kAllHalted);
    EXPECT_FALSE(w->has_violation());
    if (!c.kv) {
      for (ProcessId p = 0; p < w->size(); ++p) {
        const auto& ctr = dynamic_cast<const apps::ICounter&>(w->process(p));
        EXPECT_EQ(ctr.total(),
                  apps::counter_expected_sum(4, CounterConfig{3}))
            << "p" << p;
      }
    }
  }
  w->remove_observer(&ref);
  run.reinjected = tm.stats().messages_reinjected;
  run.advances = tm.stats().horizon_advances;
  return run;
}

TEST_P(ReinjectionOracle, ReinjectsWhatFullCopiesPredict) {
  run_oracle(GetParam());
}

std::vector<OracleCase> oracle_cases() {
  std::vector<OracleCase> cases;
  for (bool kv : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      // Stores far smaller than the run: the horizon advances, and the log
      // drops the deliveries behind it.
      for (std::size_t cap : {kDefaultStore, std::size_t{2}, std::size_t{3},
                              std::size_t{8}}) {
        cases.push_back({kv, seed, cap});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, ReinjectionOracle, ::testing::ValuesIn(oracle_cases()),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return std::string(info.param.kv ? "kv" : "counter") + "_seed" +
             std::to_string(info.param.seed) + "_store" +
             std::to_string(info.param.store_capacity);
    });

// The oracle is only as strong as its runs: across seeds, rollbacks must
// actually re-inject at every store capacity, the small stores' horizons
// must advance in every run (so that the log has dropped deliveries by the
// time a rollback reads it), and no crossing may be lost.
TEST(ReinjectionOracleRuns, ReinjectSomeMessages) {
  for (std::size_t cap : {kDefaultStore, std::size_t{2}, std::size_t{3},
                          std::size_t{8}}) {
    for (bool kv : {false, true}) {
      SCOPED_TRACE(std::string(kv ? "kv" : "counter") + " store " +
                   std::to_string(cap));
      OracleRun total;
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const OracleRun run = run_oracle({kv, seed, cap});
        total.reinjected += run.reinjected;
        total.lost += run.lost;
        if (cap < kDefaultStore) {
          EXPECT_GE(run.advances, 1u) << "seed " << seed;
        }
      }
      EXPECT_GT(total.reinjected, 0u);
      EXPECT_EQ(total.lost, 0u);
    }
  }
}

// --- the delivered log's horizon trim ------------------------------------
//
// A shadow log fed the same deliveries, and trimmed by its own retain_if,
// must hold the same records after every advance, through rollbacks; the
// horizon the listener is given names the crossing messages the shadow
// holds.

class ShadowLog final : public rt::RuntimeObserver {
 public:
  void on_deliver(const rt::World& w, const net::Message& msg) override {
    log.append(msg, w.vclock_of(msg.dst)[msg.dst]);
  }
  DeliveredLog log;
};

/// Every record of `log` as its head fields and body bytes, oldest first.
std::vector<std::vector<std::uint64_t>> contents(const DeliveredLog& log) {
  std::vector<std::vector<std::uint64_t>> out;
  log.for_each([&](const DeliveredLog::View& v) {
    std::vector<std::uint64_t> r{v.head.src, v.head.dst, v.head.send_stamp,
                                 v.head.dst_own_after};
    for (std::byte b : v.body) r.push_back(static_cast<std::uint64_t>(b));
    out.push_back(std::move(r));
  });
  return out;
}

TEST(TimeMachine, HorizonTrimHoldsWhatAFullRetainHolds) {
  for (std::size_t cap : {std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
    std::uint64_t advances = 0;
    for (bool kv : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(std::string(kv ? "kv" : "counter") + " seed " +
                     std::to_string(seed) + " store " + std::to_string(cap));
        const OracleCase c{kv, seed, cap};
        auto w = make_oracle_world(c);
        TimeMachineOptions o;
        o.cic = true;
        o.store_capacity = cap;
        TimeMachine tm(*w, o);
        ShadowLog shadow;
        w->add_observer(&shadow);
        const auto own_clocks = [&] {
          std::vector<std::uint64_t> own;
          for (ProcessId p = 0; p < w->size(); ++p) {
            own.push_back(tm.store(p).entries().front().data->vclock[p]);
          }
          return own;
        };
        tm.set_horizon_listener([&](const TimeMachine::Horizon& h) {
          ASSERT_FALSE(h.reset);
          const std::vector<std::uint64_t> own = own_clocks();
          shadow.log.retain_if([&](const DeliveredLog::View& v) {
            return v.head.dst_own_after > own[v.head.dst];
          });
          EXPECT_EQ(contents(tm.delivered_log()), contents(shadow.log));
          // The crossing stamps the trim pass noted: the least send stamp,
          // per sender, of the held or pending messages it sent at or
          // behind its horizon.
          std::vector<std::uint64_t> least(w->size(), ~std::uint64_t{0});
          const auto note = [&](ProcessId src, std::uint64_t stamp) {
            if (stamp <= own[src]) least[src] = std::min(least[src], stamp);
          };
          shadow.log.for_each([&](const DeliveredLog::View& v) {
            note(v.head.src, v.head.send_stamp);
          });
          for (const net::Message* m : w->network().pending()) {
            note(m->src, m->vclock[m->src]);
          }
          EXPECT_EQ(h.crossing_send_stamps, least);
          std::uint64_t serial = ~std::uint64_t{0};
          for (ProcessId p = 0; p < w->size(); ++p) {
            serial = std::min(
                serial, tm.store(p).entries().front().data->capture_serial);
          }
          EXPECT_EQ(h.capture_serial, serial);
          ++advances;
        });
        tm.attach();

        Rng rng(seed);
        for (int round = 0; round < 3 && !w->all_halted(); ++round) {
          w->run(20 + rng.next_below(40));
          const auto pid = static_cast<ProcessId>(rng.next_below(w->size()));
          const RecoveryLine rl =
              tm.rollback_to(pid, rng.next_below(tm.store(pid).size()));
          // A rollback forgets every delivery after the receiver's cut.
          shadow.log.retain_if([&](const DeliveredLog::View& v) {
            const ProcessId d = v.head.dst;
            const auto& cut = tm.store(d).at(rl.line.index[d]);
            return v.head.dst_own_after <= cut.data->vclock[d];
          });
          EXPECT_EQ(contents(tm.delivered_log()), contents(shadow.log));
        }
        w->run(200000);
        EXPECT_TRUE(w->all_halted());
        w->remove_observer(&shadow);
        tm.set_horizon_listener({});
      }
    }
    EXPECT_GT(advances, 50u) << "store " << cap;
  }
}

// After a long CIC run in small stores, the horizon (every store's front)
// is a consistent line, no store exceeds its capacity, and the log holds
// only deliveries after the horizon.
TEST(TimeMachine, HorizonIsAConsistentLineAheadOfTheLog) {
  apps::KvConfig cfg;
  cfg.total_ops = 400;
  cfg.key_space = 8;
  auto w = apps::make_kv_world(4, 2, cfg);
  TimeMachineOptions o;
  o.cic = true;
  o.store_capacity = 8;
  TimeMachine tm(*w, o);
  tm.attach();
  w->run(200000);
  EXPECT_GT(tm.stats().horizon_advances, 10u);

  std::vector<std::vector<VectorClock>> fronts(w->size());
  for (ProcessId p = 0; p < w->size(); ++p) {
    EXPECT_LE(tm.store(p).size(), 8u);
    fronts[p].push_back(tm.store(p).entries().front().data->vclock);
  }
  EXPECT_TRUE(RecoveryLineSolver::consistent(
      fronts, std::vector<std::size_t>(w->size(), 0)));

  std::size_t behind = 0;
  DeliveredLog held = tm.delivered_log();  // a copy, to read its records
  held.retain_if([&](const DeliveredLog::View& v) {
    if (v.head.dst_own_after <= fronts[v.head.dst][0][v.head.dst]) ++behind;
    return true;
  });
  EXPECT_EQ(behind, 0u);
  EXPECT_LT(tm.delivered_log().size(), w->network().stats().delivered);
}

}  // namespace
}  // namespace fixd::ckpt
