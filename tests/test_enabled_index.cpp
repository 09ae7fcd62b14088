// The incremental enabled-event index: differential testing against the
// from-scratch oracle.
//
// Contract under test (see World::enabled_events): the index-materialized
// enabled set is bit-identical — order included — to the full rescan
// (`enabled_events_uncached`) after *every* mutation path: event dispatch
// (start/deliver/timer, suppressed or not), direct network surgery
// (submit/take/drop/duplicate/mutate/reinject), timer arm/cancel/fire,
// lifecycle flips (crash/uncrash/halt), timed-mode time warps, and every
// state-motion path (snapshot/restore, clone_from_snapshot, per-process
// checkpoint restore, Time Machine rollback). quiescent() must agree with
// the oracle's emptiness in O(1).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "ckpt/timemachine.hpp"
#include "common/rng.hpp"
#include "net/network.hpp"
#include "rt/scheduler.hpp"
#include "rt/world.hpp"

namespace fixd::rt {
namespace {

/// A process whose handlers exercise every enabled-set mutation reachable
/// from application code: timer arms and kind-cancels, sends to varying
/// destinations, occasional halts. All choices draw from the world RNG,
/// so runs are deterministic per world seed.
class ScriptProc final : public ProcessBase<ScriptProc> {
 public:
  void on_start(Context& ctx) override {
    for (int i = 0; i < 2; ++i) {
      ctx.set_timer(1 + ctx.random_u64() % 9,
                    static_cast<std::uint32_t>(i % 3));
    }
    ctx.send((ctx.self() + 1) % ctx.world_size(), 1, {});
  }

  void on_message(Context& ctx, const net::Message&) override {
    ++handled_;
    std::uint64_t r = ctx.random_u64();
    switch (r % 6) {
      case 0:
        ctx.set_timer(1 + r % 7, static_cast<std::uint32_t>(r % 3));
        break;
      case 1:
        ctx.cancel_timers(static_cast<std::uint32_t>(r % 3));
        break;
      case 2:
        ctx.send(static_cast<ProcessId>((r / 8) % ctx.world_size()), 2, {});
        break;
      case 3:
        ctx.send((ctx.self() + 1) % ctx.world_size(), 3, {std::byte{1}});
        ctx.set_timer(2 + r % 5, 1);
        break;
      case 4:
        break;  // no-op event
      default:
        if (handled_ > 20) ctx.halt();
        break;
    }
  }

  void on_timer(Context& ctx, const Timer& t) override {
    ++fired_;
    std::uint64_t r = ctx.random_u64();
    if (r % 3 == 0) {
      ctx.send(static_cast<ProcessId>((r / 4) % ctx.world_size()), 4, {});
    }
    if (r % 4 == 0) ctx.set_timer(1 + r % 6, t.kind);
  }

  void save_root(BinaryWriter& w) const override {
    w.write_u64(handled_);
    w.write_u64(fired_);
  }
  void load_root(BinaryReader& r) override {
    handled_ = r.read_u64();
    fired_ = r.read_u64();
  }
  std::string type_name() const override { return "script-proc"; }

 private:
  std::uint64_t handled_ = 0;
  std::uint64_t fired_ = 0;
};

std::unique_ptr<World> make_script_world(std::size_t n,
                                         net::NetworkOptions nopts,
                                         std::uint64_t seed,
                                         bool abstract_time = true) {
  WorldOptions opts;
  opts.net = nopts;
  opts.seed = seed;
  opts.abstract_time = abstract_time;
  opts.stop_on_violation = false;
  auto w = std::make_unique<World>(opts);
  for (std::size_t i = 0; i < n; ++i) {
    w->add_process(std::make_unique<ScriptProc>());
  }
  w->seal();
  return w;
}

void expect_enabled_match(World& w, const std::string& label) {
  auto inc = w.enabled_events();
  auto unc = w.enabled_events_uncached();
  ASSERT_EQ(inc.size(), unc.size()) << label;
  for (std::size_t i = 0; i < inc.size(); ++i) {
    ASSERT_EQ(inc[i], unc[i])
        << label << " at index " << i << ": index=" << inc[i].to_string()
        << "@" << inc[i].at << " oracle=" << unc[i].to_string() << "@"
        << unc[i].at;
  }
  ASSERT_EQ(w.quiescent(), unc.empty()) << label;
}

net::Message make_msg(ProcessId src, ProcessId dst, std::uint64_t r,
                      std::size_t world_size) {
  net::Message m;
  m.src = src;
  m.dst = dst;
  m.tag = static_cast<net::Tag>(r % 5);
  m.payload = {static_cast<std::byte>(r)};
  // Deliveries merge the piggybacked clock; a directly crafted message
  // must carry one sized like the world's.
  m.vclock = VectorClock(world_size);
  return m;
}

// ---------------------------------------------------------------------------
// Randomized op-sequence differential
// ---------------------------------------------------------------------------

struct FuzzCase {
  std::uint64_t seed;
  bool fifo;
  bool toggle_time;  ///< randomly flip abstract/timed mid-sequence
};

class EnabledIndexFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(EnabledIndexFuzz, RandomOpSequenceMatchesOracle) {
  const FuzzCase fc = GetParam();
  Rng rng(fc.seed);
  net::NetworkOptions nopts =
      fc.fifo ? net::NetworkOptions::reliable_fifo()
              : net::NetworkOptions::reordering(1, 4);
  const std::size_t n = 4;
  auto w = make_script_world(n, nopts, fc.seed);
  w->set_scheduler(std::make_unique<RandomScheduler>(fc.seed));
  expect_enabled_match(*w, "initial");

  std::vector<WorldSnapshot> snaps;
  std::vector<std::pair<ProcessId, ProcessCheckpoint>> ckpts;
  for (int i = 0; i < 250; ++i) {
    const std::string label = "op " + std::to_string(i);
    switch (rng.next_below(16)) {
      case 0:
        if (snaps.size() < 3) snaps.push_back(w->snapshot());
        break;
      case 1:
        if (!snaps.empty()) w->restore(snaps[rng.next_below(snaps.size())]);
        break;
      case 2: {
        ProcessId p = static_cast<ProcessId>(rng.next_below(n));
        w->set_crashed(p, !w->is_crashed(p));
        break;
      }
      case 3: {  // force-drop a deliverable message
        auto d = w->network().deliverable();
        if (!d.empty()) w->network().drop(d[rng.next_below(d.size())]);
        break;
      }
      case 4: {  // duplicate a deliverable message
        auto d = w->network().deliverable();
        if (!d.empty()) w->network().duplicate(d[rng.next_below(d.size())]);
        break;
      }
      case 5: {  // corrupt a deliverable message: payload AND ready time
        auto d = w->network().deliverable();
        if (!d.empty()) {
          std::uint64_t r = rng.next_u64();
          w->network().mutate(d[rng.next_below(d.size())],
                              [r](net::Message& m) {
                                m.payload.push_back(std::byte{0x5e});
                                m.latency += r % 3;
                              });
        }
        break;
      }
      case 6: {  // direct submit, bypassing any handler
        std::uint64_t r = rng.next_u64();
        w->network().submit(make_msg(static_cast<ProcessId>(r % n),
                                     static_cast<ProcessId>((r / n) % n), r,
                                     n));
        break;
      }
      case 7: {
        ProcessId p = static_cast<ProcessId>(rng.next_below(n));
        if (ckpts.size() < 3) ckpts.emplace_back(p, w->capture_process(p));
        break;
      }
      case 8:
        if (!ckpts.empty()) {
          auto& [p, c] = ckpts[rng.next_below(ckpts.size())];
          w->restore_process(p, c);
        }
        break;
      case 9:
        if (fc.toggle_time) {
          w->set_abstract_time(!w->options().abstract_time);
        }
        break;
      case 10: {  // a clone restored from a snapshot carries a live index
        if (!snaps.empty()) {
          auto clone = w->clone_from_snapshot(
              snaps[rng.next_below(snaps.size())]);
          expect_enabled_match(*clone, label + " (clone)");
        }
        break;
      }
      case 11: {  // cut a random directed link (partition mask)
        std::uint64_t r = rng.next_u64();
        w->network().cut_link(static_cast<ProcessId>(r % n),
                              static_cast<ProcessId>((r / n) % n));
        break;
      }
      case 12: {  // heal a random blocked link
        const auto& blocked = std::as_const(*w).network().blocked_links();
        if (!blocked.empty()) {
          auto it = blocked.begin();
          std::advance(it, rng.next_below(blocked.size()));
          const auto [s, d] = *it;
          w->network().heal_link(s, d);
        }
        break;
      }
      default:
        w->step();
        break;
    }
    expect_enabled_match(*w, label);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, EnabledIndexFuzz,
    ::testing::Values(FuzzCase{3, true, false}, FuzzCase{17, true, true},
                      FuzzCase{29, false, false}, FuzzCase{71, false, true},
                      FuzzCase{811, true, true}, FuzzCase{977, false, true}));

// ---------------------------------------------------------------------------
// Timed mode: the warp selection over at-keyed orderings
// ---------------------------------------------------------------------------

TEST(EnabledIndex, TimedWarpsMatchOracle) {
  auto w = make_script_world(4, net::NetworkOptions::reordering(1, 5), 7,
                             /*abstract_time=*/false);
  w->set_scheduler(std::make_unique<RandomScheduler>(7));
  VirtualTime last = 0;
  for (int i = 0; i < 200; ++i) {
    expect_enabled_match(*w, "timed step " + std::to_string(i));
    if (!w->step()) break;
    EXPECT_GE(w->now(), last);  // warps only move time forward
    last = w->now();
  }
  expect_enabled_match(*w, "timed final");
}

// A world whose processes do nothing drains to quiescence; the O(1)
// quiescent() must flip exactly when the oracle's enabled set empties.
class InertProc final : public ProcessBase<InertProc> {
 public:
  void on_message(Context&, const net::Message&) override {}
  void save_root(BinaryWriter&) const override {}
  void load_root(BinaryReader&) override {}
  std::string type_name() const override { return "inert"; }
};

TEST(EnabledIndex, QuiescenceMatchesOracleWhileDraining) {
  WorldOptions opts;
  opts.abstract_time = true;
  auto w = std::make_unique<World>(opts);
  for (int i = 0; i < 3; ++i) w->add_process(std::make_unique<InertProc>());
  w->seal();
  // Seed some one-way traffic, then drain: starts, then deliveries.
  w->network().submit(make_msg(0, 1, 1, 3));
  w->network().submit(make_msg(1, 2, 2, 3));
  while (true) {
    expect_enabled_match(*w, "draining");
    EXPECT_EQ(w->quiescent(), w->enabled_events_uncached().empty());
    if (!w->step()) break;
  }
  EXPECT_TRUE(w->quiescent());
  expect_enabled_match(*w, "quiescent");
}

// ---------------------------------------------------------------------------
// State motion: Time Machine rollback
// ---------------------------------------------------------------------------

TEST(EnabledIndex, TimeMachineRollbackKeepsIndexExact) {
  auto w = make_script_world(4, net::NetworkOptions::reliable_fifo(), 13);
  w->set_scheduler(std::make_unique<RandomScheduler>(13));
  ckpt::TimeMachineOptions tmo;
  tmo.cic = true;
  tmo.periodic_interval = 3;
  ckpt::TimeMachine tm(*w, tmo);
  tm.attach();

  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 25; ++i) {
      if (!w->step()) break;
      expect_enabled_match(*w, "pre-rollback step " + std::to_string(i));
    }
    tm.rollback();
    expect_enabled_match(*w, "after rollback " + std::to_string(round));
    for (int i = 0; i < 10; ++i) {
      if (!w->step()) break;
      expect_enabled_match(*w, "post-rollback step " + std::to_string(i));
    }
  }
  tm.rollback_to(1, 0);
  expect_enabled_match(*w, "after pinned rollback");
  for (int i = 0; i < 15 && w->step(); ++i) {
    expect_enabled_match(*w, "after pinned rollback step");
  }
}

// ---------------------------------------------------------------------------
// Partition churn: the link-reachability mask through the index
// ---------------------------------------------------------------------------

// Deterministic counterpart to fuzz cases 11/12: cut and heal links at fixed
// points of a live run and hold enabled_events() to the uncached oracle at
// every state. A cut must suppress crossing deliveries from the enabled set
// without dropping them; a heal must surface them again, including traffic
// that queued up behind the cut while it was in force.
TEST(EnabledIndex, PartitionChurnKeepsIndexExact) {
  auto w = make_script_world(4, net::NetworkOptions::reordering(1, 4), 47);
  w->set_scheduler(std::make_unique<RandomScheduler>(47));
  bool saw_blocked_pending = false;
  for (int i = 0; i < 120; ++i) {
    if (i == 5) {  // symmetric cut 0↔1 plus a one-way cut 2→3
      w->network().cut_link(0, 1);
      w->network().cut_link(1, 0);
      w->network().cut_link(2, 3);
    }
    if (i == 30) w->network().heal_link(0, 1);
    if (i == 55) {
      w->network().heal_link(1, 0);
      w->network().heal_link(2, 3);
    }
    const auto& net = std::as_const(*w).network();
    for (const net::Message* m : net.pending()) {
      if (net.link_blocked(m->src, m->dst)) saw_blocked_pending = true;
    }
    expect_enabled_match(*w, "partition churn step " + std::to_string(i));
    // No break on a false step: a cut can starve the run into quiescence,
    // and the scheduled heals must still fire to release deferred traffic.
    w->step();
  }
  expect_enabled_match(*w, "partition churn final");
  // The scenario was non-trivial: some message really was held back, every
  // cut was healed, and nothing was force-dropped along the way.
  EXPECT_TRUE(saw_blocked_pending);
  EXPECT_EQ(std::as_const(*w).network().blocked_link_count(), 0u);
  EXPECT_EQ(std::as_const(*w).network().stats().dropped_forced, 0u);
}

// ---------------------------------------------------------------------------
// The verification toggle
// ---------------------------------------------------------------------------

TEST(EnabledIndex, UncachedToggleRoutesThroughOracle) {
  auto w = make_script_world(3, net::NetworkOptions::reliable_fifo(), 5);
  for (int i = 0; i < 10; ++i) w->step();
  auto with_index = w->enabled_events();
  w->set_use_enabled_index(false);
  auto without = w->enabled_events();
  EXPECT_EQ(with_index, without);
  EXPECT_EQ(w->quiescent(), without.empty());
  w->set_use_enabled_index(true);
  // The index kept being maintained while bypassed.
  expect_enabled_match(*w, "after re-enable");
}

}  // namespace
}  // namespace fixd::rt

// ---------------------------------------------------------------------------
// Network-level deliverable index vs the deliverable() oracle
// ---------------------------------------------------------------------------

namespace fixd::net {
namespace {

void expect_net_index_matches(const SimNetwork& net, const std::string& l) {
  auto oracle = net.deliverable();  // from-scratch rescan, ascending id
  std::size_t indexed = 0;
  for (const auto& [dst, b] : net.deliv_index()) {
    ASSERT_FALSE(b.empty()) << l << ": empty bucket retained for dst " << dst;
    ASSERT_EQ(b.by_id.size(), b.at_view().size()) << l;
    ASSERT_TRUE(std::is_sorted(b.by_id.begin(), b.by_id.end())) << l;
    ASSERT_TRUE(std::is_sorted(b.at_view().begin(), b.at_view().end())) << l;
    for (const auto& [id, e] : b.by_id) {
      ++indexed;
      const Message* m = net.peek(id);
      ASSERT_NE(m, nullptr) << l << ": indexed id " << id << " not pending";
      EXPECT_EQ(m->dst, dst) << l;
      EXPECT_EQ(e.at, m->sent_at + m->latency) << l << " id " << id;
      EXPECT_EQ(e.control, m->control) << l << " id " << id;
    }
  }
  ASSERT_EQ(indexed, oracle.size()) << l;
  for (MsgId id : oracle) {
    const Message* m = net.peek(id);
    const DeliverableBucket* b = net.deliv_bucket(m->dst);
    ASSERT_NE(b, nullptr) << l << ": oracle id " << id << " missing bucket";
    EXPECT_TRUE(b->contains(id)) << l << ": oracle id " << id;
  }
}

std::vector<std::byte> saved(const SimNetwork& net) {
  BinaryWriter w;
  net.save(w);
  return w.bytes();
}

/// A snapshot plus what restoring it must reproduce byte for byte: the
/// save() image and every destination's in-flight count at capture.
struct NetCapture {
  std::shared_ptr<const NetSnapshot> snap;
  std::vector<std::byte> bytes;
  std::vector<std::uint64_t> inflight;
};

void expect_restored(const SimNetwork& net, const NetCapture& c,
                     const std::string& l) {
  ASSERT_EQ(saved(net), c.bytes) << l;
  for (ProcessId d = 0; d < c.inflight.size(); ++d) {
    ASSERT_EQ(net.inflight_to(d), c.inflight[d]) << l << " dst " << d;
  }
  expect_net_index_matches(net, l);
  ASSERT_EQ(net.digest(), net.digest_uncached()) << l;
}

class NetDeliverableIndex : public ::testing::TestWithParam<bool> {};

TEST_P(NetDeliverableIndex, RandomNetOpsMatchOracle) {
  const bool fifo = GetParam();
  Rng rng(fifo ? 101 : 202);
  NetworkOptions opts;
  opts.fifo = fifo;
  opts.latency_min = 1;
  opts.latency_max = 6;
  SimNetwork net(opts);

  auto some_msg = [&](std::uint64_t r) {
    Message m;
    m.src = static_cast<ProcessId>(r % 4);
    m.dst = static_cast<ProcessId>((r / 4) % 4);
    m.tag = static_cast<Tag>(r % 3);
    m.control = (r % 7) == 0;
    m.payload = {static_cast<std::byte>(r), static_cast<std::byte>(r >> 8)};
    m.sent_at = r % 50;
    return m;
  };

  // Restoring into this network shrinks every table: it holds more
  // processes, channels, messages and blocked links than any snapshot.
  auto crowded = [&] {
    SimNetwork big(opts);
    for (std::uint64_t r = 0; r < 36 * 3; ++r) {
      Message m = some_msg(r);
      m.src = static_cast<ProcessId>(r % 6);
      m.dst = static_cast<ProcessId>((r / 6) % 6);
      big.submit(std::move(m));
    }
    big.cut_link(5, 4);
    big.ensure_deliv_index();
    return big;
  };

  constexpr ProcessId kProcs = 4;
  std::vector<NetCapture> snaps;
  for (int i = 0; i < 400; ++i) {
    const std::string label = std::string(fifo ? "fifo" : "reorder") +
                              " op " + std::to_string(i);
    std::uint64_t r = rng.next_u64();
    switch (rng.next_below(11)) {
      case 0:
      case 1:
      case 2:
        net.submit(some_msg(r));
        break;
      case 3: {  // deliver a deliverable message
        auto d = net.deliverable();
        if (!d.empty()) net.take(d[r % d.size()]);
        break;
      }
      case 4: {  // drop ANY pending message (head or queued behind one)
        auto p = net.pending();
        if (!p.empty()) net.drop(p[r % p.size()]->id);
        break;
      }
      case 5: {
        auto p = net.pending();
        if (!p.empty()) net.duplicate(p[r % p.size()]->id);
        break;
      }
      case 6: {  // mutate: ready time and control flag both change
        auto p = net.pending();
        if (!p.empty()) {
          net.mutate(p[r % p.size()]->id, [r](Message& m) {
            m.latency += 1 + r % 4;
            m.control = !m.control;
          });
        }
        break;
      }
      case 7:
        net.reinject(some_msg(r));
        break;
      case 8: {  // serialization round trip rebuilds the index
        BinaryWriter w;
        net.save(w);
        BinaryReader rd(w.bytes());
        net.load(rd);
        break;
      }
      case 9: {  // partition churn: cut a link, sometimes heal one
        if ((r & 1) || net.blocked_link_count() == 0) {
          net.cut_link(static_cast<ProcessId>(r % 4),
                       static_cast<ProcessId>((r / 4) % 4));
        } else {
          const auto& blocked = net.blocked_links();
          auto it = blocked.begin();
          std::advance(it, r % blocked.size());
          const auto [s, d] = *it;
          net.heal_link(s, d);
        }
        break;
      }
      default: {  // snapshot now, maybe restore a past snapshot
        if (snaps.size() < 3 && (r & 1)) {
          NetCapture c{net.snapshot(), saved(net), {}};
          for (ProcessId d = 0; d < kProcs; ++d) {
            c.inflight.push_back(net.inflight_to(d));
          }
          snaps.push_back(std::move(c));
        } else if (!snaps.empty()) {
          const NetCapture& c = snaps[r % snaps.size()];
          net.restore(c.snap);
          expect_restored(net, c, label + " restore");
          SimNetwork fresh;
          fresh.restore(c.snap);
          expect_restored(fresh, c, label + " fresh");
          SimNetwork big = crowded();
          big.restore(c.snap);
          expect_restored(big, c, label + " crowded");
        }
        break;
      }
    }
    expect_net_index_matches(net, label);
    ASSERT_EQ(net.digest(), net.digest_uncached()) << label;
    for (ProcessId d = 0; d < kProcs; ++d) {
      ASSERT_EQ(net.inflight_to(d), net.inflight_to_uncached(d))
          << label << " dst " << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, NetDeliverableIndex, ::testing::Bool());

}  // namespace
}  // namespace fixd::net
