// World: determinism, event semantics, snapshots, invariants, timers.
#include <gtest/gtest.h>

#include <utility>

#include "apps/rep_counter.hpp"
#include "apps/token_ring.hpp"
#include "rt/world.hpp"

namespace fixd::rt {
namespace {

using apps::CounterConfig;
using apps::make_counter_world;
using apps::make_token_ring_world;
using apps::TokenRingConfig;

TEST(World, RunsCounterToCompletion) {
  auto w = make_counter_world(3, /*version=*/2, CounterConfig{4});
  RunResult res = w->run();
  EXPECT_EQ(res.reason, StopReason::kAllHalted);
  EXPECT_FALSE(w->has_violation());
  for (ProcessId p = 0; p < w->size(); ++p) {
    const auto& c = dynamic_cast<const apps::ICounter&>(w->process(p));
    EXPECT_TRUE(c.done());
    EXPECT_EQ(c.total(), apps::counter_expected_sum(3, CounterConfig{4}));
  }
}

TEST(World, BuggyCounterViolates) {
  auto w = make_counter_world(3, /*version=*/1, CounterConfig{4});
  RunResult res = w->run();
  EXPECT_EQ(res.reason, StopReason::kViolation);
  ASSERT_TRUE(w->has_violation());
  EXPECT_EQ(w->violations().front().invariant, "local");
}

TEST(World, DeterministicDigestAcrossIdenticalRuns) {
  auto run_digest = [] {
    auto w = make_counter_world(4, 2, CounterConfig{3});
    w->run();
    return w->digest();
  };
  EXPECT_EQ(run_digest(), run_digest());
}

TEST(World, DifferentSeedsDifferentSchedules) {
  auto run_digest = [](std::uint64_t seed) {
    WorldOptions opts;
    auto w = make_counter_world(4, 2, CounterConfig{3}, opts);
    w->set_scheduler(std::make_unique<RandomScheduler>(seed));
    w->run();
    return w->digest();
  };
  // Different schedules still converge to the same final state for a
  // correct protocol, but interleave differently; digests include clocks,
  // so they differ (same-seed runs must not).
  EXPECT_EQ(run_digest(9), run_digest(9));
}

TEST(World, SnapshotRestoreRoundTrip) {
  auto w = make_counter_world(3, 2, CounterConfig{4});
  for (int i = 0; i < 5; ++i) w->step();
  WorldSnapshot snap = w->snapshot();
  std::uint64_t mid_digest = w->digest();

  w->run();
  EXPECT_NE(w->digest(), mid_digest);

  w->restore(snap);
  EXPECT_EQ(w->digest(), mid_digest);

  // The restored world completes identically.
  RunResult res = w->run();
  EXPECT_EQ(res.reason, StopReason::kAllHalted);
  EXPECT_FALSE(w->has_violation());
}

TEST(World, CloneIsIndependentAndIdentical) {
  auto w = make_counter_world(3, 2, CounterConfig{4});
  for (int i = 0; i < 7; ++i) w->step();
  auto clone = w->clone();
  std::uint64_t before = w->digest();
  EXPECT_EQ(clone->digest(), before);

  clone->run(3);
  EXPECT_NE(clone->digest(), before);
  // Original unaffected by the clone's progress.
  EXPECT_EQ(w->digest(), before);
}

TEST(World, McDigestAbstractsPathNoise) {
  // Two different interleavings reaching "all halted, same sums" should
  // produce the same mc_digest even though clocks/stats differ.
  auto w1 = make_counter_world(3, 2, CounterConfig{2});
  auto w2 = make_counter_world(3, 2, CounterConfig{2});
  w2->set_scheduler(std::make_unique<RandomScheduler>(1234));
  w1->run();
  w2->run();
  EXPECT_EQ(w1->mc_digest(), w2->mc_digest());
  // (The exact digest may or may not coincide at quiescence: final vector
  // clocks are schedule-independent once every message is consumed.)
}

TEST(World, ProcessAsTypeChecked) {
  auto w = make_counter_world(2, 2, CounterConfig{1});
  EXPECT_NO_THROW(w->process_as<apps::CounterV2>(0));
  EXPECT_THROW(w->process_as<apps::CounterV1>(0), ConfigError);
}

TEST(World, AddProcessAfterSealThrows) {
  auto w = make_counter_world(2, 2, CounterConfig{1});
  EXPECT_THROW(
      w->add_process(std::make_unique<apps::CounterV2>(CounterConfig{1})),
      FixdError);
}

TEST(World, CrashedProcessReceivesNothing) {
  auto w = make_counter_world(3, 2, CounterConfig{2});
  w->set_crashed(1, true);
  w->run(200);
  // p1 handled nothing; others cannot finish (missing p1's contributions)
  EXPECT_EQ(w->events_handled(1), 0u);
  const auto& c0 = dynamic_cast<const apps::ICounter&>(w->process(0));
  EXPECT_FALSE(c0.done());
}

TEST(World, TimedModeTimerFiresOnlyWhenIdle) {
  TokenRingConfig cfg;
  cfg.target_rounds = 2;
  cfg.timeout = 10000;  // longer than the whole run
  auto w = make_token_ring_world(3, /*version=*/1, cfg);
  RunResult res = w->run(10000);
  // In timed mode the timeout never beats a 1-tick message hop, so even the
  // buggy ring finishes cleanly.
  EXPECT_EQ(res.reason, StopReason::kAllHalted);
  EXPECT_FALSE(w->has_violation());
}

TEST(World, AbstractTimeEnablesTimerRaces) {
  TokenRingConfig cfg;
  cfg.target_rounds = 2;
  cfg.timeout = 10000;
  WorldOptions opts;
  opts.abstract_time = true;
  auto w = make_token_ring_world(3, /*version=*/1, cfg, opts);
  // With a random scheduler in abstract time, the v1 double-token race is
  // reachable; a few seeds suffice to hit it.
  bool violated = false;
  for (std::uint64_t seed = 1; seed <= 20 && !violated; ++seed) {
    auto trial = make_token_ring_world(3, 1, cfg, opts);
    trial->set_scheduler(std::make_unique<RandomScheduler>(seed));
    RunResult res = trial->run(400);
    violated = res.reason == StopReason::kViolation;
  }
  EXPECT_TRUE(violated);
}

TEST(World, LamportAndVectorClocksAdvance) {
  auto w = make_counter_world(2, 2, CounterConfig{1});
  w->run();
  for (ProcessId p = 0; p < w->size(); ++p) {
    EXPECT_GT(w->lamport_of(p), 0u);
    EXPECT_GT(w->vclock_of(p)[p], 0u);
  }
  // Each process observed the other (they exchanged INC/DONE).
  EXPECT_GT(w->vclock_of(0)[1], 0u);
  EXPECT_GT(w->vclock_of(1)[0], 0u);
}

TEST(World, CaptureRestoreSingleProcess) {
  auto w = make_counter_world(3, 2, CounterConfig{3});
  for (int i = 0; i < 4; ++i) w->step();
  ProcessCheckpoint ckpt = w->capture_process(1);
  std::uint64_t handled = w->events_handled(1);

  w->run(5);
  w->restore_process(1, ckpt);
  EXPECT_EQ(w->events_handled(1), handled);
}

TEST(World, CheckpointWireFormatRoundTrip) {
  auto w = make_counter_world(2, 2, CounterConfig{2});
  w->run(3);
  ProcessCheckpoint ckpt = w->capture_process(0, /*cow=*/false);
  BinaryWriter wr;
  ckpt.save(wr);
  ProcessCheckpoint back;
  BinaryReader r(wr.bytes());
  back.load(r);
  EXPECT_EQ(back.root, ckpt.root);
  EXPECT_EQ(back.info, ckpt.info);
  EXPECT_EQ(back.lamport, ckpt.lamport);
  EXPECT_EQ(back.vclock, ckpt.vclock);
}

TEST(World, ViolationRecordsContext) {
  auto w = make_counter_world(3, 1, CounterConfig{4});
  w->run();
  ASSERT_TRUE(w->has_violation());
  const Violation& v = w->violations().front();
  EXPECT_NE(v.pid, kNoProcess);
  EXPECT_GT(v.step, 0u);
  EXPECT_FALSE(v.detail.empty());
  EXPECT_NE(v.to_string().find("counter sum"), std::string::npos);
}

TEST(World, RunMaxStepsStops) {
  auto w = make_counter_world(3, 2, CounterConfig{4});
  RunResult res = w->run(2);
  EXPECT_EQ(res.reason, StopReason::kMaxSteps);
  EXPECT_EQ(res.steps, 2u);
}

class SuppressingInterceptor final : public StepInterceptor {
 public:
  bool before_event(World&, const EventDesc& ev) override {
    if (ev.kind == EventKind::kDeliver && !fired_) {
      fired_ = true;
      return false;  // swallow the first delivery
    }
    return true;
  }
  bool fired_ = false;
};

TEST(World, InterceptorCanSuppressDelivery) {
  auto w = make_counter_world(2, 2, CounterConfig{1});
  SuppressingInterceptor sup;
  w->add_interceptor(&sup);
  w->run(300);
  EXPECT_TRUE(sup.fired_);
  EXPECT_EQ(w->network().stats().dropped_forced, 1u);
  w->remove_interceptor(&sup);
}

TEST(World, HaltedWorldQuiesces) {
  auto w = make_counter_world(2, 2, CounterConfig{1});
  w->run();
  EXPECT_TRUE(w->all_halted());
  EXPECT_FALSE(w->step());
}

// What a sender handed to ctx.send, in send order.
struct SentRec {
  ProcessId src;
  ProcessId dst;
  net::Tag tag;
  std::vector<std::byte> payload;
};

// Fans out: every start sends kFanout messages, every delivery forwards one
// until kHops, with payload sizes varying per message. Logs each send.
class FanoutProc final : public ProcessBase<FanoutProc> {
 public:
  explicit FanoutProc(std::vector<SentRec>* log) : log_(log) {}

  void on_start(Context& ctx) override {
    for (std::uint32_t i = 0; i < kFanout; ++i) send(ctx, i, 0);
  }
  void on_message(Context& ctx, const net::Message& msg) override {
    const std::uint32_t hops = static_cast<std::uint32_t>(msg.payload.size());
    if (hops < kHops) send(ctx, msg.tag + 1, hops + 1);
  }
  void save_root(BinaryWriter& w) const override { w.write_u64(sent_); }
  void load_root(BinaryReader& r) override { sent_ = r.read_u64(); }
  std::string type_name() const override { return "fanout"; }

 private:
  static constexpr std::uint32_t kFanout = 12;
  static constexpr std::uint32_t kHops = 6;

  // The payload length carries the hop count.
  void send(Context& ctx, net::Tag tag, std::uint32_t hops) {
    const ProcessId dst =
        static_cast<ProcessId>((ctx.self() + 1 + tag) % ctx.world_size());
    std::vector<std::byte> payload(hops, std::byte{static_cast<unsigned char>(
                                             ctx.self() * 16 + tag)});
    log_->push_back({ctx.self(), dst, tag, payload});
    ++sent_;
    ctx.send(dst, tag, std::move(payload));
  }

  std::vector<SentRec>* log_;
  std::uint64_t sent_ = 0;
};

class SendRecorder final : public RuntimeObserver {
 public:
  void on_send(const World&, const net::Message& msg) override {
    seen.push_back({msg.id, {msg.src, msg.dst, msg.tag, msg.payload}});
    if (msg.content_digest() != msg.content_digest_uncached()) ++bad_digests;
  }
  std::vector<std::pair<MsgId, SentRec>> seen;
  std::size_t bad_digests = 0;
};

TEST(World, SendObserversSeeEachSubmittedMessageOnce) {
  const net::NetworkOptions nets[] = {
      net::NetworkOptions::reliable_fifo(),
      net::NetworkOptions::reordering(),
      net::NetworkOptions::lossy(0.5, 0.5, 77),
  };
  for (const net::NetworkOptions& no : nets) {
    std::vector<SentRec> log;
    WorldOptions wo;
    wo.net = no;
    World w(wo);
    for (int i = 0; i < 4; ++i) w.add_process(std::make_unique<FanoutProc>(&log));
    w.seal();
    SendRecorder rec;
    w.add_observer(&rec);
    w.run();

    // One on_send per ctx.send, carrying what the sender sent.
    ASSERT_EQ(rec.seen.size(), log.size());
    EXPECT_EQ(rec.bad_digests, 0u);
    // The ids the network assigns: a second network with the same options
    // fed the same sends returns them (nullopt for a policy drop; the
    // original's id, never its duplicate's).
    net::SimNetwork ref(no);
    std::size_t dropped = 0;
    for (std::size_t i = 0; i < log.size(); ++i) {
      const auto& [id, got] = rec.seen[i];
      EXPECT_EQ(got.src, log[i].src) << i;
      EXPECT_EQ(got.dst, log[i].dst) << i;
      EXPECT_EQ(got.tag, log[i].tag) << i;
      EXPECT_EQ(got.payload, log[i].payload) << i;
      net::Message m;
      m.src = log[i].src;
      m.dst = log[i].dst;
      m.tag = log[i].tag;
      m.payload = log[i].payload;
      const std::optional<MsgId> want = ref.submit(std::move(m));
      EXPECT_EQ(id, want.value_or(0)) << i;
      if (!want) ++dropped;
    }
    EXPECT_EQ(dropped, w.network().stats().dropped_policy);
    if (no.drop_prob > 0.0) {
      EXPECT_GT(dropped, 0u);
      EXPECT_GT(w.network().stats().duplicated, 0u);
    }
  }
}

// Two read-only interfaces a global invariant can view processes through.
class IFlag {
 public:
  virtual ~IFlag() = default;
  virtual bool flag() const = 0;
};
class ICount {
 public:
  virtual ~ICount() = default;
  virtual std::uint64_t count() const = 0;
};

// Implements both interfaces; state is its root.
class FlagCountProc final : public ProcessBase<FlagCountProc>,
                            public IFlag,
                            public ICount {
 public:
  FlagCountProc(bool flag, std::uint64_t count) : flag_(flag), count_(count) {}
  bool flag() const override { return flag_; }
  std::uint64_t count() const override { return count_; }
  void on_message(Context&, const net::Message&) override {}
  void save_root(BinaryWriter& w) const override {
    w.write_bool(flag_);
    w.write_u64(count_);
  }
  void load_root(BinaryReader& r) override {
    flag_ = r.read_bool();
    count_ = r.read_u64();
  }
  std::string type_name() const override { return "flag-count"; }

 private:
  bool flag_;
  std::uint64_t count_;
};

// Another party type: implements IFlag only, and always raises it.
class RaisedFlagProc final : public ProcessBase<RaisedFlagProc>,
                             public IFlag {
 public:
  bool flag() const override { return true; }
  void on_message(Context&, const net::Message&) override {}
  void save_root(BinaryWriter&) const override {}
  void load_root(BinaryReader&) override {}
  std::string type_name() const override { return "raised-flag"; }
};

// Implements neither interface.
class PlainProc final : public ProcessBase<PlainProc> {
 public:
  void on_message(Context&, const net::Message&) override {}
  void save_root(BinaryWriter&) const override {}
  void load_root(BinaryReader&) override {}
  std::string type_name() const override { return "plain"; }
};

std::unique_ptr<World> make_flag_world() {
  auto w = std::make_unique<World>();
  for (std::uint64_t p = 0; p < 3; ++p) {
    w->add_process(std::make_unique<FlagCountProc>(false, 10 + p));
  }
  w->seal();
  w->invariants().add_global(
      "no-flag", [](const World& world) -> std::optional<std::string> {
        for (ProcessId p = 0; p < world.size(); ++p) {
          const IFlag* f = world.facet<IFlag>(p);
          if (f && f->flag()) return "p" + std::to_string(p) + " flagged";
        }
        return std::nullopt;
      });
  return w;
}

TEST(WorldFacet, MatchesDynamicCast) {
  auto w = make_flag_world();
  const World& cw = *w;
  for (ProcessId p = 0; p < cw.size(); ++p) {
    EXPECT_EQ(cw.facet<IFlag>(p),
              dynamic_cast<const IFlag*>(&cw.process(p)));
    EXPECT_EQ(cw.facet<IFlag>(p),
              dynamic_cast<const IFlag*>(&cw.process(p)));  // cached
  }
  EXPECT_THROW(cw.facet<IFlag>(3), FixdError);
}

TEST(WorldFacet, SwapToAnotherPartyTypeIsSeenByTheInvariant) {
  auto w = make_flag_world();
  w->recheck_invariants();
  EXPECT_FALSE(w->has_violation());  // fills every slot
  const IFlag* before = w->facet<IFlag>(1);
  ASSERT_NE(before, nullptr);
  EXPECT_FALSE(before->flag());

  w->swap_process(1, std::make_unique<RaisedFlagProc>());
  const IFlag* after = w->facet<IFlag>(1);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after, dynamic_cast<const IFlag*>(&std::as_const(*w).process(1)));
  EXPECT_TRUE(after->flag());
  w->recheck_invariants();
  ASSERT_EQ(w->violations().size(), 1u);
  EXPECT_EQ(w->violations().front().detail, "p1 flagged");
}

TEST(WorldFacet, SwapToNonPartyYieldsNull) {
  auto w = make_flag_world();
  ASSERT_NE(w->facet<IFlag>(2), nullptr);
  ASSERT_NE(w->facet<ICount>(2), nullptr);
  w->swap_process(2, std::make_unique<PlainProc>());
  EXPECT_EQ(w->facet<IFlag>(2), nullptr);
  EXPECT_EQ(w->facet<ICount>(2), nullptr);
  w->recheck_invariants();
  EXPECT_FALSE(w->has_violation());
  // And back to a party: the slot refills.
  w->swap_process(2, std::make_unique<FlagCountProc>(true, 7));
  ASSERT_NE(w->facet<ICount>(2), nullptr);
  EXPECT_EQ(w->facet<ICount>(2)->count(), 7u);
  EXPECT_TRUE(w->facet<IFlag>(2)->flag());
}

TEST(WorldFacet, AlternatingInterfacesStayCorrect) {
  auto w = make_flag_world();
  const World& cw = *w;
  const auto* proc = &cw.process(0);
  for (int round = 0; round < 4; ++round) {
    const IFlag* f = cw.facet<IFlag>(0);
    const ICount* c = cw.facet<ICount>(0);
    EXPECT_EQ(f, dynamic_cast<const IFlag*>(proc)) << round;
    EXPECT_EQ(c, dynamic_cast<const ICount*>(proc)) << round;
    ASSERT_NE(c, nullptr);
    EXPECT_FALSE(f->flag());
    EXPECT_EQ(c->count(), 10u);
  }
}

TEST(WorldFacet, CloneFromSnapshotHasItsOwnViews) {
  auto w = make_flag_world();
  w->recheck_invariants();  // warm the original's slots
  w->swap_process(0, std::make_unique<FlagCountProc>(false, 99));
  WorldSnapshot snap = w->snapshot();
  std::unique_ptr<World> c = w->clone_from_snapshot(snap);
  for (ProcessId p = 0; p < c->size(); ++p) {
    const ICount* view = c->facet<ICount>(p);
    ASSERT_NE(view, nullptr);
    EXPECT_EQ(view, dynamic_cast<const ICount*>(&std::as_const(*c).process(p)));
    EXPECT_NE(view, w->facet<ICount>(p));
    EXPECT_EQ(view->count(), w->facet<ICount>(p)->count());
  }
  EXPECT_EQ(c->facet<ICount>(0)->count(), 99u);
  c->swap_process(2, std::make_unique<RaisedFlagProc>());
  EXPECT_TRUE(c->facet<IFlag>(2)->flag());
  EXPECT_FALSE(w->facet<IFlag>(2)->flag());
}

TEST(EventDesc, StringAndIdentity) {
  EventDesc a{EventKind::kDeliver, 2, 17, 0, 5};
  EventDesc b = a;
  b.at = 99;
  EXPECT_TRUE(a.same_identity(b));
  EXPECT_NE(a.to_string().find("msg#17"), std::string::npos);
}

}  // namespace
}  // namespace fixd::rt
