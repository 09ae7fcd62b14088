// Schedulers: fifo determinism, random seeding, replay matching.
#include <gtest/gtest.h>

#include "apps/rep_counter.hpp"
#include "rt/scheduler.hpp"
#include "rt/world.hpp"
#include "scroll/scroll.hpp"

namespace fixd::rt {
namespace {

using apps::CounterConfig;
using apps::make_counter_world;

// A trail's events cross the service boundary: an event kind byte out of
// range must throw, not become an EventKind no switch handles.
TEST(EventDesc, LoadRejectsAnOutOfRangeKind) {
  const EventDesc ev{EventKind::kTimer, 2, 0, 7, 9};
  std::vector<std::byte> bytes = to_bytes(ev);
  EXPECT_EQ(from_bytes<EventDesc>(bytes), ev);
  for (std::uint8_t kind : {3, 255}) {
    bytes[0] = static_cast<std::byte>(kind);
    EXPECT_THROW(from_bytes<EventDesc>(bytes), SerializationError) << +kind;
  }
}

TEST(FifoScheduler, PicksEarliestDeterministically) {
  FifoScheduler s;
  std::vector<EventDesc> enabled = {
      {EventKind::kDeliver, 1, 5, 0, 10},
      {EventKind::kDeliver, 0, 3, 0, 4},
      {EventKind::kTimer, 2, 0, 1, 4},
  };
  // Same `at`: deliver (kind 1) beats timer (kind 2); among delivers the
  // smaller at wins outright.
  auto w = make_counter_world(3, 2, CounterConfig{1});
  EXPECT_EQ(s.choose(enabled, *w), 1u);
}

TEST(RandomScheduler, SeedDeterminism) {
  std::vector<EventDesc> enabled(10);
  for (std::size_t i = 0; i < enabled.size(); ++i) {
    enabled[i] = {EventKind::kStart, static_cast<ProcessId>(i), 0, 0, 0};
  }
  auto w = make_counter_world(2, 2, CounterConfig{1});
  RandomScheduler a(7), b(7), c(8);
  std::vector<std::size_t> sa, sb, sc;
  for (int i = 0; i < 50; ++i) {
    sa.push_back(a.choose(enabled, *w));
    sb.push_back(b.choose(enabled, *w));
    sc.push_back(c.choose(enabled, *w));
  }
  EXPECT_EQ(sa, sb);
  EXPECT_NE(sa, sc);
}

TEST(ReplayScheduler, FollowsScript) {
  // Record a run, then replay its schedule on a fresh world: the replayed
  // world must reach the identical final state.
  auto w1 = make_counter_world(3, 2, CounterConfig{2});
  scroll::Scroll log(scroll::LoggingPreset::nondet_only());
  w1->add_observer(&log);
  w1->set_scheduler(std::make_unique<RandomScheduler>(77));
  w1->run();
  w1->remove_observer(&log);

  auto w2 = make_counter_world(3, 2, CounterConfig{2});
  w2->set_scheduler(std::make_unique<ReplayScheduler>(log.schedule()));
  w2->run(log.schedule().size());
  EXPECT_EQ(w1->digest(), w2->digest());
}

TEST(ReplayScheduler, DivergenceThrows) {
  auto w = make_counter_world(3, 2, CounterConfig{2});
  // A script demanding an event that can never be enabled.
  std::vector<EventDesc> script = {
      {EventKind::kDeliver, 0, 424242, 0, 0},
  };
  w->set_scheduler(std::make_unique<ReplayScheduler>(std::move(script)));
  EXPECT_THROW(w->step(), ReplayDivergence);
}

TEST(ReplayScheduler, ExhaustionThrows) {
  auto w = make_counter_world(2, 2, CounterConfig{1});
  w->set_scheduler(std::make_unique<ReplayScheduler>(std::vector<EventDesc>{}));
  EXPECT_THROW(w->step(), ReplayDivergence);
}

class SchedulerSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

// Property: the correct counter protocol reaches agreement under any
// schedule; the final mc_digest is schedule-independent.
TEST_P(SchedulerSeedSweep, CorrectProtocolScheduleInsensitive) {
  auto reference = make_counter_world(3, 2, CounterConfig{2});
  reference->run();
  std::uint64_t want = reference->mc_digest();

  auto w = make_counter_world(3, 2, CounterConfig{2});
  w->set_scheduler(std::make_unique<RandomScheduler>(GetParam()));
  RunResult res = w->run();
  EXPECT_EQ(res.reason, StopReason::kAllHalted);
  EXPECT_EQ(w->mc_digest(), want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerSeedSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace fixd::rt
