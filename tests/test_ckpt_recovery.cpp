// Recovery-line solver: hand-built scenarios (including the paper's Fig. 6)
// and randomized no-orphan properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "apps/rep_counter.hpp"
#include "ckpt/recovery.hpp"
#include "ckpt/timemachine.hpp"
#include "common/rng.hpp"

namespace fixd::ckpt {
namespace {

VectorClock vc(std::initializer_list<std::uint64_t> xs) {
  VectorClock c(xs.size());
  std::size_t i = 0;
  for (auto x : xs) {
    for (std::uint64_t k = 0; k < x; ++k) c.tick(static_cast<ProcessId>(i));
    ++i;
  }
  return c;
}

TEST(RecoveryLine, LatestLineConsistentWhenNoMessages) {
  // Independent processes: latest checkpoints always consistent.
  std::vector<std::vector<VectorClock>> hist = {
      {vc({0, 0}), vc({3, 0})},
      {vc({0, 0}), vc({0, 4})},
  };
  auto res = RecoveryLineSolver::solve(hist);
  EXPECT_EQ(res.index, (std::vector<std::size_t>{1, 1}));
  EXPECT_EQ(res.total_rollback(), 0u);
}

TEST(RecoveryLine, OrphanForcesReceiverBack) {
  // P1's later checkpoint saw 5 events of P0, but P0's best checkpoint only
  // has 3: P1 must fall back to its earlier checkpoint.
  std::vector<std::vector<VectorClock>> hist = {
      {vc({0, 0}), vc({3, 0})},
      {vc({0, 0}), vc({5, 2})},
  };
  auto res = RecoveryLineSolver::solve(hist);
  EXPECT_EQ(res.index[0], 1u);
  EXPECT_EQ(res.index[1], 0u);
  EXPECT_TRUE(RecoveryLineSolver::consistent(hist, res.index));
}

TEST(RecoveryLine, Figure6Scenario) {
  // The paper's Fig. 6: three processes; B fails and rolls back past a send
  // to C; the naive "latest checkpoints" line is unsafe (C would have
  // received a message B never sent); the safe line pulls C back too.
  //
  // Event history (own-component counts at each checkpoint):
  //   A: ck0=[0,0,0]        ck1=[2,1,0]  (A received from B)
  //   B: ck0=[0,0,0]        ck1=[0,1,0]  (before sending to C)  [pinned]
  //   C: ck0=[0,0,0]        ck1=[0,3,2]  (after receiving B's later send)
  std::vector<std::vector<VectorClock>> hist = {
      {vc({0, 0, 0}), vc({2, 1, 0})},
      {vc({0, 0, 0}), vc({0, 1, 0})},
      {vc({0, 0, 0}), vc({0, 3, 2})},
  };
  // Unsafe: taking everyone's latest is inconsistent (C saw B@3 > B@1).
  EXPECT_FALSE(RecoveryLineSolver::consistent(hist, {1, 1, 1}));

  // B is pinned to its checkpoint (the failure rollback point).
  auto res = RecoveryLineSolver::solve_pinned(hist, {-1, 1, -1});
  EXPECT_EQ(res.index[1], 1u);   // pinned
  EXPECT_EQ(res.index[2], 0u);   // C dominoes back to initial
  EXPECT_EQ(res.index[0], 1u);   // A's checkpoint only saw B@1: fine
  EXPECT_TRUE(RecoveryLineSolver::consistent(hist, res.index));
}

TEST(RecoveryLine, DominoEffectCascades) {
  // A chain: each later checkpoint of P_i saw more of P_{i-1} than P_{i-1}'s
  // retained checkpoints provide => everyone dominoes to initial.
  std::vector<std::vector<VectorClock>> hist = {
      {vc({0, 0, 0}), vc({1, 0, 0})},
      {vc({0, 0, 0}), vc({9, 1, 0})},  // saw P0@9 > 1
      {vc({0, 0, 0}), vc({9, 9, 1})},  // saw P1@9 > 1
  };
  auto res = RecoveryLineSolver::solve(hist);
  EXPECT_EQ(res.index, (std::vector<std::size_t>{1, 0, 0}));
  EXPECT_GE(res.iterations, 1u);
}

TEST(RecoveryLine, PinIsAnUpperBoundNotExact) {
  // P1 pinned at a checkpoint that itself saw P0 beyond anything P0 has:
  // the pin caps the search but the fixpoint pulls P1 back further.
  std::vector<std::vector<VectorClock>> hist = {
      {vc({0, 0}), vc({1, 0})},
      {vc({0, 0}), vc({5, 1})},
  };
  auto res = RecoveryLineSolver::solve_pinned(hist, {-1, 1});
  EXPECT_EQ(res.index[1], 0u);
  EXPECT_TRUE(RecoveryLineSolver::consistent(hist, res.index));
}

TEST(RecoveryLine, AllInitialAlwaysConsistent) {
  std::vector<std::vector<VectorClock>> hist = {
      {vc({0, 0})},
      {vc({0, 0})},
  };
  auto res = RecoveryLineSolver::solve(hist);
  EXPECT_TRUE(RecoveryLineSolver::consistent(hist, res.index));
}

TEST(RecoveryLine, EmptyHistoryThrows) {
  std::vector<std::vector<VectorClock>> hist = {{vc({0, 0})}, {}};
  EXPECT_THROW(RecoveryLineSolver::solve(hist), FixdError);
}

// Property sweep: run a real workload under CIC or periodic checkpointing;
// the solver's line over the actual checkpoint clocks must be consistent
// and must be the *latest* consistent line (moving any single process one
// checkpoint forward breaks consistency or is the already-chosen latest).
struct LineSweepCase {
  std::uint64_t seed;
  bool cic;
};

class RecoveryLineSweep : public ::testing::TestWithParam<LineSweepCase> {};

TEST_P(RecoveryLineSweep, SolverLineIsConsistentAndMaximal) {
  auto w = apps::make_counter_world(4, 2, apps::CounterConfig{3});
  w->set_scheduler(std::make_unique<rt::RandomScheduler>(GetParam().seed));
  TimeMachineOptions topt;
  topt.cic = GetParam().cic;
  topt.periodic_interval = GetParam().cic ? 0 : 3;
  TimeMachine tm(*w, topt);
  tm.attach();
  w->run(60);

  std::vector<std::vector<VectorClock>> hist;
  for (ProcessId p = 0; p < w->size(); ++p) {
    std::vector<VectorClock> clocks;
    for (const auto& e : tm.store(p).entries())
      clocks.push_back(e.data->vclock);
    hist.push_back(std::move(clocks));
  }

  auto res = RecoveryLineSolver::solve(hist);
  ASSERT_TRUE(RecoveryLineSolver::consistent(hist, res.index));

  // Maximality: no single index can advance while staying consistent.
  for (std::size_t p = 0; p < hist.size(); ++p) {
    if (res.index[p] + 1 < hist[p].size()) {
      auto bumped = res.index;
      ++bumped[p];
      EXPECT_FALSE(RecoveryLineSolver::consistent(hist, bumped))
          << "line not maximal at process " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, RecoveryLineSweep,
    ::testing::Values(LineSweepCase{1, true}, LineSweepCase{2, true},
                      LineSweepCase{3, true}, LineSweepCase{4, false},
                      LineSweepCase{5, false}, LineSweepCase{6, false},
                      LineSweepCase{7, true}, LineSweepCase{8, false}));

TEST(CheckpointStore, PinnedInitialSurvivesEviction) {
  CheckpointStore store(4);
  rt::ProcessCheckpoint dummy;
  store.push(CkptReason::kInitial, dummy);
  for (int i = 0; i < 10; ++i) store.push(CkptReason::kPeriodic, dummy);
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.entries().front().reason, CkptReason::kInitial);
  EXPECT_EQ(store.total_pushed(), 11u);
}

// Whatever its reason, the front entry is the pinned one: after
// drop_before() moves the front up, pushes into a full store evict the
// oldest entry behind it.
TEST(CheckpointStore, DropBeforeMovesThePinnedFront) {
  CheckpointStore store(4);
  rt::ProcessCheckpoint dummy;
  for (int i = 0; i < 4; ++i) store.push(CkptReason::kManual, dummy);
  store.drop_before(2);
  ASSERT_EQ(store.size(), 2u);
  EXPECT_EQ(store.entries().front().id, 2u);
  EXPECT_FALSE(store.full());
  for (int i = 0; i < 5; ++i) store.push(CkptReason::kCic, dummy);
  EXPECT_TRUE(store.full());
  EXPECT_EQ(store.entries().front().id, 2u);
  EXPECT_EQ(store.entries()[1].id, 6u);
  EXPECT_EQ(store.latest().id, 8u);
  EXPECT_EQ(store.find(3), nullptr);
  EXPECT_THROW(store.drop_before(4), FixdError);
}

// Dropped checkpoints are released one per later push, so that live and
// dropped ones together never exceed the capacity.
TEST(CheckpointStore, DroppedCheckpointsAreReleasedOnePerPush) {
  CheckpointStore store(4);
  std::vector<std::weak_ptr<const rt::ProcessCheckpoint>> pushed;
  auto push = [&] {
    auto c = std::make_shared<const rt::ProcessCheckpoint>();
    pushed.push_back(c);
    store.push(CkptReason::kCic, std::move(c));
  };
  for (int i = 0; i < 4; ++i) push();
  store.drop_before(3);
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(pushed[i].expired()) << i;
  push();
  EXPECT_EQ(std::count_if(pushed.begin(), pushed.begin() + 3,
                          [](const auto& c) { return c.expired(); }),
            1);
  push();
  push();
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(pushed[i].expired()) << i;
  EXPECT_EQ(store.size(), 4u);
  for (int i = 3; i < 7; ++i) EXPECT_FALSE(pushed[i].expired()) << i;
}

TEST(CheckpointStore, CapacityBelowTwoIsRejected) {
  // Two is the pinned front checkpoint plus one rotating slot; less
  // would leave nothing to evict and the store would grow without bound.
  EXPECT_THROW(CheckpointStore(0), ConfigError);
  EXPECT_THROW(CheckpointStore(1), ConfigError);
  CheckpointStore store(2);
  rt::ProcessCheckpoint dummy;
  store.push(CkptReason::kInitial, dummy);
  for (int i = 0; i < 100; ++i) {
    store.push(CkptReason::kCic, dummy);
    ASSERT_EQ(store.size(), 2u);
  }
  EXPECT_EQ(store.entries().front().reason, CkptReason::kInitial);
  EXPECT_EQ(store.latest().id, 100u);

  auto w = apps::make_counter_world(2, 2, apps::CounterConfig{1});
  TimeMachineOptions o;
  o.store_capacity = 1;
  TimeMachine tm(*w, o);
  EXPECT_THROW(tm.attach(), ConfigError);
  EXPECT_FALSE(tm.attached());
}

TEST(CheckpointStore, TruncateAfterDropsFuture) {
  CheckpointStore store(8);
  rt::ProcessCheckpoint dummy;
  for (int i = 0; i < 5; ++i) store.push(CkptReason::kManual, dummy);
  store.truncate_after(2);
  EXPECT_EQ(store.size(), 3u);
}

TEST(CheckpointStore, FindById) {
  CheckpointStore store(8);
  rt::ProcessCheckpoint dummy;
  CheckpointId a = store.push(CkptReason::kManual, dummy);
  CheckpointId b = store.push(CkptReason::kManual, dummy);
  EXPECT_NE(store.find(a), nullptr);
  EXPECT_NE(store.find(b), nullptr);
  EXPECT_EQ(store.find(999), nullptr);
  EXPECT_EQ(store.latest().id, b);
}

}  // namespace
}  // namespace fixd::ckpt
