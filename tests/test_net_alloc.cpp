// Restoring the network allocates nothing once its storage is warm.
//
// The explorer restores the world once per transition, and the network
// half of that restore is a copy-assignment of flat vectors into storage
// the live network already owns. This binary replaces the global
// operator new with a counting one (test binaries are per file, so the
// replacement is scoped to this file) and asserts that alternating
// restores between a parent state and its children make no allocation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "apps/two_phase_commit.hpp"
#include "rt/world.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace fixd {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(NetRestoreAlloc, CounterSeesAllocations) {
  const std::uint64_t before = allocations();
  auto p = std::make_unique<int>(7);
  EXPECT_GT(allocations(), before);
  EXPECT_EQ(*p, 7);
}

TEST(NetRestoreAlloc, AlternatingRestoresAllocateNothingOnceWarm) {
  apps::TwoPcConfig cfg;
  cfg.total_txns = 1;
  auto w = apps::make_two_pc_world(4, 2, cfg);
  w->set_abstract_time(true);  // the explorer's time model
  for (int i = 0; i < 3; ++i) w->step();

  // A parent state and one child per enabled event (up to four), as the
  // explorer's expand loop produces them.
  const rt::WorldSnapshot parent = w->snapshot();
  std::vector<std::shared_ptr<const net::NetSnapshot>> children;
  for (const rt::EventDesc& ev : w->enabled_events()) {
    if (children.size() == 4) break;
    w->restore(parent);
    w->execute_event(ev);
    children.push_back(w->network().snapshot());
  }
  ASSERT_GE(children.size(), 2u);
  ASSERT_GT(parent.net->messages.size(), 1u);

  net::SimNetwork& net = w->network();
  for (const auto& child : children) {  // warm-up round
    net.restore(parent.net);
    net.restore(child);
  }
  const std::uint64_t before = allocations();
  for (int i = 0; i < 1000; ++i) {
    net.restore(parent.net);
    net.restore(children[static_cast<std::size_t>(i) % children.size()]);
  }
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(net.digest(), net.digest_uncached());
}

}  // namespace
}  // namespace fixd
