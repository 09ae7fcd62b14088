// Quickstart: protect a distributed application with FixD.
//
// A replicated counter with a seeded double-apply bug runs under the full
// FixD stack. The run detects the fault locally, rolls back to a consistent
// recovery line, investigates, applies the registered fix in place, and
// completes. Everything you need is the world, a patch registry, and the
// controller.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "apps/rep_counter.hpp"
#include "core/fixd.hpp"

int main() {
  using namespace fixd;

  // 1. Build the application: 4 processes of the (buggy) v1 counter.
  apps::CounterConfig cfg{6};
  auto world = apps::make_counter_world(4, /*version=*/1, cfg);

  // 2. Register the fix the Healer may apply (v1 -> v2 dynamic update).
  heal::PatchRegistry patches;
  patches.add(apps::counter_fix_patch(cfg));

  // 3. Configure FixD: checkpoint policy, investigation budget, and how
  //    invariants are installed on investigation worlds.
  core::FixdOptions options;
  options.tm.cic = true;  // communication-induced checkpoints (the paper's)
  options.install_invariants = apps::install_counter_invariants;
  options.investigate.order = mc::SearchOrder::kRandomWalk;
  options.investigate.max_depth = 160;
  options.investigate.walk_restarts = 48;

  // 4. Run under protection.
  core::FixdController fixd(*world, options, patches);
  core::FixdReport report = fixd.run_protected();

  // 5. Inspect the outcome.
  std::printf("%s\n", report.render().c_str());

  std::uint64_t expected = apps::counter_expected_sum(4, cfg);
  for (ProcessId p = 0; p < world->size(); ++p) {
    const auto& c = dynamic_cast<const apps::ICounter&>(world->process(p));
    std::printf("p%u: version=%u total=%llu (expected %llu) %s\n", p,
                world->process(p).version(),
                static_cast<unsigned long long>(c.total()),
                static_cast<unsigned long long>(expected),
                c.total() == expected ? "OK" : "WRONG");
  }
  return report.completed ? 0 : 1;
}
