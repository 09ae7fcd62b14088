// Figure 9 (repo-grown) — incremental state digests: the Investigator's
// explore loop is bounded by how fast a world can be hashed after each
// transition. This bench measures the digest pipeline end to end:
//
//   A. PagedHeap::digest after one sparse write per "event", cached
//      (per-page digests + whole-heap memo) vs from-scratch recompute,
//      and the raw hash_bytes throughput every digest layer rests on.
//   B. World::mc_digest per executed event on a 16-process heap-backed
//      world with sparse per-event writes — the explore-loop shape.
//   C. SystemExplorer throughput (states/sec) with the time spent hashing
//      states broken out, on a real protocol state space.
//   D. World snapshot + restore per explored node (COW vs deep), and the
//      network half of the explorer's per-transition restore alone.
//   E. World::enabled_events per executed event on worlds with deep
//      message/timer backlogs — the incremental enabled-event index vs
//      the from-scratch rescan oracle.
//   F. Trail-frontier re-anchoring with replay-warmed captures vs cold:
//      warming shares the bit-identical checkpoints/messages sibling
//      replays re-create, so anchors stop deep-copying them — gated on
//      the (deterministic) peak-frontier-byte ratio.
//
// Emits BENCH_digest.json next to the binary so the perf trajectory of the
// digest pipeline is tracked from this PR onward.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "apps/two_phase_commit.hpp"
#include "bench_util.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "mc/sysmodel.hpp"
#include "mem/paged_heap.hpp"
#include "rt/world.hpp"

namespace {

using namespace fixd;
using bench::WallTimer;

// A process whose bulk state lives in a COW heap: each delivery writes one
// 64-byte record at a pseudo-random offset and forwards the token — the
// "large state, sparse per-event writes" shape the digest cache targets.
class HeapProc final : public rt::ProcessBase<HeapProc> {
 public:
  explicit HeapProc(std::uint64_t heap_bytes) : heap_bytes_(heap_bytes) {
    heap_.resize(heap_bytes_);
  }

  void on_start(rt::Context& ctx) override {
    // Pre-touch every page so the heap is fully resident (worst case for a
    // non-incremental digest), then p0 launches the token.
    for (std::uint64_t off = 0; off + 8 <= heap_bytes_; off += 4096)
      heap_.store<std::uint64_t>(off, off ^ 0x5eedull);
    if (ctx.self() == 0) ctx.send(1 % ctx.world_size(), 1, {});
  }

  void on_message(rt::Context& ctx, const net::Message&) override {
    std::byte rec[64];
    std::uint64_t r = ctx.random_u64();
    for (std::size_t i = 0; i < sizeof(rec); ++i)
      rec[i] = static_cast<std::byte>(r >> (8 * (i % 8)));
    heap_.write(r % (heap_bytes_ - sizeof(rec)), rec);
    ++writes_;
    ctx.send((ctx.self() + 1) % ctx.world_size(), 1, {});
  }

  void save_root(BinaryWriter& w) const override {
    w.write_u64(heap_bytes_);
    w.write_u64(writes_);
  }
  void load_root(BinaryReader& r) override {
    heap_bytes_ = r.read_u64();
    writes_ = r.read_u64();
  }
  mem::PagedHeap* cow_heap() override { return &heap_; }
  std::string type_name() const override { return "heap-proc"; }

 private:
  std::uint64_t heap_bytes_;
  std::uint64_t writes_ = 0;
  mem::PagedHeap heap_;
};

struct PairResult {
  double cached_us = 0;
  double uncached_us = 0;
  double speedup() const {
    return cached_us > 0 ? uncached_us / cached_us : 0;
  }
};

// --- A: heap digest ---------------------------------------------------------
PairResult bench_heap_digest(std::uint64_t heap_bytes, int iters) {
  mem::PagedHeap h(4096);
  h.resize(heap_bytes);
  Rng rng(42);
  for (std::uint64_t off = 0; off + 8 <= heap_bytes; off += 4096)
    h.store<std::uint64_t>(off, rng.next_u64());
  mem::HeapSnapshot keep = h.snapshot();  // keeps pages shared (COW live)

  PairResult res;
  std::uint64_t sink = 0;
  WallTimer t;
  for (int i = 0; i < iters; ++i) {
    h.store<std::uint64_t>(rng.next_below(heap_bytes - 8), rng.next_u64());
    sink ^= h.digest();
  }
  res.cached_us = t.ms() * 1000.0 / iters;

  t.reset();
  for (int i = 0; i < iters; ++i) {
    h.store<std::uint64_t>(rng.next_below(heap_bytes - 8), rng.next_u64());
    sink ^= h.digest_uncached();
  }
  res.uncached_us = t.ms() * 1000.0 / iters;

  // Equality spot check (the test suite proves it exhaustively).
  if (h.digest() != h.digest_uncached()) {
    std::fprintf(stderr, "FATAL: cached digest diverged\n");
    std::abort();
  }
  (void)sink;
  (void)keep;
  return res;
}

// --- A: raw hash throughput ------------------------------------------------
struct HashRate {
  double ns_per_call = 0;
  double gb_per_s = 0;
};

// hash_bytes over one `len`-byte buffer, back to back. Each call's input
// depends on the previous digest, so this is the latency one digest
// caller sees, not a pipelined batch.
HashRate bench_hash_bytes(std::size_t len, std::uint64_t total_bytes) {
  std::vector<std::byte> buf(len);
  Rng rng(9);
  for (auto& b : buf) b = static_cast<std::byte>(rng.next_u64());
  const std::uint64_t iters = std::max<std::uint64_t>(1, total_bytes / len);
  std::uint64_t sink = 0;
  WallTimer t;
  for (std::uint64_t i = 0; i < iters; ++i) {
    buf[0] ^= static_cast<std::byte>(sink);
    sink += hash_bytes(buf);
  }
  const double ns = t.ms() * 1e6 / static_cast<double>(iters);
  // A volatile store keeps the loop from being optimized away.
  [[maybe_unused]] static volatile std::uint64_t keep = 0;
  keep = sink;
  return {ns, ns > 0 ? static_cast<double>(len) / ns : 0};
}

// --- B: world mc_digest per event ------------------------------------------
PairResult bench_world_digest(std::size_t procs, std::uint64_t heap_bytes,
                              int iters) {
  rt::WorldOptions opts;
  opts.abstract_time = true;
  auto w = std::make_unique<rt::World>(opts);
  for (std::size_t i = 0; i < procs; ++i)
    w->add_process(std::make_unique<HeapProc>(heap_bytes));
  w->seal();
  w->run(procs + 4);  // everyone started, token circulating

  PairResult res;
  std::uint64_t sink = 0;
  WallTimer t;
  for (int i = 0; i < iters; ++i) {
    w->step();  // one event: one 64B write at one process
    sink ^= w->mc_digest();
  }
  double cached_total_ms = t.ms();

  t.reset();
  for (int i = 0; i < iters; ++i) {
    w->step();
    sink ^= w->mc_digest_uncached();
  }
  double uncached_total_ms = t.ms();

  if (w->mc_digest() != w->mc_digest_uncached()) {
    std::fprintf(stderr, "FATAL: world mc_digest diverged\n");
    std::abort();
  }
  (void)sink;
  res.cached_us = cached_total_ms * 1000.0 / iters;
  res.uncached_us = uncached_total_ms * 1000.0 / iters;
  return res;
}

// --- C: explorer throughput -------------------------------------------------
mc::SysExploreResult bench_explorer(std::size_t n, std::size_t max_states,
                                    bool trail) {
  apps::TwoPcConfig cfg;
  cfg.total_txns = 1;
  auto w = apps::make_two_pc_world(n, 2, cfg);
  mc::SysExploreOptions o;
  o.order = mc::SearchOrder::kBfs;
  o.max_states = max_states;
  o.max_depth = 80;
  o.trail_frontier = trail;
  o.install_invariants = apps::install_two_pc_invariants;
  mc::SystemExplorer ex(*w, o);
  return ex.explore();
}

// --- D: world snapshot + restore cycle --------------------------------------
// The explore-loop node cost: step one event, capture the world, restore
// it. Shared/COW capture reuses the per-process capture cache (only the
// one touched process re-serializes) and shares network message buffers;
// deep capture re-serializes every heap and the network per cycle — the
// pre-COW baseline.
PairResult bench_world_snapshot(std::size_t procs, std::uint64_t heap_bytes,
                                int shared_iters, int deep_iters) {
  rt::WorldOptions opts;
  opts.abstract_time = true;
  auto w = std::make_unique<rt::World>(opts);
  for (std::size_t i = 0; i < procs; ++i)
    w->add_process(std::make_unique<HeapProc>(heap_bytes));
  w->seal();
  w->run(procs + 4);

  std::uint64_t want = w->digest();
  WallTimer t;
  for (int i = 0; i < shared_iters; ++i) {
    w->step();
    want = w->digest();
    rt::WorldSnapshot snap = w->snapshot(/*cow=*/true);
    w->restore(snap);
  }
  PairResult res;
  res.cached_us = t.ms() * 1000.0 / shared_iters;
  if (w->digest_uncached() != want) {
    std::fprintf(stderr, "FATAL: COW snapshot/restore diverged\n");
    std::abort();
  }

  t.reset();
  for (int i = 0; i < deep_iters; ++i) {
    w->step();
    want = w->digest();
    rt::WorldSnapshot snap = w->snapshot(/*cow=*/false);
    w->restore(snap);
  }
  res.uncached_us = t.ms() * 1000.0 / deep_iters;
  if (w->digest_uncached() != want) {
    std::fprintf(stderr, "FATAL: deep snapshot/restore diverged\n");
    std::abort();
  }
  return res;
}

// The network half of the explorer's per-transition restore, alone, at the
// 2pc n=6 BFS midpoint (the model the e2e verify workloads search): each
// state on the frontier of a search paused at half its 66280 states is a
// parent and each enabled event a child, and one live network restores
// parent, child, parent, ... as a worker's expand loop does.
struct NetRestoreResult {
  double restore_us = 0;      ///< per SimNetwork::restore
  double pending_mean = 0;    ///< pending messages per restored state
  double channels_mean = 0;   ///< channel entries per restored state
};

NetRestoreResult bench_net_restore(int rounds) {
  constexpr std::uint64_t kStates = 66280;
  apps::TwoPcConfig cfg;
  cfg.total_txns = 1;
  mc::SysExploreOptions o;
  o.order = mc::SearchOrder::kBfs;
  o.max_depth = 80;
  o.install_invariants = apps::install_two_pc_invariants;
  o.pause_check = [](const mc::ExploreStats& st) {
    return st.states >= kStates / 2;
  };
  o.capture_frontier = true;
  mc::SysExploreResult paused = [&] {
    auto searched = apps::make_two_pc_world(6, 2, cfg);
    mc::SystemExplorer ex(*searched, o);
    return ex.explore();
  }();

  auto w = apps::make_two_pc_world(6, 2, cfg);
  apps::install_two_pc_invariants(*w);
  w->set_abstract_time(true);
  const rt::WorldSnapshot root = w->snapshot();
  using NetSnap = std::shared_ptr<const net::NetSnapshot>;
  std::vector<std::pair<NetSnap, NetSnap>> pairs;  // (parent, child)
  NetRestoreResult res;
  const std::size_t n = paused.frontier.size();
  const std::size_t take = std::min<std::size_t>(n, 200);
  for (std::size_t i = 0; i < take; ++i) {
    w->restore(root);
    for (const mc::SysAction& a : paused.frontier[i * n / take].steps)
      w->execute_event(a.event);
    const rt::WorldSnapshot parent = w->snapshot();
    for (const rt::EventDesc& ev : w->enabled_events()) {
      w->restore(parent);
      w->execute_event(ev);
      pairs.emplace_back(parent.net, w->network().snapshot());
    }
  }
  if (pairs.empty()) {
    std::fprintf(stderr, "FATAL: empty 2pc n=6 midpoint frontier\n");
    std::abort();
  }
  for (const auto& [parent, child] : pairs) {
    res.pending_mean += static_cast<double>(parent->messages.size() +
                                            child->messages.size());
    res.channels_mean += static_cast<double>(parent->channels.size() +
                                             child->channels.size());
  }
  res.pending_mean /= 2.0 * static_cast<double>(pairs.size());
  res.channels_mean /= 2.0 * static_cast<double>(pairs.size());

  net::SimNetwork& live = w->network();
  WallTimer t;
  for (int r = 0; r < rounds; ++r) {
    for (const auto& [parent, child] : pairs) {
      live.restore(parent);
      live.restore(child);
    }
  }
  res.restore_us = t.ms() * 1000.0 /
                   (2.0 * static_cast<double>(rounds) *
                    static_cast<double>(pairs.size()));
  if (live.digest() != live.digest_uncached()) {
    std::fprintf(stderr, "FATAL: network restore diverged\n");
    std::abort();
  }
  return res;
}

// --- F: replay-warmed vs cold trail re-anchoring -----------------------------
// The trail-frontier shape at an anchor boundary: every expanded node
// re-anchors after replaying its suffix, and (cold) captures fresh
// checkpoints and message objects that are bit-identical to its
// siblings'. Replay warming keys those by (anchor, prefix) and shares
// them, so the measured peak frontier drops and re-anchor capture time
// (snapshot_ms) shrinks. Default anchor interval: longer replayed
// suffixes mean more bit-identical sibling re-captures for warming to
// share.
mc::SysExploreResult bench_reanchor(std::size_t n, bool warm) {
  apps::TwoPcConfig cfg;
  cfg.total_txns = 1;
  auto w = apps::make_two_pc_world(n, 2, cfg);
  mc::SysExploreOptions o;
  o.order = mc::SearchOrder::kBfs;
  o.max_states = 60000;
  o.max_depth = 80;
  o.trail_frontier = true;
  o.anchor_interval = 8;
  o.install_invariants = [warm](rt::World& world) {
    apps::install_two_pc_invariants(world);
    world.set_replay_warm(warm);
  };
  mc::SystemExplorer ex(*w, o);
  return ex.explore();
}

// --- E: enabled-event set per executed event --------------------------------
// A process that stands up a deep backlog: a pile of far-future timers
// (kept deep by re-arming on fire) plus circulating ring traffic whose
// queues deepen behind crashed destinations. The enabled set each step is
// tiny (the ready/warp group in timed mode) while the world holds
// thousands of armed timers and queued messages — the shape where the
// incremental index wins and the per-call rescan pays O(world).
class BacklogProc final : public rt::ProcessBase<BacklogProc> {
 public:
  BacklogProc(std::size_t timers, std::size_t sends)
      : timers_(timers), sends_(sends) {}

  void on_start(rt::Context& ctx) override {
    for (std::size_t i = 0; i < timers_; ++i) {
      ctx.set_timer(100000 + 7 * i + ctx.self(),
                    static_cast<std::uint32_t>(i % 8));
    }
    for (std::size_t i = 0; i < sends_; ++i) {
      ctx.send((ctx.self() + 1) % ctx.world_size(), 1, {});
    }
  }

  void on_message(rt::Context& ctx, const net::Message&) override {
    ++handled_;
    ctx.send((ctx.self() + 1) % ctx.world_size(), 1, {});
  }

  void on_timer(rt::Context& ctx, const rt::Timer& t) override {
    ctx.set_timer(100000, t.kind);  // keep the timer backlog deep
  }

  void save_root(BinaryWriter& w) const override {
    w.write_u64(timers_);
    w.write_u64(sends_);
    w.write_u64(handled_);
  }
  void load_root(BinaryReader& r) override {
    timers_ = r.read_u64();
    sends_ = r.read_u64();
    handled_ = r.read_u64();
  }
  std::string type_name() const override { return "backlog-proc"; }

 private:
  std::uint64_t timers_;
  std::uint64_t sends_;
  std::uint64_t handled_ = 0;
};

PairResult bench_enabled_set(std::size_t procs, std::size_t timers_per_proc,
                             std::size_t sends_per_proc, bool abstract_time,
                             int iters) {
  rt::WorldOptions opts;
  opts.abstract_time = abstract_time;
  auto w = std::make_unique<rt::World>(opts);
  for (std::size_t i = 0; i < procs; ++i) {
    w->add_process(
        std::make_unique<BacklogProc>(timers_per_proc, sends_per_proc));
  }
  w->seal();
  w->run(procs);  // everyone started: backlogs armed and circulating
  // Crash a quarter of the processes: their timer buckets mask in O(1)
  // and ring traffic piles up behind their channel heads.
  for (ProcessId pid = 3; pid < procs; pid += 4) w->set_crashed(pid, true);

  // One event executes between measured calls (the explore/run shape),
  // but only the enabled-set call itself is inside the timed region —
  // the gate must compare the two call costs, not step() overhead.
  PairResult res;
  std::uint64_t sink = 0;
  WallTimer t;
  double acc_ms = 0;
  for (int i = 0; i < iters; ++i) {
    w->step();
    t.reset();
    sink ^= w->enabled_events().size();
    acc_ms += t.ms();
  }
  res.cached_us = acc_ms * 1000.0 / iters;

  acc_ms = 0;
  for (int i = 0; i < iters; ++i) {
    w->step();
    t.reset();
    sink ^= w->enabled_events_uncached().size();
    acc_ms += t.ms();
  }
  res.uncached_us = acc_ms * 1000.0 / iters;

  // Exact-equality spot check, order included (the test suite proves it
  // across every mutation path).
  if (w->enabled_events() != w->enabled_events_uncached()) {
    std::fprintf(stderr, "FATAL: enabled-event index diverged\n");
    std::abort();
  }
  (void)sink;
  return res;
}

}  // namespace

int main() {
  std::printf("FixD reproduction — Figure 9: incremental state digests\n");

  bench::header("A. PagedHeap digest after one sparse 64b write per event");
  bench::row("%-10s %12s %14s %9s", "heap", "cached us", "uncached us",
             "speedup");
  bench::rule();
  PairResult heap_small = bench_heap_digest(1 << 20, 2000);
  PairResult heap_big = bench_heap_digest(4 << 20, 800);
  bench::row("%-10s %12.2f %14.2f %8.1fx", "1 MiB", heap_small.cached_us,
             heap_small.uncached_us, heap_small.speedup());
  bench::row("%-10s %12.2f %14.2f %8.1fx", "4 MiB", heap_big.cached_us,
             heap_big.uncached_us, heap_big.speedup());
  // Informational, no gate: what one page or message digest costs.
  const HashRate hash16 = bench_hash_bytes(16, 32u << 20);
  const HashRate hash70 = bench_hash_bytes(70, 32u << 20);
  const HashRate hash4k = bench_hash_bytes(4096, 256u << 20);
  bench::row("%-10s %12s %14s", "hash_bytes", "ns/call", "GB/s");
  for (const auto& [name, r] : {std::pair{"16 B", hash16},
                                std::pair{"70 B", hash70},
                                std::pair{"4 KiB", hash4k}}) {
    bench::row("%-10s %12.1f %14.2f", name, r.ns_per_call, r.gb_per_s);
  }

  bench::header(
      "B. World::mc_digest per executed event (heap-backed processes)");
  bench::row("%-10s %12s %14s %9s", "world", "cached us", "uncached us",
             "speedup");
  bench::rule();
  PairResult world16 = bench_world_digest(16, 1 << 20, 400);
  bench::row("%-10s %12.2f %14.2f %8.1fx", "16p x 1MiB", world16.cached_us,
             world16.uncached_us, world16.speedup());

  bench::header(
      "C. SystemExplorer throughput (2pc n=4, BFS; snapshot vs trail "
      "frontier)");
  bench::row("%-8s %8s %9s %9s %9s %11s %9s", "mode", "states", "wall ms",
             "dig.ms", "snap.ms", "peak KiB", "states/s");
  bench::rule();
  mc::SysExploreResult ex = bench_explorer(4, 60000, /*trail=*/false);
  mc::SysExploreResult ext = bench_explorer(4, 60000, /*trail=*/true);
  for (const auto* r : {&ex, &ext}) {
    bench::row("%-8s %8llu %9.1f %9.1f %9.1f %11.1f %9.0f",
               r == &ex ? "snap" : "trail",
               (unsigned long long)r->stats.states, r->stats.wall_ms,
               r->stats.digest_ms, r->stats.snapshot_ms,
               r->stats.peak_frontier_bytes / 1024.0,
               r->stats.states_per_sec());
  }
  if (ex.stats.states != ext.stats.states ||
      ex.stats.transitions != ext.stats.transitions) {
    std::fprintf(stderr,
                 "FATAL: trail-frontier explored a different state set\n");
    std::abort();
  }

  bench::header(
      "D. World snapshot + restore per explored node (16p x 1MiB heaps)");
  bench::row("%-10s %12s %14s %9s", "world", "shared us", "deep us",
             "speedup");
  bench::rule();
  PairResult snap16 = bench_world_snapshot(16, 1 << 20, 2000, 40);
  bench::row("%-10s %12.2f %14.2f %8.1fx", "16p x 1MiB", snap16.cached_us,
             snap16.uncached_us, snap16.speedup());
  const NetRestoreResult netr = bench_net_restore(50);
  bench::row("%-30s %12s %9s %9s", "network alone (2pc n=6 BFS mid)",
             "restore us", "pending", "channels");
  bench::row("%-30s %12.3f %9.1f %9.1f", "SimNetwork::restore",
             netr.restore_us, netr.pending_mean, netr.channels_mean);

  bench::header(
      "E. World::enabled_events per executed event (deep message/timer "
      "backlogs, quarter of procs crashed)");
  bench::row("%-22s %12s %14s %9s", "world", "index us", "uncached us",
             "speedup");
  bench::rule();
  // Timed mode: the ready/warp group is a handful of events while the
  // world holds thousands of armed timers and queued messages — the
  // explore/run hot-path shape the index targets. Gate: >= 5x at 16p.
  PairResult en16 = bench_enabled_set(16, 256, 32, /*abstract=*/false, 2000);
  PairResult en64 = bench_enabled_set(64, 128, 16, /*abstract=*/false, 1000);
  // Abstract mode materializes the whole enabled set (output-sized on
  // both sides); reported for honesty, not gated.
  PairResult en16a = bench_enabled_set(16, 256, 32, /*abstract=*/true, 400);
  bench::row("%-22s %12.2f %14.2f %8.1fx", "16p timed", en16.cached_us,
             en16.uncached_us, en16.speedup());
  bench::row("%-22s %12.2f %14.2f %8.1fx", "64p timed", en64.cached_us,
             en64.uncached_us, en64.speedup());
  bench::row("%-22s %12.2f %14.2f %8.1fx", "16p abstract", en16a.cached_us,
             en16a.uncached_us, en16a.speedup());

  bench::header(
      "F. Trail re-anchoring: replay-warmed vs cold captures (2pc n=5, "
      "BFS, anchor interval 8)");
  bench::row("%-8s %8s %9s %9s %11s %9s", "mode", "states", "wall ms",
             "snap.ms", "peak KiB", "states/s");
  bench::rule();
  mc::SysExploreResult rw = bench_reanchor(5, /*warm=*/true);
  mc::SysExploreResult rc = bench_reanchor(5, /*warm=*/false);
  for (const auto* r : {&rc, &rw}) {
    bench::row("%-8s %8llu %9.1f %9.1f %11.1f %9.0f",
               r == &rc ? "cold" : "warm",
               (unsigned long long)r->stats.states, r->stats.wall_ms,
               r->stats.snapshot_ms,
               r->stats.peak_frontier_bytes / 1024.0,
               r->stats.states_per_sec());
  }
  if (rw.stats.states != rc.stats.states ||
      rw.stats.transitions != rc.stats.transitions) {
    std::fprintf(stderr,
                 "FATAL: replay warming changed the explored state set\n");
    std::abort();
  }
  const double reanchor_mem_ratio =
      rw.stats.peak_frontier_bytes > 0
          ? static_cast<double>(rc.stats.peak_frontier_bytes) /
                static_cast<double>(rw.stats.peak_frontier_bytes)
          : 0.0;
  const double reanchor_snap_ratio =
      rw.stats.snapshot_ms > 0
          ? rc.stats.snapshot_ms / rw.stats.snapshot_ms
          : 0.0;

  // Machine-readable trajectory record.
  FILE* f = std::fopen("BENCH_digest.json", "w");
  if (f) {
    std::fprintf(
        f,
        "{\n"
        "  \"heap_1mib_cached_us\": %.3f,\n"
        "  \"heap_1mib_uncached_us\": %.3f,\n"
        "  \"heap_1mib_speedup\": %.2f,\n"
        "  \"heap_4mib_cached_us\": %.3f,\n"
        "  \"heap_4mib_uncached_us\": %.3f,\n"
        "  \"heap_4mib_speedup\": %.2f,\n"
        "  \"hash_16b_ns\": %.2f,\n"
        "  \"hash_16b_gb_per_s\": %.3f,\n"
        "  \"hash_70b_ns\": %.2f,\n"
        "  \"hash_70b_gb_per_s\": %.3f,\n"
        "  \"hash_4kib_ns\": %.2f,\n"
        "  \"hash_4kib_gb_per_s\": %.3f,\n"
        "  \"world16_cached_us\": %.3f,\n"
        "  \"world16_uncached_us\": %.3f,\n"
        "  \"world16_speedup\": %.2f,\n"
        "  \"world16_snap_shared_us\": %.3f,\n"
        "  \"world16_snap_deep_us\": %.3f,\n"
        "  \"world16_snap_speedup\": %.2f,\n"
        "  \"net_restore_2pc6_mid_us\": %.3f,\n"
        "  \"explorer_states\": %llu,\n"
        "  \"explorer_wall_ms\": %.2f,\n"
        "  \"explorer_digest_ms\": %.2f,\n"
        "  \"explorer_snapshot_ms\": %.2f,\n"
        "  \"explorer_peak_frontier_bytes\": %llu,\n"
        "  \"explorer_states_per_sec\": %.0f,\n"
        "  \"explorer_visited_resident_bytes\": %llu,\n"
        "  \"explorer_visited_spilled_bytes\": %llu,\n"
        "  \"explorer_trail_wall_ms\": %.2f,\n"
        "  \"explorer_trail_peak_frontier_bytes\": %llu,\n"
        "  \"explorer_trail_states_per_sec\": %.0f,\n"
        "  \"reanchor_cold_peak_frontier_bytes\": %llu,\n"
        "  \"reanchor_warm_peak_frontier_bytes\": %llu,\n"
        "  \"reanchor_mem_ratio\": %.3f,\n"
        "  \"reanchor_cold_snapshot_ms\": %.2f,\n"
        "  \"reanchor_warm_snapshot_ms\": %.2f,\n"
        "  \"reanchor_snapshot_ratio\": %.3f,\n"
        "  \"enabled16_timed_index_us\": %.3f,\n"
        "  \"enabled16_timed_uncached_us\": %.3f,\n"
        "  \"enabled16_timed_speedup\": %.2f,\n"
        "  \"enabled64_timed_index_us\": %.3f,\n"
        "  \"enabled64_timed_uncached_us\": %.3f,\n"
        "  \"enabled64_timed_speedup\": %.2f,\n"
        "  \"enabled16_abstract_index_us\": %.3f,\n"
        "  \"enabled16_abstract_uncached_us\": %.3f,\n"
        "  \"enabled16_abstract_speedup\": %.2f\n"
        "}\n",
        heap_small.cached_us, heap_small.uncached_us, heap_small.speedup(),
        heap_big.cached_us, heap_big.uncached_us, heap_big.speedup(),
        hash16.ns_per_call, hash16.gb_per_s, hash70.ns_per_call,
        hash70.gb_per_s, hash4k.ns_per_call, hash4k.gb_per_s,
        world16.cached_us, world16.uncached_us, world16.speedup(),
        snap16.cached_us, snap16.uncached_us, snap16.speedup(),
        netr.restore_us, (unsigned long long)ex.stats.states, ex.stats.wall_ms,
        ex.stats.digest_ms, ex.stats.snapshot_ms,
        (unsigned long long)ex.stats.peak_frontier_bytes,
        ex.stats.states_per_sec(),
        (unsigned long long)ex.stats.visited_resident_bytes,
        (unsigned long long)ex.stats.visited_spilled_bytes, ext.stats.wall_ms,
        (unsigned long long)ext.stats.peak_frontier_bytes,
        ext.stats.states_per_sec(),
        (unsigned long long)rc.stats.peak_frontier_bytes,
        (unsigned long long)rw.stats.peak_frontier_bytes,
        reanchor_mem_ratio, rc.stats.snapshot_ms, rw.stats.snapshot_ms,
        reanchor_snap_ratio, en16.cached_us, en16.uncached_us,
        en16.speedup(), en64.cached_us, en64.uncached_us, en64.speedup(),
        en16a.cached_us, en16a.uncached_us, en16a.speedup());
    std::fclose(f);
    std::printf("\nwrote BENCH_digest.json\n");
  }

  std::printf(
      "\nShape check: digesting, capturing, OR asking \"what can fire\n"
      "next?\" after one event costs O(changed state), not O(total state);\n"
      "the trail frontier holds the same state set in a fraction of the\n"
      "memory, and replay warming makes sibling anchors share it. The\n"
      "nonzero exit below is the perf regression gate (world digest >= 5x,\n"
      "snapshot >= 5x, enabled set >= 5x on the 16p timed backlog\n"
      "workload, and warm re-anchoring >= 1.25x less peak frontier than\n"
      "cold — the last is a deterministic byte ratio, not a timing).\n");
  std::printf("section F gate: warm vs cold peak ratio %.2fx (need >= "
              "1.25x), snapshot_ms ratio %.2fx (reported, ungated)\n",
              reanchor_mem_ratio, reanchor_snap_ratio);
  return (world16.speedup() >= 5.0 && snap16.speedup() >= 5.0 &&
          en16.speedup() >= 5.0 && reanchor_mem_ratio >= 1.25)
             ? 0
             : 1;
}
