// The ModelD back-end engine: state-space exploration over guarded models.
//
// "The back-end component is responsible for performing the actual state
// transitions, keeping track of the visited execution paths (calculating the
// reachability graph), and verifying that no user-specified invariants are
// violated." (§4.3)
//
// Search orders (the "customize the search order" feature):
//   kDfs        depth-first, cheap frontier, long counterexamples
//   kBfs        breadth-first, shortest counterexamples
//   kPriority   best-first by a user heuristic (ModelD's heuristic search)
//   kRandomWalk repeated seeded walks with restarts (no visited set)
//
// The engine records the reachability graph as (parent, action) links so a
// violation's full trail is reconstructible without storing states.
#pragma once

#include <algorithm>
#include <chrono>
#include <deque>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "mc/concurrent.hpp"
#include "mc/guarded.hpp"

namespace fixd::mc {

enum class SearchOrder { kDfs, kBfs, kPriority, kRandomWalk };

inline const char* to_string(SearchOrder o) {
  switch (o) {
    case SearchOrder::kDfs: return "dfs";
    case SearchOrder::kBfs: return "bfs";
    case SearchOrder::kPriority: return "priority";
    case SearchOrder::kRandomWalk: return "random-walk";
  }
  return "?";
}

struct ExploreStats {
  std::uint64_t states = 0;       ///< unique states visited
  std::uint64_t transitions = 0;  ///< actions executed
  std::uint64_t duplicates = 0;   ///< transitions into already-seen states
  std::uint64_t max_depth = 0;
  bool truncated = false;  ///< a budget (states/depth) was exhausted
  double wall_ms = 0.0;    ///< total explore() wall time
  /// Wall time spent hashing states for dedup and capturing frontier
  /// states: estimates, sampled by SampledTimer.
  double digest_ms = 0.0;
  double snapshot_ms = 0.0;
  /// Peak retained frontier memory, shared buffers (COW checkpoints,
  /// message payloads) counted once (SystemExplorer only). Exact for
  /// sequential searches; with workers > 1 it is the sum of per-worker
  /// meter peaks — an upper bound (worker peaks need not be simultaneous,
  /// buffers shared across workers are charged once per worker, and
  /// stolen nodes stay charged on the worker that pushed them).
  std::uint64_t peak_frontier_bytes = 0;
  /// Parallel searches: the largest single-worker contribution to the
  /// peak_frontier_bytes sum (0 when workers == 1).
  std::uint64_t peak_frontier_bytes_max_worker = 0;
  /// Retained *resident* bytes of the visited (dedup) set at the end of
  /// the search — the one explorer structure that only grows in RAM unless
  /// a `visited_budget_bytes` lets it spill (SystemExplorer graph
  /// searches; 0 for random walks and dedup-off runs).
  std::uint64_t visited_resident_bytes = 0;
  /// High-water mark of visited_resident_bytes over the run — what the
  /// `visited_budget_bytes` resident-memory gate is checked against
  /// (equal to the final resident bytes when nothing spilled).
  std::uint64_t visited_peak_resident_bytes = 0;
  /// Bytes of the visited set living on disk at the end of the search
  /// (sorted spill runs; 0 unless `visited_budget_bytes` forced a spill).
  std::uint64_t visited_spilled_bytes = 0;
  /// Cumulative spill IO written over the run (re-merges count every
  /// generation, so this can exceed visited_spilled_bytes).
  std::uint64_t spilled_bytes = 0;
  /// Bloom-filter false positives / queries for a budgeted visited set
  /// (each false positive costs one disk probe, never correctness).
  double bloom_fp_rate = 0.0;
  /// Trail-frontier anchors whose snapshot was dropped under
  /// `frontier_budget_bytes`, and evicted anchors rebuilt on demand by
  /// root-anchored replay (a rebuilt anchor can serve many pops).
  std::uint64_t anchor_evictions = 0;
  std::uint64_t anchor_recomputes = 0;
  /// Actions re-executed to rebuild popped states from their anchors
  /// (trail-frontier mode only; 0 in snapshot mode).
  std::uint64_t replayed_actions = 0;
  /// Worker threads that ran the search (1 = sequential). When > 1,
  /// digest_ms/snapshot_ms are CPU time summed across workers, so they can
  /// legitimately exceed wall_ms.
  std::uint64_t workers = 1;
  /// Frontier nodes a worker stole from another worker's deque (parallel
  /// SystemExplorer only; load-balance observability).
  std::uint64_t steals = 0;
  /// Dynamic POR: enabled actions deferred at expansion (not part of the
  /// chosen source set) and backtrack nodes pushed by race detection
  /// (SystemExplorer, por only).
  std::uint64_t por_deferred = 0;
  std::uint64_t por_backtracks = 0;

  /// Exploration throughput (the Investigator's headline number).
  double states_per_sec() const {
    return wall_ms > 0.0 ? static_cast<double>(states) / wall_ms * 1000.0
                         : 0.0;
  }

  // Wire form (service job journal / RPC results). Field-by-field in
  // declaration order; extend both sides together.
  void save(BinaryWriter& w) const {
    w.write_u64(states);
    w.write_u64(transitions);
    w.write_u64(duplicates);
    w.write_u64(max_depth);
    w.write_bool(truncated);
    w.write_f64(wall_ms);
    w.write_f64(digest_ms);
    w.write_f64(snapshot_ms);
    w.write_u64(peak_frontier_bytes);
    w.write_u64(peak_frontier_bytes_max_worker);
    w.write_u64(visited_resident_bytes);
    w.write_u64(visited_peak_resident_bytes);
    w.write_u64(visited_spilled_bytes);
    w.write_u64(spilled_bytes);
    w.write_f64(bloom_fp_rate);
    w.write_u64(anchor_evictions);
    w.write_u64(anchor_recomputes);
    w.write_u64(replayed_actions);
    w.write_u64(workers);
    w.write_u64(steals);
    w.write_u64(por_deferred);
    w.write_u64(por_backtracks);
  }

  void load(BinaryReader& r) {
    states = r.read_u64();
    transitions = r.read_u64();
    duplicates = r.read_u64();
    max_depth = r.read_u64();
    truncated = r.read_bool();
    wall_ms = r.read_f64();
    digest_ms = r.read_f64();
    snapshot_ms = r.read_f64();
    peak_frontier_bytes = r.read_u64();
    peak_frontier_bytes_max_worker = r.read_u64();
    visited_resident_bytes = r.read_u64();
    visited_peak_resident_bytes = r.read_u64();
    visited_spilled_bytes = r.read_u64();
    spilled_bytes = r.read_u64();
    bloom_fp_rate = r.read_f64();
    anchor_evictions = r.read_u64();
    anchor_recomputes = r.read_u64();
    replayed_actions = r.read_u64();
    workers = r.read_u64();
    steals = r.read_u64();
    por_deferred = r.read_u64();
    por_backtracks = r.read_u64();
  }
};

struct ModelViolation {
  std::string invariant;
  std::string detail;
  std::vector<std::string> trail;  ///< action names from the initial state
  std::size_t depth = 0;
};

struct ExploreResult {
  ExploreStats stats;
  std::vector<ModelViolation> violations;
  bool found_violation() const { return !violations.empty(); }
};

/// Charges the wall time of a hot call to a stats field, sampled: it times
/// the first call and every 64th after it, and charges each timed call for
/// itself and the untimed calls before it (so never for calls that did not
/// happen). Digests and captures run for microseconds or less, so a clock
/// read per call would be a visible share of the work it measures. One per
/// worker and measured call site; not thread-safe.
class SampledTimer {
 public:
  static constexpr std::uint64_t kEvery = 64;

  template <typename F>
  auto operator()(double& ms, F&& call) {
    const std::uint64_t n = calls_++;
    if (n % kEvery != 0) return call();
    const auto t0 = std::chrono::steady_clock::now();
    auto out = call();
    ms += std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count() *
          static_cast<double>(n == 0 ? 1 : kEvery);
    return out;
  }

 private:
  std::uint64_t calls_ = 0;
};

/// Default `max_states` caps. The two explorers deliberately differ:
/// abstract-model states (Explorer<S>) are tens of bytes hashed in
/// nanoseconds, so a ~1M-state default costs ~16 MB of visited set; a
/// SystemExplorer state is a whole COW world whose expansion costs
/// microseconds and whose frontier snapshot can run to kilobytes, so its
/// default stays an order of magnitude lower. Beyond-RAM runs raise the
/// SystemExplorer cap explicitly alongside `visited_budget_bytes` /
/// `frontier_budget_bytes` (docs/PERF.md Layer 9).
inline constexpr std::size_t kDefaultModelMaxStates = 1 << 20;
inline constexpr std::size_t kDefaultSysMaxStates = 200000;

struct ExploreOptions {
  SearchOrder order = SearchOrder::kBfs;
  std::size_t max_states = kDefaultModelMaxStates;
  std::size_t max_depth = 1 << 20;
  std::size_t max_violations = 1;  ///< stop after this many violations
  std::uint64_t seed = 42;         ///< random-walk seed
  std::size_t walk_restarts = 64;  ///< random-walk budget
};

template <typename S>
class Explorer {
 public:
  using PriorityFn = std::function<double(const S&)>;

  explicit Explorer(const GuardedModel<S>& model, ExploreOptions opts = {})
      : model_(model), opts_(opts) {}

  /// Heuristic for kPriority (higher explored first).
  void set_priority(PriorityFn fn) { priority_ = std::move(fn); }

  ExploreResult explore() {
    auto t0 = std::chrono::steady_clock::now();
    ExploreResult res = opts_.order == SearchOrder::kRandomWalk
                            ? random_walk()
                            : graph_search();
    res.stats.wall_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    return res;
  }

 private:
  struct Node {
    S state;
    std::size_t meta;   ///< index into meta_ (trail reconstruction)
    std::size_t depth;
    double priority = 0.0;
  };
  struct Meta {
    std::size_t parent;      ///< index into meta_; npos for root
    std::size_t action_idx;  ///< action taken from parent
  };
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  /// Hash a state for the visited set, charging the time to digest_ms.
  std::uint64_t timed_hash(const S& s, ExploreStats& stats) {
    return hash_timer_(stats.digest_ms, [&] { return model_.hash_state(s); });
  }

  std::vector<std::string> trail_of(std::size_t meta_idx) const {
    std::vector<std::string> t;
    while (meta_idx != kNpos) {
      const Meta& m = meta_[meta_idx];
      if (m.parent == kNpos && m.action_idx == kNpos) break;
      t.push_back(model_.actions()[m.action_idx].name);
      meta_idx = m.parent;
    }
    std::reverse(t.begin(), t.end());
    return t;
  }

  void check_state(const S& s, std::size_t meta_idx, std::size_t depth,
                   ExploreResult& res) {
    if (auto v = model_.violated(s)) {
      ModelViolation mv;
      mv.invariant = v->first;
      mv.detail = v->second;
      mv.trail = trail_of(meta_idx);
      mv.depth = depth;
      res.violations.push_back(std::move(mv));
    }
  }

  ExploreResult graph_search() {
    ExploreResult res;
    CompactDigestSet visited;  // single-threaded: no stripes, no lock

    auto cmp = [](const Node& a, const Node& b) {
      return a.priority < b.priority;  // max-heap by priority
    };
    std::priority_queue<Node, std::vector<Node>, decltype(cmp)> pq(cmp);
    std::deque<Node> fifo;  // BFS front / DFS back

    meta_.clear();
    meta_.push_back({kNpos, kNpos});
    Node root{model_.initial(), 0, 0, 0.0};
    visited.insert(timed_hash(root.state, res.stats));
    ++res.stats.states;
    check_state(root.state, 0, 0, res);
    if (res.violations.size() >= opts_.max_violations) return res;

    if (opts_.order == SearchOrder::kPriority) {
      if (priority_) root.priority = priority_(root.state);
      pq.push(std::move(root));
    } else {
      fifo.push_back(std::move(root));
    }

    while (true) {
      Node cur;
      if (opts_.order == SearchOrder::kPriority) {
        if (pq.empty()) break;
        cur = pq.top();
        pq.pop();
      } else if (opts_.order == SearchOrder::kBfs) {
        if (fifo.empty()) break;
        cur = std::move(fifo.front());
        fifo.pop_front();
      } else {  // DFS
        if (fifo.empty()) break;
        cur = std::move(fifo.back());
        fifo.pop_back();
      }

      if (cur.depth >= opts_.max_depth) {
        res.stats.truncated = true;
        continue;
      }

      for (std::size_t ai : model_.fireable(cur.state)) {
        S next = cur.state;
        model_.actions()[ai].effect(next);
        ++res.stats.transitions;
        std::uint64_t h = timed_hash(next, res.stats);
        if (!visited.insert(h)) {
          ++res.stats.duplicates;
          continue;
        }
        ++res.stats.states;
        meta_.push_back({cur.meta, ai});
        std::size_t mi = meta_.size() - 1;
        std::size_t depth = cur.depth + 1;
        res.stats.max_depth = std::max<std::uint64_t>(res.stats.max_depth,
                                                      depth);
        check_state(next, mi, depth, res);
        if (res.violations.size() >= opts_.max_violations) return res;
        if (res.stats.states >= opts_.max_states) {
          res.stats.truncated = true;
          return res;
        }
        Node child{std::move(next), mi, depth, 0.0};
        if (opts_.order == SearchOrder::kPriority) {
          if (priority_) child.priority = priority_(child.state);
          pq.push(std::move(child));
        } else {
          fifo.push_back(std::move(child));
        }
      }
    }
    return res;
  }

  ExploreResult random_walk() {
    ExploreResult res;
    Rng rng(opts_.seed);
    for (std::size_t walk = 0; walk < opts_.walk_restarts; ++walk) {
      S cur = model_.initial();
      std::vector<std::string> trail;
      ++res.stats.states;
      for (std::size_t d = 0; d < opts_.max_depth; ++d) {
        if (auto v = model_.violated(cur)) {
          ModelViolation mv;
          mv.invariant = v->first;
          mv.detail = v->second;
          mv.trail = trail;
          mv.depth = d;
          res.violations.push_back(std::move(mv));
          break;
        }
        auto fire = model_.fireable(cur);
        if (fire.empty()) break;
        std::size_t ai = fire[rng.next_below(fire.size())];
        model_.actions()[ai].effect(cur);
        trail.push_back(model_.actions()[ai].name);
        ++res.stats.transitions;
        ++res.stats.states;
        res.stats.max_depth = std::max<std::uint64_t>(res.stats.max_depth,
                                                      d + 1);
      }
      if (res.violations.size() >= opts_.max_violations) break;
    }
    return res;
  }

  const GuardedModel<S>& model_;
  ExploreOptions opts_;
  PriorityFn priority_;
  std::vector<Meta> meta_;
  SampledTimer hash_timer_;
};

}  // namespace fixd::mc
