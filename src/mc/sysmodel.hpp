// The SystemExplorer: model checking *real implementations* (§4.3).
//
// "The main difference is that we want to be able to exhaustively analyze
// the behavior of real programs rather than that of abstract models."
//
// The explorer clones a world (the state restored by the Time Machine) and
// exhaustively explores the interleavings of its enabled events:
// every pending message delivery, every armed timer, every pending start is
// a transition. States are deduplicated by the world's canonical digest.
//
// Environment modeling (Fig. 4: "certain parts of the environment ... must
// be modeled internally"; §4.3: "swap out the real communication actions,
// replace those with models"): with model_message_loss / _duplication, each
// pending message additionally yields drop / duplicate transitions — the
// lossy network model replaces the seeded live policy.
//
// Invariants are functions, not state, so they cannot be cloned with the
// world; the caller supplies an installer that registers them on any world
// (the example apps export exactly such installers).
#pragma once

#include <deque>
#include <functional>
#include <memory>

#include "mc/engine.hpp"
#include "mc/trail.hpp"
#include "rt/world.hpp"

namespace fixd::mc {

/// The exact resource set a transition reads or writes — the basis for
/// commutation. Two actions are independent iff their footprints are
/// disjoint in every component:
///
///   - `procs`: processes whose local state (heap, timers, crash flag) the
///     action mutates or whose enabled set it gates. Bitmask; pids >= 63
///     collapse onto bit 63 (conservative: all high pids collide).
///   - `link`: the directed channel the action consumes from, appends to,
///     blocks, or heals. FIFO channels make same-channel actions
///     order-sensitive even when they touch different messages.
///   - `msg`: the specific message consumed/dropped/duplicated/delayed
///     (0 = none; real MsgIds start at 1).
///   - `timer`: the specific (pid, timer) an action fires (0 = none).
///   - `cut_budget`: partition cuts and heals both move the global
///     blocked-link count that gates further cut enumeration
///     (max_cut_links), so any two of them are mutually dependent.
///
/// Deliberately NOT in the footprint: message *sends*. A handler can send
/// to any process, so tracking send targets statically would make every
/// pair of deliveries dependent. Sends only ever append (enable), never
/// disable, and the canonical digest is content-keyed, so handler
/// executions at distinct processes still commute up to digest — new
/// conflicts created by sends are caught dynamically by the explorer's
/// race detection (por), not statically here.
struct ActionFootprint {
  std::uint64_t procs = 0;
  std::uint32_t link_src = kNoProcess;
  std::uint32_t link_dst = kNoProcess;
  MsgId msg = 0;
  std::uint64_t timer = 0;
  bool cut_budget = false;

  bool has_link() const { return link_src != kNoProcess; }

  static std::uint64_t proc_bit(ProcessId p) {
    return std::uint64_t{1} << (p < 63 ? p : 63);
  }
};

struct SysExploreOptions {
  SearchOrder order = SearchOrder::kBfs;
  std::size_t max_states = kDefaultSysMaxStates;
  std::size_t max_depth = 10000;
  std::size_t max_violations = 1;
  std::uint64_t seed = 42;
  std::size_t walk_restarts = 64;

  /// Environment models (swapping real network actions for modelled ones).
  bool model_message_loss = false;
  bool model_message_duplication = false;

  /// Timeout environment model. With model_message_delay, every pending
  /// non-control message whose accumulated latency is still below
  /// model_delay_horizon additionally yields a kDelayMessage action
  /// (ready time += model_delay_quantum). It is meant for *timed*
  /// exploration (abstract_time = false): abstract time ignores ready
  /// times, so a delay cannot change what is enabled there. The horizon
  /// keeps the timed state space finite and is a pure function of world
  /// state, so cached and uncached enumeration agree by construction.
  bool model_message_delay = false;
  VirtualTime model_delay_quantum = 8;
  VirtualTime model_delay_horizon = 32;

  /// Partition-family environment models, all pure functions of world
  /// state (cached and uncached enumeration agree by construction). With
  /// model_partition, every unblocked directed link currently carrying
  /// pending traffic yields a kPartitionLinks cut action — bounded by
  /// max_cut_links simultaneously blocked links, the partition analogue
  /// of the delay horizon — and every blocked link yields a kHealLinks
  /// action. With model_restart, every crashed process yields a
  /// kRestartProcess action (the durable restart: the process resumes
  /// with its crash-time state; amnesiac restarts depend on a historical
  /// checkpoint and are injector territory, not model actions).
  bool model_partition = false;
  bool model_restart = false;
  std::size_t max_cut_links = 2;

  /// Exploration time semantics. Abstract (default): every pending
  /// message and armed timer is enabled regardless of virtual time — the
  /// Investigator's usual view, where timer/message races are maximal.
  /// Timed (false): enabledness gates on ready times and deadlines, which
  /// is what makes the *value* of a timeout behaviorally meaningful —
  /// the TimeoutTuner validates candidate timeouts in timed mode. Timed
  /// dedup additionally folds the relative readiness layout into the
  /// canonical digest (mc_digest abstracts virtual time away).
  bool abstract_time = true;

  /// State deduplication via canonical digests (on = reachability graph;
  /// off = full tree — the ablation in bench/ablation_por).
  bool dedup = true;

  /// Dynamic partial-order reduction (DPOR-style source sets + backtrack
  /// points), the explorer's one reduction. Independence is exact
  /// disjointness of per-action resource footprints (ActionFootprint):
  /// process set, directed channel, message id, timer id, and the
  /// partition cut budget — valid for delivery/timer/crash-restart/delay/
  /// partition/heal actions in both abstract and timed mode. At each first
  /// expansion the explorer runs only one dependency-closed class of the
  /// enabled actions (the source set, seeded by the first enabled action)
  /// and defers the rest; every executed transition is then checked for races
  /// against the footprints along its path, and a race re-expands the
  /// ancestor state with the deferred action (a root-anchored backtrack
  /// node — works in snapshot and trail frontier modes and at any worker
  /// count alike). Soundness: deferred actions are
  /// independent of the explored suffix until a race fires, so every
  /// violation of a *stable* predicate (one that keeps holding once
  /// reached, e.g. conflicting-decision or divergence invariants) is
  /// still reached; a transient predicate that flickers only inside a
  /// commuted segment may be observed at fewer intermediate states. The
  /// differential suites (tests/test_mc_por.cpp) pin: same violation set
  /// as por=off, strictly fewer visited states on 2pc n>=4; see
  /// docs/PERF.md Layer 8 for the full argument.
  bool por = false;

  /// Trail-based frontier (graph searches only): nodes store a shared
  /// anchor snapshot plus the action path from it, re-executed
  /// deterministically on pop, instead of one snapshot per node. Cuts
  /// frontier memory from O(nodes × world) to O(nodes) + one anchor per
  /// `anchor_interval` depth — SimGrid-style stateful re-execution; this
  /// is what pushes BFS past the frontier-memory feasibility wall.
  /// Requires deterministic handlers (the runtime's standing contract).
  bool trail_frontier = false;
  /// Take a fresh anchor snapshot once a node's replay distance from its
  /// anchor reaches this many actions (trades replay time for memory).
  /// Each expanded node replays at most anchor_interval - 1 actions, once;
  /// its children start from that one materialization (the first in place,
  /// the rest from a transient parent snapshot).
  std::size_t anchor_interval = 8;

  /// Workers of the graph-search engine (kDfs/kBfs; explore() rejects
  /// kPriority, which only ModelD's Explorer implements). Every worker
  /// count runs the same engine: each worker owns a scratch world and a
  /// stealable frontier deque, and all share one lock-striped visited
  /// set. One worker runs on the calling thread over the explorer's own
  /// scratch world with single-stripe structures, pops in exact BFS
  /// (front) / DFS (back) order, and reports violations in discovery
  /// order. kRandomWalk shards the walk budget instead: each
  /// walk draws from an RNG derived from (seed, walk index), so any worker
  /// count runs the exact same trajectories — results match the one-worker
  /// walk modulo the early stop when max_violations fills mid-flight.
  ///
  /// Determinism contract (tested by tests/test_mc_parallel.cpp against an
  /// independent reference BFS over the public rt::World API): with dedup
  /// on, por off, and budgets that don't truncate, every worker count
  /// visits exactly the reference's canonical state set with its
  /// state/transition/duplicate counts (and, for kBfs, its max_depth).
  /// With workers > 1 violations are an unordered set (stably re-sorted by
  /// depth), and every reported trail replays on a fresh world. por and
  /// truncated budgets are traversal-order-sensitive, so for them the
  /// guarantee is soundness (a subset of the reachable graph) plus the
  /// reduction property (same violation set as the unreduced search,
  /// pinned differentially per worker count) — not visited-set identity.
  /// With workers > 1 the install_invariants callback must be thread-safe
  /// (stateless lambdas are; every in-tree installer qualifies).
  std::size_t workers = 1;

  /// Beyond-RAM budgets (0 = unbounded, the historical behavior; see
  /// docs/PERF.md Layer 9 and mc/visited.hpp).
  ///
  /// visited_budget_bytes bounds the *resident* dedup set: half funds a
  /// Bloom front filter, half the hot exact shards; cold shards spill to
  /// sorted runs on disk and are probed back on Bloom "maybe"s. Dedup
  /// semantics stay exact — exactly one path wins each digest — so the
  /// visited set is identical to the unbounded run's. Applies to every
  /// graph search with dedup on, por included.
  std::uint64_t visited_budget_bytes = 0;
  /// frontier_budget_bytes bounds resident trail-mode anchor snapshots: a
  /// clock evictor drops the WorldSnapshot of cold anchors (the node
  /// shells and paths stay), and materialize() rebuilds an
  /// evicted anchor by root-anchored deterministic replay — the same
  /// mechanism POR backtrack nodes always use, so eviction is safe by
  /// construction. Requires trail_frontier; ignored in snapshot mode
  /// (snapshot-mode nodes have no replay recipe).
  std::uint64_t frontier_budget_bytes = 0;
  /// Parent directory for the per-run spill scratch dir (empty = the
  /// system temp dir). The scratch dir is removed on every exit path,
  /// including violation-found early returns (RAII; tested).
  std::string spill_dir;

  /// Return, sorted, the canonical digests this explore() call inserted
  /// first in SysExploreResult::visited. A single-shot search therefore
  /// returns its whole visited set (root included); a paused search's
  /// slices each return only their new digests, and a resume preseed
  /// (resume_visited) is never returned. The differential suites compare
  /// worker counts, and the engine against the reference BFS, with this;
  /// src/svc/jobd.cpp checkpoints each slice's new digests with it.
  bool collect_visited = false;

  /// Registers invariants (and anything else detection needs) on a world.
  std::function<void(rt::World&)> install_invariants;

  // --- Pause / capture / resume (the service layer's durability hooks) ----
  //
  // A dedup'd exhaustive graph search has an order-independent final
  // visited set: preseed ∪ reachable-from-frontier. That makes a search
  // *sliceable* — stop at a clean node boundary, capture {visited,
  // frontier-as-trails}, and a later explorer (even in a fresh process)
  // resumes to the identical final visited set; one-worker BFS/DFS
  // additionally preserve the exact pop order, so violation trails come
  // back byte-identical. src/svc/jobd.cpp builds durable, kill -9
  // survivable investigation jobs on exactly this contract.
  //
  // A paused search stays alive in its explorer: the next explore() call
  // on the same explorer continues from the parked frontier in place —
  // the visited set, the workers' deques and path arenas and the frontier
  // meters carry over, nothing is re-planted or re-inserted, and workers
  // > 1 re-spawn their threads on the live search. Budgets (max_states,
  // max_violations) span the whole search; each call's stats start at
  // zero and cover only that slice's work. A call that does not pause
  // ends the search, and the call after it starts a new one.
  //
  // Supported only for graph searches (kBfs/kDfs) with dedup on and por
  // off (it carries traversal-order-sensitive extra state); explore()
  // throws ConfigError otherwise.

  /// Polled by each worker before every frontier pop, idle polls included,
  /// but only while the search still has work queued or in flight (must be
  /// thread-safe when workers > 1). The stats it receives carry the
  /// slice-wide `states` total (shared across workers) with the polling
  /// worker's other counters, so a `states >= N` threshold means the same
  /// thing at any worker count. Returning true pauses the search at the
  /// current clean node boundary:
  /// in-flight expansions complete (their children are pushed or deduped,
  /// never dropped), then SysExploreResult::paused is set. Also the
  /// service heartbeat: jobd's lease supervision feeds off these calls.
  /// A pause that leaves nothing queued is completion: paused stays false.
  std::function<bool(const ExploreStats&)> pause_check;

  /// On pause, copy the parked frontier into SysExploreResult::frontier as
  /// root-relative trails (deque order, front first, workers in id order)
  /// without draining it, so the next explore() continues from it. Nodes
  /// are captured as {action path from the root}, which is exactly what
  /// resume_frontier accepts.
  bool capture_frontier = false;

  /// A non-empty resume_visited starts the search from a checkpoint of an
  /// earlier explorer (one that no longer exists, e.g. before a crash)
  /// instead of from the root: the root state is NOT re-probed or
  /// re-counted, resume_visited preseeds the dedup set (it must contain
  /// the root digest), and resume_frontier's trails are re-planted as
  /// root-anchored frontier nodes in order. The base world passed to the
  /// constructor must be the same state the original search started from.
  /// A resume_frontier without resume_visited is a ConfigError.
  std::vector<std::uint64_t> resume_visited;
  std::vector<Trail> resume_frontier;
};

struct SysExploreResult {
  ExploreStats stats;
  std::vector<SysViolation> violations;
  /// Sorted canonical digests first visited by this call (only when
  /// opts.collect_visited; see there).
  std::vector<std::uint64_t> visited;
  /// True when pause_check stopped the search at a clean node boundary
  /// with work still queued (never set by budget truncation or a filled
  /// violation budget). The next explore() continues the search.
  bool paused = false;
  /// The un-expanded frontier at pause time (only when opts.capture_frontier).
  std::vector<Trail> frontier;
  bool found_violation() const { return !violations.empty(); }
};

class SystemExplorer {
 public:
  /// `base` is the state to investigate (typically just rolled back by the
  /// Time Machine). It is cloned; the original world is not modified.
  SystemExplorer(rt::World& base, SysExploreOptions opts);
  ~SystemExplorer();

  /// Run the search; if the previous call paused, continue it in place
  /// (see "Pause / capture / resume" in SysExploreOptions).
  SysExploreResult explore();

  /// Re-execute a trail on a fresh clone of `base`; returns the violations
  /// observed at the end (empty = the trail did not reproduce).
  /// `abstract_time` must match the exploration that produced the trail.
  static std::vector<rt::Violation> replay_trail(
      rt::World& base, const Trail& trail,
      const std::function<void(rt::World&)>& install_invariants,
      bool abstract_time = true);

  /// Exact resource footprint of `a` in `w`'s current state (message ids
  /// are resolved against the live network, so call it at enumeration
  /// time). Public because the POR regression tests exercise it directly.
  static ActionFootprint footprint(const rt::World& w, const SysAction& a);
  /// Exact commutation test: disjointness in every footprint component.
  static bool independent(const ActionFootprint& a, const ActionFootprint& b) {
    if (a.procs & b.procs) return false;
    if (a.cut_budget && b.cut_budget) return false;
    if (a.has_link() && a.link_src == b.link_src && a.link_dst == b.link_dst) {
      return false;
    }
    if (a.msg != 0 && a.msg == b.msg) return false;
    if (a.timer != 0 && a.timer == b.timer) return false;
    return true;
  }

 private:
  /// One reachability-graph edge, parent-linked toward the root (null at
  /// the root). Edges live in append-only arenas (a std::deque per
  /// worker), so addresses are stable,
  /// nodes are immutable once another node or frontier entry points at
  /// them, and teardown is a flat bulk free after the workers have joined
  /// — no refcount traffic on the hot path, no recursive destruction on
  /// deep chains, and no cross-thread writes for TSan to flag. Cross-
  /// worker reads of another arena's nodes are published by the frontier-
  /// deque mutexes (a node is only reachable through a pushed frontier
  /// entry). The owner may pop its newest, never-published edge (the
  /// duplicate-target case, exactly like the old meta arena).
  struct PathNode {
    const PathNode* parent;
    SysAction action;
    /// Footprint of `action` in its pre-state and the pre-state's
    /// canonical digest — the race-detection walk (por) compares a new
    /// transition's footprint against these to find the nearest dependent
    /// ancestor and address its expansion record. Filled only when
    /// opts_.por is on (zero otherwise; arena nodes are not frontier
    /// memory, so the growth is not metered against the fig3 gate).
    ActionFootprint fp;
    std::uint64_t pre_digest = 0;
  };

  /// An anchor: the indirection between frontier nodes and their shared
  /// WorldSnapshot. In unbudgeted runs it is a thin immutable wrapper
  /// (snap never changes after construction, read lock-free). Under
  /// frontier_budget_bytes, tracked trail-mode anchors become *evictable*:
  /// the AnchorRegistry may drop `snap` (keeping the replay recipe — the
  /// root-relative path and depth), and materialize() rebuilds it by
  /// deterministic replay from the pinned root anchor. One Anchor is
  /// shared by every node hanging off it, so the recipe is paid per
  /// anchor, not per node, and sizeof(Node) stays 40.
  struct Anchor;

  /// A frontier node, 40 bytes on LP64: one shared-anchor field serves
  /// both frontier representations (snapshot mode: the node's exact
  /// captured state, replay_len == 0 always; trail mode: the nearest
  /// ancestor anchor plus `replay_len` actions read off the path chain and
  /// re-executed on pop). With exactly one route from a node to its
  /// snapshot graph, the meter charges every buffer behind it once by
  /// pointer identity. The frontier deques move nodes, never copy them.
  struct Node {
    /// Snapshot mode: this node's state. Trail mode: its anchor; a node
    /// with replay_len == 0 *is* its anchor.
    std::shared_ptr<Anchor> state;
    /// The action path from the investigated root to this node (arena
    /// storage owned by the search that created the node).
    const PathNode* path = nullptr;
    /// Trail mode: actions to re-execute from `state` (0 in snapshot mode).
    std::uint32_t replay_len = 0;
    std::uint32_t depth = 0;
    /// Index of the worker that pushed this node, so frontier-meter
    /// refunds pair with the meter that charged it.
    std::uint32_t owner = 0;
  };

  class FrontierMeter;
  class AnchorRegistry;
  struct Shared;
  struct Worker;

  /// Bring `w` to `n`'s state: restore its anchor snapshot — rebuilding it
  /// first by root-anchored replay if the registry evicted it — and (trail
  /// mode) deterministically re-execute the replay suffix.
  void materialize(rt::World& w, const Node& n, Worker& me) const;

  std::vector<SysAction> enabled_actions(const rt::World& w) const;
  static void apply_action(rt::World& w, const SysAction& a);
  /// Stable identity of an action within a subtree (msg/timer ids persist
  /// until consumed).
  static std::uint64_t action_key(const SysAction& a);

  /// Source-set selection (por): the dependency-closed class of enabled
  /// actions containing every seed index, computed over `fps`. Returns
  /// the selected indices (ascending); everything else is deferred.
  static std::vector<std::size_t> source_closure(
      const std::vector<ActionFootprint>& fps,
      const std::vector<std::size_t>& seeds);

  /// POR bookkeeping shared by one search: the per-state expansion
  /// records plus the root anchor that backtrack nodes re-materialize
  /// from (defined in sysmodel.cpp).
  struct PorState;

  /// Pick the indices this expansion runs: drains the state's pending
  /// backtrack requests, seeds the first enabled action on a first visit,
  /// closes over dependency classes, and marks the selection done.
  /// `fps` and `keys` are non-empty and index-aligned.
  static std::vector<std::size_t> por_select(
      PorState& ps, std::uint64_t digest,
      const std::vector<ActionFootprint>& fps,
      const std::vector<std::uint64_t>& keys, ExploreStats& stats);

  /// Race detection for one executed transition: walk cur's path nearest-
  /// first for a dependent ancestor where the action was enabled but not
  /// run, register it there, and append a root-anchored backtrack node.
  void por_race_detect(PorState& ps, const Node& cur,
                       const ActionFootprint& fa, std::uint64_t akey,
                       std::vector<Node>& backtracks,
                       ExploreStats& stats) const;

  static Trail trail_of(const PathNode* path);
  /// Re-plant checkpoint trails (opts_.resume_frontier) as root-anchored
  /// frontier nodes, in order: each trail's actions become a PathNode
  /// chain in `arena`, and the node replays from the root anchor on
  /// materialize — the same mechanism as POR backtrack nodes, so no new
  /// replay machinery. The first expansion re-anchors them per the
  /// standard rules.
  std::vector<Node> resume_nodes(const std::shared_ptr<Anchor>& root_anchor,
                                 std::deque<PathNode>& arena) const;
  /// Validates the pause/capture/resume option contract (ConfigError).
  void check_pause_resume_options() const;
  /// Whether this search starts from a checkpoint (resume_visited given).
  bool resuming() const { return !opts_.resume_visited.empty(); }
  /// Probe the investigated state itself (the violation might already
  /// hold); returns false when the violation budget is already exhausted.
  bool probe_root(SysExploreResult& res);
  /// Snapshot `w` (COW) for a frontier anchor, timed (sampled) into
  /// snapshot_ms; with workers > 1 it is marked shared, since any node may
  /// be stolen.
  std::shared_ptr<const rt::WorldSnapshot> capture(rt::World& w,
                                                   ExploreStats& stats,
                                                   SampledTimer& timer) const;
  /// The graph-search engine (kBfs/kDfs) at any worker count: one slice of
  /// the live search, started first by start_search() when none is parked.
  SysExploreResult graph_search();
  /// Probe the root, build the shared state and plant the root (or the
  /// resume frontier). Null when the root probe fills the violation budget.
  std::unique_ptr<Shared> start_search(SysExploreResult& res);
  void worker_loop(Shared& sh, Worker& me);
  void expand(Shared& sh, Worker& me, Node cur);
  /// Make `nd` visible on `me`'s frontier deque; `active` rises first, so
  /// an idle worker can never observe "no work anywhere" while a node is
  /// in flight.
  static void push(Shared& sh, Worker& me, Node&& nd);
  SysExploreResult random_walk();

  rt::World& base_;
  SysExploreOptions opts_;
  std::unique_ptr<rt::World> scratch_;
  /// Anchor residency bookkeeping; non-null only for budgeted trail-mode
  /// graph searches (created per search; defined in sysmodel.cpp).
  std::unique_ptr<AnchorRegistry> reg_;
  /// The paused search the next explore() continues (null otherwise).
  std::unique_ptr<Shared> live_;
};

}  // namespace fixd::mc
