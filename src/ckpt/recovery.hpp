// Recovery-line computation: the algorithm behind Fig. 6.
//
// Given each process's checkpoint history (as vector clocks), find the most
// recent *consistent* combination — one checkpoint per process such that no
// checkpoint has observed an event another process's checkpoint has not yet
// performed (no orphan messages):
//
//     consistent({c_0..c_{n-1}})  ⟺  ∀ i,j:  c_j.vclock[i] ≤ c_i.vclock[i]
//
// The solver starts from every process's latest checkpoint and walks
// offending processes backwards to a fixpoint. With *independent* (periodic)
// checkpointing this exhibits the domino effect the paper warns about; with
// communication-induced checkpoints (one before every receive) the latest
// line is consistent after a single process rolls back — the "safe recovery
// line" of Fig. 6. bench/fig6_recovery_lines measures exactly this contrast.
//
// A history is anything indexable as `history[p][i]` (a VectorClock, p's
// checkpoints oldest to newest) with `size()` at both levels: a
// std::vector<std::vector<VectorClock>>, or a std::vector<CheckpointStore>
// read in place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/error.hpp"

namespace fixd::ckpt {

struct LineResult {
  /// Chosen checkpoint index per process (into the per-process history).
  std::vector<std::size_t> index;
  /// latest_index - chosen_index per process ("how far each rolled back").
  std::vector<std::size_t> rollback_depth;
  /// Own-component events undone per process.
  std::vector<std::uint64_t> events_undone;
  /// Fixpoint iterations (1 = the latest line was already consistent).
  std::uint32_t iterations = 0;

  std::size_t total_rollback() const {
    std::size_t n = 0;
    for (std::size_t d : rollback_depth) n += d;
    return n;
  }
  std::uint64_t total_events_undone() const {
    std::uint64_t n = 0;
    for (std::uint64_t d : events_undone) n += d;
    return n;
  }
};

class RecoveryLineSolver {
 public:
  /// Every process must have at least one checkpoint, and the oldest ones
  /// must form a consistent line (the initial states' all-zero clocks, or
  /// the Time Machine's horizon), so the fixpoint exists.
  ///
  /// `pinned[p]` (optional) caps process p at the given index — "roll back
  /// at least to here". Used for the failed process: it must return to (or
  /// before) the checkpoint it chose; the fixpoint may pull it back further
  /// if its own checkpoint observed sends the others cannot match.
  template <class History>
  static LineResult solve(const History& history) {
    return solve_pinned(history,
                        std::vector<std::ptrdiff_t>(history.size(), -1));
  }

  template <class History>
  static LineResult solve_pinned(const History& history,
                                 const std::vector<std::ptrdiff_t>& pinned);

  /// Check the consistency predicate for a specific selection.
  template <class History>
  static bool consistent(const History& history,
                         const std::vector<std::size_t>& index);
};

template <class History>
bool RecoveryLineSolver::consistent(const History& history,
                                    const std::vector<std::size_t>& index) {
  const std::size_t n = history.size();
  FIXD_CHECK(index.size() == n);
  for (std::size_t j = 0; j < n; ++j) {
    const VectorClock& cj = history[j][index[j]];
    for (std::size_t i = 0; i < n; ++i) {
      if (i == j) continue;
      const VectorClock& ci = history[i][index[i]];
      if (cj[i] > ci[i]) return false;  // c_j observed i beyond c_i: orphan
    }
  }
  return true;
}

template <class History>
LineResult RecoveryLineSolver::solve_pinned(
    const History& history, const std::vector<std::ptrdiff_t>& pinned) {
  const std::size_t n = history.size();
  FIXD_CHECK_MSG(pinned.size() == n, "pinned size mismatch");
  LineResult res;
  res.index.resize(n);
  res.rollback_depth.assign(n, 0);
  res.events_undone.assign(n, 0);

  std::vector<std::size_t> latest(n);
  for (std::size_t p = 0; p < n; ++p) {
    FIXD_CHECK_MSG(history[p].size() > 0,
                   "process " + std::to_string(p) + " has no checkpoints");
    latest[p] = history[p].size() - 1;
    if (pinned[p] >= 0) {
      FIXD_CHECK_MSG(static_cast<std::size_t>(pinned[p]) < history[p].size(),
                     "pinned index out of range");
      res.index[p] = static_cast<std::size_t>(pinned[p]);
    } else {
      res.index[p] = latest[p];
    }
  }

  // Fixpoint: while some c_j has observed i beyond c_i, move j backwards.
  // Monotone (indices only decrease), hence terminates.
  bool changed = true;
  while (changed) {
    ++res.iterations;
    changed = false;
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < n; ++i) {
        if (i == j) continue;
        const VectorClock& ci = history[i][res.index[i]];
        while (history[j][res.index[j]][i] > ci[i]) {
          FIXD_CHECK_MSG(res.index[j] > 0,
                         "no consistent line found (the oldest checkpoints "
                         "should form one)");
          --res.index[j];
          changed = true;
        }
      }
    }
  }

  for (std::size_t p = 0; p < n; ++p) {
    res.rollback_depth[p] = latest[p] - res.index[p];
    const VectorClock& chosen = history[p][res.index[p]];
    const VectorClock& newest = history[p][latest[p]];
    res.events_undone[p] = newest[p] - chosen[p];
  }
  FIXD_CHECK_MSG(consistent(history, res.index),
                 "solver produced an inconsistent line");
  return res;
}

}  // namespace fixd::ckpt
