// The explorer's visited set: exact state dedup, optionally bounded in RAM.
//
// VisitedSet is one lock-striped set of 64-bit canonical digests over
// CompactDigestSet tables (mc/concurrent.hpp). Every SystemExplorer graph
// search with dedup on uses it, at any worker count, with or without a
// `SysExploreOptions::visited_budget_bytes`.
//
// Budget 0 (the default): the set never spills. No Bloom filter, no
// scratch directory; an insert is one stripe lock plus one table insert,
// and touches no shared atomic.
//
// Budget > 0: exact dedup under a fixed resident budget, in three tiers:
//
//   1. Bloom front filter (AtomicBloom, ~half the budget). Fed on every
//      successful insert. Once a stripe has spilled, a Bloom "definitely
//      not present" answers the common miss path without touching disk.
//   2. Hot exact tier: the stripes' CompactDigestSet tables, so the
//      parallel path keeps its striping and per-stripe linearizability.
//   3. Cold exact tier: when the hot tier exceeds its share of the budget,
//      the coldest stripes (least-recently-touched) drain to disk as sorted
//      u64 runs (common/io.hpp, BinaryWriter encoding) under the set's own
//      ScratchDir. Each stripe owns at most one run; a re-spill streams a
//      merge of the old run with the newly drained table, so resident cost
//      stays O(chunk), not O(spilled).
//
// Budgeted insert protocol per stripe (under the stripe mutex, so inserts
// stay linearizable per stripe and exactly-one-winner is preserved):
//   - stripe never spilled      -> plain hot insert (Bloom is fed, not asked).
//   - Bloom says "not present"  -> definitely new anywhere: hot insert.
//   - Bloom says "maybe"        -> check hot table, then probe the stripe's
//     disk run (fence index + one ~4 KiB block read: rehydrate-on-maybe).
//     Found nowhere -> a Bloom false positive, counted in `bloom_fp_rate`.
//
// The Bloom filter is *advisory only* — every "maybe" is resolved by an
// exact tier, so false positives cost a disk probe, never correctness.
// tests/test_mc_spill.cpp pins `sorted_contents()` against an in-RAM
// oracle under randomized churn at 1 and 4 threads, budgeted and not.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <vector>

#include "common/hash.hpp"
#include "common/io.hpp"
#include "mc/concurrent.hpp"

namespace fixd::mc {

/// Fixed-size Bloom filter over atomic words: lock-free add/query from any
/// worker. Double hashing (h1 = raw digest, h2 = mix64 | 1) derives
/// kProbes bit positions, the standard Kirsch-Mitzenmacher scheme.
class AtomicBloom {
 public:
  /// Rounds `bytes` down to a power of two >= 64 bytes.
  explicit AtomicBloom(std::uint64_t bytes);

  void add(std::uint64_t h) {
    std::uint64_t h2 = mix64(h) | 1;
    for (int i = 0; i < kProbes; ++i) {
      std::uint64_t bit = (h + std::uint64_t(i) * h2) & bit_mask_;
      words_[bit >> 6].fetch_or(std::uint64_t{1} << (bit & 63),
                                std::memory_order_relaxed);
    }
  }

  bool maybe_contains(std::uint64_t h) const {
    std::uint64_t h2 = mix64(h) | 1;
    for (int i = 0; i < kProbes; ++i) {
      std::uint64_t bit = (h + std::uint64_t(i) * h2) & bit_mask_;
      if ((words_[bit >> 6].load(std::memory_order_relaxed) &
           (std::uint64_t{1} << (bit & 63))) == 0) {
        return false;
      }
    }
    return true;
  }

  std::uint64_t bytes() const { return words_.size() * 8; }

  static constexpr int kProbes = 4;

 private:
  std::vector<std::atomic<std::uint64_t>> words_;
  std::uint64_t bit_mask_;  // bit count - 1 (bit count is a power of two)
};

/// Exact visited set (see the file comment for the design). insert() is
/// safe from any number of threads; the byte/size/rate accessors are exact
/// once callers are quiescent or joined.
class VisitedSet {
 public:
  /// `stripes` lock stripes (stripes_for(workers); a budgeted set keeps at
  /// least kSpillStripes). `budget_bytes` bounds
  /// Bloom + hot tier residency; 0 means the set never spills. A budgeted
  /// set creates its spill ScratchDir under `spill_parent` (empty = the
  /// system temp dir) and removes it, with every run, on destruction.
  explicit VisitedSet(std::size_t stripes, std::uint64_t budget_bytes = 0,
                      const std::filesystem::path& spill_parent = {});

  VisitedSet(const VisitedSet&) = delete;
  VisitedSet& operator=(const VisitedSet&) = delete;

  /// Insert a digest; true iff it was not present in any tier (the caller
  /// owns the state and must expand it — exactly one caller wins each h).
  bool insert(std::uint64_t h) {
    Stripe& s = stripes_.of(h);
    if (!bloom_) {
      std::lock_guard<std::mutex> lk(s.mu);
      return s.hot.insert(h);
    }
    return insert_budgeted(s, h);
  }

  /// Resident footprint now: the tables' bytes, plus the Bloom filter and
  /// the runs' fence indexes when budgeted.
  std::uint64_t resident_bytes() const;
  /// High-water resident footprint over the run. Budgeted: approximate
  /// under concurrency (updated outside the stripe locks). Unbudgeted: the
  /// set never shrinks, so it is resident_bytes().
  std::uint64_t peak_resident_bytes() const {
    return bloom_ ? peak_resident_.load(std::memory_order_relaxed)
                  : resident_bytes();
  }
  /// Bytes currently on disk across all stripe runs.
  std::uint64_t spilled_bytes() const {
    return spilled_now_.load(std::memory_order_relaxed);
  }
  /// Cumulative bytes ever written by spill merges (IO volume, not state).
  std::uint64_t spill_bytes_written() const {
    return spill_written_.load(std::memory_order_relaxed);
  }
  std::uint64_t spill_events() const {
    return spill_events_.load(std::memory_order_relaxed);
  }
  /// False positives / queries; 0 when nothing ever spilled (no queries).
  double bloom_fp_rate() const;

  /// Distinct digests across both tiers.
  std::uint64_t size() const;

  /// Every digest across both tiers, sorted (test/differential hook — the
  /// result is O(total states), deliberately unbounded by the budget).
  std::vector<std::uint64_t> sorted_contents();

 private:
  /// Stripes a budgeted set keeps at least: it spills one stripe at a
  /// time, so the stripe count is its eviction granularity.
  static constexpr std::size_t kSpillStripes = 64;

  struct Stripe {
    mutable std::mutex mu;
    CompactDigestSet hot;
    std::unique_ptr<SortedRunReader> run;  // at most one sorted run on disk
    // Budgeted only; read without the stripe lock by the spill victim scan:
    std::atomic<std::uint64_t> last_touch{0};
    std::atomic<std::uint64_t> hot_bytes{0};
    std::atomic<std::uint64_t> fence_bytes{0};
  };

  bool insert_budgeted(Stripe& s, std::uint64_t h);
  void note_peak();
  void maybe_spill();
  void spill_stripe(Stripe& s);

  // Declared before the stripes, so their runs close before it is removed.
  ScratchDir scratch_;  // budgeted only, like everything after stripes_
  StripeArray<Stripe> stripes_;
  std::unique_ptr<AtomicBloom> bloom_;  // non-null iff budgeted
  std::uint64_t exact_budget_ = 0;      // budget minus the Bloom's share

  std::mutex spill_mu_;  // serializes victim selection + spilling
  std::atomic<std::uint64_t> tick_{1};
  std::atomic<std::uint64_t> resident_{0};  // hot + fence bytes (not Bloom)
  std::atomic<std::uint64_t> peak_resident_{0};
  std::atomic<std::uint64_t> spilled_now_{0};
  std::atomic<std::uint64_t> spill_written_{0};
  std::atomic<std::uint64_t> spill_events_{0};
  std::atomic<std::uint64_t> bloom_queries_{0};
  std::atomic<std::uint64_t> bloom_fps_{0};
};

}  // namespace fixd::mc
