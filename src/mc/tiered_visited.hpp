// Tiered visited set: bounded-resident state dedup for beyond-RAM searches.
//
// The plain visited set (CompactDigestSet / StripedVisitedSet) only ever
// grows, which caps `max_states` at whatever fits in RAM. TieredVisitedSet
// keeps exact dedup semantics under a fixed resident budget
// (`SysExploreOptions::visited_budget_bytes`) with three tiers:
//
//   1. Bloom front filter (AtomicBloom, ~half the budget). Fed on every
//      successful insert. Once a stripe has spilled, a Bloom "definitely
//      not present" answers the common miss path without touching disk.
//   2. Hot exact tier: the same lock-striped CompactDigestSet shards as the
//      in-RAM set, so the parallel path keeps its striping and per-stripe
//      linearizability.
//   3. Cold exact tier: when the hot tier exceeds its share of the budget,
//      the coldest stripes (least-recently-touched) drain to disk as sorted
//      u64 runs (common/io.hpp, BinaryWriter encoding) under the per-run
//      ScratchDir. Each stripe owns at most one run; a re-spill streams a
//      merge of the old run with the newly drained shard, so resident cost
//      stays O(chunk), not O(spilled).
//
// Insert protocol per stripe (under the stripe mutex, so inserts stay
// linearizable per stripe and exactly-one-winner is preserved):
//   - stripe never spilled      -> plain hot insert (Bloom is fed, not asked).
//   - Bloom says "not present"  -> definitely new anywhere: hot insert.
//   - Bloom says "maybe"        -> check hot shard, then probe the stripe's
//     disk run (fence index + one ~4 KiB block read: rehydrate-on-maybe).
//     Found nowhere -> a Bloom false positive, counted in `bloom_fp_rate`.
//
// The Bloom filter is *advisory only* — every "maybe" is resolved by an
// exact tier, so false positives cost a disk probe, never correctness.
// tests/test_mc_spill.cpp pins spill-on/off `sorted_contents()` set identity
// under randomized churn at 1 and 4 threads.
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

/// Budget-bounded exact visited set (see file comment for the design).
/// insert() is safe from any number of threads; the byte/rate accessors are
/// exact once callers are quiescent (same contract as StripedVisitedSet).
class TieredVisitedSet {
 public:
  /// `budget_bytes` bounds Bloom + hot tier residency (> 0; a zero budget
  /// means "don't use this class" and is rejected). Spill runs are created
  /// under `scratch`, which must outlive the set.
  TieredVisitedSet(std::uint64_t budget_bytes, std::filesystem::path scratch,
                   std::size_t stripes = 64);
  ~TieredVisitedSet();

  TieredVisitedSet(const TieredVisitedSet&) = delete;
  TieredVisitedSet& operator=(const TieredVisitedSet&) = delete;

  /// Insert a digest; true iff it was not present in any tier (the caller
  /// owns the state and must expand it — exactly one caller wins each h).
  bool insert(std::uint64_t h);

  /// Resident footprint now: Bloom + hot shards + fence indexes.
  std::uint64_t resident_bytes() const;
  /// High-water resident footprint over the run (approximate under
  /// concurrency: updated outside the stripe locks).
  std::uint64_t peak_resident_bytes() const {
    return peak_resident_.load(std::memory_order_relaxed);
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

  std::uint64_t bloom_queries() const {
    return bloom_queries_.load(std::memory_order_relaxed);
  }
  /// False positives / queries; 0 when nothing ever spilled (no queries).
  double bloom_fp_rate() const;

  std::uint64_t size() const { return size_.load(std::memory_order_relaxed); }

  /// Every digest across both tiers, sorted (test/differential hook — the
  /// result is O(total states), deliberately unbounded by the budget).
  std::vector<std::uint64_t> sorted_contents();

 private:
  struct Stripe {
    std::mutex mu;
    CompactDigestSet hot;
    std::unique_ptr<SortedRunReader> run;  // at most one sorted run on disk
    std::filesystem::path run_path;
    int generation = 0;  // names successive run files uniquely
    // Read without the stripe lock by the spill victim scan:
    std::atomic<std::uint64_t> last_touch{0};
    std::atomic<std::uint64_t> hot_bytes{0};
    std::atomic<std::uint64_t> fence_bytes{0};
  };

  std::size_t stripe_of(std::uint64_t h) const {
    return static_cast<std::size_t>(mix64(h)) & mask_;
  }
  void note_peak();
  void maybe_spill();
  void spill_stripe(Stripe& s);

  std::filesystem::path scratch_;
  std::unique_ptr<AtomicBloom> bloom_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::size_t mask_ = 0;
  std::uint64_t exact_budget_ = 0;  // budget minus the Bloom's share

  std::mutex spill_mu_;  // serializes victim selection + spilling
  std::atomic<std::uint64_t> tick_{1};
  std::atomic<std::uint64_t> resident_{0};  // hot + fence bytes (not Bloom)
  std::atomic<std::uint64_t> peak_resident_{0};
  std::atomic<std::uint64_t> spilled_now_{0};
  std::atomic<std::uint64_t> spill_written_{0};
  std::atomic<std::uint64_t> spill_events_{0};
  std::atomic<std::uint64_t> size_{0};
  std::atomic<std::uint64_t> bloom_queries_{0};
  std::atomic<std::uint64_t> bloom_maybes_{0};
  std::atomic<std::uint64_t> bloom_fps_{0};
};

}  // namespace fixd::mc
