// Concurrency primitives for the SystemExplorer's search engine (mc/sysmodel).
//
// The engine shards the frontier across workers, each owning a scratch
// world. The shared structures coordinating them are lock-striped; the
// engine sizes them with stripes_for(workers), so a one-worker search pays
// for one uncontended stripe rather than 64:
//
//  - CompactDigestSet: the in-RAM table of canonical-state digests. A
//    compact open-addressing table of raw u64 digests (~10 bytes per entry
//    at the 0.7 load factor vs ~40+ for a node-based unordered_set): the
//    visited set is the one explorer structure that only ever grows
//    in-RAM, so its bytes are reported (`visited_resident_bytes`) and kept
//    small. The SystemExplorer lock-stripes these tables in VisitedSet
//    (mc/visited.hpp), which under a `visited_budget_bytes` also spills
//    cold stripes to disk; ModelD's single-threaded Explorer uses one
//    table directly. Striped inserts are linearizable per stripe; exactly
//    one worker wins each digest, so every unique state is expanded
//    exactly once — the property the differential tests
//    (tests/test_mc_parallel.cpp) pin against a reference BFS.
//
//  - StealableDeque: a per-worker frontier deque. The owner pushes and
//    pops at its preferred end (back for DFS, front for BFS); idle workers
//    steal from the opposite end, which preserves the owner's local order
//    and hands thieves the coarsest-grained work. A plain mutex guards
//    each deque: the owner touches it once per node, so contention is
//    bounded by steal traffic, and the lock gives the happens-before edge
//    that publishes a node's COW snapshot graph to the stealing thread.
//
//  - StripedPorRecords: the dynamic-POR expansion records every worker
//    shares (one stripe lock per record transition).
//
//  - PtrRefCounts: not shared; each worker's frontier meter counts the
//    references its frontier holds to every buffer it charges.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.hpp"

namespace fixd::mc {

/// Lock stripes for a search with `workers` workers: one when there is no
/// concurrency to spread (building and freeing 64 mutex-guarded tables
/// costs more than a small search), 64 otherwise.
inline std::size_t stripes_for(std::size_t workers) {
  return workers > 1 ? 64 : 1;
}

/// A power-of-two array of mutex-guarded stripes (each `Stripe` carries a
/// `mu`), selected by a re-mixed digest so a biased low byte cannot
/// serialize them; in-stripe tables probe on the raw digest, so the two
/// index streams stay independent.
template <typename Stripe>
class StripeArray {
 public:
  explicit StripeArray(std::size_t stripes) {
    std::size_t n = 1;
    while (n < stripes) n <<= 1;  // stripe selection is a mask
    stripes_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      stripes_.push_back(std::make_unique<Stripe>());
    }
    mask_ = n - 1;
  }

  Stripe& of(std::uint64_t h) {
    return *stripes_[static_cast<std::size_t>(mix64(h)) & mask_];
  }

  /// Visit every stripe (callers lock `mu` themselves).
  template <typename F>
  void for_each(F&& f) const {
    for (const auto& s : stripes_) f(static_cast<const Stripe&>(*s));
  }
  template <typename F>
  void for_each(F&& f) {
    for (const auto& s : stripes_) f(*s);
  }

 private:
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::size_t mask_ = 0;
};

/// Pointer -> reference count, the frontier meter's sharing ledger (see
/// SystemExplorer::FrontierMeter): open addressing with linear probing
/// over a power-of-two table kept at most three quarters full (half full
/// cost more memory than the node map it replaced), backward-shift
/// deletion (no tombstones), no allocation per entry. A null key marks an
/// empty slot, so null is never counted. Not synchronized: each worker
/// owns its meter.
class PtrRefCounts {
 public:
  /// Add a reference to `p` (non-null); true iff it is the first.
  bool acquire(const void* p) {
    if (4 * (used_ + 1) > 3 * slots_.size()) grow();
    std::size_t i = home(p);
    for (; slots_[i].key != nullptr; i = next(i)) {
      if (slots_[i].key == p) {
        ++slots_[i].refs;
        return false;
      }
    }
    slots_[i] = {p, 1};
    ++used_;
    return true;
  }

  /// Drop a reference to `p`; true iff it was the last. Unknown pointers
  /// are ignored.
  bool release(const void* p) {
    if (slots_.empty()) return false;
    std::size_t i = home(p);
    for (; slots_[i].key != p; i = next(i)) {
      if (slots_[i].key == nullptr) return false;
    }
    if (--slots_[i].refs > 0) return false;
    // Pull later entries of the probe run back into the hole whenever the
    // hole lies between their home slot and where they sit, so every
    // remaining key stays reachable from its home.
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = i;
    for (std::size_t j = next(i); slots_[j].key != nullptr; j = next(j)) {
      if (((j - home(slots_[j].key)) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = {};
    --used_;
    return true;
  }

  /// Distinct pointers currently counted.
  std::size_t size() const { return used_; }

 private:
  struct Slot {
    const void* key = nullptr;
    std::size_t refs = 0;
  };

  std::size_t home(const void* p) const {
    // Fibonacci hashing: the product's top bits index the table.
    return static_cast<std::size_t>(
        (reinterpret_cast<std::uintptr_t>(p) * 0x9e3779b97f4a7c15ull) >>
        shift_);
  }
  std::size_t next(std::size_t i) const {
    return (i + 1) & (slots_.size() - 1);
  }
  void grow() {
    std::vector<Slot> old(slots_.empty() ? 64 : 2 * slots_.size());
    old.swap(slots_);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
    for (const Slot& s : old) {
      if (s.key == nullptr) continue;
      std::size_t i = home(s.key);
      while (slots_[i].key != nullptr) i = next(i);
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t used_ = 0;
  unsigned shift_ = 64;
};

/// Open-addressing set of 64-bit state digests: a flat power-of-two slot
/// array with linear probing, grown at a 0.7 load factor. Digests are
/// hasher outputs (already well mixed), so the raw value indexes the
/// table; 0 is the empty sentinel and the (astronomically rare) digest 0
/// is carried in a side flag. No tombstones — the visited set never
/// erases.
class CompactDigestSet {
 public:
  /// Insert a digest; true iff it was not present.
  bool insert(std::uint64_t h) {
    if (h == 0) {
      if (has_zero_) return false;
      has_zero_ = true;
      return true;
    }
    if ((size_ + 1) * 10 > slots_.size() * 7) grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(h) & mask;
    while (slots_[i] != 0) {
      if (slots_[i] == h) return false;
      i = (i + 1) & mask;
    }
    slots_[i] = h;
    ++size_;
    return true;
  }

  /// Membership probe without insertion (the budgeted VisitedSet's
  /// hot-tier check).
  bool contains(std::uint64_t h) const {
    if (h == 0) return has_zero_;
    if (slots_.empty()) return false;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(h) & mask;
    while (slots_[i] != 0) {
      if (slots_[i] == h) return true;
      i = (i + 1) & mask;
    }
    return false;
  }

  /// Extract every stored digest in ascending order and reset the table to
  /// empty, releasing its memory — the budgeted VisitedSet
  /// (mc/visited.hpp) drains cold stripes to disk with this.
  std::vector<std::uint64_t> take_sorted() {
    std::vector<std::uint64_t> out;
    out.reserve(size());
    for_each([&out](std::uint64_t v) { out.push_back(v); });
    std::sort(out.begin(), out.end());
    slots_.clear();
    slots_.shrink_to_fit();
    size_ = 0;
    has_zero_ = false;
    return out;
  }

  std::size_t size() const { return size_ + (has_zero_ ? 1 : 0); }

  /// Retained table bytes (the `visited_resident_bytes` stat).
  std::uint64_t bytes() const {
    return sizeof(*this) + slots_.capacity() * sizeof(std::uint64_t);
  }

  /// Visit every stored digest (unordered).
  template <typename F>
  void for_each(F&& f) const {
    if (has_zero_) f(std::uint64_t{0});
    for (std::uint64_t v : slots_) {
      if (v != 0) f(v);
    }
  }

 private:
  void grow() {
    const std::size_t cap = slots_.empty() ? 64 : slots_.size() * 2;
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(cap, 0);
    const std::size_t mask = cap - 1;
    for (std::uint64_t v : old) {
      if (v == 0) continue;
      std::size_t i = static_cast<std::size_t>(v) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = v;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t size_ = 0;
  bool has_zero_ = false;
};

/// Per-state expansion records for dynamic POR: digest -> {the enabled
/// action keys at that state, the keys already run from it, the keys
/// requested by race detection but not yet run}. One stripe lock covers
/// every transition of a record, so any number of workers can share it.
/// The lifecycle:
///
///   begin_expand  -> called when a node materializing the state is
///                    expanded; registers the enabled set on first
///                    expansion and drains the pending requests.
///   commit_done   -> marks the keys the expansion selected to run
///                    (called at selection time, before execution, so a
///                    concurrent race request cannot double-push).
///   request       -> race detection asks the state to also run `key`.
///                    kRegistered means the caller must push a backtrack
///                    node re-materializing the state; kCovered means it
///                    is already done/pending; kNotEnabled tells the race
///                    walk to keep looking for an older ancestor (the
///                    action did not exist there yet — it is causally
///                    downstream of that prefix).
class StripedPorRecords {
 public:
  enum class Request { kRegistered, kCovered, kNotEnabled, kNoRecord };

  explicit StripedPorRecords(std::size_t stripes = 64) : stripes_(stripes) {}

  /// `enabled_sorted` is the state's full enabled key set (deterministic
  /// per digest, so every expansion presents the same set). Drains pending
  /// requests into `take`; `first` reports whether this is the state's
  /// first expansion.
  void begin_expand(std::uint64_t digest,
                    const std::vector<std::uint64_t>& enabled_sorted,
                    std::vector<std::uint64_t>& take, bool& first) {
    Stripe& s = stripes_.of(digest);
    std::lock_guard<std::mutex> lk(s.mu);
    Record& r = s.map[digest];
    first = !r.expanded;
    if (first) {
      r.enabled = enabled_sorted;
      r.expanded = true;
    }
    take = std::move(r.pending);
    r.pending.clear();
  }

  /// Record the selected keys as run (sorted-unique merge).
  void commit_done(std::uint64_t digest,
                   const std::vector<std::uint64_t>& keys) {
    Stripe& s = stripes_.of(digest);
    std::lock_guard<std::mutex> lk(s.mu);
    Record& r = s.map[digest];
    std::vector<std::uint64_t> merged;
    merged.reserve(r.done.size() + keys.size());
    std::vector<std::uint64_t> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    std::set_union(r.done.begin(), r.done.end(), sorted.begin(),
                   sorted.end(), std::back_inserter(merged));
    r.done = std::move(merged);
  }

  Request request(std::uint64_t digest, std::uint64_t key) {
    Stripe& s = stripes_.of(digest);
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = s.map.find(digest);
    if (it == s.map.end() || !it->second.expanded) return Request::kNoRecord;
    Record& r = it->second;
    if (!std::binary_search(r.enabled.begin(), r.enabled.end(), key)) {
      return Request::kNotEnabled;
    }
    if (std::binary_search(r.done.begin(), r.done.end(), key) ||
        std::find(r.pending.begin(), r.pending.end(), key) !=
            r.pending.end()) {
      return Request::kCovered;
    }
    r.pending.push_back(key);
    return Request::kRegistered;
  }

 private:
  struct Record {
    std::vector<std::uint64_t> enabled;  // sorted
    std::vector<std::uint64_t> done;     // sorted
    std::vector<std::uint64_t> pending;  // unsorted, small
    bool expanded = false;
  };

  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, Record> map;
  };

  StripeArray<Stripe> stripes_;
};

/// A mutex-guarded deque supporting owner pop at either end plus stealing
/// from the opposite end. T must be movable.
template <typename T>
class StealableDeque {
 public:
  void push_back(T&& v) {
    std::lock_guard<std::mutex> lk(mu_);
    q_.push_back(std::move(v));
  }

  /// Owner pop for DFS (LIFO) order.
  bool pop_back(T& out) {
    std::lock_guard<std::mutex> lk(mu_);
    if (q_.empty()) return false;
    out = std::move(q_.back());
    q_.pop_back();
    return true;
  }

  /// Owner pop for BFS (FIFO) order.
  bool pop_front(T& out) {
    std::lock_guard<std::mutex> lk(mu_);
    if (q_.empty()) return false;
    out = std::move(q_.front());
    q_.pop_front();
    return true;
  }

  /// Thief pop: the end opposite the owner's (`owner_lifo` says which end
  /// the owner uses), so stealing disturbs the owner's order least.
  bool steal(T& out, bool owner_lifo) {
    std::lock_guard<std::mutex> lk(mu_);
    if (q_.empty()) return false;
    if (owner_lifo) {
      out = std::move(q_.front());
      q_.pop_front();
    } else {
      out = std::move(q_.back());
      q_.pop_back();
    }
    return true;
  }

  /// Visit every queued element front to back without removing any.
  template <class Fn>
  void for_each(Fn&& fn) const {
    std::lock_guard<std::mutex> lk(mu_);
    for (const T& v : q_) fn(v);
  }

 private:
  mutable std::mutex mu_;
  std::deque<T> q_;
};

}  // namespace fixd::mc
