#include "mc/visited.hpp"

#include <algorithm>
#include <string>

namespace fixd::mc {

namespace {

// Below this the Bloom filter is all-collisions noise; below ~a shard's
// header the exact tier cannot hold even empty tables. Tiny test budgets
// still work — they just spill constantly, which is the point of the tests.
constexpr std::uint64_t kMinBloomBytes = 64;
constexpr std::size_t kMergeChunk = 1 << 14;  // 16K keys = 128 KiB per buffer

std::uint64_t floor_pow2(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p * 2 <= v) p *= 2;
  return p;
}

}  // namespace

AtomicBloom::AtomicBloom(std::uint64_t bytes) {
  std::uint64_t b = std::max(bytes, kMinBloomBytes);
  std::uint64_t words = floor_pow2(b) / 8;
  words_ = std::vector<std::atomic<std::uint64_t>>(words);
  for (auto& w : words_) w.store(0, std::memory_order_relaxed);
  bit_mask_ = words * 64 - 1;
}

VisitedSet::VisitedSet(std::size_t stripes, std::uint64_t budget_bytes,
                       const std::filesystem::path& spill_parent)
    : stripes_(budget_bytes > 0 ? std::max(stripes, kSpillStripes)
                                : stripes) {
  if (budget_bytes == 0) return;
  scratch_ = ScratchDir::create(spill_parent, "fixd-spill");
  // Half the budget to the Bloom filter, half to the exact hot tier. The
  // Bloom share is what keeps the false-positive rate down once most states
  // live on disk (sizing math in docs/PERF.md Layer 9); the hot share is
  // what amortizes spill IO. An even split keeps both within 2x of optimal
  // across the workloads the bench gates.
  std::uint64_t bloom_share = std::max(budget_bytes / 2, kMinBloomBytes);
  bloom_ = std::make_unique<AtomicBloom>(bloom_share);
  exact_budget_ =
      budget_bytes > bloom_->bytes() ? budget_bytes - bloom_->bytes() : 1;
}

bool VisitedSet::insert_budgeted(Stripe& s, std::uint64_t h) {
  bool fresh;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    s.last_touch.store(tick_.fetch_add(1, std::memory_order_relaxed),
                       std::memory_order_relaxed);
    if (s.run != nullptr) {
      bloom_queries_.fetch_add(1, std::memory_order_relaxed);
      if (!bloom_->maybe_contains(h)) {
        // Definitely in no tier: the Bloom has seen every insert.
        fresh = s.hot.insert(h);
      } else if (s.hot.contains(h) || s.run->contains(h)) {
        fresh = false;
      } else {
        bloom_fps_.fetch_add(1, std::memory_order_relaxed);
        fresh = s.hot.insert(h);
      }
    } else {
      fresh = s.hot.insert(h);
    }
    if (fresh) {
      bloom_->add(h);
      std::uint64_t nb = s.hot.bytes();
      std::uint64_t ob = s.hot_bytes.exchange(nb, std::memory_order_relaxed);
      if (nb != ob) resident_.fetch_add(nb - ob, std::memory_order_relaxed);
    }
  }
  if (fresh) {
    note_peak();
    maybe_spill();
  }
  return fresh;
}

void VisitedSet::note_peak() {
  std::uint64_t cur = resident_bytes();
  std::uint64_t prev = peak_resident_.load(std::memory_order_relaxed);
  while (cur > prev && !peak_resident_.compare_exchange_weak(
                           prev, cur, std::memory_order_relaxed)) {
  }
}

std::uint64_t VisitedSet::resident_bytes() const {
  if (bloom_) {
    return bloom_->bytes() + resident_.load(std::memory_order_relaxed);
  }
  std::uint64_t n = 0;
  stripes_.for_each([&n](const Stripe& s) {
    std::lock_guard<std::mutex> lk(s.mu);
    n += s.hot.bytes();
  });
  return n;
}

std::uint64_t VisitedSet::size() const {
  std::uint64_t n = 0;
  stripes_.for_each([&n](const Stripe& s) {
    std::lock_guard<std::mutex> lk(s.mu);
    n += s.hot.size() + (s.run ? s.run->count() : 0);
  });
  return n;
}

double VisitedSet::bloom_fp_rate() const {
  std::uint64_t q = bloom_queries_.load(std::memory_order_relaxed);
  if (q == 0) return 0.0;
  return double(bloom_fps_.load(std::memory_order_relaxed)) / double(q);
}

void VisitedSet::maybe_spill() {
  if (resident_.load(std::memory_order_relaxed) <= exact_budget_) return;
  // One spiller at a time; anyone else keeps exploring — the budget is a
  // target the evictor converges to, not a hard wall on every insert.
  if (!spill_mu_.try_lock()) return;
  std::lock_guard<std::mutex> lk(spill_mu_, std::adopt_lock);
  // Drain to half the exact budget (hysteresis) so a hot run of inserts
  // does not re-trigger a merge per insert.
  while (resident_.load(std::memory_order_relaxed) > exact_budget_ / 2) {
    Stripe* victim = nullptr;
    std::uint64_t coldest = ~std::uint64_t{0};
    stripes_.for_each([&](Stripe& sp) {
      if (sp.hot_bytes.load(std::memory_order_relaxed) <=
          sizeof(CompactDigestSet)) {
        return;  // empty shard: nothing to drain
      }
      std::uint64_t t = sp.last_touch.load(std::memory_order_relaxed);
      if (t < coldest) {
        coldest = t;
        victim = &sp;
      }
    });
    if (victim == nullptr) break;  // all shards empty; fences alone remain
    spill_stripe(*victim);
  }
}

void VisitedSet::spill_stripe(Stripe& s) {
  std::lock_guard<std::mutex> lk(s.mu);
  std::vector<std::uint64_t> batch = s.hot.take_sorted();
  if (batch.empty()) {  // raced with another drain; fix accounting and go
    std::uint64_t nb = s.hot.bytes();
    std::uint64_t ob = s.hot_bytes.exchange(nb, std::memory_order_relaxed);
    resident_.fetch_add(nb - ob, std::memory_order_relaxed);
    return;
  }
  // Spills run one at a time (under spill_mu_), so the spill count names
  // each run file uniquely.
  std::filesystem::path next =
      scratch_.path() /
      ("run-" + std::to_string(spill_events_.load(std::memory_order_relaxed)) +
       ".run");
  SortedRunWriter w(next);
  if (s.run == nullptr) {
    w.append(batch.data(), batch.size());
  } else {
    // Streaming two-way merge: old run (chunked) x new batch (in RAM).
    s.run->seek_start();
    std::vector<std::uint64_t> chunk, out;
    out.reserve(kMergeChunk);
    std::size_t bi = 0;
    while (s.run->next_chunk(chunk, kMergeChunk)) {
      for (std::uint64_t v : chunk) {
        while (bi < batch.size() && batch[bi] < v) out.push_back(batch[bi++]);
        // batch[bi] == v cannot happen: the hot shard only admitted keys
        // absent from the run (checked under this same stripe lock).
        out.push_back(v);
        if (out.size() >= kMergeChunk) {
          w.append(out.data(), out.size());
          out.clear();
        }
      }
    }
    while (bi < batch.size()) {
      out.push_back(batch[bi++]);
      if (out.size() >= kMergeChunk) {
        w.append(out.data(), out.size());
        out.clear();
      }
    }
    w.append(out.data(), out.size());
  }
  SortedRunWriter::Finished fin = w.finish();
  std::uint64_t old_file = s.run ? s.run->file_bytes() : 0;
  std::filesystem::path old_path = s.run ? s.run->path() : std::filesystem::path{};
  std::uint64_t fence_b = fin.fence.size() * 8;
  s.run = std::make_unique<SortedRunReader>(next, std::move(fin.fence));
  if (!old_path.empty()) {
    std::error_code ec;
    std::filesystem::remove(old_path, ec);
  }
  // Accounting: hot bytes drop to the empty-shard floor, fences replace the
  // previous generation's, the disk grows by the merged run delta.
  std::uint64_t nb = s.hot.bytes();
  std::uint64_t ob = s.hot_bytes.exchange(nb, std::memory_order_relaxed);
  std::uint64_t of = s.fence_bytes.exchange(fence_b, std::memory_order_relaxed);
  resident_.fetch_add(nb + fence_b - ob - of, std::memory_order_relaxed);
  spilled_now_.fetch_add(fin.file_bytes - old_file, std::memory_order_relaxed);
  spill_written_.fetch_add(fin.file_bytes, std::memory_order_relaxed);
  spill_events_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::uint64_t> VisitedSet::sorted_contents() {
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(size()));
  stripes_.for_each([&out](Stripe& s) {
    std::lock_guard<std::mutex> lk(s.mu);
    s.hot.for_each([&out](std::uint64_t v) { out.push_back(v); });
    if (s.run != nullptr) {
      std::vector<std::uint64_t> run = s.run->read_all();
      out.insert(out.end(), run.begin(), run.end());
    }
  });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace fixd::mc
