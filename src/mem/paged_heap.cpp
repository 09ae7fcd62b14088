#include "mem/paged_heap.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "common/hash.hpp"

namespace fixd::mem {

namespace {

/// Digest of one page's full content, memoized on the page. Pages shared
/// between a heap and its snapshots are immutable (COW discipline), so the
/// cached value stays valid for every holder; concurrent holders may race
/// to fill the memo, which is benign (identical values, atomic fields).
std::uint64_t full_page_digest(const Page& p) {
  if (!p.digest_valid.load(std::memory_order_acquire)) {
    p.digest_cache.store(hash_bytes({p.bytes.data(), p.bytes.size()}),
                         std::memory_order_relaxed);
    p.digest_valid.store(true, std::memory_order_release);
  }
  return p.digest_cache.load(std::memory_order_relaxed);
}

/// Shared digest formula for heaps and snapshots: the logical size followed
/// by one per-page digest for every page covering logical bytes. The last
/// (possibly partial) page is hashed over its logical prefix only and is
/// never cached, so digests stay a function of logical content alone.
std::uint64_t content_digest_impl(std::size_t page_size,
                                  std::uint64_t logical_size,
                                  const std::vector<PagePtr>& pages,
                                  std::uint64_t zero_page_digest,
                                  bool use_cache) {
  Hasher h;
  h.update_u64(logical_size);
  for (std::size_t i = 0; i < pages.size(); ++i) {
    std::uint64_t start = static_cast<std::uint64_t>(i) * page_size;
    if (start >= logical_size) break;
    std::size_t len = static_cast<std::size_t>(
        std::min<std::uint64_t>(page_size, logical_size - start));
    std::uint64_t pd;
    if (!pages[i]) {
      pd = (len == page_size && use_cache) ? zero_page_digest
                                           : zeros_digest(len);
    } else if (len == page_size) {
      pd = use_cache ? full_page_digest(*pages[i])
                     : hash_bytes({pages[i]->data(), len});
    } else {
      pd = hash_bytes({pages[i]->data(), len});
    }
    h.update_u64(pd);
  }
  return h.digest();
}

}  // namespace

std::uint64_t zeros_digest(std::size_t len) {
  // One update over `len` zero bytes, exactly as hash_bytes would see a
  // zero page: the block hasher folds per call, so a chunked feed would
  // digest differently. Page-sized runs come from a static buffer; longer
  // ones (pages above 4 KiB) from a transient one.
  static constexpr std::size_t kStatic = 4096;
  static const std::array<std::byte, kStatic> kZeros{};
  if (len <= kStatic) return hash_bytes({kZeros.data(), len});
  const std::vector<std::byte> zeros(len);
  return hash_bytes(zeros);
}

std::size_t HeapSnapshot::resident_pages() const {
  std::size_t n = 0;
  for (const auto& p : pages_)
    if (p) ++n;
  return n;
}

std::uint64_t HeapSnapshot::digest() const {
  if (!digest_valid_) {
    digest_cache_ = content_digest_impl(page_size_, logical_size_, pages_,
                                        zero_page_digest_, /*use_cache=*/true);
    digest_valid_ = true;
  }
  return digest_cache_;
}

void HeapSnapshot::share_across_threads() const {
  // Pin the snapshot digest while still single-threaded: after publication
  // several workers may call digest() concurrently, and the plain memo
  // must be read-only by then. The fold below also warms the per-page
  // memos, so remote heaps digest shared pages without re-hashing.
  (void)digest();
  for (const auto& p : pages_) {
    if (p) p->shared_xt.mark();
  }
}

void HeapSnapshot::save(BinaryWriter& w) const {
  w.write_varint(page_size_);
  w.write_varint(logical_size_);
  w.write_varint(pages_.size());
  for (const auto& p : pages_) {
    if (p) {
      w.write_bool(true);
      w.write_raw({p->data(), p->size()});
    } else {
      w.write_bool(false);
    }
  }
}

PagedHeap::PagedHeap(std::size_t page_size) : page_size_(page_size) {
  FIXD_CHECK_MSG(page_size_ >= 16, "page size too small");
  zero_page_digest_ = zeros_digest(page_size_);
}

void PagedHeap::resize(std::uint64_t new_size) {
  std::size_t new_pages =
      static_cast<std::size_t>((new_size + page_size_ - 1) / page_size_);
  if (new_size < logical_size_) {
    // Zero the now-dead tail of the last surviving page so that content
    // digests are a function of logical content only.
    if (new_pages > 0 && new_size % page_size_ != 0) {
      std::size_t last = new_pages - 1;
      if (last < pages_.size() && pages_[last]) {
        Page& p = own_page(last);
        std::size_t keep = static_cast<std::size_t>(new_size % page_size_);
        std::fill(p.bytes.begin() + keep, p.bytes.end(), std::byte{0});
      }
    }
  }
  pages_.resize(new_pages);
  logical_size_ = new_size;
  digest_valid_ = false;
}

void PagedHeap::read(std::uint64_t offset, std::span<std::byte> out) const {
  FIXD_CHECK_MSG(offset + out.size() <= logical_size_,
                 "heap read out of bounds");
  std::size_t done = 0;
  while (done < out.size()) {
    std::size_t idx = static_cast<std::size_t>((offset + done) / page_size_);
    std::size_t in_page = static_cast<std::size_t>((offset + done) % page_size_);
    std::size_t n = std::min(out.size() - done, page_size_ - in_page);
    if (pages_[idx]) {
      std::memcpy(out.data() + done, pages_[idx]->data() + in_page, n);
    } else {
      std::memset(out.data() + done, 0, n);
    }
    done += n;
  }
}

Page& PagedHeap::own_page(std::size_t idx) {
  PagePtr& slot = pages_.at(idx);
  if (!slot) {
    slot = std::make_shared<Page>(page_size_);
    ++stats_.pages_materialized;
    ++dirty_since_snapshot_;
  } else if (slot.use_count() > 1 || slot->shared_xt.marked()) {
    // COW clone. The shared_xt arm covers pages that were once published
    // to another thread: even at use_count()==1 an in-place write could
    // race the remote thread's last reads (no happens-before through the
    // refcount), so such pages are immutable forever.
    slot = std::make_shared<Page>(*slot);  // the copy-on-write copy
    ++stats_.pages_cowed;
    stats_.bytes_cowed += page_size_;
    ++dirty_since_snapshot_;
  }
  // The caller is about to mutate: drop both the page digest (covers the
  // uniquely-owned in-place case; fresh/COW copies start invalid anyway)
  // and the whole-heap memo.
  slot->digest_valid.store(false, std::memory_order_relaxed);
  digest_valid_ = false;
  return *slot;
}

void PagedHeap::write(std::uint64_t offset, std::span<const std::byte> in) {
  FIXD_CHECK_MSG(offset + in.size() <= logical_size_,
                 "heap write out of bounds");
  std::size_t done = 0;
  while (done < in.size()) {
    std::size_t idx = static_cast<std::size_t>((offset + done) / page_size_);
    std::size_t in_page = static_cast<std::size_t>((offset + done) % page_size_);
    std::size_t n = std::min(in.size() - done, page_size_ - in_page);
    Page& p = own_page(idx);
    std::memcpy(p.data() + in_page, in.data() + done, n);
    done += n;
  }
}

void PagedHeap::fill_zero(std::uint64_t offset, std::uint64_t len) {
  FIXD_CHECK_MSG(offset + len <= logical_size_, "heap fill out of bounds");
  std::uint64_t done = 0;
  while (done < len) {
    std::size_t idx = static_cast<std::size_t>((offset + done) / page_size_);
    std::size_t in_page = static_cast<std::size_t>((offset + done) % page_size_);
    std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(len - done, page_size_ - in_page));
    if (in_page == 0 && n == page_size_) {
      // Whole-page zero: drop back to the implicit zero page.
      if (pages_[idx]) {
        pages_[idx].reset();
        ++dirty_since_snapshot_;
        digest_valid_ = false;
      }
    } else if (pages_[idx]) {
      Page& p = own_page(idx);
      std::memset(p.data() + in_page, 0, n);
    }
    done += n;
  }
}

HeapSnapshot PagedHeap::snapshot() {
  HeapSnapshot s;
  s.page_size_ = page_size_;
  s.logical_size_ = logical_size_;
  s.pages_ = pages_;  // shares every page; future writes will COW
  s.zero_page_digest_ = zero_page_digest_;
  if (digest_valid_) {
    s.digest_cache_ = digest_cache_;
    s.digest_valid_ = true;
  }
  ++stats_.snapshots;
  dirty_since_snapshot_ = 0;
  return s;
}

void PagedHeap::restore(const HeapSnapshot& snap) {
  FIXD_CHECK_MSG(snap.page_size_ == page_size_,
                 "snapshot page size mismatch");
  pages_ = snap.pages_;
  logical_size_ = snap.logical_size_;
  if (snap.digest_valid_) {
    digest_cache_ = snap.digest_cache_;
    digest_valid_ = true;
  } else {
    digest_valid_ = false;
  }
  ++stats_.restores;
  dirty_since_snapshot_ = 0;
}

PagedHeap PagedHeap::deep_copy() const {
  PagedHeap out(page_size_);
  out.logical_size_ = logical_size_;
  out.pages_.resize(pages_.size());
  for (std::size_t i = 0; i < pages_.size(); ++i) {
    // Page's copy constructor drops the digest cache: a deep copy serves as
    // the from-scratch baseline in benches and equivalence tests.
    if (pages_[i]) out.pages_[i] = std::make_shared<Page>(*pages_[i]);
  }
  return out;
}

std::uint64_t PagedHeap::digest() const {
  if (!digest_valid_) {
    digest_cache_ = content_digest_impl(page_size_, logical_size_, pages_,
                                        zero_page_digest_, /*use_cache=*/true);
    digest_valid_ = true;
  }
  return digest_cache_;
}

std::uint64_t PagedHeap::digest_uncached() const {
  return content_digest_impl(page_size_, logical_size_, pages_,
                             zero_page_digest_, /*use_cache=*/false);
}

namespace {

/// Static zero block backing comparisons against implicit zero pages.
constexpr std::size_t kZeroBlock = 4096;
const std::array<std::byte, kZeroBlock> kZeroBytes{};

/// True iff `n` bytes at `p` are all zero (chunked memcmp, no allocation).
bool all_zero(const std::byte* p, std::size_t n) {
  while (n > 0) {
    std::size_t c = std::min(n, kZeroBlock);
    if (std::memcmp(p, kZeroBytes.data(), c) != 0) return false;
    p += c;
    n -= c;
  }
  return true;
}

}  // namespace

bool PagedHeap::content_equals(const PagedHeap& other) const {
  if (logical_size_ != other.logical_size_) return false;

  if (page_size_ == other.page_size_) {
    // Page-aligned fast path: shared page pointers are equal by
    // construction (COW never mutates a shared page); warm page digests
    // fast-path the *inequality* direction only — equal digests still
    // byte-compare, so this stays an exact oracle (independent of the
    // digest caches it is used to verify) — and no scratch buffers or
    // full-heap serialization are needed.
    for (std::size_t i = 0; i < pages_.size(); ++i) {
      std::uint64_t start = static_cast<std::uint64_t>(i) * page_size_;
      if (start >= logical_size_) break;
      std::size_t len = static_cast<std::size_t>(
          std::min<std::uint64_t>(page_size_, logical_size_ - start));
      const Page* a = pages_[i].get();
      const Page* b = i < other.pages_.size() ? other.pages_[i].get()
                                              : nullptr;
      if (a == b) continue;  // shared page, or both implicit zero
      if (!a || !b) {
        const Page* r = a ? a : b;  // the resident side vs implicit zeros
        if (len == page_size_ &&
            r->digest_valid.load(std::memory_order_acquire) &&
            r->digest_cache.load(std::memory_order_relaxed) !=
                zero_page_digest_) {
          return false;
        }
        if (!all_zero(r->data(), len)) return false;
        continue;
      }
      if (len == page_size_ &&
          a->digest_valid.load(std::memory_order_acquire) &&
          b->digest_valid.load(std::memory_order_acquire) &&
          a->digest_cache.load(std::memory_order_relaxed) !=
              b->digest_cache.load(std::memory_order_relaxed)) {
        return false;
      }
      if (std::memcmp(a->data(), b->data(), len) != 0) return false;
    }
    return true;
  }

  // Mismatched page sizes: stream-compare directly over the underlying
  // pages (zero pages compare against the static zero block).
  std::uint64_t off = 0;
  while (off < logical_size_) {
    std::size_t ia = static_cast<std::size_t>(off / page_size_);
    std::size_t ib = static_cast<std::size_t>(off / other.page_size_);
    std::size_t ra = page_size_ - static_cast<std::size_t>(off % page_size_);
    std::size_t rb = other.page_size_ -
                     static_cast<std::size_t>(off % other.page_size_);
    std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(
        std::min({ra, rb, kZeroBlock}), logical_size_ - off));
    const Page* a = pages_[ia].get();
    const Page* b = other.pages_[ib].get();
    const std::byte* pa =
        a ? a->data() + static_cast<std::size_t>(off % page_size_)
          : kZeroBytes.data();
    const std::byte* pb =
        b ? b->data() + static_cast<std::size_t>(off % other.page_size_)
          : kZeroBytes.data();
    if (std::memcmp(pa, pb, n) != 0) return false;
    off += n;
  }
  return true;
}

void PagedHeap::save(BinaryWriter& w) const {
  w.write_varint(page_size_);
  w.write_varint(logical_size_);
  w.write_varint(pages_.size());
  for (const auto& p : pages_) {
    if (p) {
      w.write_bool(true);
      w.write_raw({p->data(), p->size()});
    } else {
      w.write_bool(false);
    }
  }
}

void PagedHeap::load(BinaryReader& r) {
  std::size_t ps = static_cast<std::size_t>(r.read_varint());
  FIXD_CHECK_MSG(ps >= 16, "bad serialized page size");
  if (ps != page_size_) {
    page_size_ = ps;
    zero_page_digest_ = zeros_digest(page_size_);
  }
  logical_size_ = r.read_varint();
  std::size_t n = static_cast<std::size_t>(r.read_varint());
  pages_.assign(n, nullptr);
  for (std::size_t i = 0; i < n; ++i) {
    if (r.read_bool()) {
      auto span = r.read_raw(page_size_);
      auto page = std::make_shared<Page>(page_size_);
      std::memcpy(page->data(), span.data(), span.size());
      pages_[i] = std::move(page);
    }
  }
  dirty_since_snapshot_ = 0;
  digest_valid_ = false;
}

}  // namespace fixd::mem
