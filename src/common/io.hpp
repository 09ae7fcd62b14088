// Scratch-directory lifecycle and sorted-run spill files.
//
// The beyond-RAM explorer (mc/visited.hpp) spills cold visited-set
// shards to disk as sorted u64 runs. Two concerns live here because they are
// generic, not model-checker specific, and item 3 on the roadmap (multi-
// machine exploration) will reuse the same on-disk artifacts:
//
//  * ScratchDir — a per-run temporary directory with RAII recursive cleanup.
//    Every spill file a search creates lives under exactly one ScratchDir, so
//    any exit path (normal completion, violation-found early return, an
//    exception unwinding through the explorer) removes all of them. Covered
//    by tests/test_mc_spill.cpp.
//
//  * SortedRunWriter / SortedRunReader — an append-once, probe-many file of
//    strictly-increasing u64 keys in the BinaryWriter encoding (little-endian
//    fixed width, 16-byte header: magic "FXSP", version, count). The writer
//    builds an in-memory fence index (first key of every kFenceStride-entry
//    block) while streaming, so a reader probe is one binary search over the
//    fence plus one ~4 KiB block read — no per-probe full-file scan and no
//    resident copy of the run.
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <vector>

namespace fixd {

namespace io_testing {

/// Deterministic IO fault injection for regression tests: after `n` more
/// successful checked writes, the next one fails as if the device were
/// full (IoError carrying ENOSPC). Pass a negative value to disable.
/// Process-global and meant for single-threaded test setup; production
/// code never calls this.
void fail_after_writes(int n);

/// True when the injector decides the current write should fail
/// (and consumes one countdown tick per call while armed).
bool consume_write_fault();

}  // namespace io_testing

namespace io_detail {

/// fwrite that surfaces short writes and injected faults as IoError
/// (errno preserved; ENOSPC for injected faults). `what` names the
/// operation for the error message.
void checked_fwrite(const void* data, std::size_t n, std::FILE* f,
                    const std::filesystem::path& path, const char* what);

/// fflush + fsync(fileno(f)); IoError on failure. The journal's
/// durability point — a crash after this call cannot lose the bytes.
void flush_and_sync(std::FILE* f, const std::filesystem::path& path);

}  // namespace io_detail

/// A uniquely-named temporary directory removed (recursively) on destruction.
///
/// Move-only. A default-constructed ScratchDir owns nothing; create() makes
/// the directory eagerly so a failure surfaces at setup time, not mid-spill.
class ScratchDir {
 public:
  ScratchDir() = default;

  /// Create `<parent>/<prefix>-<random hex>`. An empty `parent` means
  /// std::filesystem::temp_directory_path(). Throws IoError on failure.
  static ScratchDir create(const std::filesystem::path& parent,
                           std::string_view prefix);

  ~ScratchDir() { remove_now(); }

  ScratchDir(ScratchDir&& other) noexcept { *this = std::move(other); }
  ScratchDir& operator=(ScratchDir&& other) noexcept;
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  bool valid() const { return !path_.empty(); }
  const std::filesystem::path& path() const { return path_; }

  /// Recursively delete the directory now (idempotent; never throws —
  /// cleanup runs on destructor paths).
  void remove_now() noexcept;

 private:
  std::filesystem::path path_;
};

/// Entries per fence-index block: 512 keys = 4 KiB of file per probe read.
inline constexpr std::size_t kSortedRunFenceStride = 512;

/// Streaming writer for a sorted u64 run. Keys must arrive strictly
/// increasing across all append() calls; finish() patches the header count
/// and atomically renames the temp file into place.
class SortedRunWriter {
 public:
  /// Opens `<final_path>.tmp` for writing. Throws IoError on failure.
  explicit SortedRunWriter(std::filesystem::path final_path);
  ~SortedRunWriter();

  SortedRunWriter(const SortedRunWriter&) = delete;
  SortedRunWriter& operator=(const SortedRunWriter&) = delete;

  /// Append a batch of keys (strictly increasing, and greater than every
  /// previously appended key). Throws FixdError on unsorted input (a
  /// programming error) and IoError on a failed or short write (ENOSPC,
  /// torn device...).
  void append(const std::uint64_t* keys, std::size_t n);

  struct Finished {
    std::uint64_t count = 0;
    std::uint64_t file_bytes = 0;
    std::vector<std::uint64_t> fence;  // first key of each block
  };

  /// Flush, patch the header, rename into place, and return the fence index.
  Finished finish();

 private:
  std::FILE* f_ = nullptr;
  std::filesystem::path tmp_, final_;
  std::uint64_t count_ = 0;
  std::uint64_t last_ = 0;
  std::vector<std::uint64_t> fence_;
};

/// Random-probe + sequential-scan reader over a finished sorted run.
///
/// Callers pass the fence index returned by the writer (the file itself
/// stays fence-free: the index is cheap to keep resident — one key per 4 KiB
/// of spilled data — and rebuilding it would mean a full-file scan on open).
/// Not internally synchronized: a budgeted VisitedSet guards each run with
/// its stripe mutex.
class SortedRunReader {
 public:
  /// Opens the run and validates the header. Throws FixdError/
  /// SerializationError on a missing or malformed file.
  SortedRunReader(std::filesystem::path path, std::vector<std::uint64_t> fence);
  ~SortedRunReader();

  SortedRunReader(const SortedRunReader&) = delete;
  SortedRunReader& operator=(const SortedRunReader&) = delete;

  std::uint64_t count() const { return count_; }
  std::uint64_t file_bytes() const { return file_bytes_; }
  const std::filesystem::path& path() const { return path_; }

  /// Exact membership probe: fence binary search + one block read.
  bool contains(std::uint64_t key);

  /// Restart the sequential cursor used by next_chunk().
  void seek_start();

  /// Read up to `max` keys in order into `out` (cleared first). Returns
  /// false when the cursor is exhausted and no keys were produced.
  bool next_chunk(std::vector<std::uint64_t>& out, std::size_t max);

  /// Convenience: the whole run, in order (test/merge-tail helper).
  std::vector<std::uint64_t> read_all();

 private:
  void read_block(std::uint64_t first_entry, std::size_t n,
                  std::vector<std::uint64_t>& out);

  std::FILE* f_ = nullptr;
  std::filesystem::path path_;
  std::vector<std::uint64_t> fence_;
  std::uint64_t count_ = 0;
  std::uint64_t file_bytes_ = 0;
  std::uint64_t cursor_ = 0;  // next entry index for next_chunk()
  std::vector<std::uint64_t> block_;  // probe scratch
};

}  // namespace fixd
