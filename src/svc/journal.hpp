// Durable write-ahead journal for investigation jobs.
//
// One journal file per job (`job-<id>.wal` under the daemon's state dir),
// a sequence of CRC frames (kJournalMagic) appended with fsync. Record
// order IS the protocol:
//
//   kSubmitted      — job spec + idempotency request_id (exactly one)
//   kAttemptStarted — a lease generation began (one per attempt)
//   kCheckpoint     — a pause point: what the slice added (a manifest of
//                     its new visited digests, its new violations) plus
//                     the whole frontier (as a shared-prefix tree) and the
//                     accumulated stats. The visited run file
//                     (`job-<id>-ckpt-<seq>.run`, SortedRunWriter format)
//                     is written AND fsynced BEFORE this record is
//                     appended, so a checkpoint record never references
//                     bytes that could be lost by a crash. Recovery folds
//                     every checkpoint record back together.
//   kCompleted      — terminal result (stats + violations + digests)
//   kCancelled      — terminal, user-requested
//
// Recovery replays records in order and stops at the FIRST bad frame
// (torn tail from a mid-append crash reads as a clean end, never as
// corruption — the job simply resumes from its last durable checkpoint).
// A second kSubmitted with the same request_id throws: the journal is the
// idempotency ledger, one execution per request-id. Every record payload
// starts with kWireVersion; an intact record of another version throws
// too (a journal written by a build with a different layout is refused,
// never misparsed).
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "common/io.hpp"
#include "mc/engine.hpp"
#include "mc/trail.hpp"
#include "svc/wire.hpp"

namespace fixd::svc {

/// Where a checkpoint's visited set lives on disk.
struct RunManifest {
  std::string file;  ///< path relative to the journal's directory
  std::uint64_t count = 0;
  std::vector<std::uint64_t> fence;

  void save(BinaryWriter& w) const;
  void load(BinaryReader& r);
};

enum class JournalRecordType : std::uint8_t {
  kSubmitted = 0,
  kAttemptStarted,
  kCheckpoint,
  kCompleted,
  kCancelled,
};

struct JournalRecord {
  JournalRecordType type = JournalRecordType::kSubmitted;
  // kSubmitted
  std::uint64_t request_id = 0;
  std::uint64_t job_id = 0;
  JobSpec spec;
  // kAttemptStarted
  std::uint32_t generation = 0;
  // kCheckpoint
  std::uint64_t checkpoint_seq = 0;
  RunManifest visited;  // this slice's new digests
  /// On disk a shared-prefix tree (see encode_frontier).
  std::vector<mc::Trail> frontier;
  mc::ExploreStats stats;               // accumulated across slices so far
  std::vector<mc::SysViolation> violations;  // this slice's new ones
  // kCompleted
  JobResultMsg result;
  // kCancelled: no extra payload

  void save(BinaryWriter& w) const;
  void load(BinaryReader& r);
};

/// The frontier's on-disk form: a shared-prefix tree of its trails. Every
/// distinct path node is written once, as (parent, action): a trail names
/// the deepest node it shares with earlier trails (its parent index) and
/// then writes only its own actions, each of which becomes a node. Node
/// indices count written actions in order. The layout is the plain trail
/// list's (varint count; per trail a varint length, then actions) with a
/// shared prefix replaced by one marker byte, which no action kind uses,
/// plus the varint node index — so a frontier never encodes to more bytes
/// than the plain list, and decodes back to the same trails in order.
void encode_frontier(BinaryWriter& w, const std::vector<mc::Trail>& frontier);
std::vector<mc::Trail> decode_frontier(BinaryReader& r);

/// Append-only WAL for one job. Not internally synchronized — the JobManager
/// serializes access per job.
class JobJournal {
 public:
  /// Opens (creating or appending) `dir/job-<id>.wal`.
  JobJournal(std::filesystem::path dir, std::uint64_t job_id);
  ~JobJournal();

  JobJournal(const JobJournal&) = delete;
  JobJournal& operator=(const JobJournal&) = delete;

  /// Encode, append as one CRC frame, fsync. Throws IoError on failure:
  /// durability is the point, a silent drop would void the resume proof.
  void append(const JournalRecord& rec);

  const std::filesystem::path& path() const { return path_; }

  /// Write `keys` (sorted ascending, deduped) as a SortedRun next to the
  /// journal and fsync the directory entry, returning the manifest to embed
  /// in a kCheckpoint record. Must be called BEFORE append() of that record.
  RunManifest write_visited_run(std::uint64_t checkpoint_seq,
                                const std::vector<std::uint64_t>& keys);

  /// Delete this job's journal + run files (terminal cleanup).
  static void remove_files(const std::filesystem::path& dir,
                           std::uint64_t job_id);

 private:
  std::filesystem::path dir_;
  std::filesystem::path path_;
  std::uint64_t job_id_ = 0;
  std::FILE* f_ = nullptr;
};

/// Result of replaying one job's journal.
struct RecoveredJob {
  std::uint64_t job_id = 0;
  std::uint64_t request_id = 0;
  JobSpec spec;
  std::uint32_t attempts = 0;  ///< kAttemptStarted count
  /// The fold of every kCheckpoint record in WAL order (set iff one was
  /// read): the last record's checkpoint_seq, visited manifest, frontier
  /// and stats, with every record's violations concatenated.
  std::optional<JournalRecord> checkpoint;
  /// The union of every checkpoint's visited run, sorted. Loaded only for
  /// a job with neither a result nor a cancellation (one to resume).
  std::vector<std::uint64_t> visited;
  std::optional<JobResultMsg> result;  ///< set iff kCompleted seen
  bool cancelled = false;
  std::uint64_t checkpoints = 0;
};

/// Replay `dir/job-<id>.wal`, folding its checkpoints (see RecoveredJob).
/// Stops cleanly at the first torn/garbled frame. Returns nullopt if the file is missing or holds no complete
/// kSubmitted record. Throws SerializationError on a duplicate kSubmitted
/// (the idempotency invariant is broken — refuse to guess).
std::optional<RecoveredJob> recover_job(const std::filesystem::path& dir,
                                        std::uint64_t job_id);

/// All job ids with a journal file under `dir` (sorted ascending).
std::vector<std::uint64_t> list_journaled_jobs(
    const std::filesystem::path& dir);

}  // namespace fixd::svc
