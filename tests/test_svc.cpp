// Service-layer robustness suite:
//   * pause/capture/resume explorer slicing — sliced == single-shot
//     (visited + trail digests) across order × frontier-mode × workers
//   * journal append/recover, torn-tail tolerance, idempotency ledger
//   * JobManager: duplicate submits never double-run; lease expiry fences
//     the stalled attempt and reschedules; recovery resumes from the last
//     durable checkpoint
//   * Daemon e2e over a unix socket: submit → result; fault-shim
//     differential (same results, only latency/attempts change);
//     degradation fallback when the daemon is unreachable
//   * Crash-restart e2e: fork a daemon, SIGKILL it at randomized points
//     mid-investigation, restart over the same state dir — the resumed
//     result's digests equal an uninterrupted baseline's.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <thread>

#include "apps/rep_counter.hpp"
#include "apps/two_phase_commit.hpp"
#include "common/io.hpp"
#include "core/fixd.hpp"
#include "mc/sysmodel.hpp"
#include "svc/client.hpp"
#include "svc/jobd.hpp"
#include "svc/journal.hpp"

namespace fixd {
namespace {

using svc::CheckpointState;
using svc::JobResultMsg;
using svc::JobSpec;
using svc::RunCallbacks;
using svc::ScenarioRegistry;

JobSpec small_spec() {
  JobSpec spec;
  spec.scenario = "two-pc";
  spec.n = 4;         // 1008 states — enough for ~15 slices at 64
  spec.version = 1;   // buggy: violations exist (1438 of them)
  spec.max_states = 100000;
  spec.max_depth = 60;
  spec.max_violations = 100000;  // not the binding budget: search completes
  spec.checkpoint_states = 64;
  return spec;
}

JobResultMsg run_local(const JobSpec& spec,
                       const ScenarioRegistry& reg = ScenarioRegistry::with_builtins()) {
  const svc::ScenarioFamily* fam = reg.find(spec.scenario);
  EXPECT_NE(fam, nullptr);
  return svc::run_investigation(*fam, spec, nullptr, RunCallbacks{});
}

// ---------------------------------------------------------------------------
// Sliced == single-shot (the resume-identity core)
// ---------------------------------------------------------------------------

class SliceIdentity
    : public ::testing::TestWithParam<
          std::tuple<mc::SearchOrder, bool /*trail*/, int /*workers*/>> {};

TEST_P(SliceIdentity, SlicedEqualsSingleShot) {
  const auto [order, trail, workers] = GetParam();
  JobSpec spec = small_spec();
  spec.order = order;
  spec.trail_frontier = trail;
  spec.workers = static_cast<std::uint32_t>(workers);

  // Baseline: no checkpointing at all (checkpoint_states=0 → no pause).
  JobSpec single = spec;
  single.checkpoint_states = 0;
  const JobResultMsg base = run_local(single);
  ASSERT_TRUE(base.complete);
  ASSERT_GT(base.visited_count, 100u) << "model too small to slice";

  // Sliced: many small checkpointed slices, same spec otherwise.
  std::uint64_t checkpoints = 0;
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  const svc::ScenarioFamily* fam = reg.find(spec.scenario);
  RunCallbacks cb;
  cb.on_checkpoint = [&](const CheckpointState&) {
    ++checkpoints;
    return true;
  };
  const JobResultMsg sliced = svc::run_investigation(*fam, spec, nullptr, cb);
  ASSERT_TRUE(sliced.complete);
  EXPECT_GT(checkpoints, 2u) << "spec did not actually slice";

  EXPECT_EQ(sliced.visited_count, base.visited_count);
  EXPECT_EQ(sliced.visited_digest, base.visited_digest);
  EXPECT_EQ(sliced.trail_digest, base.trail_digest);
  EXPECT_EQ(sliced.stats.states, base.stats.states);
  EXPECT_EQ(sliced.violations.size(), base.violations.size());
}

INSTANTIATE_TEST_SUITE_P(
    Orders, SliceIdentity,
    ::testing::Values(
        std::make_tuple(mc::SearchOrder::kBfs, false, 1),
        std::make_tuple(mc::SearchOrder::kBfs, true, 1),
        std::make_tuple(mc::SearchOrder::kDfs, false, 1),
        std::make_tuple(mc::SearchOrder::kDfs, true, 1),
        std::make_tuple(mc::SearchOrder::kBfs, false, 4),
        std::make_tuple(mc::SearchOrder::kBfs, true, 4)));

// Resuming from a mid-run checkpoint (as after a crash) must converge to
// the same digests: stop the run at checkpoint K, then restart from it.
TEST(SliceIdentity, ResumeFromEveryCheckpointConverges) {
  const JobSpec spec = small_spec();
  const JobResultMsg base = run_local(spec);
  ASSERT_TRUE(base.complete);

  // Collect every checkpoint the uninterrupted sliced run produces.
  std::vector<CheckpointState> checkpoints;
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  const svc::ScenarioFamily* fam = reg.find(spec.scenario);
  RunCallbacks record;
  record.on_checkpoint = [&](const CheckpointState& st) {
    checkpoints.push_back(st);
    return true;
  };
  const JobResultMsg full = svc::run_investigation(*fam, spec, nullptr, record);
  ASSERT_TRUE(full.complete);
  ASSERT_GE(checkpoints.size(), 3u);
  EXPECT_EQ(full.visited_digest, base.visited_digest);

  // "Crash" after each checkpoint: resume from the fold of checkpoints
  // 0..k (each carries only its slice's new digests and violations);
  // digests must converge.
  CheckpointState fold;
  for (std::size_t k = 0; k < checkpoints.size(); ++k) {
    const CheckpointState& ck = checkpoints[k];
    fold.visited.insert(fold.visited.end(), ck.visited.begin(),
                        ck.visited.end());
    fold.violations.insert(fold.violations.end(), ck.violations.begin(),
                           ck.violations.end());
    fold.frontier = ck.frontier;
    fold.stats = ck.stats;
    fold.slices = ck.slices;
    const JobResultMsg resumed =
        svc::run_investigation(*fam, spec, &fold, RunCallbacks{});
    ASSERT_TRUE(resumed.complete) << "resume from checkpoint " << k;
    EXPECT_TRUE(resumed.resumed);
    EXPECT_EQ(resumed.visited_digest, base.visited_digest)
        << "visited digest diverged resuming from checkpoint " << k;
    EXPECT_EQ(resumed.trail_digest, base.trail_digest)
        << "trail digest diverged resuming from checkpoint " << k;
    EXPECT_EQ(resumed.stats.states, base.stats.states);
  }
}

TEST(SliceIdentity, NonSliceableConfigsRejected) {
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  const svc::ScenarioFamily* fam = reg.find("two-pc");
  JobSpec spec = small_spec();
  spec.order = mc::SearchOrder::kPriority;
  EXPECT_THROW(svc::run_investigation(*fam, spec, nullptr, RunCallbacks{}),
               ConfigError);
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

TEST(Journal, AppendRecoverRoundTrip) {
  ScratchDir dir = ScratchDir::create("", "fixd-journal");
  const std::uint64_t job_id = 7;
  {
    svc::JobJournal j(dir.path(), job_id);
    svc::JournalRecord sub;
    sub.type = svc::JournalRecordType::kSubmitted;
    sub.request_id = 1234;
    sub.job_id = job_id;
    sub.spec = small_spec();
    j.append(sub);

    svc::JournalRecord att;
    att.type = svc::JournalRecordType::kAttemptStarted;
    att.generation = 0;
    j.append(att);

    svc::JournalRecord ck;
    ck.type = svc::JournalRecordType::kCheckpoint;
    ck.checkpoint_seq = 0;
    ck.visited = j.write_visited_run(0, {3, 9, 27});
    mc::Trail t;
    mc::SysAction a;
    a.kind = mc::SysAction::Kind::kDropMessage;
    a.msg = 5;
    t.steps.push_back(a);
    ck.frontier = {t};
    ck.stats.states = 3;
    j.append(ck);
  }
  const auto rec = svc::recover_job(dir.path(), job_id);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->request_id, 1234u);
  EXPECT_EQ(rec->spec.scenario, "two-pc");
  EXPECT_EQ(rec->attempts, 1u);
  EXPECT_FALSE(rec->result.has_value());
  ASSERT_TRUE(rec->checkpoint.has_value());
  EXPECT_EQ(rec->checkpoint->stats.states, 3u);
  ASSERT_EQ(rec->checkpoint->frontier.size(), 1u);
  EXPECT_EQ(rec->checkpoint->frontier[0].steps[0].msg, 5u);

  EXPECT_EQ(rec->visited, (std::vector<std::uint64_t>{3, 9, 27}));

  EXPECT_EQ(svc::list_journaled_jobs(dir.path()),
            std::vector<std::uint64_t>{job_id});
  svc::JobJournal::remove_files(dir.path(), job_id);
  EXPECT_TRUE(svc::list_journaled_jobs(dir.path()).empty());
}

TEST(Journal, TornTailReadsAsCleanEnd) {
  ScratchDir dir = ScratchDir::create("", "fixd-torn");
  const std::uint64_t job_id = 3;
  {
    svc::JobJournal j(dir.path(), job_id);
    svc::JournalRecord sub;
    sub.type = svc::JournalRecordType::kSubmitted;
    sub.request_id = 42;
    sub.job_id = job_id;
    sub.spec = small_spec();
    j.append(sub);
    svc::JournalRecord ck;
    ck.type = svc::JournalRecordType::kCheckpoint;
    ck.checkpoint_seq = 0;
    ck.visited = j.write_visited_run(0, {1, 2});
    ck.stats.states = 2;
    j.append(ck);
  }
  const auto path = dir.path() / ("job-" + std::to_string(job_id) + ".wal");
  // Tear the tail mid-checkpoint-record, as a crash mid-append would.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 7);
  const auto rec = svc::recover_job(dir.path(), job_id);
  ASSERT_TRUE(rec.has_value()) << "torn tail must not poison the journal";
  EXPECT_EQ(rec->request_id, 42u);
  EXPECT_FALSE(rec->checkpoint.has_value())
      << "the torn record must be discarded";

  // Tear into the submit record: now nothing durable remains.
  std::filesystem::resize_file(path, 5);
  EXPECT_FALSE(svc::recover_job(dir.path(), job_id).has_value());
}

TEST(Journal, DuplicateSubmitRecordThrows) {
  ScratchDir dir = ScratchDir::create("", "fixd-dup");
  const std::uint64_t job_id = 9;
  {
    svc::JobJournal j(dir.path(), job_id);
    svc::JournalRecord sub;
    sub.type = svc::JournalRecordType::kSubmitted;
    sub.request_id = 77;
    sub.job_id = job_id;
    sub.spec = small_spec();
    j.append(sub);
    j.append(sub);  // the invariant violation recovery must refuse
  }
  EXPECT_THROW(svc::recover_job(dir.path(), job_id), SerializationError);
}

// A journal written under another codec version (an older fixdd, whose
// ExploreStats layout differs) is refused rather than misparsed, even
// though every frame is intact.
TEST(Journal, OtherVersionRecordThrows) {
  ScratchDir dir = ScratchDir::create("", "fixd-version");
  const std::uint64_t job_id = 4;
  svc::JournalRecord sub;
  sub.type = svc::JournalRecordType::kSubmitted;
  sub.request_id = 7;
  sub.job_id = job_id;
  sub.spec = small_spec();
  BinaryWriter payload;
  payload.write_u32(svc::kWireVersion - 1);
  sub.save(payload);
  BinaryWriter frame;
  write_crc_frame(frame, svc::kJournalMagic, payload.bytes());
  {
    std::ofstream out(dir.path() / ("job-" + std::to_string(job_id) + ".wal"),
                      std::ios::binary);
    const auto bytes = frame.bytes();
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(svc::recover_job(dir.path(), job_id), SerializationError);
}

// ---------------------------------------------------------------------------
// JobManager
// ---------------------------------------------------------------------------

svc::JobManagerOptions manager_opts(const ScratchDir& dir,
                                    std::uint64_t lease_ms = 2000) {
  svc::JobManagerOptions o;
  o.state_dir = dir.path() / "state";
  o.worker_threads = 2;
  o.lease_ms = lease_ms;
  return o;
}

JobResultMsg wait_result(svc::JobManager& mgr, std::uint64_t job_id,
                         int timeout_ms = 30000) {
  const auto deadline = svc::now_ms() + static_cast<std::uint64_t>(timeout_ms);
  while (svc::now_ms() < deadline) {
    if (auto res = mgr.result(job_id)) return *res;
    const auto st = mgr.status(job_id);
    if (st && st->phase == svc::JobPhase::kFailed) {
      ADD_FAILURE() << "job failed: " << st->error;
      return {};
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ADD_FAILURE() << "timed out waiting for job " << job_id;
  return {};
}

TEST(JobManager, SubmitRunsAndMatchesLocal) {
  const JobSpec spec = small_spec();
  const JobResultMsg base = run_local(spec);
  ScratchDir dir = ScratchDir::create("", "fixd-mgr");
  svc::JobManager mgr(ScenarioRegistry::with_builtins(), manager_opts(dir));
  const auto out = mgr.submit(1, spec);
  EXPECT_FALSE(out.duplicate);
  const JobResultMsg res = wait_result(mgr, out.job_id);
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.visited_digest, base.visited_digest);
  EXPECT_EQ(res.trail_digest, base.trail_digest);
  const auto st = mgr.status(out.job_id);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->phase, svc::JobPhase::kDone);
  EXPECT_GT(st->checkpoints, 0u) << "job should have journaled checkpoints";
}

TEST(JobManager, DuplicateSubmitNeverDoubleRuns) {
  ScratchDir dir = ScratchDir::create("", "fixd-idem");
  svc::JobManager mgr(ScenarioRegistry::with_builtins(), manager_opts(dir));
  const JobSpec spec = small_spec();
  const auto first = mgr.submit(555, spec);
  const auto retry1 = mgr.submit(555, spec);  // client retry after lost ack
  EXPECT_TRUE(retry1.duplicate);
  EXPECT_EQ(retry1.job_id, first.job_id);
  const JobResultMsg res = wait_result(mgr, first.job_id);
  ASSERT_TRUE(res.complete);
  const auto retry2 = mgr.submit(555, spec);  // retry after completion
  EXPECT_TRUE(retry2.duplicate);
  EXPECT_EQ(retry2.job_id, first.job_id);
  // One job, one set of journal files — nothing double-ran.
  EXPECT_EQ(svc::list_journaled_jobs(dir.path() / "state").size(), 1u);
  const auto st = mgr.status(first.job_id);
  EXPECT_EQ(st->attempts, 1u);
}

TEST(JobManager, UnknownScenarioRejected) {
  ScratchDir dir = ScratchDir::create("", "fixd-badspec");
  svc::JobManager mgr(ScenarioRegistry::with_builtins(), manager_opts(dir));
  JobSpec spec = small_spec();
  spec.scenario = "imaginary";
  EXPECT_THROW(mgr.submit(1, spec), ConfigError);
}

TEST(JobManager, StalledWorkerIsFencedAndJobStillCompletes) {
  ScratchDir dir = ScratchDir::create("", "fixd-lease");
  // Short lease so the test doesn't dawdle; the supervisor thread ticks
  // at lease/4.
  svc::JobManager mgr(ScenarioRegistry::with_builtins(),
                      manager_opts(dir, /*lease_ms=*/150));
  JobSpec spec = small_spec();
  spec.n = 5;  // ~8k states: the attempt reliably outlives the short lease
  spec.checkpoint_states = 16;  // many heartbeat points
  const auto out = mgr.submit(1, spec);

  // Let the first attempt start, then wedge it: heartbeats stop
  // refreshing the lease while the worker keeps computing.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  mgr.test_stall_job(out.job_id, true);
  // Wait for the supervisor to declare the lease dead and reschedule.
  const auto deadline = svc::now_ms() + 10000;
  bool fenced = false;
  while (svc::now_ms() < deadline && !fenced) {
    const auto st = mgr.status(out.job_id);
    fenced = st && st->attempts >= 2;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(fenced) << "supervisor never fenced the stalled attempt";
  mgr.test_stall_job(out.job_id, false);  // un-wedge; zombie writes fenced

  const JobResultMsg res = wait_result(mgr, out.job_id);
  ASSERT_TRUE(res.complete);
  EXPECT_GE(res.attempts, 2u);
  // Fencing must not corrupt the result: digests match an in-process run.
  const JobResultMsg base = run_local(spec);
  EXPECT_EQ(res.visited_digest, base.visited_digest);
  EXPECT_EQ(res.trail_digest, base.trail_digest);
}

TEST(JobManager, RecoverResumesFromCheckpointAcrossManagerRestart) {
  ScratchDir dir = ScratchDir::create("", "fixd-recover");
  const JobSpec spec = small_spec();
  const JobResultMsg base = run_local(spec);
  std::uint64_t job_id = 0;
  {
    // First manager: run until at least one checkpoint lands, then drain
    // (shutdown parks the job at its next slice boundary).
    svc::JobManager mgr(ScenarioRegistry::with_builtins(), manager_opts(dir));
    job_id = mgr.submit(99, spec).job_id;
    const auto deadline = svc::now_ms() + 10000;
    while (svc::now_ms() < deadline) {
      const auto st = mgr.status(job_id);
      if (st && st->checkpoints >= 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    mgr.shutdown();
  }
  {
    // Second manager over the same state dir: recover() must requeue and
    // the job must converge to the baseline digests.
    svc::JobManager mgr(ScenarioRegistry::with_builtins(), manager_opts(dir));
    const std::size_t requeued = mgr.recover();
    if (requeued == 0) {
      // The job may have completed before the drain; then recovery just
      // republishes the terminal result.
      const auto res = mgr.result(job_id);
      ASSERT_TRUE(res.has_value());
      EXPECT_EQ(res->visited_digest, base.visited_digest);
      return;
    }
    const JobResultMsg res = wait_result(mgr, job_id);
    ASSERT_TRUE(res.complete);
    EXPECT_EQ(res.visited_digest, base.visited_digest);
    EXPECT_EQ(res.trail_digest, base.trail_digest);
    const auto st = mgr.status(job_id);
    EXPECT_TRUE(st->resumed);
  }
}

TEST(JobManager, CancelQueuedAndRunning) {
  ScratchDir dir = ScratchDir::create("", "fixd-cancel");
  svc::JobManagerOptions opts = manager_opts(dir);
  opts.worker_threads = 1;  // first job occupies the only worker
  svc::JobManager mgr(ScenarioRegistry::with_builtins(), opts);
  JobSpec big = small_spec();
  big.checkpoint_states = 16;
  const auto running = mgr.submit(1, big);
  const auto queued = mgr.submit(2, big);
  EXPECT_TRUE(mgr.cancel(queued.job_id));
  const auto qst = mgr.status(queued.job_id);
  EXPECT_EQ(qst->phase, svc::JobPhase::kCancelled);
  EXPECT_TRUE(mgr.cancel(running.job_id));
  const auto deadline = svc::now_ms() + 10000;
  while (svc::now_ms() < deadline) {
    const auto st = mgr.status(running.job_id);
    if (st->phase == svc::JobPhase::kCancelled ||
        st->phase == svc::JobPhase::kDone) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto st = mgr.status(running.job_id);
  // Either the cancel landed between slices, or the job finished first —
  // both are acceptable terminal states; hanging is not.
  EXPECT_TRUE(st->phase == svc::JobPhase::kCancelled ||
              st->phase == svc::JobPhase::kDone);
  EXPECT_FALSE(mgr.cancel(9999));
}

// ---------------------------------------------------------------------------
// Incremental checkpoints: each checkpoint writes only its slice's new work
// ---------------------------------------------------------------------------

struct WalRecord {
  std::uintmax_t end = 0;  ///< byte offset just past this record's frame
  svc::JournalRecord rec;
};

/// Every intact record of a WAL, in order, with its end offset.
std::vector<WalRecord> read_wal(const std::filesystem::path& wal) {
  std::ifstream in(wal, std::ios::binary);
  std::vector<WalRecord> out;
  std::uintmax_t pos = 0;
  for (;;) {
    std::array<std::byte, kCrcFrameHeaderBytes> header;
    if (!in.read(reinterpret_cast<char*>(header.data()), header.size())) break;
    const auto [len, crc] =
        parse_crc_frame_header(header, svc::kJournalMagic, svc::kMaxFramePayload);
    std::vector<std::byte> payload(len);
    in.read(reinterpret_cast<char*>(payload.data()), len);
    check_crc_payload(payload, crc);
    BinaryReader r(payload);
    EXPECT_EQ(r.read_u32(), svc::kWireVersion);
    WalRecord w;
    w.rec.load(r);
    pos += header.size() + len;
    w.end = pos;
    out.push_back(std::move(w));
  }
  return out;
}

/// A job journaled by a real JobManager (one worker), run to completion.
struct JournaledJob {
  ScratchDir dir = ScratchDir::create("", "fixd-incr");
  std::filesystem::path state_dir;
  std::filesystem::path wal;
  JobResultMsg result;
  std::vector<WalRecord> records;

  explicit JournaledJob(const JobSpec& spec) {
    svc::JobManagerOptions o = manager_opts(dir);
    o.worker_threads = 1;
    state_dir = o.state_dir;
    std::uint64_t id = 0;
    {
      svc::JobManager mgr(ScenarioRegistry::with_builtins(), o);
      id = mgr.submit(1, spec).job_id;
      result = wait_result(mgr, id);
    }
    wal = state_dir / ("job-" + std::to_string(id) + ".wal");
    records = read_wal(wal);
  }
};

std::vector<std::string> rendered(const std::vector<mc::SysViolation>& vs) {
  std::vector<std::string> out;
  for (const mc::SysViolation& v : vs) out.push_back(v.render());
  return out;
}

TEST(IncrementalCheckpoint, EachDigestAndViolationIsWrittenOnce) {
  JobSpec spec = small_spec();
  spec.checkpoint_states = 16;
  const JobResultMsg base = run_local(spec);
  ASSERT_TRUE(base.complete);
  JournaledJob job(spec);
  ASSERT_TRUE(job.result.complete);
  EXPECT_EQ(job.result.visited_digest, base.visited_digest);
  EXPECT_EQ(job.result.trail_digest, base.trail_digest);

  std::vector<std::uint64_t> runs;
  std::vector<mc::SysViolation> violations;
  const svc::JournalRecord* last = nullptr;
  std::size_t checkpoints = 0, tree_bytes = 0, plain_bytes = 0;
  std::uint64_t states = 0;
  for (const WalRecord& w : job.records) {
    if (w.rec.type != svc::JournalRecordType::kCheckpoint) continue;
    ++checkpoints;
    // The run holds exactly the digests first visited in this slice.
    const std::vector<std::uint64_t> keys =
        SortedRunReader(job.state_dir / w.rec.visited.file,
                        w.rec.visited.fence)
            .read_all();
    EXPECT_EQ(keys.size(), w.rec.stats.states - states) << checkpoints;
    states = w.rec.stats.states;
    runs.insert(runs.end(), keys.begin(), keys.end());
    violations.insert(violations.end(), w.rec.violations.begin(),
                      w.rec.violations.end());

    // The prefix tree never costs more than the plain trail list, and
    // decodes back to the same trails.
    BinaryWriter tree;
    svc::encode_frontier(tree, w.rec.frontier);
    BinaryWriter plain;
    plain.write_vector(w.rec.frontier, [](BinaryWriter& ww,
                                          const mc::Trail& t) { t.save(ww); });
    EXPECT_LE(tree.size(), plain.size()) << "checkpoint " << checkpoints;
    tree_bytes += tree.size();
    plain_bytes += plain.size();
    BinaryReader r(tree.bytes());
    const std::vector<mc::Trail> back = svc::decode_frontier(r);
    EXPECT_TRUE(r.at_end());
    ASSERT_EQ(back.size(), w.rec.frontier.size());
    for (std::size_t i = 0; i < back.size(); ++i) {
      EXPECT_EQ(back[i].steps, w.rec.frontier[i].steps);
    }
    last = &w.rec;
  }
  ASSERT_GT(checkpoints, 20u);
  ASSERT_NE(last, nullptr);
  EXPECT_LT(tree_bytes * 2, plain_bytes) << "frontier trails share prefixes";

  // Each digest sits in exactly one run.
  std::sort(runs.begin(), runs.end());
  EXPECT_EQ(std::adjacent_find(runs.begin(), runs.end()), runs.end());

  // What the runs and records lack is exactly the final slice's work: a
  // search resumed from them visits (and reports) only that, and the
  // union is the uninterrupted run's set.
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  const svc::ScenarioFamily* fam = reg.find(spec.scenario);
  auto world = fam->make(spec.n, spec.version);
  mc::SysExploreOptions o;
  o.order = spec.order;
  o.max_depth = spec.max_depth;
  o.max_violations = spec.max_violations;
  o.install_invariants = fam->install_invariants;
  o.collect_visited = true;
  o.resume_visited = runs;
  o.resume_frontier = last->frontier;
  mc::SystemExplorer ex(*world, o);
  const mc::SysExploreResult rest = ex.explore();
  EXPECT_EQ(last->stats.states + rest.stats.states, base.stats.states);
  std::vector<std::uint64_t> all = runs;
  all.insert(all.end(), rest.visited.begin(), rest.visited.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
      << "a resume preseed digest came back as new";
  EXPECT_EQ(all.size(), base.visited_count);
  EXPECT_EQ(svc::visited_digest(all), base.visited_digest);

  // Each violation sits in exactly one record, in discovery order.
  violations.insert(violations.end(), rest.violations.begin(),
                    rest.violations.end());
  EXPECT_EQ(rendered(violations), rendered(base.violations));
}

/// What JobManager::recover() hands the runner for a recovered job.
std::optional<CheckpointState> resume_point(const svc::RecoveredJob& rec) {
  if (!rec.checkpoint) return std::nullopt;
  CheckpointState st;
  st.visited = rec.visited;
  st.frontier = rec.checkpoint->frontier;
  st.stats = rec.checkpoint->stats;
  st.violations = rec.checkpoint->violations;
  st.slices = rec.checkpoint->checkpoint_seq + 1;
  return st;
}

// A crash can cut the WAL after any record, or tear the record being
// appended. Recovery from every such prefix folds the checkpoints back
// together and resumes to the uninterrupted run's digests.
TEST(IncrementalCheckpoint, RecoverFromEveryWalCutResumesToBaseline) {
  JobSpec spec = small_spec();
  spec.checkpoint_states = 16;
  const JobResultMsg base = run_local(spec);
  JournaledJob job(spec);
  ASSERT_TRUE(job.result.complete);
  ASSERT_GT(job.records.size(), 20u);
  ASSERT_EQ(job.records.back().rec.type, svc::JournalRecordType::kCompleted);

  std::vector<std::uintmax_t> cuts;
  for (const WalRecord& w : job.records) cuts.push_back(w.end);
  // Torn inside the last checkpoint record and inside the completion.
  const std::uintmax_t last_ckpt_end = job.records[job.records.size() - 2].end;
  cuts.push_back(last_ckpt_end - 7);
  cuts.push_back(job.records.back().end - 7);

  std::ifstream in(job.wal, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  const svc::ScenarioFamily* fam = reg.find(spec.scenario);
  std::uint64_t id = 1000;
  for (const std::uintmax_t cut : cuts) {
    // The cut WAL sits beside the original, so its run manifests resolve.
    ++id;
    {
      std::ofstream out(job.state_dir / ("job-" + std::to_string(id) + ".wal"),
                        std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    const auto rec = svc::recover_job(job.state_dir, id);
    ASSERT_TRUE(rec.has_value()) << "cut at " << cut;
    if (rec->result) {
      EXPECT_EQ(rec->result->visited_digest, base.visited_digest);
      continue;
    }
    const std::optional<CheckpointState> from = resume_point(*rec);
    if (from) {
      EXPECT_EQ(from->visited.size(), from->stats.states) << "cut at " << cut;
    }
    const JobResultMsg res = svc::run_investigation(
        *fam, spec, from ? &*from : nullptr, RunCallbacks{});
    ASSERT_TRUE(res.complete) << "cut at " << cut;
    EXPECT_EQ(res.visited_digest, base.visited_digest) << "cut at " << cut;
    EXPECT_EQ(res.trail_digest, base.trail_digest) << "cut at " << cut;
    EXPECT_EQ(res.stats.states, base.stats.states) << "cut at " << cut;
  }
}

// ---------------------------------------------------------------------------
// Daemon e2e over a unix socket
// ---------------------------------------------------------------------------

struct DaemonHarness {
  ScratchDir dir = ScratchDir::create("", "fixd-daemon");
  std::unique_ptr<svc::Daemon> daemon;
  std::thread serve_thread;

  explicit DaemonHarness(const std::string& shim = "") {
    svc::DaemonOptions opts;
    opts.endpoint = svc::Endpoint::parse(
        "unix:" + (dir.path() / "fixdd.sock").string());
    opts.state_dir = dir.path() / "state";
    opts.shim = svc::FaultShimSpec::parse(shim);
    opts.lease_ms = 2000;
    daemon = std::make_unique<svc::Daemon>(opts);
    serve_thread = std::thread([this] { daemon->serve(); });
  }

  ~DaemonHarness() {
    daemon->stop();
    if (serve_thread.joinable()) serve_thread.join();
  }

  svc::Client client(std::uint32_t attempts = 5,
                     std::uint64_t budget_ms = 30000) {
    svc::RetryPolicy p;
    p.max_attempts = attempts;
    p.total_budget_ms = budget_ms;
    p.rpc_timeout_ms = 500;
    return svc::Client(daemon->endpoint(), p);
  }
};

TEST(DaemonE2e, SubmitPollResultOverUnixSocket) {
  const JobSpec spec = small_spec();
  const JobResultMsg base = run_local(spec);
  DaemonHarness h;
  svc::Client client = h.client();
  const auto outcome = svc::submit_and_wait_or_degrade(
      client, ScenarioRegistry::with_builtins(), spec, /*request_id=*/101);
  EXPECT_FALSE(outcome.degraded);
  EXPECT_TRUE(outcome.result.complete);
  EXPECT_EQ(outcome.result.visited_digest, base.visited_digest);
  EXPECT_EQ(outcome.result.trail_digest, base.trail_digest);
  EXPECT_FALSE(outcome.result.degraded);
}

TEST(DaemonE2e, FaultShimDifferential) {
  // Same job under a hostile shim: ~40% of responses dropped/severed/
  // delayed. Results must be identical — only attempts/latency change.
  const JobSpec spec = small_spec();
  const JobResultMsg base = run_local(spec);
  DaemonHarness h("drop=0.15,sever=0.15,delay=0.1:10,seed=12");
  svc::Client client = h.client(/*attempts=*/8, /*budget_ms=*/60000);
  const auto outcome = svc::submit_and_wait_or_degrade(
      client, ScenarioRegistry::with_builtins(), spec, /*request_id=*/202,
      /*poll_interval_ms=*/10, /*wait_budget_ms=*/60000);
  EXPECT_FALSE(outcome.degraded)
      << "retry budget should absorb the shim: " << outcome.degraded_reason;
  EXPECT_TRUE(outcome.result.complete);
  EXPECT_EQ(outcome.result.visited_digest, base.visited_digest)
      << "transport faults must never change results";
  EXPECT_EQ(outcome.result.trail_digest, base.trail_digest);
}

TEST(DaemonE2e, DuplicateSubmitOverWireIsDeduped) {
  DaemonHarness h;
  svc::Client client = h.client();
  svc::Request req;
  req.request_id = 303;
  req.kind = svc::RpcKind::kSubmit;
  req.spec = small_spec();
  const svc::Response first = client.call(req);
  ASSERT_EQ(first.status, svc::RpcStatus::kOk);
  const svc::Response second = client.call(req);  // e.g. lost-ack retry
  ASSERT_EQ(second.status, svc::RpcStatus::kOk);
  EXPECT_TRUE(second.duplicate);
  EXPECT_EQ(second.job_id, first.job_id);
}

TEST(DaemonE2e, TailLogReportsJobLifecycle) {
  DaemonHarness h;
  svc::Client client = h.client();
  const auto outcome = svc::submit_and_wait_or_degrade(
      client, ScenarioRegistry::with_builtins(), small_spec(), 404);
  ASSERT_TRUE(outcome.result.complete);
  svc::Request req;
  req.request_id = 405;
  req.kind = svc::RpcKind::kTailLog;
  req.arg = 64;
  const svc::Response rsp = client.call(req);
  ASSERT_EQ(rsp.status, svc::RpcStatus::kOk);
  bool saw_submit = false, saw_done = false;
  for (const std::string& line : rsp.log_lines) {
    saw_submit = saw_submit || line.find("submitted") != std::string::npos;
    saw_done = saw_done || line.find("done") != std::string::npos;
  }
  EXPECT_TRUE(saw_submit) << "job lifecycle must flow through the log ring";
  EXPECT_TRUE(saw_done);
}

TEST(DaemonE2e, UnreachableDaemonDegradesToInProcess) {
  const JobSpec spec = small_spec();
  const JobResultMsg base = run_local(spec);
  // Nothing listens here; connect() fails fast, the retry ladder runs dry,
  // and the client falls back to the in-process runner.
  ScratchDir dir = ScratchDir::create("", "fixd-noone");
  svc::RetryPolicy p;
  p.max_attempts = 3;
  p.rpc_timeout_ms = 100;
  p.total_budget_ms = 1000;
  svc::Client client(
      svc::Endpoint::parse("unix:" + (dir.path() / "void.sock").string()), p);
  const auto outcome = svc::submit_and_wait_or_degrade(
      client, ScenarioRegistry::with_builtins(), spec, 606);
  EXPECT_TRUE(outcome.degraded) << "no daemon → must degrade, not error";
  EXPECT_FALSE(outcome.degraded_reason.empty());
  EXPECT_TRUE(outcome.result.degraded);
  EXPECT_TRUE(outcome.result.complete);
  // Degraded path shares the runner: identical digests.
  EXPECT_EQ(outcome.result.visited_digest, base.visited_digest);
  EXPECT_EQ(outcome.result.trail_digest, base.trail_digest);
}

// ---------------------------------------------------------------------------
// FixdController delegating its investigation to the daemon
// ---------------------------------------------------------------------------

/// One protected run of a buggy counter world that stops after its first
/// investigation (max_recovery_attempts = 1), delegated to `endpoint`.
core::FixdReport protect_via(const std::string& endpoint,
                             const svc::RetryPolicy& retry) {
  auto w = apps::make_counter_world(3, 1, apps::CounterConfig{4});
  core::FixdOptions o;
  o.install_invariants = apps::install_counter_invariants;
  o.max_recovery_attempts = 1;
  o.investigate_endpoint = endpoint;
  o.investigate_job = small_spec();
  o.investigate_retry = retry;
  core::FixdController ctl(*w, o);
  return ctl.run_protected();
}

TEST(DaemonE2e, ControllerDelegatesInvestigationToDaemon) {
  const JobResultMsg base = run_local(small_spec());
  DaemonHarness h;
  const core::FixdReport rep = protect_via(
      "unix:" + (h.dir.path() / "fixdd.sock").string(), h.client().policy());
  ASSERT_EQ(rep.bugs.size(), 1u) << rep.render();
  EXPECT_EQ(rep.bugs[0].investigated_via, "daemon");
  EXPECT_EQ(rep.remote_investigations, 1u);
  EXPECT_EQ(rep.investigate_fallbacks, 0u);
  // The daemon ran the job the controller named: the in-process trails.
  EXPECT_EQ(rep.bugs[0].trails.size(), base.violations.size());
  EXPECT_EQ(svc::trail_digest(rep.bugs[0].trails, 1), base.trail_digest);
}

TEST(DaemonE2e, ControllerFallsBackInProcessWhenDaemonUnreachable) {
  const JobResultMsg base = run_local(small_spec());
  ScratchDir dir = ScratchDir::create("", "fixd-noone");
  svc::RetryPolicy p;
  p.max_attempts = 2;
  p.rpc_timeout_ms = 100;
  p.total_budget_ms = 500;
  const core::FixdReport rep =
      protect_via("unix:" + (dir.path() / "void.sock").string(), p);
  ASSERT_EQ(rep.bugs.size(), 1u) << rep.render();
  EXPECT_EQ(rep.bugs[0].investigated_via.rfind("degraded:", 0), 0u)
      << rep.bugs[0].investigated_via;
  EXPECT_EQ(rep.investigate_fallbacks, 1u);
  EXPECT_EQ(rep.remote_investigations, 0u);
  EXPECT_EQ(rep.bugs[0].trails.size(), base.violations.size());
  EXPECT_EQ(svc::trail_digest(rep.bugs[0].trails, 1), base.trail_digest);
}

// ---------------------------------------------------------------------------
// Crash-restart e2e: fork + SIGKILL at randomized points
// ---------------------------------------------------------------------------

// Forks a child that runs a daemon over `state_dir`; returns its pid.
// fork() from the (single-threaded) gtest parent is safe; the child execs
// nothing and only uses async-signal-safe state built after the fork.
pid_t spawn_daemon_child(const std::filesystem::path& sock,
                         const std::filesystem::path& state_dir) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  // Child: serve until killed.
  svc::DaemonOptions opts;
  opts.endpoint = svc::Endpoint::parse("unix:" + sock.string());
  opts.state_dir = state_dir;
  opts.worker_threads = 1;
  opts.lease_ms = 2000;
  try {
    svc::Daemon daemon(opts);
    daemon.serve();
  } catch (...) {
  }
  _exit(0);
}

void wait_for_socket(const svc::Endpoint& ep) {
  const auto deadline = svc::now_ms() + 15000;
  while (svc::now_ms() < deadline) {
    try {
      svc::Conn c = svc::connect(ep, svc::now_ms() + 200);
      return;
    } catch (const FixdError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  FAIL() << "daemon child never came up on " << ep.to_string();
}

class CrashRestart : public ::testing::TestWithParam<
                         std::tuple<bool /*trail*/, int /*kill_delay_ms*/>> {};

TEST_P(CrashRestart, KilledDaemonResumesToIdenticalDigests) {
  const auto [trail, kill_delay_ms] = GetParam();
  JobSpec spec = small_spec();
  spec.trail_frontier = trail;
  spec.checkpoint_states = 24;  // frequent durable checkpoints
  const JobResultMsg base = run_local(spec);
  ASSERT_TRUE(base.complete);

  ScratchDir dir = ScratchDir::create("", "fixd-crash");
  const auto sock = dir.path() / "fixdd.sock";
  const auto state_dir = dir.path() / "state";
  const auto ep = svc::Endpoint::parse("unix:" + sock.string());

  // Phase 1: daemon up, submit, let it work briefly, then SIGKILL —
  // mid-investigation, at a point randomized by the parameter.
  pid_t pid = spawn_daemon_child(sock, state_dir);
  ASSERT_GT(pid, 0);
  wait_for_socket(ep);
  svc::RetryPolicy policy;
  policy.rpc_timeout_ms = 1000;
  policy.total_budget_ms = 10000;
  std::uint64_t job_id = 0;
  {
    svc::Client client(ep, policy);
    svc::Request req;
    req.request_id = 9001;
    req.kind = svc::RpcKind::kSubmit;
    req.spec = spec;
    const svc::Response rsp = client.call(req);
    ASSERT_EQ(rsp.status, svc::RpcStatus::kOk);
    job_id = rsp.job_id;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(kill_delay_ms));
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));

  // Phase 2: restart over the same state dir. Recovery must requeue (or
  // re-publish, if the job finished before the kill) and converge to the
  // uninterrupted baseline digests.
  pid = spawn_daemon_child(sock, state_dir);
  ASSERT_GT(pid, 0);
  wait_for_socket(ep);
  {
    svc::Client client(ep, policy);
    // The same request_id must map back to the same job (idempotency
    // survives the crash via the journal ledger).
    svc::Request req;
    req.request_id = 9001;
    req.kind = svc::RpcKind::kSubmit;
    req.spec = spec;
    const svc::Response rsp = client.call(req);
    ASSERT_EQ(rsp.status, svc::RpcStatus::kOk);
    EXPECT_TRUE(rsp.duplicate) << "journal must preserve the request ledger";
    EXPECT_EQ(rsp.job_id, job_id);

    const auto deadline = svc::now_ms() + 60000;
    JobResultMsg res;
    bool got = false;
    while (svc::now_ms() < deadline && !got) {
      svc::Request rreq;
      rreq.request_id = svc::now_ms();
      rreq.kind = svc::RpcKind::kResult;
      rreq.job_id = job_id;
      const svc::Response rrsp = client.call(rreq);
      if (rrsp.status == svc::RpcStatus::kOk) {
        res = rrsp.result;
        got = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    ASSERT_TRUE(got) << "resumed job never finished";
    EXPECT_TRUE(res.complete);
    EXPECT_EQ(res.visited_count, base.visited_count);
    EXPECT_EQ(res.visited_digest, base.visited_digest)
        << "crash-restart changed the visited set";
    EXPECT_EQ(res.trail_digest, base.trail_digest)
        << "crash-restart changed the reported violations";
    EXPECT_EQ(res.stats.states, base.stats.states);
  }
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  waitpid(pid, &status, 0);
}

INSTANTIATE_TEST_SUITE_P(
    KillPoints, CrashRestart,
    ::testing::Values(std::make_tuple(false, 0), std::make_tuple(false, 40),
                      std::make_tuple(false, 120), std::make_tuple(true, 25),
                      std::make_tuple(true, 80)));

}  // namespace
}  // namespace fixd
