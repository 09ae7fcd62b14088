// Job management for fixdd: scenario registry, sliced investigation runner,
// lease-supervised execution, and the daemon serve loop.
//
// The durable unit is a JobSpec (scenario name + parameters), never a live
// world: the registry rebuilds the world deterministically, so a journal +
// spec + checkpoint fully determine the rest of the search. That is what
// makes `kill -9` recoverable — and testable: a resumed job's visited-set
// and trail digests must equal an uninterrupted run's byte for byte
// (tests/test_svc.cpp pins this at randomized kill points).
//
// Robustness mechanisms here:
//   * Idempotency: submit() consults the request-id ledger first; a
//     duplicate submit returns the existing job id with `duplicate` set
//     and never enqueues a second execution.
//   * Leases: a running attempt owns a (job, generation) lease and
//     heartbeats it from the runner's per-slice callback. supervise_tick()
//     declares an attempt dead when its lease lapses, bumps the
//     generation (fencing the zombie — its late checkpoint/completion
//     writes are rejected), journals a new attempt, and requeues the job
//     from the last durable checkpoint.
//   * Durability: every checkpoint hits the WAL (visited run fsynced
//     before the record referencing it) before the search continues.
//     A checkpoint writes only what its slice added (new digests, new
//     violations) plus the frontier; recovery folds them back together.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "mc/sysmodel.hpp"
#include "svc/journal.hpp"
#include "svc/transport.hpp"
#include "svc/wire.hpp"

namespace fixd::rt {
class World;
}

namespace fixd::svc {

/// A named, deterministic world family the daemon can investigate.
struct ScenarioFamily {
  std::string name;
  std::function<std::unique_ptr<rt::World>(std::uint32_t n, std::int32_t
                                               version)>
      make;
  std::function<void(rt::World&)> install_invariants;
};

class ScenarioRegistry {
 public:
  void add(ScenarioFamily fam);
  const ScenarioFamily* find(const std::string& name) const;
  std::vector<std::string> names() const;

  /// two-pc, token-ring, election — the in-tree app models, single-txn
  /// configurations so a job's state space is bounded.
  static ScenarioRegistry with_builtins();

 private:
  std::map<std::string, ScenarioFamily> fams_;
};

/// Search state at a pause point. It has two readings:
///   * Passed to RunCallbacks::on_checkpoint, it is one checkpoint — what a
///     kCheckpoint journal record carries: `visited` and `violations` hold
///     only what this slice added (its new digests, sorted; its new
///     violations), while `frontier`, `stats` and `slices` are whole.
///   * Passed to run_investigation as `resume`, it is the fold of every
///     checkpoint so far: the union of their digests (any order), their
///     violations concatenated in order, and the last one's frontier,
///     stats and slice count. A default-constructed fold (slices == 0)
///     starts the search from the root.
struct CheckpointState {
  std::vector<std::uint64_t> visited;  ///< canonical digests (see above)
  std::vector<mc::Trail> frontier;     ///< root-relative, deque order
  mc::ExploreStats stats;              ///< accumulated across slices
  std::vector<mc::SysViolation> violations;  ///< see above
  std::uint64_t slices = 0;
};

/// Canonical digest of a visited set (order-independent by construction:
/// input must be sorted, which SysExploreResult::visited guarantees).
std::uint64_t visited_digest(const std::vector<std::uint64_t>& visited);

/// Canonical digest of reported violations. For a sequential search the
/// trail order and contents are deterministic, so the digest covers the
/// full ordered trails. Parallel searches report a deterministic violation
/// *multiset* but path-dependent trails/depths, so the digest covers the
/// sorted (invariant, pid, detail) records only — the strongest claim the
/// parallel determinism contract supports. `progress`, when set, is called
/// every 1024 violations: the digest grows with the job, and the runner's
/// lease heartbeat must not lapse while it is computed.
std::uint64_t trail_digest(const std::vector<mc::SysViolation>& violations,
                           std::uint32_t workers,
                           const std::function<void()>& progress = {});

struct RunCallbacks {
  /// The lease heartbeat: called once the search is set up, after every
  /// slice, and once the result is assembled.
  std::function<void()> heartbeat;
  /// Checked between slices; true stops the run (cancel / fenced / drain).
  std::function<bool()> should_cancel;
  /// Called with each paused slice's checkpoint (its new digests and
  /// violations; see CheckpointState). Return false to abandon the run
  /// (stale generation). A null callback means "no durability" (the
  /// degraded in-process path), and the frontier is then never captured.
  std::function<bool(const CheckpointState&)> on_checkpoint;
};

/// Run one investigation as a sequence of pause/continue slices of roughly
/// `spec.checkpoint_states` states each, on one explorer that keeps the
/// search alive between slices. Pure with respect to the spec:
/// the same spec (resumed from any checkpoint or not) converges to the
/// same visited set and violations as one uninterrupted run. Used by the
/// daemon's workers AND the client's in-process degradation fallback, so
/// degraded results are comparable by construction.
/// `resume` is taken by value: callers move their fold in, so a resumed
/// attempt copies it no more than its caller already did.
JobResultMsg run_investigation(const ScenarioFamily& fam, const JobSpec& spec,
                               CheckpointState resume,
                               const RunCallbacks& cb);
/// The same for a caller that keeps its fold: one copy of `*resume`, or a
/// search from the root when `resume` is null.
inline JobResultMsg run_investigation(const ScenarioFamily& fam,
                                      const JobSpec& spec,
                                      const CheckpointState* resume,
                                      const RunCallbacks& cb) {
  return run_investigation(fam, spec,
                           resume ? *resume : CheckpointState{}, cb);
}

struct SubmitOutcome {
  std::uint64_t job_id = 0;
  bool duplicate = false;
};

struct JobManagerOptions {
  std::filesystem::path state_dir;
  std::uint32_t worker_threads = 2;
  std::uint64_t lease_ms = 2000;
};

class JobManager {
 public:
  JobManager(ScenarioRegistry registry, JobManagerOptions opts,
             LogRing* log = nullptr);
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Idempotent by request_id: a repeat returns the original job with
  /// duplicate=true. Throws ConfigError for an unknown scenario.
  SubmitOutcome submit(std::uint64_t request_id, const JobSpec& spec);
  std::optional<JobStatusMsg> status(std::uint64_t job_id) const;
  /// True if the job existed and is now cancelled (or already terminal).
  bool cancel(std::uint64_t job_id);
  std::optional<JobResultMsg> result(std::uint64_t job_id) const;

  /// Replay every journal under state_dir; re-publishes terminal results
  /// and requeues incomplete jobs from their last checkpoint. Returns the
  /// number of jobs requeued. Call before serving.
  std::size_t recover();

  /// Declare dead any running attempt whose lease lapsed; fence + requeue.
  /// Returns the number of attempts declared dead. Runs automatically from
  /// an internal supervisor thread; exposed for deterministic tests.
  std::size_t supervise_tick();

  /// Stop accepting work and join workers. Running slices finish; their
  /// next checkpoint parks the job (it will resume on next recover()).
  void shutdown();
  bool draining() const { return draining_.load(); }

  std::uint64_t lease_ms() const { return opts_.lease_ms; }

  /// Test hook: while stalled, the job's heartbeats stop refreshing the
  /// lease (the worker keeps running) — simulates a wedged worker so the
  /// supervisor/fencing path is testable without killing threads.
  void test_stall_job(std::uint64_t job_id, bool stalled);

 private:
  struct Job {
    std::uint64_t id = 0;
    std::uint64_t request_id = 0;
    JobSpec spec;
    JobPhase phase = JobPhase::kQueued;
    std::uint32_t generation = 0;  ///< current lease owner's token
    std::uint32_t attempts = 0;
    std::uint64_t last_heartbeat = 0;  ///< now_ms() of last lease refresh
    bool running = false;              ///< an attempt thread is executing
    bool cancel_requested = false;
    bool resumed = false;
    bool stalled = false;  ///< test hook (see test_stall_job)
    std::uint64_t checkpoints = 0;
    CheckpointState ckpt;  ///< the fold of every durable checkpoint
    bool has_ckpt = false;
    std::optional<JobResultMsg> result;
    std::string error;
    std::unique_ptr<JobJournal> journal;
  };

  void worker_loop();
  void supervisor_loop();
  void execute(std::uint64_t job_id, std::uint32_t my_gen);
  void log_event(LogLevel level, const std::string& msg);

  ScenarioRegistry registry_;
  JobManagerOptions opts_;
  LogRing* log_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, Job> jobs_;
  std::map<std::uint64_t, std::uint64_t> request_ledger_;  // req id -> job id
  std::vector<std::uint64_t> queue_;
  std::uint64_t next_job_id_ = 1;
  std::atomic<bool> draining_{false};
  std::vector<std::thread> workers_;
  std::thread supervisor_;
};

struct DaemonOptions {
  Endpoint endpoint;
  std::filesystem::path state_dir;
  FaultShimSpec shim;
  std::uint32_t worker_threads = 2;
  std::uint64_t lease_ms = 2000;
  std::size_t log_capacity = 256;
};

/// The fixdd serve loop: accept → read framed Requests → dispatch to the
/// JobManager → respond (subject to the fault shim). Single-threaded
/// request handling by design — job execution happens on JobManager
/// workers, so the RPC path stays simple and every injected fault hits a
/// deterministic point.
class Daemon {
 public:
  explicit Daemon(DaemonOptions opts);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Blocks until a kShutdown RPC or stop(). Recovers journaled jobs
  /// before accepting.
  void serve();
  void stop();

  const Endpoint& endpoint() const { return listener_.endpoint(); }
  JobManager& jobs() { return jobs_; }
  LogRing& log_ring() { return log_; }
  std::size_t recovered() const { return recovered_; }

 private:
  Response dispatch(const Request& req);

  DaemonOptions opts_;
  LogRing log_;
  Listener listener_;
  JobManager jobs_;
  FaultShim shim_;
  std::atomic<bool> stop_{false};
  std::size_t recovered_ = 0;
};

}  // namespace fixd::svc
