#include "svc/jobd.hpp"

#include <algorithm>
#include <chrono>

#include "apps/leader_election.hpp"
#include "apps/token_ring.hpp"
#include "apps/two_phase_commit.hpp"
#include "common/hash.hpp"
#include "rt/world.hpp"

namespace fixd::svc {

// ---------------------------------------------------------------------------
// Scenario registry
// ---------------------------------------------------------------------------

void ScenarioRegistry::add(ScenarioFamily fam) {
  fams_[fam.name] = std::move(fam);
}

const ScenarioFamily* ScenarioRegistry::find(const std::string& name) const {
  const auto it = fams_.find(name);
  return it == fams_.end() ? nullptr : &it->second;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(fams_.size());
  for (const auto& [k, v] : fams_) out.push_back(k);
  return out;
}

ScenarioRegistry ScenarioRegistry::with_builtins() {
  ScenarioRegistry reg;
  reg.add({"two-pc",
           [](std::uint32_t n, std::int32_t version) {
             apps::TwoPcConfig cfg;
             cfg.total_txns = 1;  // bounded state space per job
             return apps::make_two_pc_world(n, version, cfg);
           },
           apps::install_two_pc_invariants});
  reg.add({"token-ring",
           [](std::uint32_t n, std::int32_t version) {
             apps::TokenRingConfig cfg;
             cfg.target_rounds = 1;
             return apps::make_token_ring_world(n, version, cfg);
           },
           apps::install_token_ring_invariants});
  reg.add({"election",
           [](std::uint32_t n, std::int32_t version) {
             return apps::make_election_world(n, version);
           },
           apps::install_election_invariants});
  return reg;
}

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

std::uint64_t visited_digest(const std::vector<std::uint64_t>& visited) {
  Hasher h;
  h.update_u64(visited.size());
  for (const std::uint64_t v : visited) h.update_u64(v);
  return h.digest();
}

std::uint64_t trail_digest(const std::vector<mc::SysViolation>& violations,
                           std::uint32_t workers,
                           const std::function<void()>& progress) {
  // Called every kProgressEvery violations (see the declaration).
  constexpr std::size_t kProgressEvery = 1024;
  std::size_t done = 0;
  auto tick = [&] {
    if (progress && ++done % kProgressEvery == 0) progress();
  };
  if (workers <= 1) {
    // Sequential searches produce a fully deterministic ordered trail
    // list: digest everything, order-sensitively.
    // Consecutive violations mostly share a trail prefix (siblings found
    // by one expansion), so each rendering keeps the previous one's text
    // up to the shared prefix and renders only the steps after it.
    Hasher h;
    h.update_u64(violations.size());
    const mc::Trail* prev = nullptr;
    std::string what;              // the violation, rendered
    std::string text;              // the previous trail, rendered
    std::vector<std::size_t> end;  // text size after each of its steps
    for (const mc::SysViolation& v : violations) {
      what.clear();
      v.violation.append_to(what);
      h.update_string(what);
      const std::vector<mc::SysAction>& steps = v.trail.steps;
      std::size_t k = 0;
      if (prev != nullptr) {
        const std::size_t m = std::min(prev->steps.size(), steps.size());
        while (k < m && prev->steps[k] == steps[k]) ++k;
      }
      text.resize(k > 0 ? end[k - 1] : 0);
      end.resize(k);
      for (std::size_t i = k; i < steps.size(); ++i) {
        v.trail.render_step(text, i);
        end.push_back(text.size());
      }
      h.update_string(text);
      h.update_u64(v.depth);
      prev = &v.trail;
      tick();
    }
    return h.digest();
  }
  // Parallel searches: the violation multiset is deterministic, the trail
  // taken to each violation is not. Digest the sorted identity records.
  std::vector<std::string> records;
  records.reserve(violations.size());
  for (const mc::SysViolation& v : violations) {
    records.push_back(v.violation.invariant + "|" +
                      std::to_string(v.violation.pid) + "|" +
                      v.violation.detail);
    tick();
  }
  std::sort(records.begin(), records.end());
  if (progress) progress();
  Hasher h;
  h.update_u64(records.size());
  for (const std::string& r : records) h.update_string(r);
  return h.digest();
}

// ---------------------------------------------------------------------------
// Sliced investigation runner
// ---------------------------------------------------------------------------

namespace {

/// Merge one slice's stats into the job's accumulated stats. Counters sum;
/// peaks max; end-of-run gauges take the latest slice's value.
void accumulate_stats(mc::ExploreStats& acc, const mc::ExploreStats& s) {
  acc.states += s.states;
  acc.transitions += s.transitions;
  acc.duplicates += s.duplicates;
  acc.max_depth = std::max(acc.max_depth, s.max_depth);
  acc.truncated = acc.truncated || s.truncated;
  acc.wall_ms += s.wall_ms;
  acc.digest_ms += s.digest_ms;
  acc.snapshot_ms += s.snapshot_ms;
  acc.peak_frontier_bytes = std::max(acc.peak_frontier_bytes,
                                     s.peak_frontier_bytes);
  acc.peak_frontier_bytes_max_worker = std::max(
      acc.peak_frontier_bytes_max_worker, s.peak_frontier_bytes_max_worker);
  acc.visited_resident_bytes = s.visited_resident_bytes;
  acc.visited_peak_resident_bytes = std::max(acc.visited_peak_resident_bytes,
                                             s.visited_peak_resident_bytes);
  acc.visited_spilled_bytes = s.visited_spilled_bytes;
  acc.spilled_bytes += s.spilled_bytes;
  acc.bloom_fp_rate = s.bloom_fp_rate;
  acc.anchor_evictions += s.anchor_evictions;
  acc.anchor_recomputes += s.anchor_recomputes;
  acc.replayed_actions += s.replayed_actions;
  acc.workers = std::max(acc.workers, s.workers);
  acc.steals += s.steals;
  acc.por_deferred += s.por_deferred;
  acc.por_backtracks += s.por_backtracks;
}

mc::SysExploreOptions options_for(const ScenarioFamily& fam,
                                  const JobSpec& spec) {
  mc::SysExploreOptions o;
  o.order = spec.order;
  o.trail_frontier = spec.trail_frontier;
  o.anchor_interval = 4;
  o.workers = spec.workers;
  o.max_depth = spec.max_depth;
  o.seed = spec.seed;
  o.model_message_loss = spec.model_message_loss;
  o.model_message_duplication = spec.model_message_duplication;
  o.dedup = true;
  o.collect_visited = true;
  o.install_invariants = fam.install_invariants;
  return o;
}

}  // namespace

JobResultMsg run_investigation(const ScenarioFamily& fam, const JobSpec& spec,
                               CheckpointState resume,
                               const RunCallbacks& cb) {
  if (spec.order != mc::SearchOrder::kBfs &&
      spec.order != mc::SearchOrder::kDfs) {
    throw ConfigError("job: only bfs/dfs searches are sliceable");
  }
  std::unique_ptr<rt::World> world = fam.make(spec.n, spec.version);

  // The fold of every slice so far (the resume point's fold included).
  CheckpointState& state = resume;

  JobResultMsg out;
  out.resumed = state.slices > 0;

  // Budgets span the explorer's whole search. The accumulated `states`
  // counter matches the uninterrupted run's exactly (resume preseeds are
  // not re-counted), so remaining = spec budget - accumulated.
  const bool exhausted = state.stats.states >= spec.max_states ||
                         state.violations.size() >= spec.max_violations;
  mc::SysExploreOptions iopts = options_for(fam, spec);
  iopts.max_states = spec.max_states - std::min(spec.max_states,
                                                state.stats.states);
  iopts.max_violations = spec.max_violations -
                         std::min(spec.max_violations,
                                  state.violations.size());
  // Pause roughly every checkpoint_states newly-visited states. The
  // threshold is per-slice (each slice's stats start at zero), so every
  // slice is guaranteed forward progress before it can pause.
  if (spec.checkpoint_states > 0) {
    const std::uint64_t threshold = spec.checkpoint_states;
    iopts.pause_check = [threshold](const mc::ExploreStats& s) {
      return s.states >= threshold;
    };
    iopts.capture_frontier = static_cast<bool>(cb.on_checkpoint);
  }
  if (state.slices > 0) {
    // The fold keeps its own visited set for the final digest; the
    // explorer's preseed is one copy of it.
    iopts.resume_visited = state.visited;
    iopts.resume_frontier = std::move(state.frontier);
  }
  // One explorer for the whole attempt: each explore() after a pause
  // continues the same search in place.
  mc::SystemExplorer explorer(*world, std::move(iopts));
  // Copying a resume point and digesting the result grow with the job,
  // not the slice: they heartbeat too, so no lease lapses while an
  // attempt is busy outside a slice.
  if (cb.heartbeat) cb.heartbeat();

  while (!exhausted) {
    if (cb.should_cancel && cb.should_cancel()) {
      // Abandoned mid-run: report what has accumulated, not complete.
      break;
    }
    mc::SysExploreResult res = explorer.explore();
    accumulate_stats(state.stats, res.stats);
    ++state.slices;

    if (cb.heartbeat) cb.heartbeat();

    // The checkpoint carries only this slice's new digests and violations.
    CheckpointState ck;
    ck.visited = std::move(res.visited);
    ck.frontier = std::move(res.frontier);
    ck.stats = state.stats;
    ck.violations = std::move(res.violations);
    ck.slices = state.slices;
    // A slice that does not pause ends the search: it completed (or hit a
    // budget / filled its violation quota). A refused checkpoint means
    // fenced (a newer attempt owns the job) or draining: stop quietly.
    out.complete = !res.paused;
    const bool go_on =
        res.paused && (!cb.on_checkpoint || cb.on_checkpoint(ck));
    state.visited.insert(state.visited.end(), ck.visited.begin(),
                         ck.visited.end());
    for (mc::SysViolation& v : ck.violations) {
      state.violations.push_back(std::move(v));
    }
    if (!go_on) break;
  }

  std::sort(state.visited.begin(), state.visited.end());
  out.stats = state.stats;
  out.violations = std::move(state.violations);
  out.visited_count = state.visited.size();
  out.visited_digest = svc::visited_digest(state.visited);
  out.trail_digest =
      svc::trail_digest(out.violations, spec.workers, cb.heartbeat);
  if (cb.heartbeat) cb.heartbeat();
  return out;
}

// ---------------------------------------------------------------------------
// JobManager
// ---------------------------------------------------------------------------

JobManager::JobManager(ScenarioRegistry registry, JobManagerOptions opts,
                       LogRing* log)
    : registry_(std::move(registry)), opts_(std::move(opts)), log_(log) {
  std::error_code ec;
  std::filesystem::create_directories(opts_.state_dir, ec);
  if (ec) {
    throw IoError("jobd: create state dir " + opts_.state_dir.string(),
                  ec.value());
  }
  const std::uint32_t n = std::max<std::uint32_t>(1, opts_.worker_threads);
  workers_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  supervisor_ = std::thread([this] { supervisor_loop(); });
}

JobManager::~JobManager() { shutdown(); }

void JobManager::log_event(LogLevel level, const std::string& msg) {
  if (log_ != nullptr) log_->append(level, msg);
}

SubmitOutcome JobManager::submit(std::uint64_t request_id,
                                 const JobSpec& spec) {
  if (registry_.find(spec.scenario) == nullptr) {
    throw ConfigError("jobd: unknown scenario '" + spec.scenario + "'");
  }
  std::unique_lock<std::mutex> lk(mu_);
  // Idempotency ledger first: a retried submit maps to the original job,
  // no second execution, ever.
  if (const auto it = request_ledger_.find(request_id);
      it != request_ledger_.end()) {
    return {it->second, /*duplicate=*/true};
  }
  const std::uint64_t id = next_job_id_++;
  Job& job = jobs_[id];
  job.id = id;
  job.request_id = request_id;
  job.spec = spec;
  job.phase = JobPhase::kQueued;
  job.journal = std::make_unique<JobJournal>(opts_.state_dir, id);
  JournalRecord rec;
  rec.type = JournalRecordType::kSubmitted;
  rec.request_id = request_id;
  rec.job_id = id;
  rec.spec = spec;
  job.journal->append(rec);  // durable before acknowledged
  request_ledger_[request_id] = id;
  queue_.push_back(id);
  log_event(LogLevel::kInfo, "job " + std::to_string(id) + " submitted (" +
                                 spec.scenario + " n=" +
                                 std::to_string(spec.n) + " v=" +
                                 std::to_string(spec.version) + ")");
  cv_.notify_one();
  return {id, /*duplicate=*/false};
}

std::optional<JobStatusMsg> JobManager::status(std::uint64_t job_id) const {
  std::unique_lock<std::mutex> lk(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return std::nullopt;
  const Job& job = it->second;
  JobStatusMsg msg;
  msg.job_id = job.id;
  msg.phase = job.phase;
  msg.attempts = job.attempts;
  msg.states = job.ckpt.stats.states;
  msg.transitions = job.ckpt.stats.transitions;
  msg.violations = job.ckpt.violations.size();
  msg.checkpoints = job.checkpoints;
  msg.resumed = job.resumed;
  msg.error = job.error;
  if (job.result) {
    msg.states = job.result->stats.states;
    msg.transitions = job.result->stats.transitions;
    msg.violations = job.result->violations.size();
  }
  return msg;
}

bool JobManager::cancel(std::uint64_t job_id) {
  std::unique_lock<std::mutex> lk(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return false;
  Job& job = it->second;
  if (job.phase == JobPhase::kDone || job.phase == JobPhase::kFailed ||
      job.phase == JobPhase::kCancelled) {
    return true;  // already terminal; cancel is idempotent
  }
  job.cancel_requested = true;
  if (job.phase == JobPhase::kQueued) {
    queue_.erase(std::remove(queue_.begin(), queue_.end(), job_id),
                 queue_.end());
    job.phase = JobPhase::kCancelled;
    JournalRecord rec;
    rec.type = JournalRecordType::kCancelled;
    job.journal->append(rec);
  }
  log_event(LogLevel::kInfo, "job " + std::to_string(job_id) + " cancel " +
                                 (job.phase == JobPhase::kCancelled
                                      ? "(immediate)"
                                      : "requested"));
  return true;
}

std::optional<JobResultMsg> JobManager::result(std::uint64_t job_id) const {
  std::unique_lock<std::mutex> lk(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end() || !it->second.result) return std::nullopt;
  return it->second.result;
}

std::size_t JobManager::recover() {
  std::vector<std::uint64_t> requeued;
  {
    std::unique_lock<std::mutex> lk(mu_);
    for (const std::uint64_t id : list_journaled_jobs(opts_.state_dir)) {
      if (jobs_.count(id) != 0) continue;
      std::optional<RecoveredJob> rec = recover_job(opts_.state_dir, id);
      if (!rec) continue;
      Job& job = jobs_[id];
      job.id = id;
      job.request_id = rec->request_id;
      job.spec = rec->spec;
      job.attempts = rec->attempts;
      job.checkpoints = rec->checkpoints;
      job.journal = std::make_unique<JobJournal>(opts_.state_dir, id);
      request_ledger_[rec->request_id] = id;
      next_job_id_ = std::max(next_job_id_, id + 1);
      if (rec->result) {
        job.phase = rec->cancelled ? JobPhase::kCancelled : JobPhase::kDone;
        job.result = std::move(rec->result);
        continue;
      }
      if (rec->cancelled) {
        job.phase = JobPhase::kCancelled;
        continue;
      }
      if (rec->checkpoint) {
        JournalRecord& ck = *rec->checkpoint;
        job.ckpt.visited = std::move(rec->visited);
        job.ckpt.frontier = std::move(ck.frontier);
        job.ckpt.stats = ck.stats;
        job.ckpt.violations = std::move(ck.violations);
        job.ckpt.slices = ck.checkpoint_seq + 1;
        job.has_ckpt = true;
      }
      job.phase = JobPhase::kQueued;
      job.resumed = true;
      queue_.push_back(id);
      requeued.push_back(id);
    }
    cv_.notify_all();
  }
  for (const std::uint64_t id : requeued) {
    log_event(LogLevel::kInfo,
              "job " + std::to_string(id) + " recovered from journal" +
                  " and requeued");
  }
  return requeued.size();
}

std::size_t JobManager::supervise_tick() {
  std::vector<std::uint64_t> expired;
  {
    std::unique_lock<std::mutex> lk(mu_);
    const std::uint64_t now = now_ms();
    for (auto& [id, job] : jobs_) {
      if (job.phase != JobPhase::kRunning || !job.running) continue;
      if (now - job.last_heartbeat <= opts_.lease_ms) continue;
      // Lease lapsed: fence the current attempt (its generation token is
      // now stale; late checkpoint/completion writes will be rejected)
      // and requeue from the last durable state.
      ++job.generation;
      job.running = false;
      job.phase = JobPhase::kQueued;
      queue_.push_back(id);
      expired.push_back(id);
    }
    if (!expired.empty()) cv_.notify_all();
  }
  for (const std::uint64_t id : expired) {
    log_event(LogLevel::kWarn,
              "job " + std::to_string(id) +
                  " lease expired; fencing stale attempt and rescheduling");
  }
  return expired.size();
}

void JobManager::test_stall_job(std::uint64_t job_id, bool stalled) {
  std::unique_lock<std::mutex> lk(mu_);
  const auto it = jobs_.find(job_id);
  if (it != jobs_.end()) it->second.stalled = stalled;
}

void JobManager::shutdown() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (draining_.exchange(true)) return;
    cv_.notify_all();
  }
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  if (supervisor_.joinable()) supervisor_.join();
}

void JobManager::worker_loop() {
  for (;;) {
    std::uint64_t job_id = 0;
    std::uint32_t my_gen = 0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return draining_.load() || !queue_.empty(); });
      if (draining_.load()) return;
      job_id = queue_.front();
      queue_.erase(queue_.begin());
      Job& job = jobs_[job_id];
      ++job.attempts;
      job.phase = JobPhase::kRunning;
      job.running = true;
      job.last_heartbeat = now_ms();
      my_gen = job.generation;
      JournalRecord rec;
      rec.type = JournalRecordType::kAttemptStarted;
      rec.generation = my_gen;
      job.journal->append(rec);
    }
    execute(job_id, my_gen);
  }
}

void JobManager::supervisor_loop() {
  // Lease checks at a fraction of the lease so a dead worker is detected
  // within ~1.25 leases worst case.
  const std::uint64_t period =
      std::max<std::uint64_t>(10, opts_.lease_ms / 4);
  while (!draining_.load()) {
    supervise_tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(period));
  }
}

void JobManager::execute(std::uint64_t job_id, std::uint32_t my_gen) {
  const ScenarioFamily* fam = nullptr;
  JobSpec spec;
  CheckpointState start;
  {
    std::unique_lock<std::mutex> lk(mu_);
    Job& job = jobs_[job_id];
    spec = job.spec;
    if (job.has_ckpt) {
      start = job.ckpt;  // copy: the zombie/fenced race means the map's
                         // copy must stay independent of this attempt,
                         // which then owns (moves) this one copy
      // The copy grows with the job; the lease runs from here.
      job.last_heartbeat = now_ms();
    }
  }
  fam = registry_.find(spec.scenario);
  if (fam == nullptr) {
    std::unique_lock<std::mutex> lk(mu_);
    Job& job = jobs_[job_id];
    job.phase = JobPhase::kFailed;
    job.error = "unknown scenario " + spec.scenario;
    job.running = false;
    return;
  }

  RunCallbacks cb;
  cb.heartbeat = [this, job_id, my_gen] {
    std::unique_lock<std::mutex> lk(mu_);
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end()) return;
    Job& job = it->second;
    // A stalled worker (test hook) keeps computing but stops refreshing
    // its lease — exactly what a wedged thread looks like from outside.
    if (job.generation == my_gen && !job.stalled) {
      job.last_heartbeat = now_ms();
    }
  };
  cb.should_cancel = [this, job_id, my_gen] {
    if (draining_.load()) return true;
    std::unique_lock<std::mutex> lk(mu_);
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end()) return true;
    return it->second.cancel_requested || it->second.generation != my_gen;
  };
  cb.on_checkpoint = [this, job_id, my_gen](const CheckpointState& st) {
    std::unique_lock<std::mutex> lk(mu_);
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end()) return false;
    Job& job = it->second;
    if (job.generation != my_gen) {
      log_event(LogLevel::kWarn,
                "job " + std::to_string(job_id) +
                    " stale-generation checkpoint rejected (fenced)");
      return false;  // zombie attempt: its durable writes are rejected
    }
    // Durability order: run file (fsynced by SortedRunWriter::finish)
    // BEFORE the WAL record that references it. Both carry only what this
    // slice added; recovery folds the records back together.
    JournalRecord rec;
    rec.type = JournalRecordType::kCheckpoint;
    rec.checkpoint_seq = st.slices - 1;
    rec.visited = job.journal->write_visited_run(st.slices - 1, st.visited);
    rec.frontier = st.frontier;
    rec.stats = st.stats;
    rec.violations = st.violations;
    job.journal->append(rec);
    CheckpointState& fold = job.ckpt;
    fold.visited.insert(fold.visited.end(), st.visited.begin(),
                        st.visited.end());
    fold.violations.insert(fold.violations.end(), st.violations.begin(),
                           st.violations.end());
    fold.frontier = std::move(rec.frontier);
    fold.stats = st.stats;
    fold.slices = st.slices;
    job.has_ckpt = true;
    ++job.checkpoints;
    return true;
  };

  JobResultMsg res;
  std::string error;
  try {
    res = run_investigation(*fam, spec, std::move(start), cb);
  } catch (const FixdError& e) {
    error = e.what();
  }

  std::unique_lock<std::mutex> lk(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;
  Job& job = it->second;
  if (job.generation != my_gen) {
    log_event(LogLevel::kWarn, "job " + std::to_string(job_id) +
                                   " stale-generation completion discarded");
    return;  // fenced: a newer attempt owns the job now
  }
  job.running = false;
  if (!error.empty()) {
    job.phase = JobPhase::kFailed;
    job.error = error;
    log_event(LogLevel::kError,
              "job " + std::to_string(job_id) + " failed: " + error);
    return;
  }
  if (job.cancel_requested) {
    job.phase = JobPhase::kCancelled;
    JournalRecord rec;
    rec.type = JournalRecordType::kCancelled;
    job.journal->append(rec);
    log_event(LogLevel::kInfo, "job " + std::to_string(job_id) + " cancelled");
    return;
  }
  if (!res.complete) {
    // Parked mid-run (drain): stays queued-on-journal; next recover()
    // resumes it. Do not publish a partial result.
    job.phase = JobPhase::kQueued;
    return;
  }
  res.job_id = job_id;
  res.attempts = job.attempts;
  res.resumed = res.resumed || job.resumed;
  JournalRecord rec;
  rec.type = JournalRecordType::kCompleted;
  rec.result = res;
  job.journal->append(rec);
  job.result = std::move(res);
  job.phase = JobPhase::kDone;
  log_event(LogLevel::kInfo,
            "job " + std::to_string(job_id) + " done: states=" +
                std::to_string(job.result->stats.states) + " violations=" +
                std::to_string(job.result->violations.size()) +
                " attempts=" + std::to_string(job.attempts));
}

// ---------------------------------------------------------------------------
// Daemon
// ---------------------------------------------------------------------------

Daemon::Daemon(DaemonOptions opts)
    : opts_(opts),
      log_(opts.log_capacity),
      listener_(opts.endpoint),
      jobs_(ScenarioRegistry::with_builtins(),
            JobManagerOptions{opts.state_dir, opts.worker_threads,
                              opts.lease_ms},
            &log_),
      shim_(opts.shim) {}

Daemon::~Daemon() { stop(); }

void Daemon::stop() {
  stop_.store(true);
  jobs_.shutdown();
}

Response Daemon::dispatch(const Request& req) {
  Response rsp;
  rsp.request_id = req.request_id;
  try {
    switch (req.kind) {
      case RpcKind::kPing:
        break;
      case RpcKind::kSubmit: {
        if (jobs_.draining()) {
          rsp.status = RpcStatus::kShuttingDown;
          rsp.error = "daemon is draining";
          break;
        }
        const SubmitOutcome out = jobs_.submit(req.request_id, req.spec);
        rsp.job_id = out.job_id;
        rsp.duplicate = out.duplicate;
        break;
      }
      case RpcKind::kStatus: {
        if (auto st = jobs_.status(req.job_id)) {
          rsp.status_msg = *st;
        } else {
          rsp.status = RpcStatus::kNotFound;
          rsp.error = "unknown job " + std::to_string(req.job_id);
        }
        break;
      }
      case RpcKind::kCancel:
        if (!jobs_.cancel(req.job_id)) {
          rsp.status = RpcStatus::kNotFound;
          rsp.error = "unknown job " + std::to_string(req.job_id);
        }
        break;
      case RpcKind::kResult: {
        if (auto res = jobs_.result(req.job_id)) {
          rsp.result = *res;
        } else {
          rsp.status = RpcStatus::kNotFound;
          rsp.error = "no result for job " + std::to_string(req.job_id);
        }
        break;
      }
      case RpcKind::kTailLog: {
        const std::size_t n =
            req.arg == 0 ? 32 : static_cast<std::size_t>(req.arg);
        for (const LogRecord& r : log_.tail(n)) {
          rsp.log_lines.push_back(std::string(log_level_name(r.level)) + " " +
                                  r.msg);
        }
        break;
      }
      case RpcKind::kShutdown:
        stop_.store(true);
        break;
    }
  } catch (const ConfigError& e) {
    rsp.status = RpcStatus::kBadRequest;
    rsp.error = e.what();
  } catch (const FixdError& e) {
    rsp.status = RpcStatus::kError;
    rsp.error = e.what();
  }
  return rsp;
}

void Daemon::serve() {
  recovered_ = jobs_.recover();
  log_.append(LogLevel::kInfo,
              "fixdd serving on " + listener_.endpoint().to_string() +
                  " (recovered " + std::to_string(recovered_) + " jobs)");
  while (!stop_.load()) {
    std::optional<Conn> conn = listener_.accept(now_ms() + 200);
    if (!conn) continue;
    // One connection at a time: RPC handling is cheap (job execution is on
    // the manager's workers) and a sequential loop keeps fault-shim
    // injection points deterministic. A client that abandons the
    // connection (timeout/retry) produces EOF and frees the loop.
    while (!stop_.load()) {
      std::optional<std::vector<std::byte>> payload;
      try {
        payload = conn->recv_frame(now_ms() + 1000);
      } catch (const TimeoutError&) {
        break;  // idle/abandoned connection; go accept another
      } catch (const FixdError&) {
        break;  // torn frame or socket error: drop the connection
      }
      if (!payload) break;  // clean EOF

      Request req;
      try {
        req = decode_payload<Request>(*payload);
      } catch (const SerializationError& e) {
        log_.append(LogLevel::kWarn,
                    std::string("rpc: undecodable request: ") + e.what());
        break;
      }

      // Fault shim: one verdict per request, at the respond point — the
      // request has already executed, which is exactly the ambiguity a
      // retry must survive (and why submits are idempotent).
      Response rsp = dispatch(req);
      FaultVerdict verdict = shim_.next();
      if (verdict == FaultVerdict::kDrop) {
        log_.append(LogLevel::kDebug, "shim: dropping response for request " +
                                          std::to_string(req.request_id));
        continue;
      }
      if (verdict == FaultVerdict::kSever) {
        log_.append(LogLevel::kDebug, "shim: severing connection on request " +
                                          std::to_string(req.request_id));
        break;
      }
      if (verdict == FaultVerdict::kDelay) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(shim_.delay_ms()));
      }
      try {
        conn->send_frame(encode_frame(rsp), now_ms() + 2000);
      } catch (const FixdError&) {
        break;  // peer gone mid-response
      }
      if (req.kind == RpcKind::kShutdown) break;
    }
  }
  log_.append(LogLevel::kInfo, "fixdd stopping");
  jobs_.shutdown();
}

}  // namespace fixd::svc
