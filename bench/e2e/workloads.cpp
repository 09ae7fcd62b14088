// The five workloads. Each one is a closed loop with a single client: the
// next request starts when the previous one has returned. README.md says
// why each was chosen and which layers it stresses.
#include <algorithm>
#include <filesystem>
#include <optional>
#include <thread>

#include "apps/elect_split.hpp"
#include "apps/kv_lag.hpp"
#include "apps/kv_store.hpp"
#include "apps/leader_election.hpp"
#include "apps/rep_counter.hpp"
#include "apps/two_phase_commit.hpp"
#include "bench.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/fixd.hpp"
#include "fault/injector.hpp"
#include "svc/client.hpp"
#include "svc/jobd.hpp"

namespace fixd::e2e {
namespace {

/// Request ids used by set-up warm-ups, disjoint from measured ones.
constexpr std::uint64_t kWarmupIter = std::uint64_t{1} << 40;

Iter failed(Iter it, std::string why) {
  it.ok = false;
  it.failure = std::move(why);
  return it;
}

// --- verify-trail, verify-par -----------------------------------------------
//
// Exhaustive BFS of fixed two-phase commit (6 processes, 1 transaction).
// The search's work depends only on the model, so the seed does not enter.

constexpr std::uint64_t kVerifyStates = 66280;
constexpr std::uint64_t kVerifyTransitions = 310365;

std::unique_ptr<rt::World> make_verify_world() {
  apps::TwoPcConfig cfg;
  cfg.total_txns = 1;
  return apps::make_two_pc_world(6, 2, cfg);
}

class Verify final : public Workload {
 public:
  explicit Verify(bool parallel) {
    opts_.order = mc::SearchOrder::kBfs;
    opts_.max_states = 120000;
    opts_.max_depth = 80;
    opts_.install_invariants = apps::install_two_pc_invariants;
    if (parallel) {
      opts_.workers = 4;
    } else {
      opts_.trail_frontier = true;
    }
  }

  void setup() override {
    world_ = make_verify_world();
    const Iter warm = iterate(nullptr, kWarmupIter);
    if (!warm.ok) throw ConfigError("verify warm-up: " + warm.failure);
  }

  Iter iterate(Tracer* t, std::uint64_t i) override {
    // The request is the explorer's constructor plus explore() to the
    // verdict, so that work moved between the two still shows.
    Iter it;
    const auto t0 = Clock::now();
    std::optional<mc::SystemExplorer> ex;
    {
      Scope s(t, "mc.SystemExplorer", i);
      ex.emplace(*world_, opts_);
    }
    mc::SysExploreResult res;
    {
      Scope s(t, "mc.explore", i);
      res = ex->explore();
    }
    it.latency_ms = ms_since(t0);
    it.work = static_cast<double>(res.stats.states);
    if (res.stats.states != kVerifyStates ||
        res.stats.transitions != kVerifyTransitions) {
      return failed(it, "visited " + std::to_string(res.stats.states) +
                            " states / " +
                            std::to_string(res.stats.transitions) +
                            " transitions, want 66280 / 310365");
    }
    if (!res.violations.empty()) {
      return failed(it, "fixed 2pc reported " +
                            res.violations[0].violation.to_string());
    }
    return it;
  }

  const char* work_unit() const override { return "states"; }

  std::vector<Model> models() const override {
    return {{make_verify_world, apps::install_two_pc_invariants, opts_}};
  }

 private:
  mc::SysExploreOptions opts_;
  std::unique_ptr<rt::World> world_;
};

// --- protect -----------------------------------------------------------------
//
// Fault-free kv-store under FixD protection: the always-on tax.

class Protect final : public Workload {
 public:
  explicit Protect(const Params& p) : p_(p) {}

  void setup() override {
    // The reference: the identical world, unprotected. Protection must not
    // change what the application computes.
    auto ref = make_world();
    const rt::RunResult r = ref->run();
    if (r.reason == rt::StopReason::kViolation) {
      throw ConfigError("protect: the unprotected reference run violated");
    }
    ref_digest_ = ref->digest();
    ref_steps_ = r.steps;
    const Iter warm = iterate(nullptr, kWarmupIter);
    if (!warm.ok) throw ConfigError("protect warm-up: " + warm.failure);
  }

  Iter iterate(Tracer* t, std::uint64_t i) override {
    Iter it;
    std::unique_ptr<rt::World> w;
    {
      Scope s(t, "apps.make_kv_world", i);
      w = make_world();
    }
    core::FixdOptions fo;
    fo.install_invariants = apps::install_kv_invariants;
    // The request is attaching FixD plus the protected run, so that work
    // moved between the constructor and run_protected() still shows.
    const auto t0 = Clock::now();
    std::optional<core::FixdController> ctl;
    {
      Scope s(t, "core.FixdController", i);
      ctl.emplace(*w, fo);
    }
    core::FixdReport rep;
    {
      Scope s(t, "core.run_protected", i);
      rep = ctl->run_protected();
    }
    it.latency_ms = ms_since(t0);
    it.work = static_cast<double>(rep.final_run.steps);
    if (!rep.completed || rep.faults_detected != 0) {
      return failed(it, "protected run did not complete cleanly");
    }
    if (w->digest() != ref_digest_ || rep.final_run.steps != ref_steps_) {
      return failed(it, "protected run diverged from the unprotected one");
    }
    return it;
  }

  const char* work_unit() const override { return "events"; }

  std::vector<Model> models() const override {
    mc::SysExploreOptions o;
    o.order = mc::SearchOrder::kBfs;
    o.max_states = p_.smoke ? 500 : 5000;
    return {{[this] { return make_world(); }, apps::install_kv_invariants, o}};
  }

 private:
  std::unique_ptr<rt::World> make_world() const {
    apps::KvConfig cfg;
    cfg.total_ops = 20000;
    cfg.key_space = 64;
    rt::WorldOptions wo;
    wo.seed = p_.seed;
    wo.net = net::NetworkOptions::reordering();
    wo.net.seed = hash_combine(0x70726f74656374ull, p_.seed);
    return apps::make_kv_world(4, 2, cfg, wo);
  }

  Params p_;
  std::uint64_t ref_digest_ = 0;
  std::uint64_t ref_steps_ = 0;
};

// --- recover -----------------------------------------------------------------
//
// The six fault-response scenarios of fig4, each healed through a known
// rung of the escalation ladder; one request runs all six.

enum Scenario : std::size_t {
  kRepCounter,
  kElection,
  kKvStore,
  kKvLagDelay,
  kElectSplitCut,
  kKvLagRestart,
  kScenarios
};

constexpr const char* kScenarioNames[kScenarios] = {
    "rep-counter",  "election",        "kv-store",
    "kv-lag-delay", "elect-split-cut", "kv-lag-restart"};

/// The rungs allowed to heal each scenario, as a bit set over RecoveryRung.
/// The three code bugs carry a registered fix. The Healer refuses it at the
/// rolled-back state (traffic is still in flight to the patched process),
/// so they restart with the fix applied; applying it in place would be as
/// correct. The other three must take their own rung.
constexpr unsigned rung_bit(core::RecoveryRung r) {
  return 1u << static_cast<unsigned>(r);
}
constexpr unsigned kFixRungs = rung_bit(core::RecoveryRung::kPatchRegistry) |
                               rung_bit(core::RecoveryRung::kRestart);
constexpr unsigned kAllowedRungs[kScenarios] = {
    kFixRungs,
    kFixRungs,
    kFixRungs,
    rung_bit(core::RecoveryRung::kTimeoutTuner),
    rung_bit(core::RecoveryRung::kRecoveryLine),
    rung_bit(core::RecoveryRung::kRestart)};

using Installer = void (*)(rt::World&);
constexpr Installer kInstall[kScenarios] = {
    apps::install_counter_invariants,     apps::install_election_invariants,
    apps::install_kv_invariants,          apps::install_kv_lag_invariants,
    apps::install_elect_split_invariants, apps::install_kv_lag_invariants};

/// One scenario instance: the faulty world, its environment misbehaviour,
/// and the controller configuration. The injector is declared first so it
/// outlives the world it is attached to.
struct Instance {
  fault::FaultInjector inj;
  std::unique_ptr<rt::World> world;
  heal::PatchRegistry patches;
  core::FixdOptions opts;
};

constexpr std::size_t kPoolSize = 4;

class Recover final : public Workload {
 public:
  explicit Recover(const Params& p) : p_(p) {}

  void setup() override {
    // Seed scans: election env seeds whose uids collide and kv network
    // seeds whose latencies reorder conflicting writes — kept only when
    // the whole pipeline heals them through an allowed rung. The scans
    // start at a fixed point so that set-up work is the same for every
    // seed; the seed picks among the pools per request.
    election_pool_ = scan(kElection, 1);
    kv_pool_ = scan(kKvStore, 1);
    for (std::size_t k = 0; k < kScenarios; ++k) {
      const auto sc = static_cast<Scenario>(k);
      const Iter warm = run_case(sc, base_variant(sc), nullptr, kWarmupIter);
      if (!warm.ok) throw ConfigError("recover warm-up: " + warm.failure);
    }
  }

  Iter iterate(Tracer* t, std::uint64_t i) override {
    // Request i heals each of the six faults once, in a seeded order, and
    // draws every perturbation from (seed, i), so the sequence does not
    // depend on timing. Its latency is the sum of the six attach-and-run
    // times: a request of fixed composition, whose median does not jump
    // between scenario clusters as a per-scenario median would.
    std::array<std::size_t, kScenarios> order{};
    for (std::size_t k = 0; k < kScenarios; ++k) order[k] = k;
    Rng rng(hash_combine(hash_combine(0x7265636f766572ull, p_.seed), i));
    for (std::size_t k = kScenarios - 1; k > 0; --k) {
      std::swap(order[k], order[rng.next_below(k + 1)]);
    }
    Iter block;
    for (const std::size_t k : order) {
      const auto sc = static_cast<Scenario>(k);
      const Iter one = run_case(sc, draw_variant(sc, rng), t, i);
      block.latency_ms += one.latency_ms;
      block.work += one.work;
      if (!one.ok && block.ok) block = failed(block, one.failure);
    }
    return block;
  }

  const char* work_unit() const override { return "recoveries"; }

  std::vector<Model> models() const override {
    // Each scenario's faulty world in its base variant, without its
    // injector: the probes time the application the pipeline protects.
    std::vector<Model> out;
    for (std::size_t k = 0; k < kScenarios; ++k) {
      const auto sc = static_cast<Scenario>(k);
      const std::uint64_t v = base_variant(sc);
      Model m;
      m.make = [this, sc, v] {
        Instance in;
        build(sc, v, in);
        return std::move(in.world);
      };
      m.install = kInstall[sc];
      m.explore.order = mc::SearchOrder::kBfs;
      m.explore.max_states = p_.smoke ? 200 : 2000;
      m.explore.max_violations = ~std::size_t{0};
      out.push_back(std::move(m));
    }
    return out;
  }

  void report_traced(Report& r) override {
    for (std::size_t k = 0; k < kScenarios; ++k) {
      r.info_dist(std::string("recover_ms.") + kScenarioNames[k],
                  per_scenario_ms_[k], "ms");
    }
    r.info_dist("core.run_ms", run_ms_, "ms");
    r.info_dist("core.rollback_ms", rollback_ms_, "ms");
    r.info_dist("core.collect_ms", collect_ms_, "ms");
    r.info_dist("core.investigate_ms", investigate_ms_, "ms");
    r.info_dist("core.heal_ms", heal_ms_, "ms");
    const double faults = std::max<double>(1, faults_);
    const std::size_t n = run_ms_.size();
    r.info("core.collect_bytes", collect_bytes_ / faults, "B", n);
    r.info("core.rungs_per_recovery", rungs_ / faults, "ratio", n);
    r.info("mc.investigate_states", investigate_states_ / faults, "states", n);
    r.info("heal.tuner_probes", tuner_probes_ / std::max<double>(1, tunes_),
           "count", tunes_);
    r.info("heal.tuner_states", tuner_states_ / std::max<double>(1, tunes_),
           "states", tunes_);
    r.info("ckpt.rollback_dropped", dropped_ / faults, "messages", n);
    r.info("ckpt.rollback_reinjected", reinjected_ / faults, "messages", n);
    r.info("fault.injections", injections_ / std::max<double>(1, n), "count",
           n);
  }

 private:
  /// The first kPoolSize candidates from `from` on that heal through an
  /// allowed rung.
  std::vector<std::uint64_t> scan(Scenario sc, std::uint64_t from) {
    std::vector<std::uint64_t> pool;
    for (std::uint64_t c = from; c < from + 4096; ++c) {
      if (run_case(sc, c, nullptr, kWarmupIter).ok) pool.push_back(c);
      if (pool.size() == kPoolSize) return pool;
    }
    throw ConfigError(std::string("recover: seed scan found no ") +
                      kScenarioNames[sc] + " case healed as expected");
  }

  /// A perturbation inside a range checked to trigger the fault and heal
  /// it through an allowed rung.
  std::uint64_t draw_variant(Scenario sc, Rng& rng) const {
    switch (sc) {
      case kRepCounter:  // increments per process
      case kElectSplitCut:  // heartbeats before the leader stops
        return 5 + rng.next_below(4);
      case kElection:
        return election_pool_[rng.next_below(election_pool_.size())];
      case kKvStore:
        return kv_pool_[rng.next_below(kv_pool_.size())];
      case kKvLagDelay:  // injected delivery delay
        return 16 + rng.next_below(17);
      case kKvLagRestart:  // restart delay after the crash
        return 20 + rng.next_below(11);
      case kScenarios:
        break;
    }
    return 0;
  }

  /// The fig4 configuration of each scenario.
  std::uint64_t base_variant(Scenario sc) const {
    switch (sc) {
      case kRepCounter:
      case kElectSplitCut:
        return 6;
      case kElection:
        return election_pool_.front();
      case kKvStore:
        return kv_pool_.front();
      case kKvLagDelay:
        return 20;
      case kKvLagRestart:
        return 25;
      case kScenarios:
        break;
    }
    return 0;
  }

  Iter run_case(Scenario sc, std::uint64_t variant, Tracer* t,
                std::uint64_t i) {
    Instance in;
    {
      Scope s(t, "recover.build", i);
      build(sc, variant, in);
      in.inj.attach(*in.world);
    }
    const auto t0 = Clock::now();
    std::optional<core::FixdController> ctl;
    {
      Scope s(t, "core.FixdController", i);
      ctl.emplace(*in.world, in.opts, in.patches);
    }
    Iter it;
    core::FixdReport rep;
    {
      Scope s(t, "core.run_protected", i);
      rep = ctl->run_protected();
    }
    it.latency_ms = ms_since(t0);
    it.work = 1;
    if (t != nullptr) record(sc, it.latency_ms, rep, in.inj);

    const std::string name = kScenarioNames[sc];
    if (!rep.completed || rep.faults_detected == 0) {
      return failed(it, name + ": run did not complete after a fault");
    }
    bool healed = false;
    for (const core::RungOutcome& ro : rep.ladder) {
      if (!ro.ok) continue;
      if ((kAllowedRungs[sc] & rung_bit(ro.rung)) == 0) {
        return failed(it, name + ": healed through " +
                              core::to_string(ro.rung));
      }
      healed = true;
    }
    if (!healed) return failed(it, name + ": no rung healed the fault");
    return it;
  }

  static apps::KvConfig kv_config() {
    apps::KvConfig cfg;
    cfg.total_ops = 40;
    cfg.key_space = 2;
    return cfg;
  }

  static rt::WorldOptions kv_options(std::uint64_t net_seed) {
    rt::WorldOptions wo;
    wo.net = net::NetworkOptions::reordering();
    wo.net.seed = net_seed * 7919;
    return wo;
  }

  /// The fig4 scenario with its perturbation set to `variant`. The
  /// injector is left detached, so `in.world` alone is the fault-free
  /// application.
  void build(Scenario sc, std::uint64_t variant, Instance& in) const {
    core::FixdOptions& o = in.opts;
    o.install_invariants = kInstall[sc];
    o.investigate.order = mc::SearchOrder::kRandomWalk;
    o.investigate.max_states = 20000;
    o.investigate.max_depth = 160;
    o.investigate.walk_restarts = 64;
    switch (sc) {
      case kRepCounter: {
        const apps::CounterConfig cfg{variant};
        in.world = apps::make_counter_world(4, 1, cfg);
        in.patches.add(apps::counter_fix_patch(cfg));
        break;
      }
      case kElection: {
        rt::WorldOptions wo;
        wo.env_seed = variant;
        in.world = apps::make_election_world(5, 1, {}, wo);
        in.patches.add(apps::election_fix_patch({}));
        break;
      }
      case kKvStore: {
        in.world = apps::make_kv_world(2, 1, kv_config(), kv_options(variant));
        in.patches.add(apps::kv_fix_patch(kv_config()));
        break;
      }
      case kKvLagDelay: {
        apps::KvLagConfig cfg;
        cfg.total_ops = 1;
        in.world = apps::make_kv_lag_world(2, cfg);
        o.investigate.order = mc::SearchOrder::kBfs;
        o.tm.cic = false;
        o.attempt_timeout_tuning = true;
        o.timeout_site = apps::kv_lag_timeout_site(cfg);
        o.tuner.validate.order = mc::SearchOrder::kBfs;
        o.tuner.validate.abstract_time = false;
        o.tuner.validate.model_message_delay = true;
        o.tuner.validate.max_states = 60000;
        fault::FaultSpec delay;
        delay.kind = fault::FaultKind::kMessageDelay;
        delay.target = 1;
        delay.delay_min = delay.delay_max = variant;
        in.inj.add(delay);
        break;
      }
      case kElectSplitCut: {
        apps::ElectSplitConfig cfg;
        cfg.max_beats = static_cast<std::uint32_t>(variant);
        in.world = apps::make_elect_split_world(3, 1, cfg);
        o.investigate.order = mc::SearchOrder::kBfs;
        o.investigate.max_states = 2000;
        o.investigate.max_depth = 30;
        o.investigate.model_partition = true;
        o.line_budget = 2;
        o.restart_on_heal_failure = false;
        fault::FaultSpec cut;
        cut.kind = fault::FaultKind::kPartition;
        cut.group_a = {0};
        cut.group_b = {2};
        cut.symmetric = false;
        in.inj.add(cut);
        break;
      }
      case kKvLagRestart: {
        apps::KvLagConfig cfg;
        cfg.total_ops = 1;
        cfg.retransmit_timeout = 8;
        in.world = apps::make_kv_lag_world(2, cfg);
        o.investigate.order = mc::SearchOrder::kBfs;
        o.investigate.max_states = 4000;
        o.investigate.max_depth = 60;
        o.investigate.model_restart = true;
        o.tm.cic = false;
        fault::FaultSpec cr;
        cr.kind = fault::FaultKind::kCrashRestart;
        cr.target = 1;
        cr.at_step = 2;
        cr.restart_min = cr.restart_max = variant;
        in.inj.add(cr);
        break;
      }
      case kScenarios:
        break;
    }
  }

  void record(Scenario sc, double ms, const core::FixdReport& rep,
              const fault::FaultInjector& inj) {
    per_scenario_ms_[sc].push_back(ms);
    run_ms_.push_back(rep.phases.run_ms);
    rollback_ms_.push_back(rep.phases.rollback_ms);
    collect_ms_.push_back(rep.phases.collect_ms);
    investigate_ms_.push_back(rep.phases.investigate_ms);
    heal_ms_.push_back(rep.phases.heal_ms);
    faults_ += rep.faults_detected;
    rungs_ += rep.ladder.size();
    for (const core::BugReport& b : rep.bugs) {
      collect_bytes_ += b.collect.control_bytes;
      investigate_states_ += b.explore.states;
      dropped_ += b.line.dropped;
      reinjected_ += b.line.reinjected;
    }
    for (const heal::TunerResult& tr : rep.tunes) {
      ++tunes_;
      tuner_probes_ += tr.trajectory.size();
      tuner_states_ += tr.states_explored();
    }
    injections_ += inj.fired_count();
  }

  Params p_;
  std::vector<std::uint64_t> election_pool_;
  std::vector<std::uint64_t> kv_pool_;

  // Traced-run counters.
  std::array<std::vector<double>, kScenarios> per_scenario_ms_;
  std::vector<double> run_ms_, rollback_ms_, collect_ms_, investigate_ms_,
      heal_ms_;
  double faults_ = 0, rungs_ = 0, collect_bytes_ = 0, investigate_states_ = 0;
  double dropped_ = 0, reinjected_ = 0, injections_ = 0;
  double tuner_probes_ = 0, tuner_states_ = 0;
  std::size_t tunes_ = 0;
};

// --- daemon ------------------------------------------------------------------
//
// One client against an in-process fixdd on a unix socket: submit, poll
// every 1-3 ms, fetch the result. Four threads in all: this client, the
// serve loop, one job worker and the lease supervisor.

class DaemonLoad final : public Workload {
 public:
  explicit DaemonLoad(const Params& p) : p_(p) {
    spec_.scenario = "two-pc";
    spec_.n = 4;
    spec_.version = 2;
    spec_.checkpoint_states = 256;
    spec_.seed = hash_combine(0x6a6f62ull, p.seed);
  }

  ~DaemonLoad() override { stop(); }

  void setup() override {
    static std::uint64_t instances = 0;
    dir_ = std::filesystem::path(p_.workdir) /
           ("daemon-" + std::to_string(instances++));
    std::filesystem::create_directories(dir_);
    svc::DaemonOptions o;
    // Relative to the checkout root: a unix socket path must stay short.
    o.endpoint = svc::Endpoint::parse("unix:" + (dir_ / "d.sock").string());
    o.state_dir = dir_ / "state";
    o.worker_threads = 1;
    daemon_ = std::make_unique<svc::Daemon>(o);
    server_ = std::thread([this] { daemon_->serve(); });
    client_.emplace(daemon_->endpoint(), svc::RetryPolicy{});
    svc::Request ping;
    ping.request_id = hash_combine(0x70696e67ull, p_.seed);
    ping.kind = svc::RpcKind::kPing;
    client_->call(ping);

    // The reference result: the same job run in-process.
    const svc::ScenarioFamily* fam = registry_.find(spec_.scenario);
    ref_digest_ = svc::run_investigation(*fam, spec_, nullptr, {})
                      .visited_digest;
    const Iter warm = iterate(nullptr, kWarmupIter);
    if (!warm.ok) throw ConfigError("daemon warm-up: " + warm.failure);
  }

  Iter iterate(Tracer* t, std::uint64_t i) override {
    const std::uint64_t rid = hash_combine(0x726571ull ^ p_.seed, i);
    Iter it;
    try {
      it = run_job(t, i, rid);
      // Every 10th request also re-sends an earlier request-id, which must
      // come back as a duplicate of the original job, never a second run.
      if (it.ok && (i + 1) % 10 == 0 && sent_.size() > 1) {
        Rng rng(hash_combine(0x647570ull ^ p_.seed, i));
        const auto& [old_rid, old_job] =
            sent_[rng.next_below(sent_.size() - 1)];
        svc::Request req;
        req.request_id = old_rid;
        req.kind = svc::RpcKind::kSubmit;
        req.spec = spec_;
        const auto t0 = Clock::now();
        const svc::Response rsp = call(t, "svc.submit_duplicate", req, i,
                                       nullptr);
        if (t != nullptr) dup_ms_.push_back(ms_since(t0));
        if (rsp.status != svc::RpcStatus::kOk || !rsp.duplicate ||
            rsp.job_id != old_job) {
          return failed(it, "re-sent request-id was not deduplicated");
        }
      }
    } catch (const FixdError& e) {
      return failed(it, e.what());
    }
    return it;
  }

  const char* work_unit() const override { return "jobs"; }

  std::vector<Model> models() const override {
    const svc::ScenarioFamily* fam = registry_.find(spec_.scenario);
    Model m;
    const svc::JobSpec spec = spec_;
    m.make = [fam, spec] { return fam->make(spec.n, spec.version); };
    m.install = fam->install_invariants;
    m.explore.order = spec_.order;
    m.explore.max_states = spec_.max_states;
    m.explore.max_depth = spec_.max_depth;
    m.explore.anchor_interval = 4;
    return {m};
  }

  void report_traced(Report& r) override {
    r.info_dist("svc.rpc_us.submit", rpc_us_[0], "us");
    r.info_dist("svc.rpc_us.status", rpc_us_[1], "us");
    r.info_dist("svc.rpc_us.result", rpc_us_[2], "us");
    r.info("svc.attempts_per_rpc",
           static_cast<double>(attempts_) / std::max<double>(1, rpcs_),
           "ratio", rpcs_);
    r.info_dist("svc.polls_per_job", polls_, "count");
    r.info_dist("svc.queue_wait_ms", queue_wait_ms_, "ms");
    r.info_dist("svc.checkpoints_per_job", checkpoints_, "count");
    r.info_dist("svc.dup_submit_ms", dup_ms_, "ms");

    // The compute floor, and the durability tax measured in-process: the
    // same job without callbacks, then journaled through a JobJournal the
    // way the daemon's workers do it.
    const svc::ScenarioFamily* fam = registry_.find(spec_.scenario);
    const int reps = p_.smoke ? 3 : 40;
    std::vector<double> local_ms, append_ms, run_write_ms;
    for (int k = 0; k < reps; ++k) {
      const auto t0 = Clock::now();
      svc::run_investigation(*fam, spec_, nullptr, {});
      local_ms.push_back(ms_since(t0));
    }
    for (int k = 0; k < reps; ++k) {
      svc::JobJournal journal(dir_ / "journal-probe", 1);
      std::uint64_t seq = 0;
      svc::RunCallbacks cb;
      cb.on_checkpoint = [&](const svc::CheckpointState& ck) {
        svc::JournalRecord rec;
        rec.type = svc::JournalRecordType::kCheckpoint;
        rec.checkpoint_seq = ++seq;
        auto t0 = Clock::now();
        rec.visited = journal.write_visited_run(seq, ck.visited);
        run_write_ms.push_back(ms_since(t0));
        rec.frontier = ck.frontier;
        rec.stats = ck.stats;
        rec.violations = ck.violations;
        t0 = Clock::now();
        journal.append(rec);
        append_ms.push_back(ms_since(t0));
        return true;
      };
      svc::run_investigation(*fam, spec_, nullptr, cb);
    }
    svc::JobJournal::remove_files(dir_ / "journal-probe", 1);
    r.info_dist("svc.local_job_ms", local_ms, "ms");
    r.info_dist("svc.journal_append_ms", append_ms, "ms");
    r.info_dist("svc.visited_run_write_ms", run_write_ms, "ms");
  }

 private:
  /// submit → (result, status)* → result: the RPC sequence of
  /// svc::submit_and_wait_or_degrade, minus its in-process fallback (a
  /// degraded job counts as a failure here). The poll interval is drawn
  /// from 1-3 ms (mean 2 ms) instead of a fixed 2 ms: latency is quantized
  /// by the poll interval, and a fixed one makes the median jump by a
  /// whole interval when the job's compute time crosses a multiple of it.
  Iter run_job(Tracer* t, std::uint64_t i, std::uint64_t rid) {
    Iter it;
    it.work = 1;
    Scope job(t, "svc.job", i);
    const auto t0 = Clock::now();
    svc::Request req;
    req.request_id = rid;
    req.kind = svc::RpcKind::kSubmit;
    req.spec = spec_;
    const svc::Response sub = call(t, "svc.submit", req, i, &rpc_us_[0]);
    if (sub.status != svc::RpcStatus::kOk || sub.duplicate) {
      return failed(it, "submit rejected: " + sub.error);
    }
    Rng poll_rng(hash_combine(0x706f6c6cull ^ p_.seed, i));
    std::optional<svc::JobResultMsg> result;
    std::size_t polls = 0;
    bool started = false;
    while (!result) {
      svc::Request rr;
      rr.request_id = rid ^ 0x726573756c74ull;
      rr.kind = svc::RpcKind::kResult;
      rr.job_id = sub.job_id;
      const svc::Response rsp = call(t, "svc.result", rr, i, &rpc_us_[2]);
      ++polls;
      if (rsp.status == svc::RpcStatus::kOk) {
        result = rsp.result;
        break;
      }
      svc::Request sr;
      sr.request_id = rid ^ 0x737461747573ull;
      sr.kind = svc::RpcKind::kStatus;
      sr.job_id = sub.job_id;
      const svc::Response st = call(t, "svc.status", sr, i, &rpc_us_[1]);
      const svc::JobPhase ph = st.status_msg.phase;
      if (ph == svc::JobPhase::kFailed || ph == svc::JobPhase::kCancelled) {
        return failed(it, std::string("job ") + svc::to_string(ph) + ": " +
                              st.status_msg.error);
      }
      if (t != nullptr && !started && ph != svc::JobPhase::kQueued) {
        started = true;
        queue_wait_ms_.push_back(ms_since(t0));
      }
      if (ms_since(t0) > 60000) return failed(it, "job did not finish in 60 s");
      Scope s(t, "svc.poll_sleep", i);
      std::this_thread::sleep_for(
          std::chrono::microseconds(1000 + poll_rng.next_below(2001)));
    }
    it.latency_ms = ms_since(t0);
    sent_.emplace_back(rid, sub.job_id);

    if (t != nullptr) {
      polls_.push_back(static_cast<double>(polls));
      svc::Request sr;
      sr.request_id = rid ^ 0x636b707473ull;
      sr.kind = svc::RpcKind::kStatus;
      sr.job_id = sub.job_id;
      const svc::Response st = call(t, "svc.status_after", sr, i, nullptr);
      checkpoints_.push_back(static_cast<double>(st.status_msg.checkpoints));
    }
    if (!result->complete || result->degraded) {
      return failed(it, "job did not complete on the daemon");
    }
    if (result->visited_digest != ref_digest_) {
      return failed(it, "visited digest differs from the in-process run");
    }
    return it;
  }

  /// One Client::call, timed into `us` when traced.
  svc::Response call(Tracer* t, const char* span, const svc::Request& req,
                     std::uint64_t i, std::vector<double>* us) {
    Scope s(t, span, i);
    const auto t0 = Clock::now();
    svc::Response rsp = client_->call(req);
    if (t != nullptr) {
      if (us != nullptr) {
        us->push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count());
      }
      attempts_ += client_->last_attempts();
      ++rpcs_;
    }
    return rsp;
  }

  void stop() {
    if (!daemon_) return;
    daemon_->stop();  // serve() sees the flag at its next accept deadline
    if (server_.joinable()) server_.join();
    daemon_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  Params p_;
  svc::JobSpec spec_;
  svc::ScenarioRegistry registry_ = svc::ScenarioRegistry::with_builtins();
  std::filesystem::path dir_;
  std::uint64_t ref_digest_ = 0;
  std::unique_ptr<svc::Daemon> daemon_;
  std::optional<svc::Client> client_;
  std::thread server_;  ///< declared after what serve() uses
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sent_;  ///< rid, job

  // Traced-run counters.
  std::array<std::vector<double>, 3> rpc_us_;  ///< submit, status, result
  std::vector<double> polls_, queue_wait_ms_, checkpoints_, dup_ms_;
  std::uint64_t attempts_ = 0;
  std::size_t rpcs_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "verify-trail", "verify-par", "protect", "recover", "daemon"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Params& p) {
  if (name == "verify-trail") return std::make_unique<Verify>(false);
  if (name == "verify-par") return std::make_unique<Verify>(true);
  if (name == "protect") return std::make_unique<Protect>(p);
  if (name == "recover") return std::make_unique<Recover>(p);
  if (name == "daemon") return std::make_unique<DaemonLoad>(p);
  throw ConfigError("unknown workload '" + name + "'");
}

}  // namespace fixd::e2e
