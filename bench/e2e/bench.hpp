// Shared pieces of the end-to-end benchmark: timing, percentiles, the span
// recorder used by traced runs, metric reporting, and the workload
// interface. See README.md for the workloads and the metric contract.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mc/sysmodel.hpp"
#include "rt/world.hpp"

namespace fixd::e2e {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Linear-interpolated percentile (q in [0, 1]) of unsorted samples.
double percentile(std::vector<double> v, double q);

/// The highest tail percentile that still has at least ten samples beyond
/// it, among p99 and p95; 0 when neither does.
double tail_quantile(std::size_t n);

// --- Spans ------------------------------------------------------------------

/// One timed call from the benchmark's own code into a FixD layer.
struct Span {
  const char* name;  ///< static string, "<layer>.<call>"
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  ///< index of the enclosing span, -1 at the root
  std::uint64_t iter;   ///< iteration the span belongs to
};

/// In-memory span recorder for a traced run. Spans nest by call order on
/// the benchmark's (single) driving thread.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  std::int32_t begin(const char* name, std::uint64_t iter);
  void end(std::int32_t id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Per span: duration minus the part its direct children cover.
  std::vector<double> self_ms() const;
  /// Chrome trace-event JSON (load in chrome://tracing or Perfetto).
  bool write_chrome_json(const std::string& path,
                         const std::string& process_name) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a no-op when the tracer is null (the untraced run).
class Scope {
 public:
  Scope(Tracer* t, const char* name, std::uint64_t iter)
      : t_(t), id_(t ? t->begin(name, iter) : -1) {}
  ~Scope() {
    if (t_) t_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  std::int32_t id_;
};

// --- Metrics ----------------------------------------------------------------

/// Where a metric goes: end-to-end and per-layer metrics are declared in
/// BENCHMARK.json and land in the final JSON line; info metrics are
/// printed (and kept in the --out file) but not declared, because they
/// exist only for some workloads.
enum class MetricKind { kEndToEnd, kLayer, kInfo };

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t n;  ///< samples behind the value
  MetricKind kind;
};

class Report {
 public:
  void add(MetricKind kind, std::string name, double value, std::string unit,
           std::size_t n) {
    metrics_.push_back({std::move(name), value, std::move(unit), n, kind});
  }
  void layer(std::string name, double value, std::string unit,
             std::size_t n) {
    add(MetricKind::kLayer, std::move(name), value, std::move(unit), n);
  }
  void info(std::string name, double value, std::string unit, std::size_t n) {
    add(MetricKind::kInfo, std::move(name), value, std::move(unit), n);
  }
  /// p50 (and the supported tail) of a sample series as info metrics.
  void info_dist(const std::string& name, const std::vector<double>& v,
                 const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// --- Workloads --------------------------------------------------------------

/// One measured request: its latency, the work it completed (states,
/// events, recoveries or jobs), and whether every output check passed.
struct Iter {
  double latency_ms = 0;
  double work = 0;
  bool ok = true;
  std::string failure;  ///< first failed check, for the log
};

/// A world family the per-layer probes exercise: the workload's own model
/// and the explorer configuration it searches with.
struct Model {
  std::function<std::unique_ptr<rt::World>()> make;
  std::function<void(rt::World&)> install;
  mc::SysExploreOptions explore;
};

struct Params {
  std::uint64_t seed = 1;
  bool smoke = false;
  std::string workdir;  ///< scratch space inside the checkout
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build every input (worlds, seed scans, daemon) and run one checked
  /// warm-up request. Throws on failure. Timed as setup_s.
  virtual void setup() = 0;
  /// Run request `i`. Spans are recorded only when `t` is non-null, and
  /// workload-specific layer counters are collected only then.
  virtual Iter iterate(Tracer* t, std::uint64_t i) = 0;
  /// Unit of Iter::work, for the work_per_s line.
  virtual const char* work_unit() const = 0;
  /// The models the per-layer probes run on.
  virtual std::vector<Model> models() const = 0;
  /// Workload-specific per-layer numbers gathered by traced iterations,
  /// plus any probe that needs the workload's live state.
  virtual void report_traced(Report&) {}
};

/// The workload names, in the order run.sh runs them.
const std::vector<std::string>& workload_names();
/// Throws ConfigError on an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Params& p);

/// The per-layer probes shared by every workload: timed World operations
/// on states at the BFS midpoint, trail replay, a bare / Scroll-only /
/// Time-Machine-only / controller-attach run of each model, and one
/// instrumented search per model.
void probe_layers(const std::vector<Model>& models, bool smoke, Report& rep);

}  // namespace fixd::e2e
