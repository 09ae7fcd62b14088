// fixd_bench: the end-to-end benchmark driver (see README.md).
//
//   fixd_bench --workload NAME --seed N [--seconds S] [--trace 0|1]
//              [--smoke] [--out FILE] [--workdir DIR]
//
// Sets the workload up three to five times (setup_s is the median), then
// runs its closed loop for --seconds and checks every output. With
// --trace 1 it runs half the time untraced and half traced, writes the
// spans as Chrome trace-event JSON beside --workdir, and runs the
// per-layer probes. Prints one line per metric,
// `workload metric value unit n=<samples>`, then one JSON object:
// {"correct", "attempted", "failed", "metrics"} — the end-to-end metrics
// untraced, the per-layer metrics traced. --out appends a JSON record of
// the run (with the machine it ran on) for compare.py.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/error.hpp"

namespace fixd::e2e {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double tail_quantile(std::size_t n) {
  if (n >= 1000) return 0.99;
  if (n >= 200) return 0.95;
  return 0;
}

void Report::info_dist(const std::string& name, const std::vector<double>& v,
                       const std::string& unit) {
  info(name + "_p50", percentile(v, 0.5), unit, v.size());
  if (const double q = tail_quantile(v.size()); q > 0) {
    info(name + "_p" + std::to_string(static_cast<int>(q * 100)),
         percentile(v, q), unit, v.size());
  }
}

std::int32_t Tracer::begin(const char* name, std::uint64_t iter) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
  spans_.push_back({name, now, now, open_.empty() ? -1 : open_.back(), iter});
  open_.push_back(id);
  return id;
}

void Tracer::end(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
  open_.pop_back();
}

std::vector<double> Tracer::self_ms() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e6;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  return self;
}

bool Tracer::write_chrome_json(const std::string& path,
                               const std::string& process_name) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = self_ms();
  std::fprintf(f,
               "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"args\": {\"name\": \"%s\"}}",
               process_name.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 ",\n{\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, \"iter\": %llu, "
                 "\"self_us\": %.3f}}",
                 s.name, static_cast<int>(std::strcspn(s.name, ".")), s.name,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 static_cast<unsigned long long>(s.iter), self[i] * 1e3);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out;
  std::string workdir = "build/bench-e2e/work";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "fixd_bench: %s\nusage: fixd_bench --workload NAME --seed N "
               "[--seconds S] [--trace 0|1] [--smoke] [--out FILE] "
               "[--workdir DIR]\nworkloads:",
               why.c_str());
  for (const std::string& w : workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (k == "--out") {
        a.out = v;
      } else if (k == "--workdir") {
        a.workdir = v;
      } else {
        usage("unknown option " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (std::find(workload_names().begin(), workload_names().end(),
                a.workload) == workload_names().end()) {
    usage("unknown workload " + a.workload);
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  if (a.smoke) a.seconds = std::min(a.seconds, 0.3);
  return a;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Peak RSS is read once this many requests have been measured (or at the
/// end of a shorter run), so that memory a workload keeps per request —
/// fixdd retains every finished job — does not make the metric depend on
/// how many requests the machine managed in the run.
constexpr std::size_t kRssRequests = 100;

struct Loop {
  std::vector<double> latency_ms;
  double work = 0;
  double busy_ms = 0;  ///< sum of latencies: the time requests were in flight
  std::size_t failed = 0;
  double rss_mib = 0;
};

/// The closed loop: one request after another until `seconds` have passed.
Loop run_loop(Workload& w, double seconds, Tracer* t, std::uint64_t& next,
              const std::string& name) {
  Loop l;
  const auto t0 = Clock::now();
  do {
    const std::uint64_t i = next++;
    const Iter r = w.iterate(t, i);
    l.latency_ms.push_back(r.latency_ms);
    l.work += r.work;
    l.busy_ms += r.latency_ms;
    if (!r.ok) {
      if (l.failed < 5) {
        std::fprintf(stderr, "FAIL %s request %llu: %s\n", name.c_str(),
                     static_cast<unsigned long long>(i), r.failure.c_str());
      }
      ++l.failed;
    }
    if (l.latency_ms.size() == kRssRequests) l.rss_mib = peak_rss_mib();
  } while (ms_since(t0) < seconds * 1e3);
  if (l.rss_mib == 0) l.rss_mib = peak_rss_mib();
  return l;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// {"name": {"value": v, "unit": u[, "n": n, "kind": k]}, ...}
std::string metrics_json(const Report& rep, bool trace, bool full) {
  std::string out = "{";
  bool first = true;
  for (const Metric& m : rep.metrics()) {
    const bool declared =
        m.kind == (trace ? MetricKind::kLayer : MetricKind::kEndToEnd);
    if (!declared && !full) continue;
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"",
                  first ? "" : ", ", json_escape(m.name).c_str(),
                  std::isfinite(m.value) ? m.value : 0.0,
                  json_escape(m.unit).c_str());
    out += buf;
    if (full) {
      static const char* kinds[] = {"end_to_end", "per_layer", "info"};
      std::snprintf(buf, sizeof buf, ", \"n\": %zu, \"kind\": \"%s\"", m.n,
                    kinds[static_cast<int>(m.kind)]);
      out += buf;
    }
    out += "}";
    first = false;
  }
  return out + "}";
}

std::string env_json() {
  utsname u{};
  uname(&u);
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %u, \"compiler\": \"%s\", \"kernel\": \"%s %s\"}",
                std::thread::hardware_concurrency(),
                json_escape(__VERSION__).c_str(),
                json_escape(u.sysname).c_str(), json_escape(u.release).c_str());
  return buf;
}

int run(const Args& a) {
  Params p;
  p.seed = a.seed;
  p.smoke = a.smoke;
  p.workdir = a.workdir + "/" + a.workload + "-" + std::to_string(getpid());
  std::filesystem::create_directories(p.workdir);
  // Declared before the workload, so it runs after the workload's
  // destructor has stopped everything using the directory.
  struct RemoveDir {
    std::string path;
    ~RemoveDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } remove_workdir{p.workdir};

  // Set up several times — at least 3, at most 5, stopping once 2 s went
  // into set-ups — and report the median; only the last instance is
  // measured. One instance lives at a time: the previous one's destructor
  // stops what it started before the next is built.
  std::vector<double> setup_s;
  double setup_total_s = 0;
  std::unique_ptr<Workload> w;
  const std::size_t min_reps = (a.trace || a.smoke) ? 1 : 3;
  const std::size_t max_reps = (a.trace || a.smoke) ? 1 : 5;
  while (setup_s.size() < min_reps ||
         (setup_s.size() < max_reps && setup_total_s < 2.0)) {
    w.reset();
    w = make_workload(a.workload, p);
    const auto t0 = Clock::now();
    w->setup();
    setup_s.push_back(ms_since(t0) / 1e3);
    setup_total_s += setup_s.back();
  }

  Report rep;
  std::uint64_t next = 0;
  const double measure_s = a.trace ? a.seconds / 2 : a.seconds;
  const Loop plain = run_loop(*w, measure_s, nullptr, next, a.workload);
  std::size_t attempted = plain.latency_ms.size();
  std::size_t failures = plain.failed;
  const double p50 = percentile(plain.latency_ms, 0.5);

  if (!a.trace) {
    rep.add(MetricKind::kEndToEnd, "setup_s", percentile(setup_s, 0.5), "s",
            setup_s.size());
    rep.add(MetricKind::kEndToEnd, "peak_rss_mib", plain.rss_mib, "MiB",
            std::min(attempted, kRssRequests));
    rep.add(MetricKind::kEndToEnd, "latency_ms_p50", p50, "ms", attempted);
    if (const double q = tail_quantile(attempted); q > 0) {
      rep.info("latency_ms_p" + std::to_string(static_cast<int>(q * 100)),
               percentile(plain.latency_ms, q), "ms", attempted);
    }
    rep.info(std::string(w->work_unit()) + "_per_request",
             plain.work / static_cast<double>(attempted), "count", attempted);
    rep.info("work_per_s", plain.work / (plain.busy_ms / 1e3), "1/s",
             attempted);
  } else {
    Tracer tracer;
    const Loop traced = run_loop(*w, measure_s, &tracer, next, a.workload);
    attempted += traced.latency_ms.size();
    failures += traced.failed;
    const double traced_p50 = percentile(traced.latency_ms, 0.5);
    rep.layer("trace.overhead_ratio", p50 > 0 ? traced_p50 / p50 : 0, "ratio",
              traced.latency_ms.size());
    rep.info("untraced.latency_ms_p50", p50, "ms", plain.latency_ms.size());
    rep.info("traced.latency_ms_p50", traced_p50, "ms",
             traced.latency_ms.size());

    // Self time per span name, in first-seen order.
    const std::vector<double> self = tracer.self_ms();
    std::vector<std::string> order;
    std::map<std::string, std::pair<double, std::size_t>> by_name;
    for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
      const std::string name = tracer.spans()[i].name;
      auto [it, fresh] = by_name.try_emplace(name, 0.0, 0);
      if (fresh) order.push_back(name);
      it->second.first += self[i];
      ++it->second.second;
    }
    for (const std::string& name : order) {
      const auto& [ms, calls] = by_name[name];
      rep.info("span." + name + ".self_ms", ms / static_cast<double>(calls),
               "ms", calls);
    }

    w->report_traced(rep);
    probe_layers(w->models(), a.smoke, rep);

    const std::string trace_file =
        (std::filesystem::path(a.workdir).parent_path() /
         ("trace-" + a.workload + ".json"))
            .string();
    if (!tracer.write_chrome_json(trace_file, a.workload)) {
      throw IoError("cannot write " + trace_file, errno);
    }
    std::fprintf(stderr, "fixd_bench: wrote %s (%zu spans)\n",
                 trace_file.c_str(), tracer.spans().size());
  }
  for (const Metric& m : rep.metrics()) {
    std::printf("%s %s %.6g %s n=%zu\n", a.workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str(), m.n);
  }
  const bool correct = failures == 0;
  if (!a.out.empty()) {
    std::FILE* f = std::fopen(a.out.c_str(), "a");
    if (f == nullptr) throw IoError("cannot open " + a.out, errno);
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                 "\"trace\": %d, \"smoke\": %s, \"env\": %s, \"correct\": %s, "
                 "\"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
                 a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                 a.seconds, a.trace ? 1 : 0, a.smoke ? "true" : "false",
                 env_json().c_str(), correct ? "true" : "false", attempted,
                 failures, metrics_json(rep, a.trace, true).c_str());
    std::fclose(f);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failures,
              metrics_json(rep, a.trace, false).c_str());
  return 0;
}

}  // namespace
}  // namespace fixd::e2e

int main(int argc, char** argv) {
  const fixd::e2e::Args a = fixd::e2e::parse(argc, argv);
#ifdef __GLIBC__
  // Every request rebuilds its worlds, which a long-running protected
  // process does not do. With glibc's defaults the freed heap is unmapped
  // and faulted back in by the next request (~10k page faults per protect
  // request), so a request would time the kernel zeroing pages as well as
  // FixD. Keep freed memory mapped: requests measure the steady state.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  try {
    return fixd::e2e::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fixd_bench: %s: %s\n", a.workload.c_str(), e.what());
    return 1;
  }
}
