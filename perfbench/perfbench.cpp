// perfbench: the repository benchmark.
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--reduced] [--trace-out PATH]
//
// Runs one campaign workload (workloads.h) single-threaded in this process:
//   1. set-up, repeated for a second: build the workload's graphs and
//      construct its clusters (setup_s is the median);
//   2. the serial reference: dag::evaluate_serially once per distinct
//      graph, untimed;
//   3. measured repetitions of the whole batch, as many whole ones as fit
//      in --seconds (at least two). A repetition's host time covers
//      SchedulerBackend::run plus the obs::attribute /
//      obs::extract_critical_path analysis of every run; cluster
//      construction and verification are outside it.
// Set-up and untraced repetitions are timed with a SpeedClock, which scales
// host time to a nominal host speed.
// Every run is verified: report.success, sink digests equal to the serial
// reference, the attribution identity, identical simulated results across
// repetitions, and, on the default seed at full size, the committed
// makespan records.
//
// With --trace 1 repetitions alternate untraced and traced. A traced
// repetition records one span per public call (scheduler run, each
// TaskSpec::fn closure, attribution, critical path); spans stay in memory
// and go to --trace-out at exit. Per-layer metrics come from the traced
// repetitions, end-to-end metrics from the untraced ones.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": <runs>, "failed": <runs>, "metrics": {...}}
// Exit status: 0 when every check passed, 1 on a violation, 2 on bad usage.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "dag/evaluate.h"
#include "obs/attribution.h"
#include "obs/critical_path.h"
#include "workloads.h"

namespace hv = hepvine;
using perfbench::RunSpec;
using perfbench::Sched;
using perfbench::Workload;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- spans -------------------------------------------------------------------

struct Span {
  const char* name = "";
  int parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// In-memory span recorder. Spans nest by call order (the process is
/// single-threaded), so a span's parent is the innermost open span.
class Tracer {
 public:
  bool on = false;

  int open(const char* name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, stack_.empty() ? -1 : stack_.back(), now(), 0});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now();
    stack_.pop_back();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("id,parent,name,start_ns,end_ns\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%d,%s,%lld,%lld\n", i, s.parent, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer tracer;

/// Records one span while the tracer is on; free otherwise.
class Scope {
 public:
  explicit Scope(const char* name) : id_(tracer.on ? tracer.open(name) : -1) {}
  ~Scope() {
    if (id_ >= 0) tracer.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  int id_;
};

// --- host speed --------------------------------------------------------------
//
// The host is a VM that shares its cores, caches and memory with other
// tenants. Their load slows the simulator by up to 1.7x, in bursts of
// seconds and in drifts over minutes. A fixed speed kernel, run every
// kProbeEveryS of measured host time from inside the measured code, tracks
// that: each interval between two probes is scaled by kProbeNominalS /
// (the kernel's time at the interval's start). The result is host seconds
// on a host that runs the kernel in kProbeNominalS. Probe time itself is
// not counted.

/// The kernel's table: 64 MiB, larger than a core's cache, so the kernel
/// feels the cache and memory contention the simulator feels. It is
/// resident for the whole process.
constexpr std::size_t kProbeTableWords = std::size_t{1} << 23;
constexpr double kProbeTableMb = kProbeTableWords * 8.0 / (1024 * 1024);
/// The kernel's time on an unloaded reference host.
constexpr double kProbeNominalS = 0.005;
constexpr double kProbeEveryS = 0.25;

/// Fixed work shaped like the simulator's hot loops: a binary-heap queue
/// and random read-modify-writes over the table. Returns its host seconds.
double time_speed_kernel() {
  static std::vector<std::uint64_t> table(kProbeTableWords, 1);
  static volatile std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  std::priority_queue<std::pair<std::uint64_t, std::uint32_t>,
                      std::vector<std::pair<std::uint64_t, std::uint32_t>>,
                      std::greater<>>
      heap;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL + sink;
  std::uint64_t acc = 0;
  for (std::uint32_t i = 0; i < 25000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint64_t& slot = table[x & (kProbeTableWords - 1)];
    slot += x;
    acc += slot;
    heap.emplace(x >> 20, i);
    if (heap.size() > 1024) {
      acc ^= heap.top().first;
      heap.pop();
    }
  }
  sink = sink + acc;
  return seconds_since(t0);
}

/// Times one measured section: raw host seconds and host seconds at
/// nominal speed, both without probe time. Without probing, nominal equals
/// raw.
class SpeedClock {
 public:
  explicit SpeedClock(bool probing) : probing_(probing) {
    if (probing_) probe();
    last_ = Clock::now();
  }
  // speed_clock points at the clock being polled.
  SpeedClock(const SpeedClock&) = delete;
  SpeedClock& operator=(const SpeedClock&) = delete;
  /// Probe if kProbeEveryS passed since the last probe.
  void poll() {
    if (probing_ && seconds_since(last_) >= kProbeEveryS) {
      close_interval();
      probe();
      last_ = Clock::now();
    }
  }
  void stop() { close_interval(); }
  [[nodiscard]] double raw_s() const { return raw_s_; }
  [[nodiscard]] double nominal_s() const { return nominal_s_; }
  [[nodiscard]] const std::vector<double>& probes() const { return probes_; }

 private:
  void probe() {
    probes_.push_back(time_speed_kernel());
    scale_ = kProbeNominalS / probes_.back();
  }
  void close_interval() {
    const double dt = seconds_since(last_);
    raw_s_ += dt;
    nominal_s_ += dt * scale_;
  }

  bool probing_;
  double scale_ = 1.0;
  Clock::time_point last_;
  double raw_s_ = 0;
  double nominal_s_ = 0;
  std::vector<double> probes_;
};

/// The clock of the section being measured, polled from every task closure.
SpeedClock* speed_clock = nullptr;

/// Wrap every task closure: in a "hep" span (the physics payload layer) for
/// traced repetitions, or in a SpeedClock poll for untraced ones.
void wrap_payload(hv::dag::TaskGraph& graph, bool traced) {
  for (std::size_t i = 0; i < graph.size(); ++i) {
    hv::dag::ComputeFn& fn = graph.task(static_cast<hv::dag::TaskId>(i)).spec.fn;
    if (!fn) continue;
    if (traced) {
      fn = [inner = std::move(fn)](const std::vector<hv::dag::ValuePtr>& in) {
        const Scope span("hep");
        return inner(in);
      };
    } else {
      fn = [inner = std::move(fn)](const std::vector<hv::dag::ValuePtr>& in) {
        if (speed_clock != nullptr) speed_clock->poll();
        return inner(in);
      };
    }
  }
}

// --- statistics --------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of sorted samples.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

// --- one run -----------------------------------------------------------------

/// What the benchmark keeps of one scheduler run: the simulated results and
/// the layer counters read from the public surfaces after it finished.
struct Outcome {
  Sched sched = Sched::kVine;
  double host_s = 0;
  double nominal_s = 0;
  std::vector<double> probes;
  hv::util::Tick makespan = 0;
  std::size_t attempts = 0;
  std::size_t failures = 0;
  std::vector<double> turnaround_s;  // successful attempts, ready→retrieved
  std::uint64_t events = 0;
  std::uint64_t recomputes = 0, flow_visits = 0, flows_completed = 0;
  std::uint64_t mgr_nic_bytes = 0, starvation_rescues = 0;
  std::uint64_t fs_bytes_read = 0, fs_metadata_ops = 0;
  double mgr_busy_frac = 0;
  std::uint64_t cache_evictions = 0, cache_gc_drops = 0;
  std::uint64_t store_puts = 0, store_ref_hits = 0, store_spills = 0;
  std::uint64_t store_drops = 0;
  hv::obs::BlameVector blame{};
  std::int64_t capacity = 0;
  std::uint64_t profile_records = 0;
  std::uint32_t worker_crashes = 0;
  double critical_path_s = 0;
};

std::vector<std::string> violations;

void violation(std::string what) {
  std::fprintf(stderr, "VIOLATION: %s\n", what.c_str());
  violations.push_back(std::move(what));
}

using Digests = std::map<hv::dag::TaskId, hv::util::Digest128>;

Digests digests_of(const std::map<hv::dag::TaskId, hv::dag::ValuePtr>& values) {
  Digests out;
  for (const auto& [id, value] : values) {
    out[id] = value ? value->digest() : hv::util::Digest128{};
  }
  return out;
}

/// Run `run` on a fresh `cluster`, time it with its analysis, and verify it.
Outcome execute(const RunSpec& run, const hv::dag::TaskGraph& graph,
                hv::cluster::Cluster& cluster, const Digests& reference) {
  const auto backend = perfbench::make_backend(run);
  Outcome o;
  SpeedClock clock(!tracer.on);
  speed_clock = &clock;
  hv::exec::RunReport report;
  {
    const Scope span(perfbench::run_span(run.sched));
    report = backend->run(graph, cluster, run.options);
  }
  hv::obs::AttributionLedger ledger;
  {
    const Scope span("obs.attribute");
    ledger = hv::obs::attribute(report.profile);
  }
  hv::obs::CriticalPath path;
  {
    const Scope span("obs.critical_path");
    path = hv::obs::extract_critical_path(report.profile);
  }
  clock.stop();
  speed_clock = nullptr;
  o.host_s = clock.raw_s();
  o.nominal_s = clock.nominal_s();
  o.probes = clock.probes();

  o.sched = run.sched;
  o.makespan = report.makespan;
  o.attempts = report.task_attempts;
  o.failures = report.task_failures;
  for (const hv::obs::AttemptSpan& a : report.profile.attempts()) {
    if (a.failed || a.ready_at < 0 || a.retrieved_at < a.ready_at) continue;
    o.turnaround_s.push_back(hv::util::to_seconds(a.retrieved_at - a.ready_at));
  }
  o.events = cluster.engine().executed();
  const hv::net::Network& net = cluster.network();
  o.recomputes = net.recomputes();
  o.flow_visits = net.recompute_flow_visits();
  o.flows_completed = net.flows_completed();
  o.starvation_rescues = net.starvation_rescues();
  o.mgr_nic_bytes = net.link_stats(cluster.manager_uplink()).bytes_carried +
                    net.link_stats(cluster.manager_downlink()).bytes_carried;
  o.fs_bytes_read = cluster.fs().bytes_read();
  o.fs_metadata_ops = cluster.fs().metadata_ops_served();
  o.mgr_busy_frac = report.manager_busy_fraction;
  o.cache_evictions = report.cache_evictions;
  o.cache_gc_drops = report.cache_gc_drops;
  o.store_puts = report.store_puts;
  o.store_ref_hits = report.store_ref_hits;
  o.store_spills = report.store_spills;
  o.store_drops = report.store_drops;
  o.blame = ledger.ticks;
  o.capacity = ledger.capacity;
  o.profile_records = report.profile.attempts().size() +
                      report.profile.flows().size() +
                      report.profile.cache_events().size() +
                      report.profile.worker_events().size();
  o.worker_crashes = report.worker_crashes;
  o.critical_path_s = hv::util::to_seconds(path.realized_length());

  if (!report.success) {
    violation(run.label + ": run failed: " + report.failure_reason);
  }
  if (!ledger.identity_ok()) {
    violation(run.label + ": attribution identity violated (error " +
              std::to_string(ledger.identity_error()) + ")");
  }
  if (digests_of(report.results) != reference) {
    violation(run.label + ": sink digests differ from the serial reference");
  }
  return o;
}

/// Check a run's simulated results against the first repetition's and, on
/// the default seed, against the committed records.
void check_outcome(const RunSpec& run, const Outcome& o, const Outcome* first) {
  if (first != nullptr &&
      (o.makespan != first->makespan || o.attempts != first->attempts ||
       o.events != first->events || o.failures != first->failures)) {
    violation(run.label + ": simulated results differ between repetitions");
  }
  const double makespan_s = hv::util::to_seconds(o.makespan);
  if (run.record) {
    char got[64];
    char want[64];
    std::snprintf(got, sizeof got, "%.*f", run.record->decimals, makespan_s);
    std::snprintf(want, sizeof want, "%.*f", run.record->decimals,
                  run.record->makespan_s);
    if (std::strcmp(got, want) != 0) {
      violation(run.label + ": makespan " + got + " s, committed record " +
                want + " s");
    }
  }
  if (run.record_attempts && o.attempts != *run.record_attempts) {
    violation(run.label + ": " + std::to_string(o.attempts) +
              " attempts, committed record " +
              std::to_string(*run.record_attempts));
  }
  if (run.record_events && o.events != *run.record_events) {
    violation(run.label + ": " + std::to_string(o.events) +
              " engine events, committed record " +
              std::to_string(*run.record_events));
  }
}

// --- metrics output -------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
};

void print_result(const std::vector<Metric>& metrics, std::size_t attempted,
                  std::size_t failed) {
  std::string out = "{\"correct\": ";
  out += violations.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), v, metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- command line -------------------------------------------------------------

struct Args {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 10;
  bool trace = false;
  bool reduced = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--reduced] [--trace-out PATH]\n"
               "workloads:",
               why);
  for (const std::string& name : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--reduced") {
      args.reduced = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds >= 0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

/// One repetition of the whole batch.
struct Rep {
  bool traced = false;
  double host_s = 0;
  double nominal_s = 0;
  std::vector<Outcome> runs;
};

// Set-up takes milliseconds, so its median needs many samples: repeat it
// for at least kSetupSeconds and at least kSetupRepeats times.
constexpr std::size_t kSetupRepeats = 21;
constexpr double kSetupSeconds = 1.0;

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::optional<std::uint64_t> fallback =
      perfbench::default_seed(args.workload);
  if (!fallback) usage(("unknown workload " + args.workload).c_str());
  const std::uint64_t seed = args.seed.value_or(*fallback);
  const Workload workload =
      *perfbench::make_workload(args.workload, seed, args.reduced);
  std::printf("perfbench %s seed %llu%s: %zu runs over %zu graphs\n",
              workload.name.c_str(), static_cast<unsigned long long>(seed),
              args.reduced ? " (reduced)" : "", workload.runs.size(),
              workload.graphs.size());

  // 1. Set-up: graphs plus clusters, many times; the last graphs stay. Each
  // set-up is scaled by the host speed probed before it.
  SpeedClock setup_clock(true);
  std::vector<double> setup_s;
  tracer.on = true;
  std::vector<int> setup_spans;
  std::vector<hv::dag::TaskGraph> graphs;
  const auto setup_start = Clock::now();
  while (setup_spans.size() < kSetupRepeats ||
         seconds_since(setup_start) < kSetupSeconds) {
    std::vector<hv::dag::TaskGraph> built;
    std::vector<std::unique_ptr<hv::cluster::Cluster>> clusters;
    {
      const Scope setup("setup");
      setup_spans.push_back(setup.id());
      for (const auto& build : workload.graphs) {
        const Scope span("setup.graph");
        built.push_back(build());
      }
      for (const RunSpec& run : workload.runs) {
        const Scope span("setup.cluster");
        clusters.push_back(std::make_unique<hv::cluster::Cluster>(run.cluster));
      }
    }
    graphs = std::move(built);
    setup_s.push_back(
        tracer.spans()[static_cast<std::size_t>(setup_spans.back())].seconds() *
        kProbeNominalS / setup_clock.probes().back());
    setup_clock.poll();
  }

  // 2. Serial reference, once per distinct graph.
  std::vector<Digests> reference;
  for (const hv::dag::TaskGraph& graph : graphs) {
    const Scope span("verify.serial");
    reference.push_back(digests_of(hv::dag::evaluate_serially(graph)));
  }
  for (hv::dag::TaskGraph& graph : graphs) wrap_payload(graph, false);
  std::vector<hv::dag::TaskGraph> traced_graphs;
  if (args.trace) {
    for (const auto& build : workload.graphs) {
      traced_graphs.push_back(build());
      wrap_payload(traced_graphs.back(), true);
    }
  }
  tracer.on = false;

  // 3. Measured repetitions.
  std::vector<Rep> reps;
  // Whole repetitions that fit in --seconds, and at least two, so the
  // median has two untraced ones, or in trace mode one of each.
  const auto loop_start = Clock::now();
  double longest = 0;
  // Peak memory through set-up, the reference and one repetition: later
  // repetitions only add allocator slack, and how many fit varies.
  double peak_rss = 0;
  while (reps.size() < 2 ||
         seconds_since(loop_start) + longest <= args.seconds) {
    const auto rep_start = Clock::now();
    Rep rep;
    rep.traced = args.trace && reps.size() % 2 == 1;
    std::vector<std::unique_ptr<hv::cluster::Cluster>> clusters;
    for (const RunSpec& run : workload.runs) {
      clusters.push_back(std::make_unique<hv::cluster::Cluster>(run.cluster));
    }
    tracer.on = rep.traced;
    {
      const Scope span("rep");
      for (std::size_t i = 0; i < workload.runs.size(); ++i) {
        const RunSpec& run = workload.runs[i];
        const auto& graph =
            (rep.traced ? traced_graphs : graphs)[run.graph];
        rep.runs.push_back(
            execute(run, graph, *clusters[i], reference[run.graph]));
        rep.host_s += rep.runs.back().host_s;
        rep.nominal_s += rep.runs.back().nominal_s;
      }
    }
    tracer.on = false;
    for (std::size_t i = 0; i < workload.runs.size(); ++i) {
      check_outcome(workload.runs[i], rep.runs[i],
                    reps.empty() ? nullptr : &reps.front().runs[i]);
    }
    std::printf("  repetition %zu%s: host %.3f s, %.3f s at nominal speed\n",
                reps.size(), rep.traced ? " (traced)" : "", rep.host_s,
                rep.nominal_s);
    longest = std::max(longest, seconds_since(rep_start));
    reps.push_back(std::move(rep));
    if (reps.size() == 1) peak_rss = peak_rss_mb();
  }

  // --- end-to-end metrics (untraced repetitions) ----------------------------
  const std::vector<Outcome>& sim = reps.front().runs;
  std::vector<double> untraced_host;
  std::vector<double> traced_host;
  std::vector<double> untraced_nominal;
  std::vector<double> probes;
  for (const Rep& rep : reps) {
    (rep.traced ? traced_host : untraced_host).push_back(rep.host_s);
    if (rep.traced) continue;
    untraced_nominal.push_back(rep.nominal_s);
    for (const Outcome& o : rep.runs) {
      probes.insert(probes.end(), o.probes.begin(), o.probes.end());
    }
  }
  const double host_wall = median(untraced_host);
  const double host_nominal = median(untraced_nominal);

  std::size_t attempts = 0;
  std::size_t failures = 0;
  double makespan_sum = 0;
  std::vector<double> turnaround;
  for (std::size_t i = 0; i < sim.size(); ++i) {
    const Outcome& o = sim[i];
    attempts += o.attempts;
    failures += o.failures;
    makespan_sum += hv::util::to_seconds(o.makespan);
    turnaround.insert(turnaround.end(), o.turnaround_s.begin(),
                      o.turnaround_s.end());
    std::printf("  %-24s makespan %9.3f s  attempts %7zu  failures %4zu  "
                "critical path %8.3f s  host %7.3f s\n",
                workload.runs[i].label.c_str(),
                hv::util::to_seconds(o.makespan), o.attempts, o.failures,
                o.critical_path_s, o.host_s);
  }
  std::sort(turnaround.begin(), turnaround.end());
  std::printf("  turnaround pooled over %zu successful attempts: p50 %.3f s  "
              "p99 %.3f s\n",
              turnaround.size(), percentile(turnaround, 0.50),
              percentile(turnaround, 0.99));
  std::printf("  %zu repetitions (%zu untraced), host median %.3f s, "
              "%.3f s at nominal speed; speed kernel median %.6f s over %zu "
              "probes\n",
              reps.size(), untraced_host.size(), host_wall, host_nominal,
              median(probes), probes.size());

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"host_s", host_nominal, "s"},
        {"attempts_per_host_s",
         ratio(static_cast<double>(attempts), host_nominal), "1/s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss - kProbeTableMb, "MB"},
        {"sim_makespan_s", makespan_sum, "s"},
        {"sim_turnaround_p50_s", percentile(turnaround, 0.50), "s"},
        {"sim_turnaround_p99_s", percentile(turnaround, 0.99), "s"},
        {"attempt_ok_frac",
         1.0 - ratio(static_cast<double>(failures),
                     static_cast<double>(attempts)),
         "fraction"},
    };
  } else {
    // --- per-layer metrics (traced repetitions) -----------------------------
    const std::vector<Span>& spans = tracer.spans();
    std::vector<double> child_s(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_s[static_cast<std::size_t>(s.parent)] += s.seconds();
    }
    struct Total {
      double dur = 0, self = 0;
      std::size_t count = 0;
    };
    std::map<std::string, Total> totals;
    std::map<int, std::map<std::string, double>> setup_parts;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      Total& t = totals[s.name];
      t.dur += s.seconds();
      t.self += s.seconds() - child_s[i];
      t.count += 1;
      if (s.parent >= 0 && std::strncmp(s.name, "setup.", 6) == 0) {
        setup_parts[s.parent][s.name] += s.seconds();
      }
    }
    const double traced_reps = static_cast<double>(traced_host.size());
    auto per_rep = [&](const char* name, bool self) {
      const Total& t = totals[name];
      return (self ? t.self : t.dur) / traced_reps;
    };
    auto setup_median = [&](const char* name) {
      std::vector<double> v;
      for (const int id : setup_spans) v.push_back(setup_parts[id][name]);
      return median(v);
    };

    auto sum = [&](auto field) {
      double total = 0;
      for (const Outcome& o : sim) total += static_cast<double>(field(o));
      return total;
    };
    const double events = sum([](const Outcome& o) { return o.events; });
    const double sched_self = per_rep("vine.run", true) +
                              per_rep("wq.run", true) + per_rep("dd.run", true);
    const double layer_self = sched_self + per_rep("hep", false) +
                              per_rep("obs.attribute", false) +
                              per_rep("obs.critical_path", false);
    double traced_mean = 0;
    for (const double h : traced_host) traced_mean += h / traced_reps;
    const double puts = sum([](const Outcome& o) { return o.store_puts; });
    const double capacity = sum([](const Outcome& o) { return o.capacity; });
    auto blame = [&](hv::obs::Blame b) {
      return ratio(sum([b](const Outcome& o) {
                     return o.blame[static_cast<std::size_t>(b)];
                   }),
                   capacity);
    };
    double mgr_busy = 0;
    double vine_engine_runs = 0;
    for (const Outcome& o : sim) {
      if (o.sched == Sched::kDask) continue;
      mgr_busy += o.mgr_busy_frac;
      vine_engine_runs += 1;
    }
    double paper_err = 0;
    double paper_runs = 0;
    for (std::size_t i = 0; i < sim.size(); ++i) {
      const double paper = workload.runs[i].paper_makespan_s;
      if (paper <= 0) continue;
      paper_err +=
          std::fabs(hv::util::to_seconds(sim[i].makespan) - paper) / paper;
      paper_runs += 1;
    }

    metrics = {
        {"setup.graph_s", setup_median("setup.graph"), "s"},
        {"setup.cluster_s", setup_median("setup.cluster"), "s"},
        {"hep.busy_s", per_rep("hep", false), "s"},
        {"hep.calls", static_cast<double>(totals["hep"].count) / traced_reps,
         "count"},
        {"vine.run_s", per_rep("vine.run", false), "s"},
        {"vine.self_s", per_rep("vine.run", true), "s"},
        {"wq.run_s", per_rep("wq.run", false), "s"},
        {"wq.self_s", per_rep("wq.run", true), "s"},
        {"dd.run_s", per_rep("dd.run", false), "s"},
        {"dd.self_s", per_rep("dd.run", true), "s"},
        {"sim.events", events, "count"},
        {"sim.ns_per_event", ratio(sched_self * 1e9, events), "ns"},
        {"sim.turnaround_samples", static_cast<double>(turnaround.size()),
         "count"},
        {"net.recomputes", sum([](const Outcome& o) { return o.recomputes; }),
         "count"},
        {"net.flow_visits", sum([](const Outcome& o) { return o.flow_visits; }),
         "count"},
        {"net.visits_per_recompute",
         ratio(sum([](const Outcome& o) { return o.flow_visits; }),
               sum([](const Outcome& o) { return o.recomputes; })),
         "flows"},
        {"net.flows_completed",
         sum([](const Outcome& o) { return o.flows_completed; }), "count"},
        {"net.mgr_nic_bytes",
         sum([](const Outcome& o) { return o.mgr_nic_bytes; }), "B"},
        {"net.starvation_rescues",
         sum([](const Outcome& o) { return o.starvation_rescues; }), "count"},
        {"storage.fs_bytes_read",
         sum([](const Outcome& o) { return o.fs_bytes_read; }), "B"},
        {"storage.fs_metadata_ops",
         sum([](const Outcome& o) { return o.fs_metadata_ops; }), "count"},
        {"vine.mgr_busy_frac", ratio(mgr_busy, vine_engine_runs), "fraction"},
        {"vine.cache_evictions",
         sum([](const Outcome& o) { return o.cache_evictions; }), "count"},
        {"vine.cache_gc_drops",
         sum([](const Outcome& o) { return o.cache_gc_drops; }), "count"},
        {"objstore.puts", puts, "count"},
        {"objstore.ref_hits",
         sum([](const Outcome& o) { return o.store_ref_hits; }), "count"},
        {"objstore.spills", sum([](const Outcome& o) { return o.store_spills; }),
         "count"},
        {"objstore.zero_copy_frac",
         ratio(sum([](const Outcome& o) { return o.store_drops; }), puts),
         "fraction"},
        {"obs.blame_compute_frac", blame(hv::obs::Blame::kCompute), "fraction"},
        {"obs.blame_transfer_frac", blame(hv::obs::Blame::kTransferWait),
         "fraction"},
        {"obs.blame_dispatch_frac", blame(hv::obs::Blame::kDispatchWait),
         "fraction"},
        {"obs.blame_import_frac", blame(hv::obs::Blame::kImport), "fraction"},
        {"obs.blame_recovery_frac", blame(hv::obs::Blame::kRecovery),
         "fraction"},
        {"obs.blame_idle_frac", blame(hv::obs::Blame::kIdle), "fraction"},
        {"obs.attribute_s", per_rep("obs.attribute", false), "s"},
        {"obs.critical_path_s", per_rep("obs.critical_path", false), "s"},
        {"obs.spans_per_attempt",
         ratio(sum([](const Outcome& o) { return o.profile_records; }),
               static_cast<double>(attempts)),
         "spans"},
        {"dd.worker_restarts",
         sum([](const Outcome& o) {
           return o.sched == Sched::kDask ? o.worker_crashes : 0U;
         }),
         "count"},
        {"attempt_fail_frac",
         ratio(static_cast<double>(failures), static_cast<double>(attempts)),
         "fraction"},
        {"paper_err_pct", ratio(paper_err * 100, paper_runs), "%"},
        {"verify.serial_s", totals["verify.serial"].dur, "s"},
        {"trace.overhead_frac", ratio(median(traced_host), host_wall) - 1.0,
         "fraction"},
        {"host.wall_s", host_wall, "s"},
        {"host.probe_s", median(probes), "s"},
        {"trace.gap_frac", ratio(traced_mean - layer_self, traced_mean),
         "fraction"},
    };
    std::printf("  traced wall %.3f s = layer self %.3f s + gap %.6f s "
                "(scheduler self %.3f, hep %.3f, attribute %.3f, "
                "critical path %.3f)\n",
                traced_mean, layer_self, traced_mean - layer_self, sched_self,
                per_rep("hep", false), per_rep("obs.attribute", false),
                per_rep("obs.critical_path", false));
    if (!args.trace_out.empty() && !tracer.write(args.trace_out)) {
      std::fprintf(stderr, "warning: could not write spans to %s\n",
                   args.trace_out.c_str());
    }
  }

  std::size_t attempted = 0;
  for (const Rep& rep : reps) attempted += rep.runs.size();
  print_result(metrics, attempted, std::min(violations.size(), attempted));
  return violations.empty() ? 0 : 1;
}
