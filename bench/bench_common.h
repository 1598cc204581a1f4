// Shared harness for the paper-reproduction benches: builds workloads and
// clusters, runs schedulers, and prints paper-vs-measured tables.
//
// All benches run standalone with no arguments. Set HEPVINE_FAST=1 to run
// reduced-scale versions (same shapes, smaller workloads) for quick smoke
// runs; default is full paper scale.
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "apps/workloads.h"
#include "cluster/calibration.h"
#include "dd/dask_distributed.h"
#include "exec/scheduler.h"
#include "metrics/attempt_views.h"
#include "obs/attribution.h"
#include "storage/shared_fs.h"
#include "util/env.h"
#include "vine/vine_scheduler.h"
#include "wq/work_queue.h"

namespace hepvine::bench {

[[nodiscard]] inline bool fast_mode() { return util::env_flag("HEPVINE_FAST"); }

/// Scale a task/worker count down in fast mode.
[[nodiscard]] inline std::uint32_t scaled(std::uint32_t full,
                                          std::uint32_t fast) {
  return fast_mode() ? fast : full;
}

/// CI determinism hook: when HEPVINE_TXN_LOG is set, stream each run's
/// transaction log to "<prefix>.<n>.txn" (n increments per run, in launch
/// order). Invoking the same bench twice with the same seeds and diffing
/// the files proves the whole run — faults, recovery, scheduling — replays
/// bit-identically.
inline void apply_txn_capture(exec::RunOptions& options) {
  const char* prefix = util::env_cstr("HEPVINE_TXN_LOG");
  if (prefix == nullptr || *prefix == '\0') return;
  static int run_index = 0;
  options.observability.enabled = true;
  options.observability.txn_log = true;
  options.observability.perf_log = false;
  options.observability.chrome_trace = false;
  options.observability.txn_path =
      std::string(prefix) + "." + std::to_string(run_index++) + ".txn";
}

/// Profiler capture hook: when HEPVINE_SPANS is set, write each run's span
/// log to "<prefix>.<n>.spans" (n increments per run, in launch order).
/// vine_profile consumes the files; CI replays a bench twice and diffs
/// them (plus the vine_profile text/json output) to prove the profiler is
/// deterministic, and gates on the core-second accounting identity.
inline void maybe_write_spans(const exec::RunReport& report) {
  const char* prefix = util::env_cstr("HEPVINE_SPANS");
  if (prefix == nullptr || *prefix == '\0') return;
  static int run_index = 0;
  const std::string path =
      std::string(prefix) + "." + std::to_string(run_index++) + ".spans";
  if (!report.profile.write_file(path)) {
    std::fprintf(stderr, "warning: could not write span log %s\n",
                 path.c_str());
  }
}

/// One-line core-second blame breakdown for a run, from the attribution
/// ledger (obs::attribute over RunReport::profile).
inline void print_blame_line(const char* label,
                             const exec::RunReport& report) {
  const obs::AttributionLedger ledger = obs::attribute(report.profile);
  if (ledger.capacity <= 0) return;
  std::printf("  %-28s compute %5.1f%%  transfer %5.1f%%  dispatch %5.1f%%  "
              "import %5.1f%%  recovery %5.1f%%  idle %5.1f%%%s\n",
              label, ledger.fraction(obs::Blame::kCompute) * 100,
              ledger.fraction(obs::Blame::kTransferWait) * 100,
              ledger.fraction(obs::Blame::kDispatchWait) * 100,
              ledger.fraction(obs::Blame::kImport) * 100,
              ledger.fraction(obs::Blame::kRecovery) * 100,
              ledger.fraction(obs::Blame::kIdle) * 100,
              ledger.identity_ok() ? "" : "  [IDENTITY VIOLATION]");
}

struct RunConfig {
  std::uint32_t workers = 200;
  cluster::NodeSpec node = cluster::paper_worker_node();
  storage::SharedFsSpec fs = storage::vast_spec();
  double preemption_rate_per_hour = 0.01;
  std::uint64_t seed = 1;
};

inline exec::RunReport run_workload(exec::SchedulerBackend& scheduler,
                                    const apps::WorkloadSpec& workload,
                                    const RunConfig& config,
                                    const exec::RunOptions& options) {
  const dag::TaskGraph graph = apps::build_workload(workload, options.seed);
  cluster::ClusterSpec cspec = cluster::paper_cluster(
      config.workers, config.node, config.fs, config.seed);
  cspec.batch.preemption_rate_per_hour = config.preemption_rate_per_hour;
  cluster::Cluster cluster(cspec);
  return scheduler.run(graph, cluster, options);
}

inline void print_header(const char* title) {
  std::printf("\n============================================================\n");
  std::printf("%s\n", title);
  std::printf("============================================================\n");
}

/// One paper-vs-measured row.
inline void print_row(const char* label, double paper_value,
                      double measured_value, const char* unit) {
  std::printf("  %-28s paper %8.1f %-4s   measured %8.1f %-4s\n", label,
              paper_value, unit, measured_value, unit);
}

inline void print_report_line(const char* label,
                              const exec::RunReport& report) {
  std::printf("  %-28s %8.1f s  %s  (attempts %zu, failures %zu, "
              "preempt %u, crashes %u)%s%s\n",
              label, report.makespan_seconds(),
              report.success ? "ok    " : "FAILED", report.task_attempts,
              report.task_failures, report.worker_preemptions,
              report.worker_crashes,
              report.success ? "" : " reason: ",
              report.success ? "" : report.failure_reason.c_str());
}

}  // namespace hepvine::bench
