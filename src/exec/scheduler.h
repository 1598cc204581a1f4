// Scheduler backend interface (the paper's "scheduler layer") plus the run
// options and report shared by Work Queue, TaskVine, and Dask.Distributed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "cluster/cluster.h"
#include "dag/task_graph.h"
#include "fault/fault_schedule.h"
#include "ha/ha_options.h"
#include "metrics/cache_trace.h"
#include "metrics/transfer_matrix.h"
#include "obs/observer.h"
#include "obs/span.h"
#include "pyrt/python_runtime.h"
#include "util/units.h"

namespace hepvine::exec {

using util::Tick;

/// Task execution paradigm (paper Section IV-B, "Serverless Execution").
enum class ExecMode : std::uint8_t {
  /// Serialize function + args per task; worker spawns a fresh interpreter.
  kStandardTasks,
  /// Persistent LibraryTask per worker; tasks become FunctionCalls that
  /// fork from it.
  kFunctionCalls,
};

[[nodiscard]] const char* to_string(ExecMode mode);

struct RunOptions {
  ExecMode mode = ExecMode::kStandardTasks;
  /// Hoist imports into the LibraryTask preamble (serverless only).
  bool hoist_imports = true;
  /// Serve the software environment from the shared filesystem instead of
  /// the worker's local disk (the Fig 10 comparison axis).
  bool env_from_shared_fs = false;
  /// Stream dataset inputs from the wide-area XRootD federation instead of
  /// the facility's local data store (paper Section IV-A: the option the
  /// group abandoned as impractical).
  bool inputs_from_wan = false;
  /// Max concurrent peer transfers a worker may source (TaskVine throttle);
  /// 0 = unlimited.
  std::uint32_t peer_transfer_limit = 3;
  /// Target number of replicas for intermediate task outputs (TaskVine
  /// temp-file replication). 1 = no extra copies; higher values let the
  /// workflow survive preemption without lineage re-execution, at the cost
  /// of background peer transfers and disk.
  std::uint32_t intermediate_replicas = 1;
  /// Multiplicative jitter on task compute times (heterogeneity beyond the
  /// per-node speed factor); 0 disables.
  double exec_time_jitter = 0.15;
  /// Python runtime and import costs.
  pyrt::PythonRuntimeSpec python = pyrt::default_python_runtime();
  pyrt::ImportSet imports = pyrt::hep_import_set();
  /// Give up if simulated time passes this horizon.
  Tick max_sim_time = 12 * util::kHour;
  /// Cache-usage sampling period (Fig 11 traces).
  Tick cache_sample_interval = 5 * util::kSec;
  /// Task retry budget before the run is declared failed.
  std::uint32_t max_task_retries = 8;
  std::uint64_t seed = 42;
  /// Observability sinks (transactions log, performance log, Chrome trace).
  /// Disabled by default; see obs/observer.h.
  obs::ObsConfig observability;
  /// Deterministic fault schedule (crashes, cache loss, transfer kills, FS
  /// brownouts, stragglers). Empty by default: no injector is constructed
  /// and the run is byte-identical to one without the hooks.
  fault::FaultSchedule faults;
  /// Recovery knobs: capped exponential re-fetch backoff and the
  /// poisoned-task detector. Always consulted, faults or not.
  fault::RetryPolicy fault_retry;
  /// Manager high availability: snapshot cadence + recovery cost model +
  /// elastic worker factory. All disabled by default — a default-HA run is
  /// byte-identical to a pre-HA run.
  ha::HaOptions ha;
};

struct RunReport {
  std::string scheduler;
  bool success = false;
  std::string failure_reason;
  Tick makespan = 0;

  std::size_t tasks_total = 0;
  std::size_t task_attempts = 0;
  std::size_t task_failures = 0;  // failed attempts in `profile`
  /// Completed tasks that had to re-execute because their output (and all
  /// replicas) were lost to worker failures.
  std::size_t lineage_resets = 0;
  std::uint32_t worker_preemptions = 0;
  std::uint32_t worker_crashes = 0;  // non-preemption failures (e.g. disk)

  // --- worker-disk lifecycle (vine/wq engine) ----------------------------
  /// Files evicted under disk pressure (DataPolicy::evict_on_pressure):
  /// the LRU victim count and the bytes they freed. Zero when eviction is
  /// disabled or pressure never materialised.
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_evicted_bytes = 0;
  /// Replicas garbage-collected because every consumer of the file
  /// completed (the ref-count path, not pressure).
  std::uint64_t cache_gc_drops = 0;
  /// Peer-transfer slot double-releases detected (and ignored) at
  /// release_peer_slot. Always zero in a healthy run; a Debug build
  /// asserts instead of counting.
  std::uint64_t peer_slot_underflows = 0;

  // --- node-local object store (VineTunables::object_store) --------------
  /// Outputs published in-memory (no serialization, no disk write), the
  /// by-reference handles colocated consumers took on them, the objects
  /// forced onto disk (capacity pressure or a remote consumer), and the
  /// objects that died in memory without ever touching disk. All zero when
  /// the store is off.
  std::uint64_t store_puts = 0;
  std::uint64_t store_put_bytes = 0;
  std::uint64_t store_ref_hits = 0;
  std::uint64_t store_spills = 0;
  std::uint64_t store_spill_bytes = 0;
  std::uint64_t store_drops = 0;

  /// What the fault injector did to this run and what recovery cost
  /// (faults_injected, transfers_killed, backoff_wait, ...). All zero when
  /// RunOptions::faults was empty.
  fault::InjectionStats faults;

  /// Manager-HA observations: whether (and when) the manager crashed, the
  /// snapshot series it produced, and factory elasticity counters. Feed a
  /// crashed report to ha::recover() (ha/recovery.h) to rebuild the run.
  ha::HaRunState ha;

  /// Fraction of the makespan the manager's control loop was busy
  /// (dispatching, ingesting results, brokering transfers). Near 1.0 means
  /// the run was dispatch-bound — the Stack-3 regime of Fig 13. Derived
  /// from the attribution ledger (obs::attribute over `profile`).
  double manager_busy_fraction = 0.0;

  /// Per-attempt lifecycle spans, worker capacity timeline, wire flows and
  /// cache drops — the raw material for core-second blame accounting,
  /// critical-path extraction (obs/attribution.h, obs/critical_path.h) and
  /// the figure views (metrics/attempt_views.h). Each attempt is recorded
  /// once, as an AttemptSpan. Always recorded; serialize with
  /// profile.write_file for vine_profile.
  obs::SpanLog profile;

  metrics::TransferMatrix transfers;
  metrics::CacheTrace cache;

  /// Observability capture for this run (never null when the backend ran;
  /// a disabled config yields an empty observation). Holds the transaction
  /// ring tail, the perf-log time series with final counter values, and
  /// the Chrome-trace builder.
  std::shared_ptr<obs::RunObservation> observation;

  /// Final values of the graph's sink tasks (real physics results).
  std::map<dag::TaskId, dag::ValuePtr> results;

  [[nodiscard]] double makespan_seconds() const {
    return util::to_seconds(makespan);
  }
};

class SchedulerBackend {
 public:
  virtual ~SchedulerBackend() = default;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Execute `graph` on `cluster`. Runs the cluster's event engine to
  /// completion (or failure) and returns the report. The cluster must be
  /// freshly constructed (time zero, no workers yet requested).
  virtual RunReport run(const dag::TaskGraph& graph,
                        cluster::Cluster& cluster,
                        const RunOptions& options) = 0;
};

}  // namespace hepvine::exec
