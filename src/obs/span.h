// Lifecycle spans: the raw material of the time-attribution profiler.
//
// Every scheduler backend decomposes each task attempt into the ordered
// phase boundaries of its life — queued → dispatched → staged (inputs
// fetched) → executing (interpreter up, imports done) → computing →
// process exit → result ingested — and records one AttemptSpan per
// attempt, successful or failed. Alongside the attempts the log carries
// worker arrival/departure events (the capacity timeline), wire-level flow
// spans reported by the network substrate, cache drop events from the
// disk lifecycle, and the manager's serial-loop busy time. Together these
// are sufficient to reconstruct *where every core-second of the run went*
// (obs/attribution.h) and *which dependency chain bounded the makespan*
// (obs/critical_path.h) without re-running anything.
//
// SpanLog is embedded by value in exec::RunReport and always on: recording
// is a push_back per attempt/flow/drop, cheap enough to leave enabled. The
// AttemptSpan is a run's only per-attempt record; the figure views
// (metrics/attempt_views.h) read it too. The log serializes to a
// line-oriented text format (".spans") that round-trips exactly, so the
// `vine_profile` CLI and CI replay gates operate on files; a run's
// serialized log is bit-identical across replays under the determinism
// contract (DESIGN.md §5).
//
// Layering: obs depends only on util, so the dependency edges a critical-
// path walk needs are copied in via set_deps rather than referencing
// dag::TaskGraph.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/units.h"

namespace hepvine::obs {

using util::Tick;

/// One task attempt's phase boundaries, in simulated microseconds.
/// A boundary of -1 means the attempt never reached that phase (e.g. it
/// failed during staging). For successful attempts every boundary is set
/// and ordered: ready ≤ dispatched ≤ staged ≤ exec ≤ compute ≤ exec_end ≤
/// retrieved. The occupied core span is [dispatched_at, exec_end_at] (the
/// process exit frees the core; result ingestion occupies only the
/// manager), or [dispatched_at, retrieved_at] for failed attempts.
struct AttemptSpan {
  std::int64_t task = -1;
  std::uint32_t attempt = 0;
  std::int32_t worker = -1;
  Tick ready_at = -1;       // became dispatchable (deps satisfied / requeued)
  Tick dispatched_at = -1;  // core reserved; manager serializing the dispatch
  Tick staged_at = -1;      // dispatch landed on the worker; input fetch began
  Tick exec_at = -1;        // all inputs resident; worker process started
  Tick compute_at = -1;     // startup/serialize/imports done; user code began
  Tick exec_end_at = -1;    // process exited (output written, core freed)
  Tick retrieved_at = -1;   // manager ingested the result / observed failure
  bool failed = false;
  std::string category;
};

/// One wire-level flow as seen by net::Network: setup + transfer from
/// start_flow to completion/cancellation/kill. `carried` is the bytes that
/// actually crossed the links (equal to `bytes` on completion).
struct FlowSpan {
  std::int64_t flow = -1;
  std::uint64_t bytes = 0;
  std::uint64_t carried = 0;
  Tick started_at = -1;
  Tick ended_at = -1;
  char outcome = 'D';  // 'D' done, 'C' cancelled, 'F' failed (injected kill)
};

/// A replica leaving a worker's disk (point event, PR 5 disk lifecycle).
struct CacheSpan {
  Tick t = -1;
  std::int32_t worker = -1;
  std::int64_t file = -1;
  std::uint64_t bytes = 0;
  char verb = 'E';  // 'E' evict, 'G' gc, 'S' sandbox cleanup, 'L' fault loss
};

/// Worker capacity edge: connection (`up`) or disconnection.
struct WorkerEvent {
  Tick t = -1;
  std::int32_t worker = -1;
  bool up = false;
};

class SpanLog {
 public:
  SpanLog() = default;

  // --- topology (recorded once, before the run) --------------------------
  /// Core count per configured worker slot; defines total capacity.
  void set_worker_cores(std::vector<std::uint32_t> cores) {
    worker_cores_ = std::move(cores);
  }
  /// Dependency edges of `task` (producer task ids), for critical-path
  /// extraction. Tasks without dependencies need no entry.
  void set_deps(std::int64_t task, std::vector<std::int64_t> deps) {
    if (!deps.empty()) deps_[task] = std::move(deps);
  }

  // --- recording ---------------------------------------------------------
  void worker_up(Tick t, std::int32_t worker) {
    worker_events_.push_back(WorkerEvent{t, worker, true});
  }
  void worker_down(Tick t, std::int32_t worker) {
    worker_events_.push_back(WorkerEvent{t, worker, false});
  }
  void add_attempt(AttemptSpan span) {
    attempts_.push_back(std::move(span));
  }
  void add_flow(FlowSpan span) { flows_.push_back(span); }
  void add_cache(CacheSpan span) { cache_.push_back(span); }
  /// Manager/scheduler serial-loop totals at end of run.
  void set_manager(Tick busy_ticks, std::uint64_t ops) {
    manager_busy_ticks_ = busy_ticks;
    manager_ops_ = ops;
  }
  /// Run envelope, recorded when the run finishes.
  void set_run(Tick makespan, std::string scheduler, bool success) {
    makespan_ = makespan;
    scheduler_ = std::move(scheduler);
    success_ = success;
  }

  // --- access ------------------------------------------------------------
  [[nodiscard]] const std::vector<std::uint32_t>& worker_cores() const {
    return worker_cores_;
  }
  [[nodiscard]] const std::map<std::int64_t, std::vector<std::int64_t>>&
  deps() const {
    return deps_;
  }
  [[nodiscard]] const std::vector<WorkerEvent>& worker_events() const {
    return worker_events_;
  }
  [[nodiscard]] const std::vector<AttemptSpan>& attempts() const {
    return attempts_;
  }
  [[nodiscard]] const std::vector<FlowSpan>& flows() const { return flows_; }
  [[nodiscard]] const std::vector<CacheSpan>& cache_events() const {
    return cache_;
  }
  [[nodiscard]] Tick manager_busy_ticks() const { return manager_busy_ticks_; }
  [[nodiscard]] std::uint64_t manager_ops() const { return manager_ops_; }
  [[nodiscard]] Tick makespan() const { return makespan_; }
  [[nodiscard]] const std::string& scheduler() const { return scheduler_; }
  [[nodiscard]] bool success() const { return success_; }

  /// True when nothing has been recorded (no attempts, flows, cache drops,
  /// or worker events) — the state a non-instrumented producer leaves.
  [[nodiscard]] bool empty() const {
    return attempts_.empty() && flows_.empty() && cache_.empty() &&
           worker_events_.empty();
  }

  // --- serialization -----------------------------------------------------
  /// Line-oriented text form; deterministic and round-trip exact.
  [[nodiscard]] std::string serialize() const;
  /// Write serialize() to `path`; false on I/O failure.
  bool write_file(const std::string& path) const;
  /// Parse a serialized log; nullopt when the text is not a spans file.
  [[nodiscard]] static std::optional<SpanLog> parse(const std::string& text);

 private:
  std::vector<std::uint32_t> worker_cores_;
  std::map<std::int64_t, std::vector<std::int64_t>> deps_;
  std::vector<WorkerEvent> worker_events_;
  std::vector<AttemptSpan> attempts_;
  std::vector<FlowSpan> flows_;
  std::vector<CacheSpan> cache_;
  Tick manager_busy_ticks_ = 0;
  std::uint64_t manager_ops_ = 0;
  Tick makespan_ = 0;
  std::string scheduler_;
  bool success_ = false;
};

class ChromeTraceBuilder;

/// Emit the per-attempt phase breakdown as nested Chrome-trace B/E events:
/// one "thread" per task on its worker's lane, an outer span per attempt
/// and nested phase spans (dispatch / fetch / import / execute / retrieve)
/// inside it. A log with no attempts emits nothing, leaving the builder's
/// output byte-identical.
void emit_lifecycle_trace(const SpanLog& log, ChromeTraceBuilder& trace);

}  // namespace hepvine::obs
