// The run lifecycle every scheduler engine shares.
//
// A RunShell drives one run from the worker request to the finished
// RunReport: observability sinks, the profiler span log, fault injection,
// the elastic factory, manager-HA snapshots, completion and failure. It
// owns the live attempt slots and records each finished attempt exactly
// once, as an obs::AttemptSpan that feeds the span log, the txn SPAN line
// and the per-attempt Chrome span. It also owns the transfer record: every
// flow an engine starts goes through start_transfer and closes exactly once
// with land, fail or cancel, which write the transfer-matrix cell, the txn
// TRANSFER lines and the peer Chrome arrow from one Wire. The engines
// (vine/wq in vine_run.cpp, Dask.Distributed in dask_run.cpp) keep only
// scheduling, the choice of what to move, and their own snapshot sections,
// and plug in through Hooks — the same std::function idiom as
// ha::Factory::Hooks and fault::FaultInjector::Hooks.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "dag/task_graph.h"
#include "exec/scheduler.h"
#include "exec/serial_resource.h"
#include "exec/task_state.h"
#include "fault/fault_injector.h"
#include "ha/factory.h"
#include "ha/snapshot.h"
#include "net/network.h"
#include "obs/observer.h"
#include "obs/stats_registry.h"
#include "sim/rng.h"
#include "util/flat_map.h"

namespace hepvine::exec {

/// Validity token carried by asynchronous callbacks: the task and the
/// attempt they were armed for. Stale once the attempt fails or finishes.
struct AttemptToken {
  dag::TaskId task = dag::kInvalidTask;
  std::uint32_t attempt = 0;
};

/// The phase boundaries of one live attempt (obs/span.h), -1 until the
/// attempt reaches the phase. Engines derive their attempt records from it.
struct AttemptBase {
  AttemptBase() = default;
  AttemptBase(const AttemptBase&) = delete;
  AttemptBase& operator=(const AttemptBase&) = delete;
  virtual ~AttemptBase() = default;
  Tick span_ready = -1;
  Tick span_dispatched = -1;
  Tick span_staged = -1;
  Tick span_exec = -1;
  Tick span_compute = -1;
  Tick span_exec_end = -1;  // process exit: core freed, output written
};

/// One data movement between transfer-matrix endpoints (Cluster
/// numbering; a transfer may also start at Cluster::wan_endpoint). `file`
/// is the file the bytes carry; kInvalidFile marks bytes that are no file
/// (import code), which get no txn line.
struct Wire {
  std::size_t src = 0;
  std::size_t dst = 0;
  data::FileId file = data::kInvalidFile;
  std::uint64_t bytes = 0;
};

// vine-snapshot: state
class RunShell {
 public:
  /// Per-engine wording: names and failure text differ between engines and
  /// appear in traces, snapshots and reports, so they stay as they were.
  struct Identity {
    std::string scheduler;       // RunReport::scheduler
    std::string manager_lane;    // Chrome lane of the serial control loop
    std::string worker_lane;     // Chrome lane prefix, followed by the id
    std::string peer_flow;       // Chrome peer arrow, followed by the file
    std::string rng_field;       // snapshot field holding the engine rng
    std::string drained_reason;  // failure text when the event queue drains
    /// Name the task's category in the poisoned-task failure text.
    bool category_in_failures = false;
  };

  struct Hooks {
    /// Arm the engine's own timers, after workers are requested and the
    /// sim-time limit is armed, before the first snapshot is scheduled.
    std::function<void()> start;
    /// A worker connected / disconnected (the shell has already logged it).
    std::function<void(cluster::WorkerId)> node_up;
    std::function<void(cluster::WorkerId)> node_down;
    /// Injected cache loss (fault::FaultInjector::Hooks::lose_cached_file).
    std::function<std::size_t(cluster::WorkerId, data::FileId)>
        lose_cached_file;
    /// Does a copy of `producer`'s output survive anywhere? Lineage resets
    /// walk back through producers whose outputs are gone.
    std::function<bool(dag::TaskId producer)> output_available;
    /// Placement: the worker (or process) slot to run `t` on, or -1 when
    /// no capacity is free right now.
    std::function<std::int32_t(dag::TaskId)> place;
    /// Send `t` to the slot `place` chose (begin_attempt and onwards).
    std::function<void(dag::TaskId, std::int32_t slot)> dispatch;
    /// May the factory release this connected worker right now?
    std::function<bool(cluster::WorkerId)> releasable;
    /// Perf-log gauges after the shell's tasks.* set (optional).
    std::function<void(obs::StatsRegistry&)> gauges;
    /// Engine-only fields for the end of the snapshot's run section, before
    /// rr_cursor (optional).
    std::function<ha::SnapshotBuilder()> snapshot_run_fields;
    /// The engine's own snapshot sections, between tasks and injector.
    std::function<ha::SnapshotBuilder()> snapshot_sections;
    /// Extra `,"key":value` pairs for an attempt's Chrome span (optional).
    std::function<std::string(dag::TaskId)> chrome_args;
  };

  /// `table`, `rng` and `loop` (the serial control loop) belong to the
  /// engine and must outlive the shell.
  RunShell(const dag::TaskGraph& graph, cluster::Cluster& cluster,
           const RunOptions& options, TaskStateTable& table, sim::Rng& rng,
           SerialResource& loop, std::shared_ptr<obs::RunObservation> obs,
           Identity identity, Hooks hooks);

  RunShell(const RunShell&) = delete;
  RunShell& operator=(const RunShell&) = delete;

  /// Run the event loop to completion or failure and return the report.
  RunReport execute();

  // --- run state ----------------------------------------------------------
  [[nodiscard]] bool finished() const noexcept { return finished_; }
  [[nodiscard]] RunReport& report() noexcept { return report_; }
  /// Null when RunOptions::faults is empty.
  [[nodiscard]] fault::FaultInjector* injector() const noexcept {
    return injector_.get();
  }
  [[nodiscard]] bool txn_on() const { return obs_->txn_enabled(); }
  [[nodiscard]] bool trace_on() const { return obs_->trace_enabled(); }
  /// Dispatch round-robin cursor (a snapshotted scheduler decision input).
  [[nodiscard]] std::int32_t& rr_cursor() noexcept { return rr_cursor_; }

  [[nodiscard]] bool is_sink(dag::TaskId t) const {
    return is_sink_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] bool sink_done(dag::TaskId t) const {
    return sink_done_[static_cast<std::size_t>(t)] != 0;
  }
  /// A sink result reached the manager; false when it already had.
  bool mark_sink_done(dag::TaskId t);

  // --- attempts -----------------------------------------------------------
  /// Dispatch `t` to `worker`: marks it dispatched, counts the attempt and
  /// opens its slot with the ready/dispatched phases stamped.
  template <class A>
  A& begin_attempt(dag::TaskId t, std::int32_t worker) {
    auto owned = std::make_unique<A>();
    A& attempt = *owned;
    open_attempt(t, worker, std::move(owned));
    return attempt;
  }
  [[nodiscard]] AttemptToken token(dag::TaskId t) const {
    return AttemptToken{t, table_.at(t).attempts};
  }
  [[nodiscard]] bool token_valid(const AttemptToken& token) const;

  /// Live attempt for `t`; the caller has established that one exists.
  template <class A>
  [[nodiscard]] A& attempt_at(dag::TaskId t) {
    auto& slot = attempts_[static_cast<std::size_t>(t)];
    assert(slot && "no live attempt");
    return static_cast<A&>(*slot);
  }
  template <class A>
  [[nodiscard]] A* attempt_find(dag::TaskId t) {
    return static_cast<A*>(attempts_[static_cast<std::size_t>(t)].get());
  }
  void attempt_erase(dag::TaskId t);
  [[nodiscard]] std::size_t attempts_live() const noexcept {
    return attempts_live_;
  }

  /// The single record of a finished attempt (the slot must still be
  /// live): appends the AttemptSpan to the span log and, when enabled,
  /// writes the txn SPAN line and the attempt's Chrome span.
  void record_attempt_span(dag::TaskId t, std::int32_t worker, bool failed);

  // --- transfers ----------------------------------------------------------
  /// Start `wire` as a flow (Cluster::transfer) and open its record: the
  /// txn START line, then the flow, then, when `killed` is given, its
  /// registration as an injector kill target. The record names its source
  /// by Cluster::matrix_endpoint. `landed` runs when the last byte arrives
  /// and closes the record with land or fail; a kill writes FAILED, then
  /// runs `killed`.
  net::FlowId start_transfer(Wire wire, Tick latency,
                             std::function<void(net::FlowId)> landed,
                             std::function<void()> killed = nullptr);
  /// The flow's bytes arrived: transfer-matrix cell, xfer.* counters, txn
  /// DONE and, between two workers, the Chrome peer arrow.
  void land(net::FlowId flow);
  /// The flow arrived but nothing takes its bytes (the source or the
  /// attempt died meanwhile): FAILED.
  void fail(net::FlowId flow);
  /// Tear a live flow out of the network, then write FAILED.
  void cancel(net::FlowId flow);
  /// Bytes with no flow of their own (dispatch arguments riding the control
  /// channel): the matrix cell and the xfer.* counters.
  void record_bytes(std::size_t src, std::size_t dst, std::uint64_t bytes);
  /// The xfer.bytes_{via_manager,peer,via_fs} counters, for Hooks::gauges
  /// to place.
  void add_transfer_counters(obs::StatsRegistry& stats);

  // --- lifecycle ----------------------------------------------------------
  /// Crash `w` through the batch system so replacement matching applies.
  /// A crash already pending for `w` is the same death and is not counted
  /// again. Returns false when `w` is dead or already crashing.
  bool crash_worker(cluster::WorkerId w);
  /// Dispatch ready tasks while placement finds capacity. Re-entrant calls
  /// (a dispatch that frees capacity) fold into the running loop.
  void pump();
  /// Lineage-reset every done dependency of `t` whose output is gone (each
  /// reset demotes `t` back to waiting). Returns whether `t` is still
  /// ready to dispatch.
  bool precheck_inputs(dag::TaskId t);
  /// `producer`'s output is lost and needed again: re-run it (and any lost
  /// ancestors), failing the run when it keeps vanishing.
  void lineage_reset(dag::TaskId producer);
  void check_completion();
  void fail_run(std::string reason);
  /// The engine's `engine.events_*` gauges, for Hooks::gauges to place.
  void add_engine_gauges(obs::StatsRegistry& stats);

 private:
  void open_attempt(dag::TaskId t, std::int32_t worker,
                    std::unique_ptr<AttemptBase> attempt);
  void on_node_up(cluster::WorkerId w);
  void on_node_down(cluster::WorkerId w);
  void begin_observation();
  void schedule_perf_sample();
  void begin_profile();
  void finish_profile();
  void begin_fault_injection();
  void begin_factory();
  std::uint32_t release_idle(std::uint32_t n);
  void on_manager_crash();
  void schedule_snapshot();
  void take_snapshot();
  struct OpenWire {
    Wire wire;
    Tick started = 0;
  };
  /// Close `flow`'s open wire and drop it as a kill target.
  std::optional<OpenWire> take_wire(net::FlowId flow);
  void write_transfer(void (obs::TxnLog::*line)(Tick, std::size_t,
                                                std::size_t, std::int64_t,
                                                std::uint64_t),
                      const Wire& wire);
  [[nodiscard]] std::int32_t lane(std::size_t endpoint) const {
    return static_cast<std::int32_t>(endpoint);
  }

  const dag::TaskGraph& graph_;
  cluster::Cluster& cluster_;
  sim::Engine& engine_;
  const RunOptions& options_;
  TaskStateTable& table_;
  sim::Rng& rng_;
  SerialResource& loop_;
  std::shared_ptr<obs::RunObservation> obs_;
  const Identity identity_;
  // vine-snapshot: derived(engine callbacks bound at construction)
  Hooks hooks_;

  RunReport report_;
  /// Live attempts, dense by TaskId (null = none). The indirection keeps
  /// an attempt's address stable while other slots churn, so references
  /// held across staging callbacks stay valid.
  std::vector<std::unique_ptr<AttemptBase>> attempts_;
  // vine-snapshot: derived(count of non-null attempts_ slots)
  std::size_t attempts_live_ = 0;
  std::size_t total_attempts_ = 0;
  std::size_t lineage_resets_ = 0;
  std::vector<std::uint32_t> reset_counts_;  // lineage resets per producer
  // vine-snapshot: derived(graph property, rebuilt at startup)
  std::vector<bool> is_sink_;
  std::vector<char> sink_done_;  // indexed by TaskId; only sinks are set
  std::size_t sinks_outstanding_ = 0;
  std::int32_t rr_cursor_ = 0;

  /// Transfers started and not yet closed, by flow id.
  // vine-snapshot: derived(txn records of live flows; the engines snapshot the flows themselves)
  util::FlatMap<net::FlowId, OpenWire> wires_;
  // Perf counters (owned by the stats registry; null unless registered).
  // vine-snapshot: derived(pointer into the stats registry, observability only)
  std::uint64_t* bytes_via_manager_ = nullptr;
  // vine-snapshot: derived(pointer into the stats registry, observability only)
  std::uint64_t* bytes_peer_ = nullptr;
  // vine-snapshot: derived(pointer into the stats registry, observability only)
  std::uint64_t* bytes_via_fs_ = nullptr;

  // Null/empty unless RunOptions::faults is set.
  std::unique_ptr<fault::FaultInjector> injector_;
  // Workers crashed by the run (disk overflow, injected crash) or released
  // by the factory; consulted when the disconnect lands to label it.
  // vine-snapshot: derived(intent flag; the disconnect it labels is an event replay reproduces)
  std::vector<bool> pending_crash_;
  // vine-snapshot: derived(intent flag; the disconnect it labels is an event replay reproduces)
  std::vector<bool> pending_release_;
  // vine-snapshot: derived(sizing re-derived from queue depth each poll)
  std::unique_ptr<ha::Factory> factory_;
  std::uint64_t snapshot_seq_ = 0;
  // vine-snapshot: derived(re-entrancy latch, always false between events)
  bool pumping_ = false;
  // vine-snapshot: derived(teardown latch; no snapshots are taken after finish)
  bool finished_ = false;
};

}  // namespace hepvine::exec
