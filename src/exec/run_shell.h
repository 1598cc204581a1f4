// The run lifecycle every scheduler engine shares.
//
// A RunShell drives one run from the worker request to the finished
// RunReport: observability sinks, the profiler span log, fault injection,
// the elastic factory, completion and failure. It owns the attempt record:
// the live attempt slots and every task-state transition of an attempt —
// the dispatch hop, RUNNING, the process and its imports, the result
// ingest with RETRIEVED and DONE, the failed attempt with its retry
// budget — each one call that makes the TaskStateTable transition and
// writes its txn line and span phase, and records the finished attempt
// exactly once, as an obs::AttemptSpan that feeds the span log, the txn
// SPAN line and the per-attempt Chrome span. With it go the per-file
// consumer counts: a file whose consumers are all done is dead, and a
// lineage reset counts the demoted consumers again. It also owns the
// transfer record: every flow an engine starts goes through
// start_transfer and closes exactly once with land, fail or cancel, which
// write the transfer-matrix cell, the txn TRANSFER lines and the peer
// Chrome arrow from one Wire, behind the two admission gates, and it reads
// a worker's imports from the shared filesystem for either engine
// (read_imports). It owns the retry record: a transfer whose kills retry
// names its episode, the logical operation it serves, and on each kill
// the shell counts the kill in its one ledger, gives up past the kill
// budget (the TRANSFER_GIVEUP line, then the engine's lost-input path) or
// waits the capped backoff and restarts. And it owns the residency record:
// every file arriving on or leaving a worker's disk or object store is one
// residency call, which writes the txn CACHE/STORE line, the CacheSpan of
// a disk drop, the CacheTrace eviction mark and the RunReport cache and
// store tallies. The engines (vine/wq in vine_run.cpp, Dask.Distributed in
// dask_run.cpp) keep only placement, staging, output production, resource
// release and the sink gather, the choice of what to move or drop and
// where a retry re-sources from, and plug in through Hooks — the same
// std::function idiom as ha::Factory::Hooks and
// fault::FaultInjector::Hooks.
#pragma once

#include <cassert>
#include <compare>
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
#include "fault/backoff_ledger.h"
#include "fault/fault_injector.h"
#include "ha/factory.h"
#include "net/flow_gate.h"
#include "net/network.h"
#include "obs/observer.h"
#include "obs/stats_registry.h"
#include "util/flat_map.h"

namespace hepvine::exec {

/// Validity token carried by asynchronous callbacks: the task and the
/// attempt they were armed for. Stale once the attempt fails or finishes.
struct AttemptToken {
  dag::TaskId task = dag::kInvalidTask;
  std::uint32_t attempt = 0;
};

/// The phase boundaries of one live attempt (obs/span.h), -1 until the
/// attempt reaches the phase, and what it carries between phases. Engines
/// derive their attempt records from it.
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
  /// Dependency values, gathered at dispatch; evaluate consumes them.
  std::vector<dag::ValuePtr> inputs;
  /// Inputs still staging; the engine starts the run when none is left.
  std::uint32_t staging_outstanding = 0;
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

/// What a retried transfer serves, with its ids. kNone: the transfer is not
/// retried.
///   kFetch      vine/wq staging fetch: a = file, b = destination worker
///   kManagerFs  vine/wq shared-FS read to the manager: a = file
///   kRelay      vine/wq relay pull to the manager: a = file
///   kKey        dd input fetch of one attempt: a = task, b = file
///   kSink       sink gather to the manager: a = task
enum class RetryKind : std::uint8_t {
  kNone, kFetch, kManagerFs, kRelay, kKey, kSink
};

/// One logical operation whose transfers may be killed and restarted: the
/// retry record's key. Its kills count until the engine ends it.
struct Episode {
  RetryKind kind = RetryKind::kNone;
  std::int64_t a = 0;
  std::int64_t b = 0;
  friend auto operator<=>(const Episode&, const Episode&) = default;
};

/// What an injected kill of a transfer does. Empty: the transfer is no
/// kill target.
struct Retry {
  Episode episode = {};
  /// Runs first, after FAILED: release what the dead flow held. False when
  /// the operation is over, so nothing counts or restarts.
  std::function<bool()> killed = nullptr;
  /// After the backoff: re-resolve a source and restart.
  std::function<void()> again = nullptr;
  /// The kill budget (RetryPolicy::max_transfer_retries) is spent: stop
  /// and take the lost-input path. Null: retry without a cap.
  std::function<void()> give_up = nullptr;
};

/// One file arriving on or leaving `worker`'s disk or object store.
struct ResidencyEvent {
  obs::Residency kind = obs::Residency::kInsert;
  cluster::WorkerId worker = cluster::kNoWorker;
  data::FileId file = data::kInvalidFile;
  std::uint64_t bytes = 0;
};

class RunShell {
 public:
  /// Per-engine wording: names and failure text differ between engines and
  /// appear in traces and reports, so they stay as they were.
  struct Identity {
    std::string scheduler;       // RunReport::scheduler
    std::string manager_lane;    // Chrome lane of the serial control loop
    std::string worker_lane;     // Chrome lane prefix, followed by the id
    std::string peer_flow;       // Chrome peer arrow, followed by the file
    std::string drained_reason;  // failure text when the event queue drains
    /// Name the task's category in the failure texts (poisoned task,
    /// retry limit).
    bool category_in_failures = false;
  };

  struct Hooks {
    /// Arm the engine's own timers, after workers are requested and the
    /// sim-time limit is armed.
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
    /// `t`'s attempt is over, its result ingested or failed: free what the
    /// engine still holds for it (cores, memory, pins, an output return, a
    /// process slot).
    std::function<void(dag::TaskId)> release_attempt;
    /// No pending consumer of `f` is left: drop its copies.
    std::function<void(data::FileId)> file_dead;
    /// Bring sink `t`'s result from `worker` to the manager; the engine
    /// calls mark_sink_done when it lands.
    std::function<void(dag::TaskId, std::int32_t worker)> gather_sink;
    /// May the factory release this connected worker right now?
    std::function<bool(cluster::WorkerId)> releasable;
    /// Perf-log gauges after the shell's tasks.* set (optional).
    std::function<void(obs::StatsRegistry&)> gauges;
    /// Extra `,"key":value` pairs for an attempt's Chrome span (optional).
    std::function<std::string(dag::TaskId)> chrome_args;
    /// Debug builds: the engine's end-of-run conservation laws, checked
    /// once when the run succeeds (optional).
    std::function<void()> audit;
  };

  /// `table` and `loop` (the serial control loop) belong to the engine
  /// and must outlive the shell.
  RunShell(const dag::TaskGraph& graph, cluster::Cluster& cluster,
           const RunOptions& options, TaskStateTable& table,
           SerialResource& loop, std::shared_ptr<obs::RunObservation> obs,
           Identity identity, Hooks hooks);

  RunShell(const RunShell&) = delete;
  RunShell& operator=(const RunShell&) = delete;

  /// Run the event loop to completion or failure and return the report.
  RunReport execute();

  // --- run state ----------------------------------------------------------
  [[nodiscard]] bool finished() const noexcept { return finished_; }
  [[nodiscard]] RunReport& report() noexcept { return report_; }
  [[nodiscard]] bool txn_on() const { return obs_->txn_enabled(); }
  [[nodiscard]] bool trace_on() const { return obs_->trace_enabled(); }
  /// Dispatch round-robin cursor (a scheduler decision input).
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
  /// opens its slot with the ready/dispatched phases stamped and the
  /// dependency values gathered.
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
  [[nodiscard]] std::size_t attempts_live() const noexcept {
    return attempts_live_;
  }

  // --- the attempt record -------------------------------------------------
  // After begin_attempt an attempt runs send_attempt, the engine's staging,
  // start_running, compute, the engine's output, evaluate and succeed, or
  // ends early in fail_attempt. Each call makes its TaskStateTable
  // transition and writes its txn line and span phase, so neither engine
  // does. Continuations run only while the attempt is live.

  /// The dispatch hop: `cost` on the control loop, the dispatch payload
  /// (`bytes` manager→worker on the control channel), then half an RTT
  /// later `staged()`, the engine's staging.
  template <class Staged>
  void send_attempt(const AttemptToken& token, Tick cost, std::uint64_t bytes,
                    Staged staged) {
    loop_.acquire_then(cost, [this, token, bytes, staged = std::move(staged)] {
      if (!token_valid(token)) return;
      record_bytes(cluster_.manager_endpoint(),
                   cluster_.worker_endpoint(table_.at(token.task).worker),
                   bytes);
      after(cluster_.control_rtt() / 2, token, staged);
    });
  }
  /// The attempt runs: RUNNING in the table and the txn log, span_exec.
  void start_running(dag::TaskId t);
  /// The attempt's process: `pre` of start-up, or, with `imports`, a read
  /// of the import stack `pre` from now (read_imports, asking `alive`) and
  /// its CPU cost; span_compute; then `run` of compute and `done()`.
  template <class Alive, class Done>
  void compute(const AttemptToken& token, Tick pre, Tick run, bool imports,
               Alive alive, Done done) {
    if (!imports) {
      attempt_at<AttemptBase>(token.task).span_compute = engine_.now() + pre;
      after(pre + run, token, std::move(done));
      return;
    }
    read_imports(table_.at(token.task).worker, pre, std::move(alive),
                 [this, token, run, done = std::move(done)] {
                   const Tick cpu = options_.imports.total_cpu_cost();
                   attempt_at<AttemptBase>(token.task).span_compute =
                       engine_.now() + cpu;
                   after(cpu + run, token, done);
                 });
  }
  /// Process exit: span_exec_end, then the task's function over the
  /// dependency values. Returns the result.
  dag::ValuePtr evaluate(dag::TaskId t);
  /// The result-ingest hop and the success: `cost` on the control loop,
  /// then Hooks::release_attempt, RETRIEVED SUCCESS, the span, DONE after
  /// the WAITING lines of the dependents it readies, one consumer count
  /// released per input (Hooks::file_dead at zero, dependencies first),
  /// the sink gather, check_completion and pump.
  void succeed(const AttemptToken& token, Tick cost, dag::ValuePtr value);
  /// Fail `t`'s live attempt, if it has one: RETRIEVED FAILURE,
  /// Hooks::release_attempt, the failed span; then requeue, or fail the run
  /// once `t` has spent RunOptions::max_task_retries attempts.
  void fail_attempt(dag::TaskId t);

  // --- transfers ----------------------------------------------------------
  /// Start `wire` as a flow (Cluster::transfer) and open its record: the
  /// txn START line, then the flow, then, when `retry` is not empty, its
  /// registration as an injector kill target. The record names its source
  /// by Cluster::matrix_endpoint. `landed` runs when the last byte arrives
  /// and closes the record with land or fail. A kill is the retry record's:
  /// it writes FAILED, runs `retry.killed`, and counts one kill of the
  /// episode. A capped episode ends at RetryPolicy::max_transfer_retries
  /// kills: TRANSFER_GIVEUP, then `give_up`. Otherwise `again` runs after
  /// RetryPolicy::backoff(kills).
  net::FlowId start_transfer(Wire wire, Tick latency,
                             std::function<void(net::FlowId)> landed,
                             Retry retry = {});
  /// The flow's bytes arrived: transfer-matrix cell, xfer.* counters, txn
  /// DONE and, between two workers, the Chrome peer arrow.
  void land(net::FlowId flow);
  /// The flow arrived but nothing takes its bytes (the source or the
  /// attempt died meanwhile): FAILED.
  void fail(net::FlowId flow);
  /// Tear a live flow out of the network, then write FAILED.
  void cancel(net::FlowId flow);
  /// The operation behind `episode` succeeded or ended otherwise: a later
  /// kill starts a fresh episode at backoff(1).
  void end_episode(const Episode& episode) { retries_.reset(episode); }
  /// The xfer.bytes_{via_manager,peer,via_fs} counters, for Hooks::gauges
  /// to place.
  void add_transfer_counters(obs::StatsRegistry& stats);
  /// Transfer admission: the manager serves data over a bounded socket
  /// set, the shared filesystem over a bounded number of streams.
  [[nodiscard]] net::FlowGate& mgr_gate() noexcept { return mgr_gate_; }
  [[nodiscard]] net::FlowGate& fs_gate() noexcept { return fs_gate_; }
  /// Load the Python import stack from the shared filesystem onto worker
  /// `w`, `delay` from now: the import metadata ops, an fs_gate slot, then
  /// the fs→worker transfer of the import code. `alive` is asked before
  /// each stage and when the code lands; once it says no, the chain stops
  /// (a landed transfer closes with fail). `loaded` runs at the landing,
  /// before the imports' CPU cost, which the caller charges.
  void read_imports(cluster::WorkerId w, Tick delay,
                    std::function<bool()> alive,
                    std::function<void()> loaded);

  // --- residency ----------------------------------------------------------
  /// The single record of a cache or store event: the txn CACHE/STORE line;
  /// for a disk drop (GC, evict, sandbox, lost) its CacheSpan; for an evict
  /// the CacheTrace mark; and the RunReport cache_* and store_* tallies.
  void residency(const ResidencyEvent& event);
  /// What the record says `w` holds: files on its disk (inserts less disk
  /// drops) and objects in its store (puts less spills and drops), since
  /// it last connected. A disconnection wipes both silently.
  struct Resident {
    std::uint32_t disk = 0;
    std::uint32_t store = 0;
  };
  [[nodiscard]] const Resident& resident(cluster::WorkerId w) const {
    return resident_[static_cast<std::size_t>(w)];
  }

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
  void attempt_erase(dag::TaskId t);
  /// The single record of a finished attempt (the slot must still be
  /// live): appends the AttemptSpan to the span log and, when enabled,
  /// writes the txn SPAN line and the attempt's Chrome span.
  void record_attempt_span(dag::TaskId t, std::int32_t worker, bool failed);
  /// `done()` `delay` from now, while the attempt behind `token` lives.
  template <class Done>
  void after(Tick delay, const AttemptToken& token, Done done) {
    engine_.schedule_after(delay, [this, token, done = std::move(done)] {
      if (token_valid(token)) done();
    });
  }
  /// `f(file)` for each input file of `t`: dependency outputs, then
  /// dataset inputs.
  template <class F>
  void for_each_input(dag::TaskId t, F f) const {
    const auto& spec = graph_.task(t).spec;
    for (dag::TaskId dep : spec.deps) f(graph_.task(dep).output_file);
    for (data::FileId file : spec.input_files) f(file);
  }
  /// "task N", with " (category)" when the identity asks for it.
  [[nodiscard]] std::string task_label(dag::TaskId t) const;
  /// Bytes with no flow of their own (dispatch arguments riding the control
  /// channel, send_attempt): the matrix cell and the xfer.* counters.
  void record_bytes(std::size_t src, std::size_t dst, std::uint64_t bytes);
  void on_node_up(cluster::WorkerId w);
  void on_node_down(cluster::WorkerId w);
  void begin_observation();
  void schedule_perf_sample();
  void begin_profile();
  void finish_profile();
  void begin_fault_injection();
  void begin_factory();
  std::uint32_t release_idle(std::uint32_t n);
  struct OpenWire {
    Wire wire;
    Tick started = 0;
  };
  /// Close `flow`'s open wire and drop it as a kill target.
  std::optional<OpenWire> take_wire(net::FlowId flow);
  /// A transfer of `retry.episode` was killed (start_transfer).
  void retry_killed(const Retry& retry);
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
  SerialResource& loop_;
  std::shared_ptr<obs::RunObservation> obs_;
  const Identity identity_;
  Hooks hooks_;

  RunReport report_;
  /// Live attempts, dense by TaskId (null = none). The indirection keeps
  /// an attempt's address stable while other slots churn, so references
  /// held across staging callbacks stay valid.
  std::vector<std::unique_ptr<AttemptBase>> attempts_;
  std::size_t attempts_live_ = 0;
  std::size_t total_attempts_ = 0;
  std::size_t lineage_resets_ = 0;
  std::vector<std::uint32_t> reset_counts_;  // lineage resets per producer
  /// Pending consumers per file: one count per (task, input file) edge
  /// whose task is not done. At zero the file is dead (Hooks::file_dead);
  /// a lineage reset that demotes a done task counts its edges again.
  std::vector<std::uint32_t> consumers_left_;
  std::vector<bool> is_sink_;
  std::vector<char> sink_done_;  // indexed by TaskId; only sinks are set
  std::size_t sinks_outstanding_ = 0;
  std::int32_t rr_cursor_ = 0;

  net::FlowGate mgr_gate_{64};
  net::FlowGate fs_gate_{256};
  /// Transfers started and not yet closed, by flow id.
  util::FlatMap<net::FlowId, OpenWire> wires_;
  /// Kills per open episode: the one count behind every retried transfer.
  fault::BackoffLedger<Episode> retries_;
  std::vector<Resident> resident_;
  // Perf counters (owned by the stats registry; null unless registered).
  std::uint64_t* bytes_via_manager_ = nullptr;
  std::uint64_t* bytes_peer_ = nullptr;
  std::uint64_t* bytes_via_fs_ = nullptr;

  // Null/empty unless RunOptions::faults is set.
  std::unique_ptr<fault::FaultInjector> injector_;
  // Workers crashed by the run (disk overflow, injected crash) or released
  // by the factory; consulted when the disconnect lands to label it.
  std::vector<bool> pending_crash_;
  std::vector<bool> pending_release_;
  std::unique_ptr<ha::Factory> factory_;
  bool pumping_ = false;
  bool finished_ = false;
};

}  // namespace hepvine::exec
