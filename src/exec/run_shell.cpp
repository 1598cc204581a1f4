#include "exec/run_shell.h"

#include <algorithm>
#include <utility>

#include "metrics/attempt_views.h"
#include "obs/attribution.h"
#include "obs/span.h"

namespace hepvine::exec {

using cluster::WorkerId;
using dag::TaskId;

RunShell::RunShell(const dag::TaskGraph& graph, cluster::Cluster& cluster,
                   const RunOptions& options, TaskStateTable& table,
                   sim::Rng& rng, SerialResource& loop,
                   std::shared_ptr<obs::RunObservation> obs,
                   Identity identity, Hooks hooks)
    : graph_(graph),
      cluster_(cluster),
      engine_(cluster.engine()),
      options_(options),
      table_(table),
      rng_(rng),
      loop_(loop),
      obs_(std::move(obs)),
      identity_(std::move(identity)),
      hooks_(std::move(hooks)),
      attempts_(graph.size()),
      reset_counts_(graph.size(), 0),
      is_sink_(graph.size(), false),
      sink_done_(graph.size(), 0),
      pending_crash_(cluster.worker_count(), false),
      pending_release_(cluster.worker_count(), false) {
  report_.scheduler = identity_.scheduler;
  report_.tasks_total = graph.size();
  report_.transfers = metrics::TransferMatrix(cluster.endpoint_count());
  report_.cache = metrics::CacheTrace(cluster.worker_count());
  for (TaskId sink : graph.sinks()) {
    is_sink_[static_cast<std::size_t>(sink)] = true;
    ++sinks_outstanding_;
  }
}

RunReport RunShell::execute() {
  begin_observation();
  begin_fault_injection();
  begin_profile();
  // With the elastic factory on, only min_workers slots start matching;
  // the factory starts parked slots as queue depth demands.
  const std::uint32_t initial_workers =
      options_.ha.factory.enabled()
          ? std::max(options_.ha.factory.min_workers, 1U)
          : 0xffffffffU;
  cluster_.request_workers([this](WorkerId w) { on_node_up(w); },
                           [this](WorkerId w) { on_node_down(w); },
                           initial_workers);
  begin_factory();
  engine_.schedule_at(options_.max_sim_time, [this] {
    if (!finished_) fail_run("exceeded max simulated time");
  });
  if (hooks_.start) hooks_.start();
  schedule_snapshot();

  while (!finished_ && engine_.step()) {
  }
  // Drained without completing: nothing left can make progress (e.g. no
  // workers ever arrived).
  if (!finished_) fail_run(identity_.drained_reason);
  // A wire still open must still be in flight: a flow that landed, died or
  // was cancelled has been closed.
  for ([[maybe_unused]] const auto& open : wires_) {
    assert(cluster_.network().flow_active(open.first) &&
           "a transfer left the network without a close");
  }

  if (injector_) {
    injector_->stop();
    report_.faults = injector_->stats();
  }
  if (factory_) {
    factory_->stop();
    report_.ha.factory_grow_events = factory_->grow_events();
    report_.ha.factory_shrink_events = factory_->shrink_events();
    report_.ha.workers_started = factory_->workers_started();
    report_.ha.workers_released = factory_->workers_released();
  }
  report_.worker_preemptions = cluster_.batch().preemptions();
  report_.task_attempts = total_attempts_;
  report_.task_failures = metrics::failed_attempts(report_.profile);
  report_.lineage_resets = lineage_resets_;
  finish_profile();
  if (obs_->enabled()) {
    obs_->txn().manager_end(engine_.now());
    obs_->finalize(engine_.now());
    report_.observation = obs_;
  }
  return std::move(report_);
}

bool RunShell::mark_sink_done(TaskId t) {
  auto& done = sink_done_[static_cast<std::size_t>(t)];
  if (done != 0) return false;
  done = 1;
  assert(sinks_outstanding_ > 0);
  --sinks_outstanding_;
  return true;
}

// ---------------------------------------------------------------------------
// Attempts.
// ---------------------------------------------------------------------------

void RunShell::open_attempt(TaskId t, std::int32_t worker,
                            std::unique_ptr<AttemptBase> attempt) {
  table_.mark_dispatched(t, worker);
  ++total_attempts_;
  attempt->span_ready = table_.at(t).ready_at;
  attempt->span_dispatched = engine_.now();
  auto& slot = attempts_[static_cast<std::size_t>(t)];
  assert(!slot && "dispatching a task with a live attempt");
  slot = std::move(attempt);
  ++attempts_live_;
}

bool RunShell::token_valid(const AttemptToken& token) const {
  const auto& st = table_.at(token.task);
  return st.attempts == token.attempt &&
         (st.state == TaskState::kDispatched ||
          st.state == TaskState::kRunning);
}

void RunShell::attempt_erase(TaskId t) {
  auto& slot = attempts_[static_cast<std::size_t>(t)];
  if (!slot) return;
  slot.reset();
  --attempts_live_;
}

void RunShell::record_attempt_span(TaskId t, std::int32_t worker,
                                   bool failed) {
  const AttemptBase& a = attempt_at<AttemptBase>(t);
  obs::AttemptSpan s;
  s.task = t;
  s.attempt = table_.at(t).attempts;
  s.worker = worker;
  s.ready_at = a.span_ready;
  s.dispatched_at = a.span_dispatched;
  s.staged_at = a.span_staged;
  s.exec_at = a.span_exec;
  s.compute_at = a.span_compute;
  s.exec_end_at = a.span_exec_end;
  s.retrieved_at = engine_.now();
  s.failed = failed;
  s.category = graph_.task(t).spec.category;
  if (txn_on()) {
    obs_->txn().span_attempt(engine_.now(), t, s.attempt, s.worker,
                             s.ready_at, s.dispatched_at, s.staged_at,
                             s.exec_at, s.compute_at, s.exec_end_at, !failed,
                             s.category);
  }
  // The Chrome span covers the worker process: from exec start to process
  // exit, or to the observed failure.
  if (trace_on() && worker >= 0 && s.exec_at > 0) {
    const Tick end = failed ? s.retrieved_at : s.exec_end_at;
    const std::string extra = hooks_.chrome_args ? hooks_.chrome_args(t) : "";
    obs_->trace().add_span(
        lane(cluster_.worker_endpoint(worker)),
        failed ? s.category + " (failed)" : s.category, s.category, s.exec_at,
        end - s.exec_at,
        "{\"task\":" + std::to_string(t) + extra +
            (failed ? ",\"failed\":true}" : "}"));
  }
  report_.profile.add_attempt(std::move(s));
}

// ---------------------------------------------------------------------------
// Transfers.
// ---------------------------------------------------------------------------

net::FlowId RunShell::start_transfer(Wire wire, Tick latency,
                                     std::function<void(net::FlowId)> landed,
                                     std::function<void()> killed) {
  const std::size_t from = wire.src;
  wire.src = cluster_.matrix_endpoint(from);
  write_transfer(&obs::TxnLog::transfer_start, wire);
  const net::FlowId flow =
      cluster_.transfer(from, wire.dst, wire.bytes, latency, std::move(landed));
  wires_.emplace(flow, OpenWire{wire, engine_.now()});
  // Registered at once: offer_transfer draws from the injector's rng.
  if (killed && injector_) {
    injector_->offer_transfer(flow, wire.bytes,
                              [this, flow, killed = std::move(killed)] {
                                fail(flow);
                                killed();
                              });
  }
  return flow;
}

std::optional<RunShell::OpenWire> RunShell::take_wire(net::FlowId flow) {
  const auto it = wires_.find(flow);
  assert(it != wires_.end() && "transfer closed with no open wire");
  if (it == wires_.end()) return std::nullopt;
  const OpenWire open = it->second;
  wires_.erase(it);
  if (injector_) injector_->forget_transfer(flow);
  return open;
}

void RunShell::land(net::FlowId flow) {
  const auto open = take_wire(flow);
  if (!open) return;
  const Wire& w = open->wire;
  record_bytes(w.src, w.dst, w.bytes);
  write_transfer(&obs::TxnLog::transfer_done, w);
  const auto is_worker = [this](std::size_t ep) {
    return ep != cluster_.manager_endpoint() && ep < cluster_.fs_endpoint();
  };
  if (trace_on() && is_worker(w.src) && is_worker(w.dst)) {
    obs_->trace().add_flow(lane(w.src), lane(w.dst),
                           identity_.peer_flow + std::to_string(w.file),
                           open->started, engine_.now());
  }
}

void RunShell::fail(net::FlowId flow) {
  if (const auto open = take_wire(flow)) {
    write_transfer(&obs::TxnLog::transfer_failed, open->wire);
  }
}

void RunShell::cancel(net::FlowId flow) {
  cluster_.network().cancel_flow(flow);
  fail(flow);
}

void RunShell::record_bytes(std::size_t src, std::size_t dst,
                            std::uint64_t bytes) {
  report_.transfers.record(src, dst, bytes);
  if (bytes_via_manager_ == nullptr) return;
  if (src == cluster_.manager_endpoint() ||
      dst == cluster_.manager_endpoint()) {
    *bytes_via_manager_ += bytes;
  } else if (src == cluster_.fs_endpoint() || dst == cluster_.fs_endpoint()) {
    *bytes_via_fs_ += bytes;
  } else {
    *bytes_peer_ += bytes;
  }
}

void RunShell::add_transfer_counters(obs::StatsRegistry& stats) {
  bytes_via_manager_ = stats.counter("xfer.bytes_via_manager");
  bytes_peer_ = stats.counter("xfer.bytes_peer");
  bytes_via_fs_ = stats.counter("xfer.bytes_via_fs");
}

void RunShell::write_transfer(
    void (obs::TxnLog::*line)(Tick, std::size_t, std::size_t, std::int64_t,
                              std::uint64_t),
    const Wire& wire) {
  if (txn_on() && wire.file != data::kInvalidFile) {
    (obs_->txn().*line)(engine_.now(), wire.src, wire.dst, wire.file,
                        wire.bytes);
  }
}

// ---------------------------------------------------------------------------
// Lifecycle.
// ---------------------------------------------------------------------------

void RunShell::on_node_up(WorkerId w) {
  if (finished_) return;
  if (txn_on()) obs_->txn().worker_connection(engine_.now(), w);
  report_.profile.worker_up(engine_.now(), w);
  hooks_.node_up(w);
}

void RunShell::on_node_down(WorkerId w) {
  if (finished_) return;
  const auto i = static_cast<std::size_t>(w);
  if (txn_on()) {
    obs_->txn().worker_disconnection(engine_.now(), w,
                                     pending_crash_[i]     ? "FAILURE"
                                     : pending_release_[i] ? "RELEASED"
                                                           : "PREEMPTED");
  }
  pending_crash_[i] = false;
  pending_release_[i] = false;
  report_.profile.worker_down(engine_.now(), w);
  hooks_.node_down(w);
}

bool RunShell::crash_worker(WorkerId w) {
  if (!cluster_.worker(w).alive) return false;
  if (pending_crash_[static_cast<std::size_t>(w)]) return false;
  report_.worker_crashes += 1;
  pending_crash_[static_cast<std::size_t>(w)] = true;
  cluster_.batch().force_preempt(static_cast<std::uint32_t>(w));
  return true;
}

void RunShell::pump() {
  if (finished_ || pumping_) return;
  pumping_ = true;
  while (!finished_) {
    const TaskId t = table_.peek_ready();
    if (t == dag::kInvalidTask) break;
    if (!precheck_inputs(t)) continue;  // task was demoted; next
    const std::int32_t slot = hooks_.place(t);
    if (slot < 0) break;  // no capacity right now
    const TaskId popped = table_.pop_ready();
    assert(popped == t);
    (void)popped;
    hooks_.dispatch(t, slot);
  }
  pumping_ = false;
}

bool RunShell::precheck_inputs(TaskId t) {
  for (TaskId dep : graph_.task(t).spec.deps) {
    if (table_.at(dep).state == TaskState::kDone &&
        !hooks_.output_available(dep)) {
      lineage_reset(dep);
    }
  }
  return table_.at(t).state == TaskState::kReady;
}

void RunShell::lineage_reset(TaskId producer) {
  const std::size_t reset =
      table_.reset_lost(producer, engine_.now(), hooks_.output_available);
  lineage_resets_ += reset;
  if (reset == 0) return;
  // Poisoned-task detector: a task whose output keeps vanishing no matter
  // how often it re-runs must not loop forever; fail with the exact task
  // and count so the operator can see what to pin down.
  auto& count = reset_counts_[static_cast<std::size_t>(producer)];
  count += 1;
  const std::uint32_t limit = options_.fault_retry.poisoned_reset_threshold;
  if (limit > 0 && count > limit) {
    std::string task = "task " + std::to_string(producer);
    if (identity_.category_in_failures) {
      task += " (" + graph_.task(producer).spec.category + ")";
    }
    fail_run(task + " poisoned: output lost " + std::to_string(count) +
             " times, exceeding the reset threshold of " +
             std::to_string(limit));
  }
}

void RunShell::check_completion() {
  if (finished_) return;
  if (table_.all_done() && sinks_outstanding_ == 0) {
    finished_ = true;
    report_.success = true;
    report_.makespan = engine_.now();
    for (TaskId sink : graph_.sinks()) {
      report_.results[sink] = table_.at(sink).result;
    }
    cluster_.batch().drain();
  }
}

void RunShell::fail_run(std::string reason) {
  if (finished_) return;
  finished_ = true;
  report_.success = false;
  report_.failure_reason = std::move(reason);
  report_.makespan = engine_.now();
  cluster_.batch().drain();
}

// ---------------------------------------------------------------------------
// Instrumentation.
// ---------------------------------------------------------------------------

void RunShell::begin_observation() {
  if (!obs_->enabled()) return;

  if (txn_on()) {
    obs_->txn().manager_start(engine_.now());
    // WAITING lines fire on every waiting->ready transition; replay the
    // tasks that were already ready when the table was built (the
    // listener cannot see those).
    table_.set_ready_listener([this](TaskId t, Tick now) {
      obs_->txn().task_waiting(now, t, graph_.task(t).spec.category,
                               table_.at(t).attempts);
    });
    for (TaskId t = 0; t < static_cast<TaskId>(graph_.size()); ++t) {
      const auto& st = table_.at(t);
      if (st.state == TaskState::kReady) {
        obs_->txn().task_waiting(st.ready_at, t, graph_.task(t).spec.category,
                                 st.attempts);
      }
    }
  }

  if (trace_on()) {
    obs_->trace().set_lane_name(lane(cluster_.manager_endpoint()),
                                identity_.manager_lane);
    for (WorkerId w = 0; w < static_cast<WorkerId>(cluster_.worker_count());
         ++w) {
      obs_->trace().set_lane_name(lane(cluster_.worker_endpoint(w)),
                                  identity_.worker_lane + std::to_string(w));
    }
    obs_->trace().set_lane_name(lane(cluster_.fs_endpoint()), "shared-fs");
  }

  if (obs_->perf_enabled()) {
    auto& stats = obs_->stats();
    stats.gauge("tasks.total",
                [this] { return static_cast<double>(graph_.size()); });
    stats.gauge("tasks.done",
                [this] { return static_cast<double>(table_.done_count()); });
    stats.gauge("tasks.ready",
                [this] { return static_cast<double>(table_.ready_count()); });
    stats.gauge("tasks.inflight",
                [this] { return static_cast<double>(attempts_live_); });
    if (hooks_.gauges) hooks_.gauges(stats);
    cluster_.batch().register_stats(stats);
    cluster_.network().register_stats(stats);
    cluster_.fs().register_stats(stats);
    obs_->perf().bind(stats);
    schedule_perf_sample();
  }
}

void RunShell::add_engine_gauges(obs::StatsRegistry& stats) {
  stats.gauge("engine.events_executed",
              [this] { return static_cast<double>(engine_.executed()); });
  stats.gauge("engine.events_pending",
              [this] { return static_cast<double>(engine_.pending()); });
}

void RunShell::schedule_perf_sample() {
  engine_.schedule_after(obs_->config().perf_sample_interval, [this] {
    if (finished_) return;
    const Tick now = engine_.now();
    obs_->perf().sample(now, obs_->stats());
    if (trace_on()) {
      obs_->trace().add_counter(lane(cluster_.manager_endpoint()),
                                "tasks inflight", now,
                                static_cast<double>(attempts_live_));
      obs_->trace().add_counter(lane(cluster_.manager_endpoint()),
                                "tasks done", now,
                                static_cast<double>(table_.done_count()));
    }
    schedule_perf_sample();
  });
}

/// Arm the profiler: static cluster/DAG shape plus the wire-level flow span
/// listener. Worker up/down and attempt spans are recorded where they
/// happen.
void RunShell::begin_profile() {
  std::vector<std::uint32_t> cores;
  cores.reserve(cluster_.worker_count());
  for (WorkerId w = 0; w < static_cast<WorkerId>(cluster_.worker_count());
       ++w) {
    cores.push_back(cluster_.worker(w).cores);
  }
  report_.profile.set_worker_cores(std::move(cores));
  for (const auto& task : graph_.tasks()) {
    report_.profile.set_deps(task.id, task.spec.deps);
  }
  cluster_.network().set_span_listener(
      [this](Tick started, Tick ended, net::FlowId id, std::uint64_t bytes,
             std::uint64_t carried, char outcome) {
        obs::FlowSpan fs;
        fs.flow = id;
        fs.bytes = bytes;
        fs.carried = carried;
        fs.started_at = started;
        fs.ended_at = ended;
        fs.outcome = outcome;
        report_.profile.add_flow(fs);
      });
}

/// Seal the span log once the makespan is known, derive the attribution
/// ledger (which supplies the reported busy fraction), and emit the
/// lifecycle Chrome-trace events when opted in.
void RunShell::finish_profile() {
  report_.profile.set_manager(loop_.total_busy_time(), loop_.operations());
  report_.profile.set_run(report_.makespan, report_.scheduler,
                          report_.success);
  const obs::AttributionLedger ledger = obs::attribute(report_.profile);
  report_.manager_busy_fraction = ledger.manager_busy_fraction;
  assert(ledger.identity_ok());
  if (trace_on() && obs_->config().trace_lifecycle_spans) {
    obs::emit_lifecycle_trace(report_.profile, obs_->trace());
  }
}

// ---------------------------------------------------------------------------
// Fault injection. With an empty schedule no injector exists and every
// injector hook in the engines is a null check.
// ---------------------------------------------------------------------------

void RunShell::begin_fault_injection() {
  if (options_.faults.empty()) return;
  injector_ = std::make_unique<fault::FaultInjector>(
      cluster_, options_.faults, options_.fault_retry, obs_.get());
  fault::FaultInjector::Hooks hooks;
  hooks.crash_worker = [this](std::int32_t w) {
    return !finished_ && crash_worker(w);
  };
  hooks.lose_cached_file = hooks_.lose_cached_file;
  hooks.crash_manager = [this] {
    if (finished_) return false;
    on_manager_crash();
    return true;
  };
  injector_->arm(std::move(hooks));
}

// ---------------------------------------------------------------------------
// Manager HA: crash handling, checkpointing, elastic factory.
// ---------------------------------------------------------------------------

void RunShell::begin_factory() {
  if (!options_.ha.factory.enabled()) return;
  ha::Factory::Hooks hooks;
  hooks.queue_depth = [this]() -> std::size_t {
    return table_.ready_count() + attempts_live_;
  };
  hooks.connected_workers = [this] { return cluster_.alive_workers(); };
  hooks.grow = [this](std::uint32_t n) {
    return cluster_.batch().start_slots(n);
  };
  hooks.shrink = [this](std::uint32_t n) { return release_idle(n); };
  factory_ = std::make_unique<ha::Factory>(engine_, options_.ha.factory,
                                           std::move(hooks));
  factory_->start();
}

/// Factory shrink: voluntarily release up to `n` connected workers the
/// engine calls releasable. Highest ids go first so the stable low-id core
/// of the pool keeps its warm state.
std::uint32_t RunShell::release_idle(std::uint32_t n) {
  std::uint32_t released = 0;
  for (WorkerId w = static_cast<WorkerId>(cluster_.worker_count()) - 1;
       w >= 0 && released < n; --w) {
    if (!cluster_.worker(w).alive || !hooks_.releasable(w)) continue;
    pending_release_[static_cast<std::size_t>(w)] = true;
    if (cluster_.batch().release_slot(static_cast<std::uint32_t>(w))) {
      ++released;
    } else {
      pending_release_[static_cast<std::size_t>(w)] = false;
    }
  }
  return released;
}

/// An injected MANAGER_CRASH landed. The crash tick and the snapshot series
/// already sit in report_.ha; ending the run here leaves the txn log with
/// its tail intact, which is exactly what ha::recover() replays.
void RunShell::on_manager_crash() {
  report_.ha.manager_crashed = true;
  report_.ha.crash_tick = engine_.now();
  fail_run("manager crashed (injected manager_crash fault)");
}

void RunShell::schedule_snapshot() {
  if (!options_.ha.snapshots_enabled()) return;
  engine_.schedule_after(options_.ha.snapshot_interval, [this] {
    if (finished_) return;
    take_snapshot();
    schedule_snapshot();
  });
}

/// Serialize the manager's logical state (ha/snapshot.h documents what is
/// deliberately excluded). The order of fields and sections is fixed:
/// recovery compares snapshot digests byte for byte, so the shell's run and
/// tasks sections, the engine's sections and the trailing injector and rng
/// sections always come out in the same sequence. The digest lands on a
/// SNAPSHOT txn anchor line and the serialization cost is charged to the
/// serial control loop.
void RunShell::take_snapshot() {
  ha::SnapshotBuilder b;

  b.section("run");
  b.field("tasks_total", graph_.size());
  b.field("tasks_done", table_.done_count());
  b.field("task_attempts", total_attempts_);
  b.field("lineage_resets", lineage_resets_);
  b.field("sinks_outstanding", sinks_outstanding_);
  b.field("worker_crashes", report_.worker_crashes);
  if (hooks_.snapshot_run_fields) b.append(hooks_.snapshot_run_fields());
  // The round-robin cursor is real scheduler state: two managers that
  // agree on everything else but disagree on the cursor dispatch the next
  // task to different workers.
  b.field_i("rr_cursor", rr_cursor_);

  b.section("tasks");
  for (TaskId t = 0; t < static_cast<TaskId>(graph_.size()); ++t) {
    const auto& st = table_.at(t);
    // One compact line per task: state/attempts/worker.
    b.field_s("t" + std::to_string(t),
              std::to_string(static_cast<int>(st.state)) + "/" +
                  std::to_string(st.attempts) + "/" +
                  std::to_string(st.worker));
  }
  // Sparse task-keyed state: per-producer lineage-reset counts (the
  // poisoned-task detector's memory) and sink-gather completion bits.
  for (TaskId t = 0; t < static_cast<TaskId>(graph_.size()); ++t) {
    const std::uint32_t n = reset_counts_[static_cast<std::size_t>(t)];
    if (n != 0) b.field("r" + std::to_string(t), n);
  }
  for (TaskId t = 0; t < static_cast<TaskId>(graph_.size()); ++t) {
    if (is_sink_[static_cast<std::size_t>(t)] && sink_done(t)) {
      b.field("s" + std::to_string(t), 1);
    }
  }

  b.append(hooks_.snapshot_sections());

  // Unconditional (zeros without an injector): a run whose only fault was
  // the manager crash itself must snapshot byte-identically to its
  // crash-stripped recovery rerun, which has no injector at all.
  {
    const fault::InjectionStats zero;
    const fault::InjectionStats& fs = injector_ ? injector_->stats() : zero;
    b.section("injector");
    b.field("faults_injected", fs.faults_injected);
    b.field("worker_crashes", fs.worker_crashes);
    b.field("cache_losses", fs.cache_losses);
    b.field("cache_loss_noops", fs.cache_loss_noops);
    b.field("transfers_killed", fs.transfers_killed);
    b.field("fs_degradations", fs.fs_degradations);
    b.field("stragglers", fs.stragglers);
    b.field("manager_crashes", fs.manager_crashes);
    b.field("transfer_retries", fs.transfer_retries);
    b.field("transfer_giveups", fs.transfer_giveups);
    b.field("backoff_wait", static_cast<std::uint64_t>(fs.backoff_wait));
    b.field("fs_degraded_time",
            static_cast<std::uint64_t>(fs.fs_degraded_time));
  }

  b.section("rng");
  b.field_rng(identity_.rng_field, rng_.state());

  ha::SnapshotRecord rec = b.finish(engine_.now(), snapshot_seq_++);
  loop_.acquire(options_.ha.snapshot_cost(rec.bytes));
  if (txn_on()) {
    obs_->txn().snapshot_write(engine_.now(), rec.seq, rec.bytes, rec.digest);
  }
  report_.ha.snapshots.push_back(std::move(rec));
}

}  // namespace hepvine::exec
