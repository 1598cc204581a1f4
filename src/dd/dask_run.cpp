// Implementation of the Dask.Distributed baseline.

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>
#include <vector>

#include "dd/dask_distributed.h"
#include "exec/run_shell.h"
#include "exec/serial_resource.h"
#include "net/flow_gate.h"
#include "exec/task_state.h"
#include "exec/time_model.h"
#include "obs/observer.h"
#include "obs/span.h"
#include "sim/rng.h"

namespace hepvine::dd {

namespace {

using cluster::WorkerId;
using data::FileId;
using dag::TaskId;
using exec::RetryKind;
using exec::TaskState;
using util::Tick;

constexpr std::int32_t kNoProc = -1;

class DaskRun {
 public:
  DaskRun(const dag::TaskGraph& graph, cluster::Cluster& cluster,
          const exec::RunOptions& options, const DaskTunables& tun)
      : graph_(graph),
        cluster_(cluster),
        engine_(cluster.engine()),
        options_(options),
        tun_(tun),
        table_(graph),
        rng_(options.seed, "dask-run"),
        scheduler_(cluster.engine()),
        obs_(obs::make_observation(options.observability)),
        shell_(graph, cluster, options_, table_, scheduler_, obs_,
               exec::RunShell::Identity{
                   "dask.distributed", "scheduler", "node ", "peer key ",
                   "event queue drained before completion", false},
               hooks()) {
    build_tables();
  }

  exec::RunReport run() { return shell_.execute(); }

 private:
  // --------------------------------------------------------------------
  // One single-core worker process. `proc = node * cores_per_node + k`.
  // --------------------------------------------------------------------
  struct Proc {
    bool alive = false;
    bool imports_loaded = false;
    bool busy = false;
    std::uint32_t incarnation = 0;
    std::uint32_t restarts = 0;
    std::uint64_t mem_used = 0;
    std::vector<FileId> holding;  // result keys resident in memory
    Tick last_heartbeat_served = 0;
    /// Residue clock for this process's serialization charges: repeated
    /// sub-tick argument pickles sum exactly instead of each rounding up.
    util::TickAccumulator ser;
  };

  struct FileInfo {
    std::uint64_t size = 0;
    data::FileKind kind = data::FileKind::kIntermediate;
    TaskId producer = dag::kInvalidTask;
    std::vector<std::int32_t> holders;  // procs holding the key
    bool at_client = false;
  };

  void build_tables() {
    const auto& catalog = graph_.catalog();
    files_.resize(catalog.size());
    for (const auto& f : catalog) {
      auto& info = files_[static_cast<std::size_t>(f.id)];
      info.size = f.size;
      info.kind = f.kind;
    }
    for (const auto& task : graph_.tasks()) {
      files_[static_cast<std::size_t>(task.output_file)].producer = task.id;
    }
    cores_per_node_ = cluster_.spec().worker.cores;
    procs_.resize(static_cast<std::size_t>(cluster_.worker_count()) *
                  cores_per_node_);
    running_on_.assign(procs_.size(), dag::kInvalidTask);
    mem_per_proc_ = cluster_.spec().worker.memory / cores_per_node_;
  }

  [[nodiscard]] WorkerId node_of(std::int32_t proc) const {
    return static_cast<WorkerId>(proc / static_cast<std::int32_t>(
                                            cores_per_node_));
  }
  [[nodiscard]] TaskId& running_on(std::int32_t pid) {
    return running_on_[static_cast<std::size_t>(pid)];
  }
  [[nodiscard]] Proc& proc(std::int32_t p) {
    return procs_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] FileInfo& file(FileId f) {
    return files_[static_cast<std::size_t>(f)];
  }

  using Token = exec::AttemptToken;

  struct Attempt : exec::AttemptBase {
    std::int32_t proc = kNoProc;
  };

  /// The engine's side of the run lifecycle (exec/run_shell.h).
  exec::RunShell::Hooks hooks() {
    exec::RunShell::Hooks h;
    // Graph submission: the scheduler loop ingests every task definition
    // before it can dispatch or service heartbeats.
    h.start = [this] {
      scheduler_.acquire(static_cast<Tick>(graph_.size()) *
                         tun_.graph_intake_cost_per_task);
      schedule_heartbeats();
    };
    h.node_up = [this](WorkerId w) { on_node_up(w); };
    h.node_down = [this](WorkerId w) { on_node_down(w); };
    h.lose_cached_file = [this](WorkerId w, FileId f) {
      return lose_held_key(w, f);
    };
    h.output_available = [this](TaskId p) {
      return key_available(graph_.task(p).output_file);
    };
    h.place = [this](TaskId t) { return choose_proc(t); };
    h.dispatch = [this](TaskId t, std::int32_t pid) { dispatch(t, pid); };
    h.release_attempt = [this](TaskId t) { release_attempt(t); };
    // A key no consumer needs any more leaves process memory (what real
    // Dask does); lineage can no longer recover it from there.
    h.file_dead = [this](FileId f) { lose_held_key(cluster::kNoWorker, f); };
    h.gather_sink = [this](TaskId t, WorkerId node) { gather_sink(t, node); };
    h.releasable = [this](WorkerId w) { return node_releasable(w); };
    h.gauges = [this](obs::StatsRegistry& stats) { add_gauges(stats); };
    h.chrome_args = [this](TaskId t) {
      return ",\"proc\":" +
             std::to_string(shell_.attempt_at<Attempt>(t).proc);
    };
    h.audit = [this] { audit(); };
    return h;
  }

  void add_gauges(obs::StatsRegistry& stats) {
    stats.gauge("procs.alive", [this] {
      std::size_t n = 0;
      for (const Proc& p : procs_) n += p.alive ? 1 : 0;
      return static_cast<double>(n);
    });
    stats.gauge("procs.busy", [this] {
      std::size_t n = 0;
      for (const Proc& p : procs_) n += (p.alive && p.busy) ? 1 : 0;
      return static_cast<double>(n);
    });
    stats.gauge("scheduler.backlog", [this] {
      return static_cast<double>(scheduler_.backlog());
    });
    stats.gauge("scheduler.busy_fraction", [this] {
      const Tick now = engine_.now();
      if (now <= 0) return 0.0;
      return std::min(1.0, static_cast<double>(scheduler_.total_busy_time()) /
                               static_cast<double>(now));
    });
    shell_.add_engine_gauges(stats);
  }

  // --------------------------------------------------------------------
  // Node / process lifecycle.
  // --------------------------------------------------------------------
  void on_node_up(WorkerId w) {
    for (std::uint32_t k = 0; k < cores_per_node_; ++k) {
      auto& p = proc(proc_id(w, k));
      p = Proc{};
      p.alive = true;
      p.last_heartbeat_served = engine_.now();
    }
    shell_.pump();
  }

  void on_node_down(WorkerId w) {
    for (std::uint32_t k = 0; k < cores_per_node_; ++k) {
      kill_proc(proc_id(w, k), /*restart=*/false);
      if (shell_.finished()) return;
    }
    shell_.pump();
  }

  [[nodiscard]] std::int32_t proc_id(WorkerId node, std::uint32_t k) const {
    return static_cast<std::int32_t>(node) *
               static_cast<std::int32_t>(cores_per_node_) +
           static_cast<std::int32_t>(k);
  }

  /// Kill one worker process, dropping its in-memory results and failing
  /// its running task. If `restart`, schedule a fresh incarnation.
  void kill_proc(std::int32_t pid, bool restart) {
    Proc& p = proc(pid);
    if (!p.alive) return;
    p.alive = false;
    p.incarnation += 1;
    p.restarts += 1;

    // Drop held results; lost keys are rediscovered lazily.
    for (FileId f : p.holding) {
      auto& hs = file(f).holders;
      hs.erase(std::remove(hs.begin(), hs.end(), pid), hs.end());
    }
    p.holding.clear();
    p.mem_used = 0;
    p.imports_loaded = false;

    // Fail a running task, if any.
    if (running_on(pid) != dag::kInvalidTask) {
      const TaskId t = running_on(pid);
      running_on(pid) = dag::kInvalidTask;
      shell_.fail_attempt(t);
      if (shell_.finished()) return;
    }
    p.busy = false;

    if (p.restarts > tun_.max_restarts_per_proc) {
      shell_.fail_run("worker process crash loop (proc " + std::to_string(pid) +
               " restarted " + std::to_string(p.restarts) + " times)");
      return;
    }
    if (restart) {
      shell_.report().worker_crashes += 1;
      const std::uint32_t incarnation = p.incarnation;
      const WorkerId node = node_of(pid);
      engine_.schedule_after(tun_.restart_delay, [this, pid, incarnation,
                                                  node] {
        if (shell_.finished()) return;
        Proc& q = proc(pid);
        if (q.incarnation != incarnation || !cluster_.worker(node).alive) {
          return;
        }
        q.alive = true;
        q.busy = false;
        q.last_heartbeat_served = engine_.now();
        shell_.pump();
      });
    }
  }

  // --------------------------------------------------------------------
  // Fault injection. Node crashes route through the batch system like
  // vine's; "cache loss" drops in-memory result keys; only transfers with
  // a retry closure (dataset reads, peer key fetches, sink gathers) are
  // kill targets. No injector = all no-ops.
  // --------------------------------------------------------------------
  /// Drop the in-memory result key `f` from every process on node `w`
  /// (w = kNoWorker: from every holder). Lost keys are rediscovered at the
  /// next precheck or fetch and lineage-reset their producer. Also
  /// Hooks::lose_cached_file.
  std::size_t lose_held_key(WorkerId w, FileId f) {
    if (shell_.finished() || f < 0 ||
        static_cast<std::size_t>(f) >= files_.size()) {
      return 0;
    }
    auto& info = file(f);
    std::size_t lost = 0;
    for (auto it = info.holders.begin(); it != info.holders.end();) {
      const std::int32_t pid = *it;
      if (w != cluster::kNoWorker && node_of(pid) != w) {
        ++it;
        continue;
      }
      Proc& p = proc(pid);
      p.mem_used = info.size > p.mem_used ? 0 : p.mem_used - info.size;
      auto& hold = p.holding;
      hold.erase(std::remove(hold.begin(), hold.end(), f), hold.end());
      it = info.holders.erase(it);
      ++lost;
    }
    return lost;
  }

  // --------------------------------------------------------------------
  // Heartbeats: the scheduler loop must service every process's heartbeat
  // within the timeout, or the process is declared dead.
  // --------------------------------------------------------------------
  void schedule_heartbeats() {
    engine_.schedule_after(tun_.heartbeat_interval, [this] {
      if (shell_.finished()) return;
      for (std::int32_t pid = 0;
           pid < static_cast<std::int32_t>(procs_.size()); ++pid) {
        if (!proc(pid).alive) continue;
        const std::uint32_t incarnation = proc(pid).incarnation;
        scheduler_.acquire_then(tun_.heartbeat_cost, [this, pid,
                                                      incarnation] {
          if (shell_.finished()) return;
          Proc& p = proc(pid);
          if (!p.alive || p.incarnation != incarnation) return;
          p.last_heartbeat_served = engine_.now();
        });
      }
      // Check for timed-out processes (their heartbeats are stuck behind
      // the scheduler backlog).
      for (std::int32_t pid = 0;
           pid < static_cast<std::int32_t>(procs_.size()); ++pid) {
        Proc& p = proc(pid);
        if (p.alive && engine_.now() - p.last_heartbeat_served >
                           tun_.heartbeat_timeout) {
          kill_proc(pid, /*restart=*/true);
          if (shell_.finished()) return;
        }
      }
      schedule_heartbeats();
      sample_cache();
    });
  }

  void sample_cache() {
    // Report per-node in-memory result bytes as "cache" usage.
    const Tick now = engine_.now();
    for (WorkerId w = 0;
         w < static_cast<WorkerId>(cluster_.worker_count()); ++w) {
      std::uint64_t bytes = 0;
      for (std::uint32_t k = 0; k < cores_per_node_; ++k) {
        bytes += proc(proc_id(w, k)).mem_used;
      }
      if (cluster_.worker(w).alive) {
        shell_.report().cache.sample(static_cast<std::size_t>(w), now, bytes);
      }
    }
  }

  // --------------------------------------------------------------------
  // Placement: a free process, preferring nodes holding input bytes.
  // --------------------------------------------------------------------
  [[nodiscard]] bool key_available(FileId f) {
    return file(f).at_client || !file(f).holders.empty();
  }

  std::int32_t choose_proc(TaskId t) {
    // Prefer a free process on a node already holding input bytes; fall
    // back to round-robin over free processes.
    const auto& task = graph_.task(t);
    std::int32_t best = kNoProc;
    std::uint64_t best_bytes = 0;
    for (TaskId dep : task.spec.deps) {
      const FileId f = graph_.task(dep).output_file;
      for (std::int32_t holder : file(f).holders) {
        const WorkerId node = node_of(holder);
        if (!cluster_.worker(node).alive) continue;
        for (std::uint32_t k = 0; k < cores_per_node_; ++k) {
          const std::int32_t cand = proc_id(node, k);
          Proc& p = proc(cand);
          if (!p.alive || p.busy) continue;
          const std::uint64_t bytes = file(f).size;
          if (best == kNoProc || bytes > best_bytes) {
            best = cand;
            best_bytes = bytes;
          }
          break;  // one free proc per node is enough to consider
        }
      }
    }
    if (best != kNoProc) return best;
    const auto n = static_cast<std::int32_t>(procs_.size());
    for (std::int32_t i = 0; i < n; ++i) {
      const std::int32_t pid = (shell_.rr_cursor() + i) % n;
      Proc& p = proc(pid);
      if (p.alive && !p.busy && cluster_.worker(node_of(pid)).alive) {
        shell_.rr_cursor() = (pid + 1) % n;
        return pid;
      }
    }
    return kNoProc;
  }

  // --------------------------------------------------------------------
  // Dispatch, staging, execution.
  // --------------------------------------------------------------------
  void dispatch(TaskId t, std::int32_t pid) {
    auto& attempt = shell_.begin_attempt<Attempt>(t, node_of(pid));
    Proc& p = proc(pid);
    p.busy = true;
    running_on(pid) = t;
    attempt.proc = pid;
    const Token token = shell_.token(t);
    shell_.send_attempt(token, tun_.dispatch_cost,
                        options_.python.argument_bytes,
                        [this, token, pid] { begin_staging(token, pid); });
  }

  void begin_staging(const Token& token, std::int32_t pid) {
    const auto& task = graph_.task(token.task);
    auto& attempt = shell_.attempt_at<Attempt>(token.task);
    attempt.span_staged = engine_.now();

    std::vector<std::pair<FileId, bool>> needed;  // (file, is_dataset)
    for (FileId f : task.spec.input_files) needed.emplace_back(f, true);
    for (TaskId dep : task.spec.deps) {
      const FileId f = graph_.task(dep).output_file;
      // Already resident in this very process?
      if (std::find(file(f).holders.begin(), file(f).holders.end(), pid) ==
          file(f).holders.end()) {
        needed.emplace_back(f, false);
      }
    }
    attempt.staging_outstanding = static_cast<std::uint32_t>(needed.size());
    if (needed.empty()) {
      start_exec(token, pid);
      return;
    }
    for (const auto& [f, is_dataset] : needed) {
      fetch_key(f, is_dataset, pid, token);
    }
  }

  void fetch_key(FileId f, bool is_dataset, std::int32_t pid,
                 const Token& token) {
    const WorkerId dst_node = node_of(pid);
    auto arrival = [this, token, pid, f](bool ok) {
      if (!shell_.token_valid(token)) return;
      // The input landed or is lost: either way its kill episode is over.
      shell_.end_episode({RetryKind::kKey, token.task, f});
      if (!ok) {
        // Lost key: fail this attempt and lineage-reset the producer.
        shell_.fail_attempt(token.task);
        if (shell_.finished()) return;
        const TaskId producer = file(f).producer;
        if (producer != dag::kInvalidTask &&
            table_.at(producer).state == TaskState::kDone) {
          shell_.lineage_reset(producer);
        }
        shell_.pump();
        return;
      }
      auto& att = shell_.attempt_at<Attempt>(token.task);
      if (--att.staging_outstanding == 0) start_exec(token, pid);
    };

    if (is_dataset) {
      shell_.fs_gate().submit([this, f, arrival, pid,
                               token](net::FlowGate::SlotToken slot) {
        start_key_flow(cluster_.fs_endpoint(), 0, f, /*is_dataset=*/true, pid,
                       token, arrival, std::move(slot));
      });
      return;
    }

    // Fetch from a holder process (dask workers serve each other
    // directly). Same-node copies go over loopback.
    const auto& holders = file(f).holders;
    std::int32_t src = kNoProc;
    for (std::int32_t h : holders) {
      if (proc(h).alive) {
        src = h;
        break;
      }
    }
    if (src == kNoProc) {
      // Only sinks are gathered to the client, and nothing consumes them.
      assert(!file(f).at_client);
      arrival(false);
      return;
    }
    const WorkerId src_node = node_of(src);
    if (src_node == dst_node) {
      const Tick copy = util::transfer_time(
          file(f).size, tun_.loopback_bytes_per_sec);
      engine_.schedule_after(copy, [arrival] { arrival(true); });
      return;
    }
    start_key_flow(cluster_.worker_endpoint(src_node),
                   cluster_.control_rtt() / 2, f, /*is_dataset=*/false, pid,
                   token, arrival, nullptr);
  }

  /// Move key or dataset `f` from endpoint `src` to `pid`'s node. On a
  /// kill one unit of this input's transfer-retry budget is spent and the
  /// fetch restarts from scratch after backoff — a peer source that was
  /// itself preempted in the meantime is re-resolved, datasets re-read the
  /// durable FS. Past the budget the attempt takes the lost-input path.
  void start_key_flow(std::size_t src, Tick latency, FileId f,
                      bool is_dataset, std::int32_t pid, const Token& token,
                      std::function<void(bool)> arrival,
                      net::FlowGate::SlotToken slot) {
    shell_.start_transfer(
        {src, cluster_.worker_endpoint(node_of(pid)), f, file(f).size},
        latency,
        [this, arrival, slot = std::move(slot)](net::FlowId flow) {
          shell_.land(flow);
          arrival(true);
        },
        {.episode = {RetryKind::kKey, token.task, f},
         .killed = [this, token] { return shell_.token_valid(token); },
         .again = [this, f, is_dataset, pid, token] {
           if (shell_.token_valid(token)) fetch_key(f, is_dataset, pid, token);
         },
         .give_up = [arrival] { arrival(false); }});
  }

  void start_exec(const Token& token, std::int32_t pid) {
    shell_.start_running(token.task);
    const auto& task = graph_.task(token.task);
    const auto& node = cluster_.worker(node_of(pid));
    Proc& p = proc(pid);

    // Charge the argument pickle through the process's residue clock so
    // back-to-back sub-tick tuples sum exactly (util::TickAccumulator).
    const Tick pre = options_.python.serialize_time_acc(
        options_.python.argument_bytes, p.ser);
    const Tick compute = exec::modeled_exec_ticks(
        task, node.effective_speed(), options_.exec_time_jitter, rng_);

    // The first task in a process pays a cold interpreter plus the full
    // import stack. Dask workers have no TaskVine-style environment
    // distribution — the software stack lives on the shared filesystem,
    // so every process's imports hit the metadata server and data path
    // (a 300-process start is an import storm).
    const bool cold = !p.imports_loaded;
    p.imports_loaded = true;
    shell_.compute(
        token, cold ? pre + options_.python.interpreter_startup : pre, compute,
        cold,
        [this, token, pid, incarnation = p.incarnation] {
          return shell_.token_valid(token) &&
                 proc(pid).incarnation == incarnation;
        },
        [this, token, pid] { complete_exec(token, pid); });
  }

  void complete_exec(const Token& token, std::int32_t pid) {
    const TaskId t = token.task;
    const auto& task = graph_.task(t);
    Proc& p = proc(pid);

    // Hold the result key in process memory; exceeding the memory slice
    // kills the process (nanny behaviour).
    p.mem_used += task.spec.output_bytes;
    if (p.mem_used > mem_per_proc_) {
      kill_proc(pid, /*restart=*/true);
      shell_.pump();
      return;
    }
    p.holding.push_back(task.output_file);
    file(task.output_file).holders.push_back(pid);

    dag::ValuePtr value = shell_.evaluate(t);
    p.busy = false;
    running_on(pid) = dag::kInvalidTask;
    shell_.succeed(token, tun_.result_cost + cluster_.control_rtt() / 2,
                   std::move(value));
  }

  void gather_sink(TaskId t, WorkerId node) {
    const FileId f = graph_.task(t).output_file;
    // Killed gathers retry from the same node after backoff, without a
    // cap: the result key stays in the source process's memory, so the
    // stream can simply re-open.
    shell_.mgr_gate().submit([this, t, f, node](net::FlowGate::SlotToken slot) {
      shell_.start_transfer(
          {cluster_.worker_endpoint(node), cluster_.manager_endpoint(), f,
           file(f).size},
          cluster_.control_rtt() / 2,
          [this, t, f, slot = std::move(slot)](net::FlowId flow) {
            shell_.land(flow);
            file(f).at_client = true;
            shell_.end_episode({RetryKind::kSink, t});
            shell_.mark_sink_done(t);
            shell_.check_completion();
          },
          {.episode = {RetryKind::kSink, t}, .again = [this, t, node] {
             if (!shell_.sink_done(t)) gather_sink(t, node);
           }});
    });
  }

  /// Factory shrink: a node may go when all its processes are idle and
  /// hold no result keys (releasing a holder would force lineage resets).
  [[nodiscard]] bool node_releasable(WorkerId w) const {
    for (std::uint32_t k = 0; k < cores_per_node_; ++k) {
      const Proc& p = procs_[static_cast<std::size_t>(proc_id(w, k))];
      if (p.alive && (p.busy || !p.holding.empty())) return false;
    }
    return true;
  }

  /// Hooks::release_attempt: the attempt's input fetches end with it, and
  /// a process it still occupies (it failed before exiting) is free.
  void release_attempt(TaskId t) {
    const auto& spec = graph_.task(t).spec;
    for (FileId f : spec.input_files) {
      shell_.end_episode({RetryKind::kKey, t, f});
    }
    for (TaskId dep : spec.deps) {
      shell_.end_episode({RetryKind::kKey, t, graph_.task(dep).output_file});
    }
    const std::int32_t pid = shell_.attempt_at<Attempt>(t).proc;
    if (running_on(pid) == t) {
      running_on(pid) = dag::kInvalidTask;
      if (proc(pid).alive) proc(pid).busy = false;
    }
  }

  /// Hooks::audit: no process is busy, and every live one holds only sink
  /// keys (every other key died with its last consumer).
  void audit() {
    for (const Proc& p : procs_) {
      assert(!p.busy);
      for ([[maybe_unused]] FileId f : p.holding) {
        assert(shell_.is_sink(file(f).producer) && "dead key outlived run");
      }
    }
  }

  // --------------------------------------------------------------------
  const dag::TaskGraph& graph_;
  cluster::Cluster& cluster_;
  sim::Engine& engine_;
  const exec::RunOptions options_;
  const DaskTunables tun_;

  exec::TaskStateTable table_;
  sim::Rng rng_;
  exec::SerialResource scheduler_;
  std::vector<Proc> procs_;
  std::vector<FileInfo> files_;
  /// Task running on each process slot, dense by pid; kInvalidTask when
  /// the slot is idle.
  std::vector<TaskId> running_on_;

  std::shared_ptr<obs::RunObservation> obs_;

  std::uint32_t cores_per_node_ = 1;
  std::uint64_t mem_per_proc_ = 0;

  exec::RunShell shell_;
};

}  // namespace

exec::RunReport DaskDistScheduler::run(const dag::TaskGraph& graph,
                                       cluster::Cluster& cluster,
                                       const exec::RunOptions& options) {
  DaskRun engine(graph, cluster, options, tun_);
  return engine.run();
}

}  // namespace hepvine::dd
