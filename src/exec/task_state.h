// Per-task runtime state shared by every scheduler implementation: the
// dependency-counting state machine that turns a static TaskGraph into a
// stream of ready tasks, plus value plumbing and retry accounting.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "dag/task_graph.h"
#include "util/units.h"

namespace hepvine::exec {

using util::Tick;

enum class TaskState : std::uint8_t {
  kWaiting,     // dependencies outstanding
  kReady,       // dispatchable
  kDispatched,  // sent to a worker, staging inputs
  kRunning,     // executing
  kDone,        // result produced and retained somewhere reachable
};

struct TaskRuntime {
  TaskState state = TaskState::kWaiting;
  std::uint32_t deps_remaining = 0;
  std::uint32_t attempts = 0;
  Tick ready_at = 0;  // phase times past readiness live in obs::AttemptSpan
  std::int32_t worker = -1;
  dag::ValuePtr result;  // set when kDone
};

/// Tracks task states, maintains the ready queue, and recomputes
/// readiness after failures (lineage resets).
///
/// Ready ordering is depth-first: among ready tasks, the one deepest in
/// the graph (longest dependency chain beneath it) dispatches first, FIFO
/// within a depth. Running reductions eagerly bounds the volume of
/// standing intermediate data — with plain FIFO, a wide map phase starves
/// the accumulators and partial results pile up on worker disks until they
/// overflow (the pathology of the paper's Fig 11, but induced by schedule
/// order rather than DAG shape).
class TaskStateTable {
 public:
  /// `depth_priority` = false degrades ordering to plain FIFO (the legacy
  /// Work Queue executor's behaviour; DaskVine forwards Dask's depth-first
  /// priorities, so TaskVine runs depth-first).
  explicit TaskStateTable(const dag::TaskGraph& graph,
                          bool depth_priority = true);

  /// Depth (longest chain of dependencies below the task); roots are 0.
  [[nodiscard]] std::uint32_t depth(dag::TaskId id) const {
    return depths_[static_cast<std::size_t>(id)];
  }

  [[nodiscard]] TaskRuntime& at(dag::TaskId id) {
    return states_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const TaskRuntime& at(dag::TaskId id) const {
    return states_[static_cast<std::size_t>(id)];
  }

  [[nodiscard]] bool all_done() const noexcept {
    return done_count_ == states_.size();
  }
  [[nodiscard]] std::size_t done_count() const noexcept {
    return done_count_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return states_.size(); }

  [[nodiscard]] std::size_t ready_count() const noexcept {
    return ready_queue_.size();
  }

  /// Pop the oldest ready task; kInvalidTask if none. Skips entries whose
  /// state changed since queueing (e.g. reset by a failure).
  dag::TaskId pop_ready();

  /// Peek without popping (same skipping rule).
  dag::TaskId peek_ready();

  /// Mark a task dispatched/running/done; `mark_done` decrements dependents'
  /// counters and enqueues newly ready tasks (recording ready_at = now).
  void mark_dispatched(dag::TaskId id, std::int32_t worker);
  void mark_running(dag::TaskId id);
  void mark_done(dag::TaskId id, dag::ValuePtr result, Tick now);

  /// Return a dispatched/running task to the ready queue (worker failed
  /// before completion). Increments attempts.
  void requeue(dag::TaskId id, Tick now);

  /// Lineage reset: a *completed* task's output was lost and is needed
  /// again. Recursively resets `id` (and any completed ancestors whose
  /// outputs are also gone, as reported by `output_available`) back to
  /// waiting/ready. Returns the number of tasks reset.
  std::size_t reset_lost(dag::TaskId id, Tick now,
                         const std::function<bool(dag::TaskId)>&
                             output_available);

  /// Gather dependency values in declaration order (all deps must be done).
  [[nodiscard]] std::vector<dag::ValuePtr> gather_inputs(dag::TaskId id) const;

  /// Observe every waiting->ready transition (initial readiness, dependency
  /// completion, requeue after failure, lineage reset). Fires after the
  /// task's state is updated; used by schedulers to emit TASK WAITING
  /// transaction-log records at the exact transition time. Tasks already
  /// ready when the listener is installed are not replayed.
  using ReadyListener = std::function<void(dag::TaskId, Tick)>;
  void set_ready_listener(ReadyListener fn) { on_ready_ = std::move(fn); }

  /// Observe every done->waiting demotion performed by `reset_lost`. Fires
  /// once per demoted task, in the (deterministic) DFS discovery order,
  /// after the whole reset set left kDone but before readiness is
  /// recomputed. The run shell's per-file consumer counts need this: a
  /// demoted consumer will complete (and release its inputs) again, so its
  /// counts come back.
  using UndoneListener = std::function<void(dag::TaskId, Tick)>;
  void set_undone_listener(UndoneListener fn) { on_undone_ = std::move(fn); }

 private:
  void enqueue_ready(dag::TaskId id, Tick now);

  struct ReadyEntry {
    std::uint32_t depth = 0;
    std::uint64_t seq = 0;
    dag::TaskId id = 0;
  };
  struct ShallowerOrLater {
    bool operator()(const ReadyEntry& a, const ReadyEntry& b) const {
      if (a.depth != b.depth) return a.depth < b.depth;  // deeper first
      return a.seq > b.seq;                              // FIFO within depth
    }
  };

  const dag::TaskGraph& graph_;
  std::vector<TaskRuntime> states_;
  std::vector<std::uint32_t> depths_;
  std::priority_queue<ReadyEntry, std::vector<ReadyEntry>, ShallowerOrLater>
      ready_queue_;
  std::uint64_t ready_seq_ = 0;
  std::size_t done_count_ = 0;
  ReadyListener on_ready_;
  UndoneListener on_undone_;
};

}  // namespace hepvine::exec
