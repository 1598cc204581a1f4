#include "exec/task_state.h"

#include <cassert>
#include <utility>

namespace hepvine::exec {

TaskStateTable::TaskStateTable(const dag::TaskGraph& graph,
                               bool depth_priority)
    : graph_(graph) {
  states_.resize(graph.size());
  depths_.resize(graph.size(), 0);
  for (const auto& task : graph.tasks()) {
    std::uint32_t depth = 0;
    for (dag::TaskId dep : task.spec.deps) {
      depth = std::max(depth, depths_[static_cast<std::size_t>(dep)] + 1);
    }
    depths_[static_cast<std::size_t>(task.id)] = depth;
  }
  if (!depth_priority) {
    // Uniform depths degrade the ready queue to pure FIFO.
    std::fill(depths_.begin(), depths_.end(), 0u);
  }
  for (const auto& task : graph.tasks()) {
    auto& st = states_[static_cast<std::size_t>(task.id)];
    st.deps_remaining = static_cast<std::uint32_t>(task.spec.deps.size());
    if (st.deps_remaining == 0) {
      enqueue_ready(task.id, 0);
    }
  }
}

void TaskStateTable::enqueue_ready(dag::TaskId id, Tick now) {
  auto& st = states_[static_cast<std::size_t>(id)];
  st.state = TaskState::kReady;
  st.ready_at = now;
  ready_queue_.push(
      ReadyEntry{depths_[static_cast<std::size_t>(id)], ready_seq_++, id});
  if (on_ready_) on_ready_(id, now);
}

dag::TaskId TaskStateTable::pop_ready() {
  while (!ready_queue_.empty()) {
    const dag::TaskId id = ready_queue_.top().id;
    ready_queue_.pop();
    if (states_[static_cast<std::size_t>(id)].state == TaskState::kReady) {
      return id;
    }
    // Stale entry (task was demoted or dispatched via another path); skip.
  }
  return dag::kInvalidTask;
}

dag::TaskId TaskStateTable::peek_ready() {
  while (!ready_queue_.empty()) {
    const dag::TaskId id = ready_queue_.top().id;
    if (states_[static_cast<std::size_t>(id)].state == TaskState::kReady) {
      return id;
    }
    ready_queue_.pop();
  }
  return dag::kInvalidTask;
}

void TaskStateTable::mark_dispatched(dag::TaskId id, std::int32_t worker) {
  auto& st = states_[static_cast<std::size_t>(id)];
  assert(st.state == TaskState::kReady);
  st.state = TaskState::kDispatched;
  st.worker = worker;
  st.attempts += 1;
}

void TaskStateTable::mark_running(dag::TaskId id) {
  auto& st = states_[static_cast<std::size_t>(id)];
  assert(st.state == TaskState::kDispatched);
  st.state = TaskState::kRunning;
}

void TaskStateTable::mark_done(dag::TaskId id, dag::ValuePtr result,
                               Tick now) {
  auto& st = states_[static_cast<std::size_t>(id)];
  assert(st.state == TaskState::kRunning ||
         st.state == TaskState::kDispatched);
  st.state = TaskState::kDone;
  st.result = std::move(result);
  ++done_count_;
  for (dag::TaskId dep_id : graph_.task(id).dependents) {
    auto& dep = states_[static_cast<std::size_t>(dep_id)];
    if (dep.state != TaskState::kWaiting) continue;
    assert(dep.deps_remaining > 0);
    if (--dep.deps_remaining == 0) {
      enqueue_ready(dep_id, now);
    }
  }
}

void TaskStateTable::requeue(dag::TaskId id, Tick now) {
  auto& st = states_[static_cast<std::size_t>(id)];
  assert(st.state == TaskState::kDispatched ||
         st.state == TaskState::kRunning);
  st.worker = -1;
  enqueue_ready(id, now);
}

std::size_t TaskStateTable::reset_lost(
    dag::TaskId id, Tick now,
    const std::function<bool(dag::TaskId)>& output_available) {
  if (states_[static_cast<std::size_t>(id)].state != TaskState::kDone) {
    return 0;
  }

  // Phase 1: DFS over completed ancestors whose outputs are also gone.
  std::vector<dag::TaskId> to_reset;
  std::vector<dag::TaskId> stack{id};
  std::vector<bool> visited(states_.size(), false);
  visited[static_cast<std::size_t>(id)] = true;
  while (!stack.empty()) {
    const dag::TaskId cur = stack.back();
    stack.pop_back();
    to_reset.push_back(cur);
    for (dag::TaskId dep : graph_.task(cur).spec.deps) {
      const auto idx = static_cast<std::size_t>(dep);
      if (visited[idx]) continue;
      if (states_[idx].state == TaskState::kDone && !output_available(dep)) {
        visited[idx] = true;
        stack.push_back(dep);
      }
    }
  }

  // Phase 2: demote the reset set to waiting.
  for (dag::TaskId t : to_reset) {
    auto& st = states_[static_cast<std::size_t>(t)];
    st.state = TaskState::kWaiting;
    st.result.reset();
    st.worker = -1;
    --done_count_;
  }
  if (on_undone_) {
    for (dag::TaskId t : to_reset) on_undone_(t, now);
  }

  // Phase 3: dependents of reset tasks must wait for them again. Dependents
  // inside the reset set get recomputed in phase 4; dispatched/running/done
  // dependents already hold (or no longer need) the data.
  for (dag::TaskId t : to_reset) {
    for (dag::TaskId dep_id : graph_.task(t).dependents) {
      const auto idx = static_cast<std::size_t>(dep_id);
      if (visited[idx]) continue;  // in reset set
      auto& dep = states_[idx];
      if (dep.state == TaskState::kReady) {
        dep.state = TaskState::kWaiting;
        dep.deps_remaining += 1;
      } else if (dep.state == TaskState::kWaiting) {
        dep.deps_remaining += 1;
      }
    }
  }

  // Phase 4: recompute readiness of the reset set itself.
  for (dag::TaskId t : to_reset) {
    auto& st = states_[static_cast<std::size_t>(t)];
    std::uint32_t remaining = 0;
    for (dag::TaskId dep : graph_.task(t).spec.deps) {
      if (states_[static_cast<std::size_t>(dep)].state != TaskState::kDone) {
        ++remaining;
      }
    }
    st.deps_remaining = remaining;
    if (remaining == 0) {
      enqueue_ready(t, now);
    }
  }
  return to_reset.size();
}

std::vector<dag::ValuePtr> TaskStateTable::gather_inputs(
    dag::TaskId id) const {
  const auto& deps = graph_.task(id).spec.deps;
  std::vector<dag::ValuePtr> inputs;
  inputs.reserve(deps.size());
  for (dag::TaskId dep : deps) {
    const auto& st = states_[static_cast<std::size_t>(dep)];
    assert(st.state == TaskState::kDone && st.result);
    inputs.push_back(st.result);
  }
  return inputs;
}

}  // namespace hepvine::exec
