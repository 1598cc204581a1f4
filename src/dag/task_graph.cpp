#include "dag/task_graph.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace hepvine::dag {

TaskId TaskGraph::add_task(TaskSpec spec) {
  const auto id = static_cast<TaskId>(tasks_.size());
  for (TaskId dep : spec.deps) {
    if (dep < 0 || dep >= id) {
      throw std::invalid_argument(
          "task dependency must reference an existing task (got " +
          std::to_string(dep) + " for task " + std::to_string(id) + ")");
    }
  }
  for (data::FileId f : spec.input_files) {
    if (f < 0 || static_cast<std::size_t>(f) >= catalog_.size()) {
      throw std::invalid_argument("unknown input file id " +
                                  std::to_string(f));
    }
  }

  Task task;
  task.id = id;
  task.output_file =
      catalog_.add(spec.category + "-out-" + std::to_string(id),
                   data::FileKind::kIntermediate, spec.output_bytes,
                   static_cast<std::uint64_t>(id));
  task.spec = std::move(spec);
  for (TaskId dep : task.spec.deps) {
    tasks_[static_cast<std::size_t>(dep)].dependents.push_back(id);
  }
  tasks_.push_back(std::move(task));
  return id;
}

std::vector<TaskId> TaskGraph::sinks() const {
  std::vector<TaskId> out;
  for (const auto& t : tasks_) {
    if (t.dependents.empty()) out.push_back(t.id);
  }
  return out;
}

std::vector<TaskId> TaskGraph::roots() const {
  std::vector<TaskId> out;
  for (const auto& t : tasks_) {
    if (t.spec.deps.empty()) out.push_back(t.id);
  }
  return out;
}

std::vector<TaskId> TaskGraph::topo_order() const {
  // Ids ascending are a valid topological order by construction; verify the
  // invariant anyway so corruption is caught loudly.
  std::vector<TaskId> order;
  order.reserve(tasks_.size());
  for (const auto& t : tasks_) {
    for (TaskId dep : t.spec.deps) {
      if (dep >= t.id) throw std::logic_error("task graph not topological");
    }
    order.push_back(t.id);
  }
  return order;
}

double TaskGraph::critical_path_seconds() const {
  std::vector<double> longest(tasks_.size(), 0.0);
  double best = 0.0;
  for (const auto& t : tasks_) {
    double start = 0.0;
    for (TaskId dep : t.spec.deps) {
      start = std::max(start, longest[static_cast<std::size_t>(dep)]);
    }
    longest[static_cast<std::size_t>(t.id)] = start + t.spec.cpu_seconds;
    best = std::max(best, longest[static_cast<std::size_t>(t.id)]);
  }
  return best;
}

std::map<std::string, std::size_t> TaskGraph::category_counts() const {
  std::map<std::string, std::size_t> counts;
  for (const auto& t : tasks_) counts[t.spec.category] += 1;
  return counts;
}

}  // namespace hepvine::dag
