// The task graph (DAG manager layer of the paper's stack, Section II-B).
//
// A TaskGraph owns a FileCatalog plus a set of tasks. Each task consumes
// the outputs of its dependency tasks and any number of dataset input
// files, runs a pure compute closure, and produces one output file whose
// modeled size is declared up front. The graph is acyclic by construction:
// a task may only depend on already-registered tasks.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "data/file_catalog.h"
#include "dag/value.h"
#include "util/units.h"

namespace hepvine::dag {

using TaskId = std::int64_t;
inline constexpr TaskId kInvalidTask = -1;

struct TaskSpec {
  /// Display/trace category, e.g. "preprocess", "process", "accumulate".
  std::string category = "task";
  /// Name of the (remote) function this task invokes. Tasks sharing a
  /// function share serialized bodies and serverless library slots.
  std::string function = "fn";
  /// Upstream tasks whose outputs this task consumes (in order).
  std::vector<TaskId> deps;
  /// Dataset input files read from shared storage (in addition to deps).
  std::vector<data::FileId> input_files;
  /// Pure computation over dependency values.
  ComputeFn fn;
  /// Modeled CPU time at unit node speed.
  double cpu_seconds = 1.0;
  /// Modeled size of the produced output file.
  std::uint64_t output_bytes = 1 * util::kMB;
  /// Peak working memory.
  std::uint64_t memory_bytes = 2 * util::kGB;
};

struct Task {
  TaskId id = kInvalidTask;
  TaskSpec spec;
  data::FileId output_file = data::kInvalidFile;
  std::vector<TaskId> dependents;  // reverse edges, filled by add_task
};

class TaskGraph {
 public:
  TaskGraph() = default;
  TaskGraph(TaskGraph&&) = default;
  TaskGraph& operator=(TaskGraph&&) = default;

  /// Register a dataset input file in the graph's catalog.
  data::FileId add_input_file(std::string name, std::uint64_t bytes,
                              std::uint64_t content_seed = 0) {
    return catalog_.add(std::move(name), data::FileKind::kDatasetInput, bytes,
                        content_seed);
  }

  /// Add a task. All deps must already exist; throws std::invalid_argument
  /// otherwise (this is what keeps the graph acyclic).
  TaskId add_task(TaskSpec spec);

  [[nodiscard]] std::size_t size() const noexcept { return tasks_.size(); }
  [[nodiscard]] const Task& task(TaskId id) const {
    return tasks_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] Task& task(TaskId id) {
    return tasks_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const std::vector<Task>& tasks() const noexcept {
    return tasks_;
  }
  [[nodiscard]] data::FileCatalog& catalog() noexcept { return catalog_; }
  [[nodiscard]] const data::FileCatalog& catalog() const noexcept {
    return catalog_;
  }

  /// Tasks with no dependents (workflow results).
  [[nodiscard]] std::vector<TaskId> sinks() const;
  /// Tasks with no dependencies (immediately runnable).
  [[nodiscard]] std::vector<TaskId> roots() const;

  /// Topological order (ids ascending already satisfies it by construction,
  /// but this validates the invariant and is what executors iterate).
  [[nodiscard]] std::vector<TaskId> topo_order() const;

  /// Length of the critical path in modeled CPU-seconds.
  [[nodiscard]] double critical_path_seconds() const;

  /// Number of tasks per category.
  [[nodiscard]] std::map<std::string, std::size_t> category_counts() const;

  /// Bytes of dataset input consumed (each distinct input file counted
  /// once).
  [[nodiscard]] std::uint64_t input_bytes() const {
    return catalog_.total_bytes(data::FileKind::kDatasetInput);
  }

 private:
  data::FileCatalog catalog_;
  std::vector<Task> tasks_;
};

}  // namespace hepvine::dag
