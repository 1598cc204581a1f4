// The benchmark's four campaign workloads. Each is a fixed batch of
// scheduler runs built only from public APIs (apps::build_workload,
// dag::TaskGraph, cluster::paper_cluster, the scheduler backends), with
// the same parameters as the paper bench it mirrors.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "dag/task_graph.h"
#include "exec/scheduler.h"
#include "vine/vine_scheduler.h"

namespace perfbench {

enum class Sched : std::uint8_t { kVine, kWorkQueue, kDask };

/// Span name of a backend's SchedulerBackend::run ("vine.run", ...).
[[nodiscard]] const char* run_span(Sched sched);

/// A committed makespan record: the value printed with `decimals` digits.
struct Record {
  double makespan_s = 0;
  int decimals = 0;
};

/// One scheduler run of a workload.
struct RunSpec {
  std::string label;
  Sched sched = Sched::kVine;
  hepvine::vine::VineTunables tunables;
  /// Index into Workload::graphs.
  std::size_t graph = 0;
  hepvine::cluster::ClusterSpec cluster;
  hepvine::exec::RunOptions options;
  /// The paper's makespan for this run (Table I); 0 when it has none.
  double paper_makespan_s = 0;
  /// Committed records this run must reproduce exactly; checked only on
  /// the default seed at full size.
  std::optional<Record> record;
  std::optional<std::size_t> record_attempts;
  std::optional<std::uint64_t> record_events;
};

struct Workload {
  std::string name;
  /// Distinct graphs, each built once per set-up and shared by the runs
  /// that name it. Builders are deterministic.
  std::vector<std::function<hepvine::dag::TaskGraph()>> graphs;
  std::vector<RunSpec> runs;
};

[[nodiscard]] std::vector<std::string> workload_names();

/// Default seed of a workload (the seed its paper bench uses).
[[nodiscard]] std::optional<std::uint64_t> default_seed(
    const std::string& name);

/// Build the workload `name` for `seed`. `reduced` shrinks every axis for
/// quick self-tests. nullopt for an unknown name.
[[nodiscard]] std::optional<Workload> make_workload(const std::string& name,
                                                    std::uint64_t seed,
                                                    bool reduced);

[[nodiscard]] std::unique_ptr<hepvine::exec::SchedulerBackend> make_backend(
    const RunSpec& run);

}  // namespace perfbench
