// Coffea/DaskVine-style front end: the C++ analogue of the paper's Fig 4
// sample application and of the DaskVine connector module (Section IV-C).
//
//   auto result = coffea::Analysis("SingleMu")
//                     .files(40, 500 * util::kMB)
//                     .chunks_per_file(5)          // Fig 4's uproot option
//                     .events_per_chunk(2000)
//                     .processor(coffea::Processor::kDv3)
//                     .tree_accumulate(8)
//                     .compute(manager_options);   // runs on TaskVine
//
// `Analysis` builds the Dask-like task graph (map processors over chunks,
// hierarchical accumulation); `compute()` hands it to a scheduler backend
// the way `manager.compute(...)` does in the paper's listing, and returns
// the fully merged HistogramSet together with the run report.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "cluster/cluster.h"
#include "dag/task_graph.h"
#include "exec/scheduler.h"
#include "hep/events.h"
#include "hep/histogram.h"
#include "hep/processors.h"

namespace hepvine::coffea {

/// Built-in processors (user-defined functions also accepted).
using Processor = hep::Analysis;

/// A user-defined physics processor: chunk of events in, histograms out.
using ProcessorFn = std::function<hep::HistogramSet(const hep::EventChunk&)>;

struct ComputeResult {
  std::shared_ptr<const hep::HistogramSet> histograms;
  exec::RunReport report;
};

class Analysis {
 public:
  explicit Analysis(std::string dataset_name);

  /// Dataset shape: `count` ROOT-like files of `bytes` each.
  Analysis& files(std::uint32_t count, std::uint64_t bytes);
  /// Chunks (= tasks) per file; Fig 4's `uproot_options`.
  Analysis& chunks_per_file(std::uint32_t chunks);
  /// Real synthetic events generated and processed per chunk.
  Analysis& events_per_chunk(std::uint64_t events);
  /// Select a built-in processor...
  Analysis& processor(Processor which);
  /// ...or provide a custom one (must be pure/deterministic).
  Analysis& processor(std::string name, ProcessorFn fn);
  /// Modeled cost of one processor call (scheduling-relevant).
  Analysis& processor_costs(double cpu_seconds, std::uint64_t output_bytes,
                            std::uint64_t memory_bytes);
  /// Hierarchical accumulation with the given fan-in (default), or...
  Analysis& tree_accumulate(std::size_t arity);
  /// ...the original single-task reduction (Fig 11 left).
  Analysis& single_accumulate();
  /// Seed for dataset content and modeled costs.
  Analysis& seed(std::uint64_t seed);

  /// Build the task graph without executing (inspection/testing).
  [[nodiscard]] dag::TaskGraph build() const;

  /// Execute on a fresh simulated cluster with the TaskVine scheduler
  /// (Fig 4's `manager.compute(...)`). Throws std::runtime_error if the
  /// run fails.
  [[nodiscard]] ComputeResult compute(const cluster::ClusterSpec& cluster,
                                      const exec::RunOptions& options) const;

  /// Execute with an explicit scheduler backend (baselines, ablations).
  [[nodiscard]] ComputeResult compute(exec::SchedulerBackend& scheduler,
                                      const cluster::ClusterSpec& cluster,
                                      const exec::RunOptions& options) const;

 private:
  std::string name_;
  std::uint32_t files_ = 10;
  std::uint64_t file_bytes_ = 400 * util::kMB;
  std::uint32_t chunks_per_file_ = 5;
  std::uint64_t events_per_chunk_ = 1000;
  std::string processor_name_ = "dv3_processor";
  /// One process task's work, from its chunk's (seed, events): a built-in
  /// processor streams them through hep::run_analysis; a custom one gets
  /// the materialized chunk.
  std::function<hep::HistogramSet(std::uint64_t, std::uint64_t)> process_;
  double cpu_seconds_ = 3.5;
  std::uint64_t output_bytes_ = 50 * util::kMB;
  std::uint64_t memory_bytes_ = 2 * util::kGB;
  std::size_t arity_ = 8;  // 0 = single-node reduction
  std::uint64_t seed_ = 42;
};

}  // namespace hepvine::coffea
