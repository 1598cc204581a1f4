// The paper's application workloads (Table II):
//
//   | Application  | Tasks  | Input data |
//   |--------------|--------|------------|
//   | DV3-Small    | ~0.4k  | 25 GB      |
//   | DV3-Medium   | ~2.9k  | 200 GB     |
//   | DV3-Large    | ~17k   | 1.2 TB     |
//   | DV3-Huge     | ~185k  | 1.2 TB     |
//   | RS-TriPhoton | ~4.6k  | 500 GB     |
//
// DV3 maps a processor over dataset chunks and accumulates histograms
// hierarchically. DV3-Huge reuses the same 1.2 TB but performs far more
// computation: each chunk is skimmed once (10k initially-runnable tasks),
// then 16 systematic-variation analyses consume every skim before a wide
// accumulation. RS-TriPhoton processes 20 datasets whose per-dataset
// partial results are large — the workload whose reduction topology drives
// the paper's Fig 11.
//
// Every task's closure does the real physics (synthetic events, real
// selections, real histogram fills), while cpu_seconds / output_bytes model
// the production-scale costs. `events_per_chunk` controls how much real
// computation backs each task; benches keep it modest for wall-clock speed.
#pragma once

#include <cstdint>
#include <string>

#include "dag/task_graph.h"
#include "hep/processors.h"

namespace hepvine::apps {

using hep::Analysis;

enum class ReductionShape : std::uint8_t {
  kTree,        // hierarchical (the paper's fix)
  kSingleNode,  // one reduction task per dataset (the original topology)
};

struct WorkloadSpec {
  std::string name;
  Analysis analysis = Analysis::kDv3;
  std::uint32_t datasets = 1;
  std::uint32_t process_tasks = 1000;  // across all datasets
  std::uint64_t input_bytes = 100 * util::kGB;
  std::uint32_t chunks_per_file = 5;
  std::uint64_t events_per_chunk = 1000;  // real events computed per chunk

  double process_cpu_median = 3.5;  // seconds at unit speed
  double process_cpu_sigma = 0.5;   // lognormal sigma
  std::uint64_t process_output_bytes = 100 * util::kMB;
  std::uint64_t process_memory = 2 * util::kGB;

  /// DV3-Huge: systematic variations applied to each skimmed chunk
  /// (0 = plain map/accumulate workflow).
  std::uint32_t variations = 0;
  double variation_cpu_median = 1.2;
  std::uint64_t variation_output_bytes = 20 * util::kMB;

  ReductionShape reduction = ReductionShape::kTree;
  std::size_t reduce_arity = 8;
  double reduce_cpu_fixed = 0.4;
  double reduce_cpu_per_input = 0.05;
  /// Modeled size of a merged partial (histogram merging compresses).
  std::uint64_t reduce_output_bytes = 0;  // 0 -> same as process output
  std::uint64_t reduce_memory = 4 * util::kGB;
};

/// Table II presets.
[[nodiscard]] WorkloadSpec dv3_small();
[[nodiscard]] WorkloadSpec dv3_medium();
[[nodiscard]] WorkloadSpec dv3_large();
[[nodiscard]] WorkloadSpec dv3_huge();
[[nodiscard]] WorkloadSpec rs_triphoton();

/// Scale the amount of real per-task computation (events) without touching
/// the modeled costs — benches use small values for wall-clock speed.
[[nodiscard]] WorkloadSpec with_events(WorkloadSpec spec,
                                       std::uint64_t events_per_chunk);

/// Build the executable task graph for a workload. Deterministic in
/// (spec, seed): identical graphs, chunk seeds, and modeled costs.
[[nodiscard]] dag::TaskGraph build_workload(const WorkloadSpec& spec,
                                            std::uint64_t seed);

}  // namespace hepvine::apps
