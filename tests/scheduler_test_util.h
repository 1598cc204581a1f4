// Shared helpers for scheduler integration tests: small deterministic
// workloads and clusters that run in milliseconds.
#pragma once

#include <map>
#include <sstream>
#include <string>

#include "apps/workloads.h"
#include "cluster/calibration.h"
#include "dag/evaluate.h"
#include "exec/scheduler.h"
#include "hep/histogram.h"
#include "util/hash.h"

namespace hepvine::testutil {

/// A small DV3-style workload: `tasks` process tasks over `gb` of input.
inline apps::WorkloadSpec tiny_dv3(std::uint32_t tasks = 24,
                                   std::uint64_t gb = 6) {
  apps::WorkloadSpec spec = apps::dv3_small();
  spec.name = "tiny-dv3";
  spec.process_tasks = tasks;
  spec.input_bytes = gb * util::kGB;
  spec.events_per_chunk = 200;
  spec.process_output_bytes = 30 * util::kMB;
  return spec;
}

/// Cluster with fast batch matching and no preemption unless asked.
inline cluster::ClusterSpec tiny_cluster(std::uint32_t workers = 4,
                                         double preempt_per_hour = 0.0,
                                         std::uint64_t seed = 1) {
  cluster::ClusterSpec spec = cluster::paper_cluster(
      workers, cluster::paper_worker_node(), storage::vast_spec(), seed);
  spec.batch.first_match_delay = util::seconds(0.5);
  spec.batch.match_window = util::seconds(2);
  spec.batch.preemption_rate_per_hour = preempt_per_hour;
  spec.batch.replacement_delay_mean = util::seconds(5);
  return spec;
}

inline exec::RunOptions fast_options() {
  exec::RunOptions options;
  options.seed = 3;
  options.exec_time_jitter = 0.1;
  return options;
}

/// Digest of the single sink result of a report.
inline util::Digest128 sink_digest(const exec::RunReport& report) {
  EXPECT_EQ(report.results.size(), 1u);
  EXPECT_TRUE(report.results.begin()->second != nullptr);
  return report.results.begin()->second->digest();
}

/// Digest of the single sink of a serial evaluation.
inline util::Digest128 reference_digest(const dag::TaskGraph& graph) {
  const auto results = dag::evaluate_serially(graph);
  EXPECT_EQ(results.size(), 1u);
  return results.begin()->second->digest();
}

/// Every `TRANSFER src dst file bytes START` line of a txn log closes
/// exactly once, with DONE or FAILED under the same `src dst file bytes`,
/// and no close comes without a START. Returns the number of transfers
/// seen. Transfers of one key may overlap (the same file fetched twice to
/// one worker), so opens are counted per key.
inline std::size_t expect_transfers_paired(const std::string& txn) {
  std::map<std::string, int> open;
  std::size_t starts = 0;
  std::istringstream in(txn);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tick, subject, src, dst, file, bytes, verb;
    if (!(fields >> tick >> subject) || subject != "TRANSFER") continue;
    fields >> src >> dst >> file >> bytes >> verb;
    int& n = open[src + " " + dst + " " + file + " " + bytes];
    if (verb == "START") {
      ++n;
      ++starts;
      continue;
    }
    EXPECT_TRUE(verb == "DONE" || verb == "FAILED") << line;
    EXPECT_GT(n, 0) << "close without a START: " << line;
    --n;
  }
  for (const auto& [key, n] : open) {
    EXPECT_EQ(n, 0) << "TRANSFER " << key << " never closed";
  }
  return starts;
}

}  // namespace hepvine::testutil
