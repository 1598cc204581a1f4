// Quickstart: the C++ analogue of the paper's Fig 4 sample application.
//
// Build a small "SingleMu"-style dataset, map the DV3 processor over its
// chunks, accumulate the partial histograms with a tree reduction, and
// execute the graph on a simulated campus cluster with the TaskVine
// scheduler in serverless (function-calls) mode with peer transfers —
// exactly the configuration the paper's sample code requests:
//
//     manager.compute(..., peer_transfers=True, task_mode='function-calls')
//
// Peer transfers are vine::DataPolicy::peer_transfers, a data-movement
// policy that is on by default in the TaskVine scheduler used here.
//
// The run prints the MET histogram and verifies the distributed result is
// bit-identical to a serial in-process evaluation.
#include <cstdio>

#include "apps/workloads.h"
#include "cluster/calibration.h"
#include "dag/evaluate.h"
#include "exec/scheduler.h"
#include "hep/histogram.h"
#include "vine/vine_scheduler.h"

using namespace hepvine;

int main() {
  // A small dataset: 8 ROOT-like files, 5 chunks per file (Fig 4's
  // `chunks_per_file`), 2000 synthetic events per chunk.
  apps::WorkloadSpec spec = apps::dv3_small();
  spec.name = "SingleMu";
  spec.process_tasks = 40;
  spec.chunks_per_file = 5;
  spec.events_per_chunk = 2000;
  spec.input_bytes = 4 * util::kGB;

  const dag::TaskGraph graph = apps::build_workload(spec, /*seed=*/7);
  std::printf("graph: %zu tasks (%zu roots, %zu sinks), %s input\n",
              graph.size(), graph.roots().size(), graph.sinks().size(),
              util::format_bytes(graph.input_bytes()).c_str());

  // A 10-worker slice of the campus cluster on the VAST filesystem.
  cluster::Cluster cluster(cluster::paper_cluster(
      10, cluster::paper_worker_node(), storage::vast_spec(), /*seed=*/7));

  exec::RunOptions options;
  options.mode = exec::ExecMode::kFunctionCalls;  // serverless
  options.hoist_imports = true;
  options.seed = 7;

  vine::VineScheduler scheduler;
  const exec::RunReport report = scheduler.run(graph, cluster, options);

  std::printf("scheduler: %s\n", report.scheduler.c_str());
  std::printf("success:   %s\n", report.success ? "yes" : "no");
  std::printf("makespan:  %.1f s (simulated)\n", report.makespan_seconds());
  std::printf("attempts:  %zu (%u preemptions)\n", report.task_attempts,
              report.worker_preemptions);

  // The workflow's single sink is the fully merged HistogramSet.
  const auto& [sink_id, value] = *report.results.begin();
  const auto* hists = dynamic_cast<const hep::HistogramSet*>(value.get());
  if (hists == nullptr) {
    std::fprintf(stderr, "unexpected result type\n");
    return 1;
  }
  const hep::Histogram1D* met = hists->find("met");
  std::printf("\nMET histogram (%llu entries, mean %.1f GeV):\n",
              static_cast<unsigned long long>(met->entries()), met->mean());
  for (std::uint32_t b = 0; b < met->bins(); b += 10) {
    double sum = 0;
    for (std::uint32_t i = b; i < b + 10 && i < met->bins(); ++i) {
      sum += met->bin_content(i);
    }
    const int bar = static_cast<int>(sum / 400.0);
    std::printf("  %5.0f-%5.0f GeV |%-40.*s| %.0f\n", met->lo() + 2 * b,
                met->lo() + 2 * (b + 10), bar,
                "########################################", sum);
  }

  // Ground truth: serial evaluation of the same graph.
  const auto reference = dag::evaluate_serially(graph);
  const bool identical =
      reference.at(sink_id)->digest() == value->digest();
  std::printf("\ndistributed result %s serial reference\n",
              identical ? "MATCHES" : "DIFFERS FROM");
  return identical && report.success ? 0 : 1;
}
