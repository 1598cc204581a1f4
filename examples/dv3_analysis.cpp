// DV3 analysis example: the paper's flagship application at reduced scale.
//
// Runs the DV3 Higgs->bb search over a synthetic dataset on a simulated
// opportunistic cluster, with the full Stack-4 configuration (TaskVine,
// serverless function calls, peer transfers, import hoisting), then prints
// the physics: the reconstructed dijet mass spectrum with its Higgs peak,
// and the run's systems-level report.
#include <cstdio>

#include "apps/workloads.h"
#include "cluster/calibration.h"
#include "dag/evaluate.h"
#include "hep/histogram.h"
#include "hep/processors.h"
#include "metrics/attempt_views.h"
#include "vine/vine_scheduler.h"

using namespace hepvine;

int main() {
  // DV3-Small shape with enough real events to resolve the 125 GeV peak.
  apps::WorkloadSpec spec = apps::dv3_small();
  spec.process_tasks = 160;
  spec.events_per_chunk = 20'000;
  spec.input_bytes = 25 * util::kGB;

  const dag::TaskGraph graph = apps::build_workload(spec, /*seed=*/2024);
  std::printf("DV3 analysis: %zu tasks over %s of (synthetic) CMS data\n",
              graph.size(), util::format_bytes(graph.input_bytes()).c_str());

  // 20 opportunistic workers; ~1%/h preemption like the paper's cluster.
  cluster::ClusterSpec cspec = cluster::paper_cluster(
      20, cluster::paper_worker_node(), storage::vast_spec(), 2024);
  cluster::Cluster cluster(cspec);

  exec::RunOptions options;
  options.mode = exec::ExecMode::kFunctionCalls;
  options.seed = 2024;
  // Full observability: transactions log, perf time-series, and a
  // Perfetto-loadable trace, written next to the binary.
  options.observability.enabled = true;
  options.observability.txn_path = "dv3_txn.log";
  options.observability.perf_path = "dv3_perf.log";
  options.observability.trace_path = "dv3_trace.json";

  vine::VineScheduler scheduler;
  const exec::RunReport report = scheduler.run(graph, cluster, options);
  if (!report.success) {
    std::fprintf(stderr, "run failed: %s\n", report.failure_reason.c_str());
    return 1;
  }

  std::printf("completed in %.1f simulated seconds on %u cores "
              "(%zu attempts, %u preemptions)\n\n",
              report.makespan_seconds(), cluster.total_cores(),
              report.task_attempts, report.worker_preemptions);

  const auto* hists = dynamic_cast<const hep::HistogramSet*>(
      report.results.begin()->second.get());
  const hep::Histogram1D* mass = hists->find("dijet_mass");
  std::printf("b-tagged dijet invariant mass (%llu candidate pairs):\n",
              static_cast<unsigned long long>(mass->entries()));
  const double width = (mass->hi() - mass->lo()) / mass->bins();
  double peak_center = 0;
  double peak_value = 0;
  for (std::uint32_t b = 0; b < mass->bins(); b += 5) {
    double sum = 0;
    for (std::uint32_t i = b; i < b + 5 && i < mass->bins(); ++i) {
      sum += mass->bin_content(i);
    }
    const double center = mass->lo() + width * (b + 2.5);
    if (center > 60 && sum > peak_value) {
      peak_value = sum;
      peak_center = center;
    }
    if (center < 40 || center > 210) continue;
    const int bar = static_cast<int>(sum / 120.0);
    std::printf("  %5.0f GeV |%-50.*s| %.0f\n", center, bar,
                "##################################################", sum);
  }
  std::printf("\npeak near %.0f GeV -- the injected H->bb resonance "
              "(m_H = 125 GeV)\n",
              peak_center);

  std::printf("\ntask execution time distribution:\n%s",
              metrics::render_histogram(
                  metrics::exec_time_histogram(report.profile, 0.5, 50, 3))
                  .c_str());

  if (report.observation) {
    std::printf("\nlogs written: dv3_txn.log (%llu events), dv3_perf.log "
                "(%zu samples), dv3_trace.json (open in ui.perfetto.dev)\n",
                static_cast<unsigned long long>(
                    report.observation->txn().events()),
                report.observation->perf().rows().size());
    std::printf("inspect with: tools/txn_query dv3_txn.log summary\n");
  }
  return 0;
}
