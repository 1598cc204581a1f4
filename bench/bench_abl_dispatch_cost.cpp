// Ablation — manager dispatch cost sensitivity.
//
// The Stack-3 starvation of Fig 13 is driven by per-task manager overhead.
// This sweep scales the standard-task dispatch/result costs to show where
// the dispatch ceiling starts to cap a 200-worker cluster.
#include <vector>

#include "bench_common.h"

using namespace hepvine;
using namespace hepvine::bench;

int main() {
  print_header("Ablation: manager per-task dispatch cost (standard tasks)");

  apps::WorkloadSpec workload = apps::dv3_large();
  workload.events_per_chunk = 50;
  if (fast_mode()) {
    workload.process_tasks = 2'000;
    workload.input_bytes = 160 * util::kGB;
  }
  RunConfig config;
  config.workers = scaled(200, 40);

  std::printf("  %-16s %12s %18s\n", "dispatch+result", "makespan",
              "mean occupancy");
  for (double scale : std::vector<double>{0.05, 0.2, 0.5, 1.0, 2.0}) {
    vine::VineTunables tunables;
    tunables.dispatch_cost_standard = static_cast<util::Tick>(
        static_cast<double>(tunables.dispatch_cost_standard) * scale);
    tunables.result_cost_standard = static_cast<util::Tick>(
        static_cast<double>(tunables.result_cost_standard) * scale);
    vine::VineScheduler scheduler(vine::taskvine_policy(), tunables);

    exec::RunOptions options;
    options.seed = 43;
    options.mode = exec::ExecMode::kStandardTasks;
    const auto report = run_workload(scheduler, workload, config, options);

    const auto occupancy = metrics::worker_occupancy(
        report.profile, static_cast<std::int32_t>(config.workers), 0,
        report.makespan);
    double mean = 0;
    for (double o : occupancy) mean += o;
    mean /= static_cast<double>(occupancy.size());

    char label[32];
    std::snprintf(label, sizeof(label), "%.1f+%.1f ms",
                  util::to_seconds(tunables.dispatch_cost_standard) * 1e3,
                  util::to_seconds(tunables.result_cost_standard) * 1e3);
    std::printf("  %-16s %11.1fs %17.0f%% %s\n", label,
                report.makespan_seconds(), mean * 100,
                report.success ? "" : "[FAILED]");
  }
  std::printf("\n  expectation: makespan tracks per-task manager cost once "
              "the dispatch rate falls below cluster drain rate\n");
  return 0;
}
