// Fig 15 — DV3-Huge: the full-scale analysis. 185k tasks (10k initially
// executable) on 600 12-core workers (7200 cores).
//
// Paper: TaskVine maintains high concurrency for the duration of the
// execution until the final reduction of the graph.
#include "bench_common.h"

using namespace hepvine;
using namespace hepvine::bench;

int main() {
  print_header("Fig 15: DV3-Huge on 600 workers (7200 cores)");

  apps::WorkloadSpec workload = apps::dv3_huge();
  workload.events_per_chunk = fast_mode() ? 20 : 50;
  if (fast_mode()) {
    workload.process_tasks = 1'000;
    workload.variations = 8;
    workload.input_bytes = 120 * util::kGB;
  }

  RunConfig config;
  config.workers = scaled(600, 60);

  exec::RunOptions options;
  options.seed = 16;
  options.mode = exec::ExecMode::kFunctionCalls;
  options.max_sim_time = 6 * util::kHour;

  vine::VineScheduler scheduler;
  const auto report = run_workload(scheduler, workload, config, options);

  print_report_line("DV3-Huge", report);
  std::printf("  peak concurrency: %lld tasks (cores available: %u)\n",
              static_cast<long long>(metrics::peak_concurrency(report.profile)),
              config.workers * 12);

  const auto series =
      metrics::concurrency_series(report.profile, report.makespan / 72,
                                  report.makespan);
  std::vector<double> running;
  std::vector<double> waiting;
  running.reserve(series.size());
  for (const auto& p : series) {
    running.push_back(static_cast<double>(p.running));
    waiting.push_back(static_cast<double>(p.waiting));
  }
  std::printf("\nconcurrently running tasks:\n%s",
              metrics::render_series(running, report.makespan_seconds(), 10,
                                     72, 'r')
                  .c_str());
  std::printf("\ntasks waiting to be scheduled:\n%s",
              metrics::render_series(waiting, report.makespan_seconds(), 10,
                                     72, 'w')
                  .c_str());
  std::printf("  shape: concurrency stays high until the final reduction "
              "drains the graph (paper Fig 15)\n");
  return 0;
}
