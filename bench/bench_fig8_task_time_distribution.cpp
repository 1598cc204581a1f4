// Fig 8 — Distribution of task execution times: standard tasks vs
// serverless function calls on the DV3 workload.
//
// Paper: the majority of tasks execute in 1-10 s; converting them to
// function calls shifts the whole distribution left (no per-task
// interpreter start, no per-task imports), which is what makes the 17k-task
// workload complete 2.7x faster end to end (730 s -> 272 s).
#include "bench_common.h"

using namespace hepvine;
using namespace hepvine::bench;

int main() {
  print_header("Fig 8: Task execution time distribution (DV3)");

  apps::WorkloadSpec workload = apps::dv3_large();
  workload.events_per_chunk = 100;
  if (fast_mode()) {
    workload.process_tasks = 1'500;
    workload.input_bytes = 120 * util::kGB;
  }
  RunConfig config;
  config.workers = scaled(200, 40);

  vine::VineScheduler scheduler;

  exec::RunOptions std_opts;
  std_opts.seed = 8;
  std_opts.mode = exec::ExecMode::kStandardTasks;
  const auto std_report = run_workload(scheduler, workload, config, std_opts);

  exec::RunOptions fc_opts = std_opts;
  fc_opts.mode = exec::ExecMode::kFunctionCalls;
  const auto fc_report = run_workload(scheduler, workload, config, fc_opts);

  std::printf("\nStandard tasks (makespan %.0fs):\n",
              std_report.makespan_seconds());
  std::printf("%s", metrics::render_histogram(
                        metrics::exec_time_histogram(std_report.profile, 0.1,
                                                     100, 3))
                        .c_str());

  std::printf("\nFunction calls (makespan %.0fs):\n",
              fc_report.makespan_seconds());
  std::printf("%s", metrics::render_histogram(
                        metrics::exec_time_histogram(fc_report.profile, 0.1,
                                                     100, 3))
                        .c_str());

  // Shape checks: majority of function-call tasks within 1-10 s; standard
  // tasks shifted right by the per-invocation overhead.
  auto fraction_in = [](const obs::SpanLog& log, double lo, double hi) {
    std::size_t in = 0;
    std::size_t total = 0;
    for (const auto& a : log.attempts()) {
      if (a.failed) continue;
      ++total;
      const double secs = util::to_seconds(a.exec_end_at - a.exec_at);
      if (secs >= lo && secs < hi) ++in;
    }
    return total ? static_cast<double>(in) / static_cast<double>(total) : 0.0;
  };
  std::printf("\nfraction of tasks in [1s,10s): standard %.2f, "
              "function-calls %.2f (paper: majority in 1-10s)\n",
              fraction_in(std_report.profile, 1, 10),
              fraction_in(fc_report.profile, 1, 10));
  return 0;
}
