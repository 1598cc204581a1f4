// Fig 12 — Workflow timeline of the first 300 s on each stack: number of
// concurrently running tasks (top) and tasks waiting to be scheduled
// (bottom).
//
// Paper shapes: Stack 1 sustains high concurrency initially (its tasks are
// long) but has a very long accumulation tail around ~100 running tasks;
// Stack 3 oscillates because completions outrun dispatch; Stack 4
// dispatches fast enough to hold steady and finishes within the window.
#include "bench_common.h"

using namespace hepvine;
using namespace hepvine::bench;

int main() {
  print_header("Fig 12: Running/waiting task timelines per stack (DV3)");

  apps::WorkloadSpec workload = apps::dv3_large();
  workload.events_per_chunk = 100;
  if (fast_mode()) {
    workload.process_tasks = 1'500;
    workload.input_bytes = 120 * util::kGB;
  }
  RunConfig config;
  config.workers = scaled(200, 40);

  struct Stack {
    const char* label = "";
    storage::SharedFsSpec fs;
    bool taskvine = false;
    exec::ExecMode mode;
  };
  const Stack stacks[] = {
      {"Stack 1: WQ + HDFS", storage::hdfs_spec(), false,
       exec::ExecMode::kStandardTasks},
      {"Stack 2: WQ + VAST", storage::vast_spec(), false,
       exec::ExecMode::kStandardTasks},
      {"Stack 3: TaskVine tasks", storage::vast_spec(), true,
       exec::ExecMode::kStandardTasks},
      {"Stack 4: TaskVine functions", storage::vast_spec(), true,
       exec::ExecMode::kFunctionCalls},
  };

  const util::Tick window = 300 * util::kSec;
  for (const Stack& stack : stacks) {
    RunConfig cfg = config;
    cfg.fs = stack.fs;
    exec::RunOptions options;
    options.seed = 12;
    options.mode = stack.mode;

    exec::RunReport report;
    if (stack.taskvine) {
      vine::VineScheduler scheduler;
      report = run_workload(scheduler, workload, cfg, options);
    } else {
      wq::WorkQueueScheduler scheduler;
      report = run_workload(scheduler, workload, cfg, options);
    }
    maybe_write_spans(report);
    std::printf("\n%s (completes at %.0fs):\n", stack.label,
                report.makespan_seconds());
    const auto series =
        metrics::concurrency_series(report.profile, 2 * util::kSec, window);
    std::printf("%s", metrics::render_concurrency(series, 10, 72).c_str());

    // The paper's diagnosis, re-derived from the attribution ledger: which
    // non-compute blame category dominates the cluster's core-seconds.
    const obs::AttributionLedger ledger = obs::attribute(report.profile);
    print_blame_line("blame:", report);
    if (ledger.capacity > 0) {
      struct Axis {
        const char* verdict = "";
        obs::Blame blame = obs::Blame::kIdle;
      };
      const Axis axes[] = {
          {"transfer-bound", obs::Blame::kTransferWait},
          {"dispatch-bound", obs::Blame::kDispatchWait},
          {"import-bound", obs::Blame::kImport},
      };
      const Axis* worst = &axes[0];
      for (const Axis& a : axes) {
        if (ledger.fraction(a.blame) > ledger.fraction(worst->blame)) {
          worst = &a;
        }
      }
      std::printf("  %-28s %s (%.1f%% of core-seconds waiting on %s)\n",
                  "diagnosis:", worst->verdict,
                  ledger.fraction(worst->blame) * 100,
                  obs::to_string(worst->blame));
    }
  }
  return 0;
}
