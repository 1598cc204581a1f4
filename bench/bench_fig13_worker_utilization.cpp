// Fig 13 — Worker occupancy: Stacks 3 and 4 at 20 and 200 workers.
//
// Paper: Stack 3 (standard tasks) keeps 20 workers busy but cannot
// dispatch/collect fast enough for 200 workers; Stack 4 (function calls)
// is only marginally faster at 20 workers but dramatically better at 200,
// because invocations are cheap for the manager.
#include "bench_common.h"

using namespace hepvine;
using namespace hepvine::bench;

int main() {
  print_header("Fig 13: Worker occupancy, Stack 3 vs Stack 4 (DV3)");

  apps::WorkloadSpec workload = apps::dv3_large();
  workload.events_per_chunk = 100;
  if (fast_mode()) {
    workload.process_tasks = 3'000;
    workload.input_bytes = 240 * util::kGB;
  }

  for (std::uint32_t workers : {scaled(20, 10), scaled(200, 40)}) {
    for (auto [label, mode] :
         {std::pair{"Stack 3 (standard tasks)",
                    exec::ExecMode::kStandardTasks},
          std::pair{"Stack 4 (function calls)",
                    exec::ExecMode::kFunctionCalls}}) {
      RunConfig config;
      config.workers = workers;
      exec::RunOptions options;
      options.seed = 13;
      options.mode = mode;

      vine::VineScheduler scheduler;
      const auto report = run_workload(scheduler, workload, config, options);
      maybe_write_spans(report);

      // Occupancy from the attribution ledger: the share of each worker's
      // core-seconds not blamed on idle or preemption. Unlike the old
      // task-interval overlap estimate, this is exact and sums to the
      // cluster capacity by construction.
      const obs::AttributionLedger ledger = obs::attribute(report.profile);
      std::vector<double> occupancy;
      occupancy.reserve(ledger.workers.size());
      double mean = 0;
      for (const auto& w : ledger.workers) {
        const std::int64_t unused =
            w.ticks[static_cast<std::size_t>(obs::Blame::kIdle)] +
            w.ticks[static_cast<std::size_t>(obs::Blame::kPreempted)];
        const double occ =
            w.capacity > 0 ? 1.0 - static_cast<double>(unused) /
                                       static_cast<double>(w.capacity)
                           : 0.0;
        occupancy.push_back(occ);
        mean += occ;
      }
      mean /= occupancy.empty() ? 1.0 : static_cast<double>(occupancy.size());

      std::printf("\n%u workers, %s: makespan %.0fs, mean occupancy %.0f%%, "
                  "manager busy %.0f%%\n",
                  workers, label, report.makespan_seconds(), mean * 100,
                  report.manager_busy_fraction * 100);
      std::printf("%s",
                  metrics::render_occupancy(occupancy).c_str());
      print_blame_line("blame:", report);
    }
  }
  std::printf("\n  shape: Stack 3 starves the large cluster (low occupancy at "
              "200 workers); Stack 4 keeps it busy (paper Fig 13)\n");
  return 0;
}
