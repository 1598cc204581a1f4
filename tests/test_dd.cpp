#include "dd/dask_distributed.h"

#include <gtest/gtest.h>

#include "metrics/attempt_views.h"
#include "scheduler_test_util.h"

namespace hepvine::dd {
namespace {

using namespace hepvine::testutil;

struct DdEndToEnd : public ::testing::Test {
  exec::RunReport run(const apps::WorkloadSpec& workload,
                      const exec::RunOptions& options,
                      std::uint32_t workers = 4,
                      DaskTunables tunables = DaskTunables{}) {
    graph = apps::build_workload(workload, options.seed);
    cluster::Cluster cluster(tiny_cluster(workers));
    DaskDistScheduler scheduler(tunables);
    return scheduler.run(graph, cluster, options);
  }
  dag::TaskGraph graph;
};

TEST_F(DdEndToEnd, CompletesAndMatchesSerialReference) {
  const auto report = run(tiny_dv3(), fast_options());
  ASSERT_TRUE(report.success) << report.failure_reason;
  EXPECT_EQ(report.scheduler, "dask.distributed");
  EXPECT_EQ(sink_digest(report), reference_digest(graph));
}

TEST_F(DdEndToEnd, DeterministicAcrossRuns) {
  const auto a = run(tiny_dv3(), fast_options());
  const auto b = run(tiny_dv3(), fast_options());
  ASSERT_TRUE(a.success);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(sink_digest(a), sink_digest(b));
}

TEST_F(DdEndToEnd, UsesAllCoresViaSingleCoreProcesses) {
  const auto report = run(tiny_dv3(48), fast_options(), 2);
  ASSERT_TRUE(report.success);
  // 2 nodes x 12 procs: peak concurrency must exceed one proc per node.
  EXPECT_GT(metrics::peak_concurrency(report.profile), 2);
}

TEST_F(DdEndToEnd, MemoryOverflowKillsAndRestartsProcesses) {
  // Process memory slice = 96 GB / 12 = 8 GB; make each task's held
  // result 9 GB so the first completion on any process kills it.
  apps::WorkloadSpec workload = tiny_dv3(6);
  workload.process_output_bytes = 9 * util::kGB;
  workload.reduce_output_bytes = 9 * util::kGB;
  exec::RunOptions options = fast_options();
  options.max_task_retries = 3;
  options.max_sim_time = util::kHour;
  const auto report = run(workload, options, 2);
  EXPECT_GT(report.worker_crashes, 0u);
  EXPECT_FALSE(report.success)
      << "results that exceed the per-process memory slice crash-loop";
}

TEST_F(DdEndToEnd, SchedulerOverloadCollapsesViaHeartbeatTimeouts) {
  // Inflate per-task scheduler cost so offered load >> loop capacity:
  // heartbeats miss their window, workers restart, the run fails — the
  // paper's "crashes and hangs at scale".
  DaskTunables tunables;
  tunables.dispatch_cost = util::kSec;
  tunables.result_cost = util::kSec;
  tunables.heartbeat_timeout = 15 * util::kSec;
  tunables.restart_delay = 5 * util::kSec;
  tunables.max_restarts_per_proc = 5;
  apps::WorkloadSpec workload = tiny_dv3(120);
  exec::RunOptions options = fast_options();
  options.max_sim_time = util::kHour;
  const auto report = run(workload, options, 4, tunables);
  EXPECT_FALSE(report.success);
  EXPECT_GT(report.worker_crashes, 0u);
}

TEST_F(DdEndToEnd, SmallScaleHealthyNoCrashes) {
  const auto report = run(tiny_dv3(24), fast_options(), 2);
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.worker_crashes, 0u);
  EXPECT_EQ(report.task_failures, 0u);
}

TEST_F(DdEndToEnd, ExecTimeEndsAtProcessExitNotIngestion) {
  // A slow result handler backlogs the scheduler loop, so results are
  // ingested well after their processes exit. That backlog is scheduler
  // time: an attempt's execution time stops at process exit.
  DaskTunables tunables;
  tunables.result_cost = util::kSec;
  const auto report = run(tiny_dv3(24), fast_options(), 2, tunables);
  ASSERT_TRUE(report.success) << report.failure_reason;

  const auto buckets = metrics::exec_time_histogram(report.profile);
  const auto bucket_of = [&buckets](util::Tick ticks) {
    const double secs = util::to_seconds(ticks);
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (secs >= buckets[i].lo_sec && secs < buckets[i].hi_sec) return i;
    }
    return buckets.size();
  };
  std::vector<std::uint64_t> expected(buckets.size() + 1, 0);
  std::size_t backlogged = 0;
  std::size_t rebinned = 0;  // would land elsewhere if timed to ingestion
  for (const auto& a : report.profile.attempts()) {
    if (a.failed) continue;
    if (a.exec_end_at < a.retrieved_at) ++backlogged;
    const std::size_t b = bucket_of(a.exec_end_at - a.exec_at);
    ++expected[b];
    if (bucket_of(a.retrieved_at - a.exec_at) != b) ++rebinned;
  }
  EXPECT_GT(backlogged, 0u) << "no ingestion backlog to tell apart";
  EXPECT_GT(rebinned, 0u) << "backlog too small to move any bucket";
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    EXPECT_EQ(buckets[i].count, expected[i]) << "bucket " << i;
  }
}

TEST_F(DdEndToEnd, PerProcessImportsMakeFirstWaveSlow) {
  // With one task per process, every task pays the full import stack;
  // the run takes at least interpreter+imports regardless of parallelism.
  apps::WorkloadSpec workload = tiny_dv3(24);
  const auto report = run(workload, fast_options(), 2);
  ASSERT_TRUE(report.success);
  const auto& py = fast_options().python;
  const util::Tick import_floor =
      py.interpreter_startup +
      fast_options().imports.import_time_local(storage::nvme_disk());
  EXPECT_GT(report.makespan, import_floor);
}

}  // namespace
}  // namespace hepvine::dd
