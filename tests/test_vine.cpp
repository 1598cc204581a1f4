#include "vine/vine_scheduler.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "scheduler_test_util.h"
#include "vine/replica_table.h"

namespace hepvine::vine {
namespace {

using namespace hepvine::testutil;

// ---------------------------------------------------------------------
// ReplicaTable unit tests.
// ---------------------------------------------------------------------
TEST(ReplicaTable, AddRemoveQuery) {
  ReplicaTable table(4);
  table.add(0, 1);
  table.add(0, 2);
  table.add(0, 1);  // duplicate ignored
  EXPECT_EQ(table.holders(0), (std::vector<cluster::WorkerId>{1, 2}));
  EXPECT_EQ(table.replica_count(0), 2u);
  table.remove(0, 1);
  EXPECT_EQ(table.holders(0), std::vector<cluster::WorkerId>{2});
  EXPECT_TRUE(table.available(0));
  table.remove(0, 2);
  EXPECT_FALSE(table.available(0));
}

TEST(ReplicaTable, ManagerCopyCountsAsAvailable) {
  ReplicaTable table(2);
  table.set_at_manager(1);
  EXPECT_TRUE(table.available(1));
  EXPECT_EQ(table.replica_count(1), 1u);
  table.set_at_manager(1, false);
  EXPECT_FALSE(table.available(1));
}

TEST(ReplicaTable, DropWorkerReportsLostFiles) {
  ReplicaTable table(3);
  table.add(0, 0);  // only on worker 0 -> lost
  table.add(1, 0);
  table.add(1, 1);  // survives on worker 1
  table.add(2, 0);
  table.set_at_manager(2);  // survives at manager
  const auto lost = table.drop_worker(0, {0, 1, 2});
  EXPECT_EQ(lost, std::vector<data::FileId>{0});
  EXPECT_TRUE(table.available(1));
  EXPECT_TRUE(table.available(2));
  EXPECT_EQ(table.holders(1), std::vector<cluster::WorkerId>{1});
}

// ---------------------------------------------------------------------
// End-to-end scheduler behaviour.
// ---------------------------------------------------------------------
struct VineEndToEnd : public ::testing::Test {
  exec::RunReport run(const apps::WorkloadSpec& workload,
                      const exec::RunOptions& options,
                      std::uint32_t workers = 4,
                      double preempt_per_hour = 0.0,
                      DataPolicy policy = taskvine_policy()) {
    graph = apps::build_workload(workload, options.seed);
    cluster::Cluster cluster(tiny_cluster(workers, preempt_per_hour));
    VineScheduler scheduler(policy, VineTunables{});
    return scheduler.run(graph, cluster, options);
  }
  dag::TaskGraph graph;
};

TEST_F(VineEndToEnd, CompletesAndMatchesSerialReference) {
  const auto report = run(tiny_dv3(), fast_options());
  ASSERT_TRUE(report.success) << report.failure_reason;
  EXPECT_EQ(sink_digest(report), reference_digest(graph));
  EXPECT_GE(report.task_attempts, graph.size());
  EXPECT_EQ(report.profile.attempts().size() - report.task_failures,
            graph.size());
}

TEST_F(VineEndToEnd, ServerlessModeMatchesReferenceAndIsFaster) {
  exec::RunOptions std_opts = fast_options();
  std_opts.mode = exec::ExecMode::kStandardTasks;
  const auto std_report = run(tiny_dv3(48), std_opts);
  ASSERT_TRUE(std_report.success);

  exec::RunOptions fc_opts = fast_options();
  fc_opts.mode = exec::ExecMode::kFunctionCalls;
  const auto fc_report = run(tiny_dv3(48), fc_opts);
  ASSERT_TRUE(fc_report.success);

  EXPECT_EQ(sink_digest(std_report), sink_digest(fc_report));
  EXPECT_LT(fc_report.makespan, std_report.makespan)
      << "serverless execution must beat per-task interpreters";
}

TEST_F(VineEndToEnd, DeterministicAcrossRuns) {
  const auto a = run(tiny_dv3(), fast_options());
  const auto b = run(tiny_dv3(), fast_options());
  ASSERT_TRUE(a.success);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.task_attempts, b.task_attempts);
  EXPECT_EQ(sink_digest(a), sink_digest(b));
}

TEST_F(VineEndToEnd, PeerTransfersMoveAccumulationTraffic) {
  exec::RunOptions options = fast_options();
  const auto report = run(tiny_dv3(48), options);
  ASSERT_TRUE(report.success);
  EXPECT_GT(report.transfers.peer_bytes(), 0u)
      << "accumulation partials must move worker-to-worker";
}

TEST_F(VineEndToEnd, LocalityKeepsRepeatReadsOffTheFilesystem) {
  // chunks_per_file = 5 means 5 tasks share each dataset file; with
  // locality the file is fetched from the fs far fewer than once per task.
  apps::WorkloadSpec workload = tiny_dv3(40);
  workload.chunks_per_file = 5;
  const auto report = run(workload, fast_options());
  ASSERT_TRUE(report.success);
  // Endpoints: 0 = manager, 1..4 = the 4 workers, 5 = shared filesystem.
  const std::uint64_t fs_bytes = report.transfers.row_total(5);
  // All 8 files must be read, but far less than 40 chunk-sized reads.
  EXPECT_GT(fs_bytes, 0u);
  EXPECT_LT(fs_bytes, graph.input_bytes() * 2);
}

TEST_F(VineEndToEnd, SurvivesPreemptionAndStaysCorrect) {
  // Aggressive preemption: mean worker lifetime of one minute.
  exec::RunOptions options = fast_options();
  options.seed = 17;
  options.max_task_retries = 30;
  const auto report = run(tiny_dv3(64), options, 4, 120.0);
  ASSERT_TRUE(report.success) << report.failure_reason;
  EXPECT_GT(report.worker_preemptions, 0u);
  EXPECT_EQ(sink_digest(report), reference_digest(graph))
      << "lineage re-execution must reproduce identical physics";
}

TEST_F(VineEndToEnd, ImportHoistingSpeedsUpServerless) {
  apps::WorkloadSpec workload = tiny_dv3(48);
  exec::RunOptions hoisted = fast_options();
  hoisted.mode = exec::ExecMode::kFunctionCalls;
  hoisted.hoist_imports = true;
  const auto fast = run(workload, hoisted);
  ASSERT_TRUE(fast.success);

  exec::RunOptions unhoisted = hoisted;
  unhoisted.hoist_imports = false;
  const auto slow = run(workload, unhoisted);
  ASSERT_TRUE(slow.success);

  EXPECT_LT(fast.makespan, slow.makespan);
  EXPECT_EQ(sink_digest(fast), sink_digest(slow));
}

TEST_F(VineEndToEnd, SharedFsImportsSlowerThanLocal) {
  // The Fig 10 contrast is a *contention* effect: enough concurrent
  // short unhoisted invocations to load the metadata server.
  apps::WorkloadSpec workload = tiny_dv3(768, 12);
  workload.process_cpu_median = 0.5;
  exec::RunOptions local = fast_options();
  local.mode = exec::ExecMode::kFunctionCalls;
  local.hoist_imports = false;
  local.env_from_shared_fs = false;
  const auto local_report = run(workload, local, 16);
  ASSERT_TRUE(local_report.success);

  exec::RunOptions shared = local;
  shared.env_from_shared_fs = true;
  const auto shared_report = run(workload, shared, 16);
  ASSERT_TRUE(shared_report.success);

  EXPECT_LT(local_report.makespan, shared_report.makespan)
      << "unhoisted imports from the shared fs pay metadata contention";
}

TEST_F(VineEndToEnd, SingleNodeReductionOverflowsSmallDisks) {
  // Partials totalling far beyond one worker's disk, reduced on a single
  // node: the reduction worker must overflow and crash (paper Fig 11).
  apps::WorkloadSpec workload = tiny_dv3(30);
  workload.process_output_bytes = 12 * util::kGB;  // 30 x 12 GB = 360 GB
  workload.reduce_output_bytes = 12 * util::kGB;
  workload.reduction = apps::ReductionShape::kSingleNode;
  exec::RunOptions options = fast_options();
  options.max_task_retries = 3;
  options.max_sim_time = 2 * util::kHour;
  options.observability.enabled = true;
  const auto report = run(workload, options, 6);
  EXPECT_GT(report.worker_crashes, 0u);
  EXPECT_FALSE(report.success)
      << "a 360 GB single-node reduction cannot fit a 108 GB disk";

  // The run ends on the retry limit. The attempt that spends the budget
  // fails the run, and a later failure callback of it in the same event
  // must not retrieve it again: per task, the txn log holds one RETRIEVED
  // FAILURE line per failed attempt.
  ASSERT_NE(report.observation, nullptr);
  std::map<std::string, std::size_t> failed_attempts;
  for (const obs::AttemptSpan& s : report.profile.attempts()) {
    if (s.failed) ++failed_attempts[std::to_string(s.task)];
  }
  std::map<std::string, std::size_t> failure_lines;
  std::istringstream in(report.observation->txn().text());
  for (std::string line; std::getline(in, line);) {
    std::istringstream f(line);
    std::string tick, subject, task, verb, outcome;
    f >> tick >> subject >> task >> verb >> outcome;
    if (subject == "TASK" && verb == "RETRIEVED" && outcome == "FAILURE") {
      ++failure_lines[task];
    }
  }
  EXPECT_FALSE(failed_attempts.empty());
  EXPECT_EQ(failure_lines, failed_attempts);
}

TEST_F(VineEndToEnd, TreeReductionOfSameWorkloadSucceeds) {
  // Same shape as the overflow case above but with the paper's headroom
  // proportions: bounded fan-in keeps every node's cache well under its
  // disk, so the workload completes without a single crash.
  apps::WorkloadSpec workload = tiny_dv3(30);
  workload.process_output_bytes = 8 * util::kGB;
  workload.reduce_output_bytes = 8 * util::kGB;
  workload.reduction = apps::ReductionShape::kTree;
  workload.reduce_arity = 4;
  const auto report = run(workload, fast_options(), 6);
  ASSERT_TRUE(report.success) << report.failure_reason;
  EXPECT_EQ(report.worker_crashes, 0u);
}

TEST_F(VineEndToEnd, ReportsFailureWhenRetriesExhausted) {
  // One worker, disk too small for even one task's staging: every attempt
  // crashes the worker until the retry budget trips.
  apps::WorkloadSpec workload = tiny_dv3(2);
  workload.process_output_bytes = 500 * util::kGB;
  workload.reduce_output_bytes = 500 * util::kGB;
  exec::RunOptions options = fast_options();
  options.max_task_retries = 2;
  options.max_sim_time = util::kHour;
  const auto report = run(workload, options, 1);
  EXPECT_FALSE(report.success);
  EXPECT_FALSE(report.failure_reason.empty());
}

TEST_F(VineEndToEnd, CacheTraceSeesGrowth) {
  exec::RunOptions options = fast_options();
  options.cache_sample_interval = util::seconds(1);
  const auto report = run(tiny_dv3(48), options);
  ASSERT_TRUE(report.success);
  EXPECT_GT(report.cache.global_peak(), 0u);
}

TEST_F(VineEndToEnd, NoLocalityAblationStillCorrect) {
  DataPolicy policy = taskvine_policy();
  policy.locality_placement = false;
  const auto report = run(tiny_dv3(), fast_options(), 4, 0.0, policy);
  ASSERT_TRUE(report.success);
  EXPECT_EQ(sink_digest(report), reference_digest(graph));
}

TEST_F(VineEndToEnd, NoPeerTransfersFallsBackToManagerRelay) {
  DataPolicy policy = taskvine_policy();
  policy.peer_transfers = false;
  const auto report = run(tiny_dv3(24), fast_options(), 4, 0.0, policy);
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.transfers.peer_bytes(), 0u);
  EXPECT_GT(report.transfers.manager_bytes(), 0u);
  EXPECT_EQ(sink_digest(report), reference_digest(graph));
}

TEST_F(VineEndToEnd, CutRunWithGateWaitersTearsDownCleanly) {
  // 480 cores start at once and every attempt stages a cold chunk from the
  // shared filesystem, which admits 256 streams: the rest wait in the fs
  // gate when max_sim_time cuts the run. The scheduler is destroyed first,
  // then the cluster, whose network destroys the live flows and so
  // releases their gate slots. Nothing queued may start then: a starter
  // calls back into the destroyed scheduler (caught under ASan).
  const apps::WorkloadSpec workload = tiny_dv3(600, 600);
  exec::RunOptions options = fast_options();
  options.observability.enabled = true;
  options.max_sim_time = util::seconds(10);
  graph = apps::build_workload(workload, options.seed);
  auto cluster = std::make_unique<cluster::Cluster>(tiny_cluster(40));
  exec::RunReport report;
  {
    VineScheduler scheduler;
    report = scheduler.run(graph, *cluster, options);
  }
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.failure_reason, "exceeded max simulated time");
  std::size_t fs_open = 0;
  for (const auto& x : txn_transfers(report.observation->txn().text())) {
    if (x.close < 0 && x.src == cluster->fs_endpoint()) ++fs_open;
  }
  EXPECT_EQ(fs_open, 256u) << "the fs gate was not full at the cut";
  EXPECT_GT(report.task_attempts, 256u) << "no attempt waited in the gate";
  cluster.reset();
}

// Parameterized sweep: every (mode, hoist, peer) combination must produce
// the identical physics result.
class VineConfigMatrix
    : public ::testing::TestWithParam<std::tuple<exec::ExecMode, bool, bool>> {
};

TEST_P(VineConfigMatrix, AllConfigurationsProduceIdenticalResults) {
  const auto [mode, hoist, peers] = GetParam();
  const apps::WorkloadSpec workload = tiny_dv3(24);
  exec::RunOptions options = fast_options();
  options.mode = mode;
  options.hoist_imports = hoist;
  DataPolicy policy = taskvine_policy();
  policy.peer_transfers = peers;

  const dag::TaskGraph graph = apps::build_workload(workload, options.seed);
  cluster::Cluster cluster(tiny_cluster(4));
  VineScheduler scheduler(policy, VineTunables{});
  const auto report = scheduler.run(graph, cluster, options);
  ASSERT_TRUE(report.success) << report.failure_reason;
  EXPECT_EQ(sink_digest(report), reference_digest(graph));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, VineConfigMatrix,
    ::testing::Combine(::testing::Values(exec::ExecMode::kStandardTasks,
                                         exec::ExecMode::kFunctionCalls),
                       ::testing::Bool(), ::testing::Bool()));

}  // namespace
}  // namespace hepvine::vine
