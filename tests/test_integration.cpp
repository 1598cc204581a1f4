// Cross-scheduler integration and property tests: the backbone guarantee
// that real results flow through the simulation unchanged — every
// scheduler, execution paradigm, failure pattern, DAG shape, and cluster
// size must produce the bit-identical physics histogram that a serial
// in-process evaluation produces.
#include <gtest/gtest.h>

#include <memory>

#include "dd/dask_distributed.h"
#include "scheduler_test_util.h"
#include "vine/vine_scheduler.h"
#include "wq/work_queue.h"

namespace hepvine {
namespace {

using namespace hepvine::testutil;

std::unique_ptr<exec::SchedulerBackend> make_scheduler(
    const std::string& name) {
  if (name == "taskvine") return std::make_unique<vine::VineScheduler>();
  if (name == "work-queue") return std::make_unique<wq::WorkQueueScheduler>();
  return std::make_unique<dd::DaskDistScheduler>();
}

class SchedulerEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(SchedulerEquivalence, MatchesSerialReferenceOnDv3) {
  const apps::WorkloadSpec workload = tiny_dv3(32);
  const dag::TaskGraph graph = apps::build_workload(workload, 9);
  cluster::Cluster cluster(tiny_cluster(4));
  exec::RunOptions options = fast_options();
  options.seed = 9;
  auto scheduler = make_scheduler(GetParam());
  const auto report = scheduler->run(graph, cluster, options);
  ASSERT_TRUE(report.success) << report.failure_reason;
  EXPECT_EQ(sink_digest(report), reference_digest(graph));
}

TEST_P(SchedulerEquivalence, MatchesSerialReferenceOnTriphoton) {
  apps::WorkloadSpec workload = with_events(apps::rs_triphoton(), 150);
  workload.process_tasks = 40;
  workload.datasets = 4;
  workload.input_bytes = 10 * util::kGB;
  workload.process_output_bytes = 50 * util::kMB;
  workload.reduce_output_bytes = 50 * util::kMB;
  workload.process_memory = 2 * util::kGB;
  workload.reduce_memory = 2 * util::kGB;
  const dag::TaskGraph graph = apps::build_workload(workload, 11);
  cluster::Cluster cluster(tiny_cluster(4));
  exec::RunOptions options = fast_options();
  options.seed = 11;
  auto scheduler = make_scheduler(GetParam());
  const auto report = scheduler->run(graph, cluster, options);
  ASSERT_TRUE(report.success) << report.failure_reason;
  EXPECT_EQ(sink_digest(report), reference_digest(graph));
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, SchedulerEquivalence,
                         ::testing::Values("taskvine", "work-queue",
                                           "dask.distributed"));

class FailureInjectionSweep
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(FailureInjectionSweep, TaskVineReproducesResultsUnderPreemption) {
  const auto [rate, seed] = GetParam();
  const apps::WorkloadSpec workload = tiny_dv3(32);
  const dag::TaskGraph graph = apps::build_workload(workload, seed);
  cluster::Cluster cluster(tiny_cluster(4, rate, seed));
  exec::RunOptions options = fast_options();
  options.seed = seed;
  options.max_task_retries = 20;
  vine::VineScheduler scheduler;
  const auto report = scheduler.run(graph, cluster, options);
  ASSERT_TRUE(report.success) << report.failure_reason;
  EXPECT_EQ(sink_digest(report), reference_digest(graph))
      << "preemption rate " << rate << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Rates, FailureInjectionSweep,
    ::testing::Combine(::testing::Values(0.0, 6.0, 20.0, 60.0),
                       ::testing::Values(1u, 2u, 3u)));

class ReductionShapeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ReductionShapeSweep, AnyArityMatchesSingleNodeResult) {
  apps::WorkloadSpec tree = tiny_dv3(30);
  tree.reduce_arity = GetParam();
  const dag::TaskGraph tree_graph = apps::build_workload(tree, 13);

  apps::WorkloadSpec flat = tiny_dv3(30);
  flat.reduction = apps::ReductionShape::kSingleNode;
  const dag::TaskGraph flat_graph = apps::build_workload(flat, 13);

  EXPECT_EQ(reference_digest(tree_graph), reference_digest(flat_graph));

  cluster::Cluster cluster(tiny_cluster(4));
  vine::VineScheduler scheduler;
  const auto report = scheduler.run(tree_graph, cluster, fast_options());
  ASSERT_TRUE(report.success);
  EXPECT_EQ(sink_digest(report), reference_digest(flat_graph));
}

INSTANTIATE_TEST_SUITE_P(Arities, ReductionShapeSweep,
                         ::testing::Values(2, 3, 8, 32));

class ClusterSizeSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ClusterSizeSweep, ResultIndependentOfWorkerCount) {
  const apps::WorkloadSpec workload = tiny_dv3(32);
  const dag::TaskGraph graph = apps::build_workload(workload, 21);
  cluster::Cluster cluster(tiny_cluster(GetParam()));
  exec::RunOptions options = fast_options();
  options.seed = 21;
  vine::VineScheduler scheduler;
  const auto report = scheduler.run(graph, cluster, options);
  ASSERT_TRUE(report.success);
  EXPECT_EQ(sink_digest(report), reference_digest(graph));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ClusterSizeSweep,
                         ::testing::Values(1, 2, 5, 12));

TEST(Integration, MoreWorkersNeverSlowTinyWorkloadPathologically) {
  // Sanity on scaling direction at tiny scale: 8 workers should not be
  // slower than 1 worker for an embarrassingly parallel map phase.
  const apps::WorkloadSpec workload = tiny_dv3(48);
  auto run_with = [&](std::uint32_t workers) {
    const dag::TaskGraph graph = apps::build_workload(workload, 2);
    cluster::Cluster cluster(tiny_cluster(workers));
    exec::RunOptions options = fast_options();
    options.seed = 2;
    options.mode = exec::ExecMode::kFunctionCalls;
    vine::VineScheduler scheduler;
    return scheduler.run(graph, cluster, options);
  };
  const auto one = run_with(1);
  const auto eight = run_with(8);
  ASSERT_TRUE(one.success);
  ASSERT_TRUE(eight.success);
  EXPECT_LT(eight.makespan, one.makespan);
}

TEST(Integration, TraceAccountsForEveryTask) {
  const apps::WorkloadSpec workload = tiny_dv3(24);
  const dag::TaskGraph graph = apps::build_workload(workload, 4);
  cluster::Cluster cluster(tiny_cluster(3));
  exec::RunOptions options = fast_options();
  options.seed = 4;
  vine::VineScheduler scheduler;
  const auto report = scheduler.run(graph, cluster, options);
  ASSERT_TRUE(report.success);
  // Every task has exactly one successful attempt; timestamps are
  // ordered ready <= dispatched <= exec < exec end.
  std::size_t successes = 0;
  for (const auto& a : report.profile.attempts()) {
    if (a.failed) continue;
    ++successes;
    EXPECT_LE(a.ready_at, a.dispatched_at);
    EXPECT_LE(a.dispatched_at, a.exec_at);
    EXPECT_LT(a.exec_at, a.exec_end_at);
    EXPECT_GE(a.worker, 0);
  }
  EXPECT_EQ(successes, graph.size());
}

}  // namespace
}  // namespace hepvine
