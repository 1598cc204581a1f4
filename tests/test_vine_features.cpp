// Tests for TaskVine extension features: intermediate replication,
// wide-area data streaming, depth-priority scheduling, and automatic
// reduction-arity planning.
#include <gtest/gtest.h>

#include "dag/builders.h"
#include "exec/task_state.h"
#include "scheduler_test_util.h"
#include "vine/vine_scheduler.h"

namespace hepvine::vine {
namespace {

using namespace hepvine::testutil;

exec::RunReport run_vine(const apps::WorkloadSpec& workload,
                         const exec::RunOptions& options,
                         std::uint32_t workers = 4,
                         double preempt_per_hour = 0.0) {
  const dag::TaskGraph graph = apps::build_workload(workload, options.seed);
  cluster::Cluster cluster(tiny_cluster(workers, preempt_per_hour,
                                        options.seed));
  VineScheduler scheduler;
  return scheduler.run(graph, cluster, options);
}

// --- intermediate replication -------------------------------------------

TEST(Replication, ExtraCopiesAppearInPeerTraffic) {
  const apps::WorkloadSpec workload = tiny_dv3(24);
  exec::RunOptions single = fast_options();
  single.intermediate_replicas = 1;
  const auto base = run_vine(workload, single);
  ASSERT_TRUE(base.success);

  exec::RunOptions twice = fast_options();
  twice.intermediate_replicas = 2;
  const auto replicated = run_vine(workload, twice);
  ASSERT_TRUE(replicated.success);

  EXPECT_GT(replicated.transfers.peer_bytes(), base.transfers.peer_bytes())
      << "replication must move extra copies between workers";
  EXPECT_EQ(sink_digest(base), sink_digest(replicated));
}

TEST(Replication, ReducesLineageReExecutionUnderPreemption) {
  // Heavy preemption; compare total lineage resets across seeds with and
  // without replication. Replicated runs recover from surviving copies.
  // Preemption cancels fetches to and from dying workers, so every run
  // also checks that each cancelled transfer is closed in the txn log.
  apps::WorkloadSpec workload = tiny_dv3(48);
  std::size_t resets_without = 0;
  std::size_t resets_with = 0;
  for (std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    exec::RunOptions options = fast_options();
    options.seed = seed;
    options.max_task_retries = 40;
    options.observability.enabled = true;
    options.observability.perf_log = false;
    options.observability.chrome_trace = false;
    options.intermediate_replicas = 1;
    const auto a = run_vine(workload, options, 4, 120.0);
    ASSERT_TRUE(a.success) << a.failure_reason;
    resets_without += a.lineage_resets;
    ASSERT_NE(a.observation, nullptr);
    expect_transfers_paired(a.observation->txn().text());

    options.intermediate_replicas = 3;
    const auto b = run_vine(workload, options, 4, 120.0);
    ASSERT_TRUE(b.success) << b.failure_reason;
    resets_with += b.lineage_resets;
    ASSERT_NE(b.observation, nullptr);
    expect_transfers_paired(b.observation->txn().text());
  }
  EXPECT_LE(resets_with, resets_without);
}

TEST(Replication, DisabledWithoutPeerTransfers) {
  apps::WorkloadSpec workload = tiny_dv3(12);
  exec::RunOptions options = fast_options();
  options.intermediate_replicas = 3;
  const dag::TaskGraph graph = apps::build_workload(workload, options.seed);
  cluster::Cluster cluster(tiny_cluster(3));
  options.observability.enabled = true;
  DataPolicy policy = taskvine_policy();
  policy.peer_transfers = false;
  VineScheduler scheduler(policy, VineTunables{});
  const auto report = scheduler.run(graph, cluster, options);
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.transfers.peer_bytes(), 0u);
  // Intermediates relay worker -> manager -> worker; each hop is one
  // transfer record.
  ASSERT_NE(report.observation, nullptr);
  EXPECT_GT(expect_transfers_paired(report.observation->txn().text()), 0u);
}

// --- wide-area (XRootD) input streaming ----------------------------------

TEST(WanInputs, CorrectButFarSlowerThanLocalStore) {
  // 48 GB of input: ~96 s over the 4 Gbit/s federation ingress, seconds
  // from the local store.
  const apps::WorkloadSpec workload = tiny_dv3(24, 48);
  exec::RunOptions local = fast_options();
  const auto local_report = run_vine(workload, local);
  ASSERT_TRUE(local_report.success);

  exec::RunOptions wan = fast_options();
  wan.inputs_from_wan = true;
  const auto wan_report = run_vine(workload, wan);
  ASSERT_TRUE(wan_report.success);

  EXPECT_EQ(sink_digest(local_report), sink_digest(wan_report));
  EXPECT_GT(wan_report.makespan, 2 * local_report.makespan)
      << "streaming 48 GB from the federation cannot match the local store";
}

// --- depth-priority scheduling -------------------------------------------

TEST(DepthPriority, ReadyReductionsDispatchBeforeReadyMapTasks) {
  // One completed partial group makes a reduce task ready while many map
  // tasks are still queued; the reduce task must dispatch first.
  const apps::WorkloadSpec workload = tiny_dv3(48);
  const dag::TaskGraph graph = apps::build_workload(workload, 5);
  exec::TaskStateTable table(graph);
  // Depths: process = 0, first accumulate level = 1.
  bool saw_reduce_depth = false;
  for (const auto& task : graph.tasks()) {
    if (task.spec.category == "accumulate") {
      EXPECT_GE(table.depth(task.id), 1u);
      saw_reduce_depth = true;
    } else {
      EXPECT_EQ(table.depth(task.id), 0u);
    }
  }
  EXPECT_TRUE(saw_reduce_depth);

  // Complete the first 8 process tasks -> their accumulator becomes ready
  // and must pop before the remaining process tasks.
  for (int i = 0; i < 8; ++i) {
    const dag::TaskId t = table.pop_ready();
    ASSERT_LT(t, 8);
    table.mark_dispatched(t, 0);
    table.mark_done(t, std::make_shared<dag::ScalarValue>(1.0), 0);
  }
  const dag::TaskId next = table.pop_ready();
  EXPECT_EQ(graph.task(next).spec.category, "accumulate");
}

TEST(DepthPriority, BoundsStandingIntermediatesOnSmallClusters) {
  // DV3-like workload whose total intermediates exceed total disk: only
  // eager reduction (plus pruning, plus waiting for space instead of
  // over-committing) lets it complete on few workers.
  apps::WorkloadSpec workload = tiny_dv3(96, 10);
  workload.process_output_bytes = 4 * util::kGB;  // 384 GB of partials
  workload.reduce_output_bytes = 4 * util::kGB;
  workload.reduce_arity = 4;
  exec::RunOptions options = fast_options();
  options.max_task_retries = 10;
  const auto report = run_vine(workload, options, 3);  // 324 GB total disk
  EXPECT_TRUE(report.success) << report.failure_reason;
  EXPECT_EQ(report.worker_crashes, 0u);
}

// --- dispatch fallback ranking -------------------------------------------

TEST(DispatchFallback, OverflowDispatchSparesWorkerWithCommittedBytes) {
  // A task whose footprint exceeds every scratch disk is dispatched anyway
  // (the overflow surfaces as the worker failure it would be in
  // production). The sacrificial dispatch must go to the worker with the
  // most *uncommitted* headroom: ranking by raw disk.available() would
  // crown the worker whose free space is already promised to an in-flight
  // attempt, and the overflow would take that attempt down with it.
  dag::TaskGraph graph;
  const auto scalar = [](double v) {
    return [v](const std::vector<dag::ValuePtr>&) {
      return std::make_shared<dag::ScalarValue>(v);
    };
  };
  // Long-running task with a large declared output: its worker's disk
  // looks empty (output not written yet) but 90 GB of it is committed.
  dag::TaskSpec blob;
  blob.category = "blob";
  blob.cpu_seconds = 300;
  blob.output_bytes = 90 * util::kGB;
  blob.memory_bytes = 60 * util::kGB;  // blob+small can't share a worker
  blob.fn = scalar(1.0);
  const dag::TaskId t_blob = graph.add_task(blob);

  // Quick task leaving a 20 GB output resident: its worker has less raw
  // free space than the blob's, but far more uncommitted headroom.
  dag::TaskSpec small;
  small.category = "small";
  small.cpu_seconds = 0.1;
  small.output_bytes = 20 * util::kGB;
  small.memory_bytes = 60 * util::kGB;
  small.fn = scalar(2.0);
  const dag::TaskId t_small = graph.add_task(small);

  // Doomed: 120 GB output can never fit a 108 GB disk.
  dag::TaskSpec doomed;
  doomed.category = "doomed";
  doomed.deps = {t_small};
  doomed.cpu_seconds = 0.1;
  doomed.output_bytes = 120 * util::kGB;
  doomed.memory_bytes = 2 * util::kGB;
  doomed.fn = scalar(3.0);
  const dag::TaskId t_doomed = graph.add_task(doomed);

  exec::RunOptions options = fast_options();
  options.max_task_retries = 0;  // first overflow ends the run
  cluster::Cluster cluster(tiny_cluster(2));
  VineScheduler scheduler;
  const auto report = scheduler.run(graph, cluster, options);

  ASSERT_FALSE(report.success);
  EXPECT_EQ(report.worker_crashes, 1u);
  const obs::AttemptSpan* small_rec = nullptr;
  const obs::AttemptSpan* doomed_rec = nullptr;
  bool blob_failed = false;
  for (const auto& a : report.profile.attempts()) {
    if (a.task == t_small && !a.failed) small_rec = &a;
    if (a.task == t_doomed) doomed_rec = &a;
    if (a.task == t_blob && a.failed) blob_failed = true;
  }
  ASSERT_NE(small_rec, nullptr);
  ASSERT_NE(doomed_rec, nullptr);
  EXPECT_TRUE(doomed_rec->failed);
  // The sacrifice lands next to the resident 20 GB (88 GB of real
  // headroom), not on the blob's worker (108 GB free on paper, 18 GB net
  // of its commitment).
  EXPECT_EQ(doomed_rec->worker, small_rec->worker);
  // And the blob, whose disk promise the ranking respected, is untouched.
  EXPECT_FALSE(blob_failed);
}

// --- automatic arity planning --------------------------------------------

TEST(ArityPlanner, RespectsDiskBudget) {
  // 10 GB partials on a 108 GB disk with a 25% budget: 27 GB / 10 GB ->
  // at most 1 output + 1 input colocated... arity clamps to the minimum.
  EXPECT_EQ(dag::choose_reduction_arity(10 * util::kGB, 108 * util::kGB,
                                        1000),
            2u);
  // 1 GB partials: 27 files fit; arity 26 (leave room for the output).
  EXPECT_EQ(dag::choose_reduction_arity(util::kGB, 108 * util::kGB, 1000),
            26u);
}

TEST(ArityPlanner, ClampsToInputCountAndMinimum) {
  EXPECT_EQ(dag::choose_reduction_arity(util::kMB, 108 * util::kGB, 5), 5u);
  EXPECT_EQ(dag::choose_reduction_arity(0, 108 * util::kGB, 500), 500u);
  EXPECT_EQ(dag::choose_reduction_arity(500 * util::kGB, 108 * util::kGB,
                                        100),
            2u);
}

TEST(ArityPlanner, PlannedTreeCompletesWhereSingleNodeCannot) {
  apps::WorkloadSpec workload = tiny_dv3(30);
  workload.process_output_bytes = 12 * util::kGB;
  workload.reduce_output_bytes = 12 * util::kGB;
  workload.reduce_arity = dag::choose_reduction_arity(
      workload.process_output_bytes, 108 * util::kGB, 30);
  const auto report = run_vine(workload, fast_options(), 6);
  EXPECT_TRUE(report.success) << report.failure_reason;
}

}  // namespace
}  // namespace hepvine::vine
