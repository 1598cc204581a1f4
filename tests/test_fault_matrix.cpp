// Adversarial fault-schedule matrix: every scheduler backend must survive
// every schedule and produce the bit-identical physics histogram a serial
// evaluation produces, with RunReport fault counters exact where the
// schedule guarantees a landing, and the whole run replayable: the same
// schedule + seed twice gives identical makespan, counters, and txn log.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "dd/dask_distributed.h"
#include "scheduler_test_util.h"
#include "vine/vine_scheduler.h"
#include "wq/work_queue.h"

namespace hepvine {
namespace {

using namespace hepvine::testutil;
using util::Tick;

std::unique_ptr<exec::SchedulerBackend> make_scheduler(
    const std::string& name) {
  if (name == "taskvine") return std::make_unique<vine::VineScheduler>();
  if (name == "work-queue") return std::make_unique<wq::WorkQueueScheduler>();
  return std::make_unique<dd::DaskDistScheduler>();
}

class FaultMatrix : public ::testing::TestWithParam<const char*> {
 protected:
  dag::TaskGraph graph_ = apps::build_workload(tiny_dv3(24), 31);

  exec::RunOptions base_options() const {
    exec::RunOptions options = fast_options();
    options.seed = 31;
    options.max_task_retries = 30;
    // Txn capture only: every run's transfer record is checked.
    options.observability.enabled = true;
    options.observability.perf_log = false;
    options.observability.chrome_trace = false;
    return options;
  }

  exec::RunReport run(const exec::RunOptions& options,
                      std::uint32_t workers = 4,
                      double preempt_per_hour = 0.0) const {
    cluster::Cluster cluster(tiny_cluster(workers, preempt_per_hour));
    return make_scheduler(GetParam())->run(graph_, cluster, options);
  }

  /// Fault-free probe of this scheduler, to time faults relative to.
  exec::RunReport probe() const {
    const auto report = run(base_options());
    EXPECT_TRUE(report.success) << report.failure_reason;
    return report;
  }

  void expect_exact_result(const exec::RunReport& report) const {
    ASSERT_TRUE(report.success) << report.failure_reason;
    EXPECT_EQ(sink_digest(report), reference_digest(graph_));
    ASSERT_NE(report.observation, nullptr);
    EXPECT_GT(expect_transfers_paired(report.observation->txn().text()), 0u);
  }

  /// Same schedule + seed twice must replay identically.
  static void expect_replay_identical(const exec::RunReport& a,
                                      const exec::RunReport& b) {
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.task_attempts, b.task_attempts);
    EXPECT_EQ(a.lineage_resets, b.lineage_resets);
    EXPECT_EQ(a.worker_crashes, b.worker_crashes);
    EXPECT_EQ(a.faults.faults_injected, b.faults.faults_injected);
    EXPECT_EQ(a.faults.worker_crashes, b.faults.worker_crashes);
    EXPECT_EQ(a.faults.cache_losses, b.faults.cache_losses);
    EXPECT_EQ(a.faults.transfers_killed, b.faults.transfers_killed);
    EXPECT_EQ(a.faults.transfer_retries, b.faults.transfer_retries);
    EXPECT_EQ(a.faults.backoff_wait, b.faults.backoff_wait);
  }

  const obs::AttemptSpan* find_success(const exec::RunReport& report,
                                       dag::TaskId t) const {
    for (const auto& a : report.profile.attempts()) {
      if (a.task == t && !a.failed) return &a;
    }
    return nullptr;
  }
};

TEST_P(FaultMatrix, MidTransferKillStorm) {
  const auto clean = probe();
  exec::RunOptions options = base_options();
  for (int i = 1; i <= 8; ++i) {
    options.faults.kill_transfers(clean.makespan * i / 12, 2);
  }
  const auto report = run(options);
  expect_exact_result(report);
  const auto replay = run(options);
  expect_exact_result(replay);
  expect_replay_identical(report, replay);
}

TEST_P(FaultMatrix, CrashDuringFinalReduction) {
  const auto clean = probe();
  const auto* sink = find_success(clean, graph_.sinks().at(0));
  ASSERT_NE(sink, nullptr);
  ASSERT_GE(sink->worker, 0);
  exec::RunOptions options = base_options();
  // The fault run replays the probe until the crash tick, so the sink's
  // worker is mid-reduction exactly then — the crash is guaranteed to land.
  options.faults.crash_worker((sink->exec_at + sink->exec_end_at) / 2,
                              sink->worker);
  const auto report = run(options);
  expect_exact_result(report);
  EXPECT_EQ(report.faults.worker_crashes, 1u);
  EXPECT_EQ(report.faults.faults_injected, 1u);
  EXPECT_EQ(report.worker_crashes, 1u);
  // The crash fails the running reduction; the failure count is read off
  // the attempt record, so the two can never disagree.
  const auto failed = static_cast<std::size_t>(std::count_if(
      report.profile.attempts().begin(), report.profile.attempts().end(),
      [](const obs::AttemptSpan& a) { return a.failed; }));
  EXPECT_GE(failed, 1u);
  EXPECT_EQ(report.task_failures, failed);
}

TEST_P(FaultMatrix, FsOutageDuringImportStorm) {
  // Full shared-FS outage while the cluster cold-starts (environment and
  // dataset reads in flight). Flows stall at zero rate and resume.
  exec::RunOptions options = base_options();
  const Tick duration = util::seconds(20);
  options.faults.fs_outage(util::seconds(2), duration);
  const auto report = run(options);
  expect_exact_result(report);
  EXPECT_EQ(report.faults.fs_degradations, 1u);
  EXPECT_EQ(report.faults.fs_degraded_time, duration);
  // The outage can only delay, never speed up, the cold start.
  const auto clean = probe();
  EXPECT_GE(report.makespan, clean.makespan);
}

TEST_P(FaultMatrix, BrownoutMidRunPlusTransferKills) {
  const auto clean = probe();
  exec::RunOptions options = base_options();
  options.faults.fs_brownout(clean.makespan / 5, clean.makespan / 3, 0.25)
      .kill_transfers(clean.makespan / 2, 3);
  const auto report = run(options);
  expect_exact_result(report);
  EXPECT_EQ(report.faults.fs_degradations, 1u);
  EXPECT_EQ(report.faults.fs_degraded_time, clean.makespan / 3);
}

TEST_P(FaultMatrix, StragglerPlusBatchPreemptionCombo) {
  const auto clean = probe();
  exec::RunOptions options = base_options();
  options.faults
      .straggler(clean.makespan / 10, 1, 4.0, clean.makespan / 2)
      .crash_worker(clean.makespan / 2, 2);
  // Injected faults on top of organic batch preemption.
  const auto report = run(options, 4, 20.0);
  expect_exact_result(report);
  EXPECT_EQ(report.faults.stragglers, 1u);
  const auto replay = run(options, 4, 20.0);
  expect_exact_result(replay);
  expect_replay_identical(report, replay);
}

TEST_P(FaultMatrix, CacheLossStorm) {
  const auto clean = probe();
  exec::RunOptions options = base_options();
  for (std::int64_t f = 0; f < 12; ++f) {
    options.faults.lose_cached_file(clean.makespan * (2 + f % 5) / 8, -1, f);
  }
  const auto report = run(options);
  expect_exact_result(report);
  const auto replay = run(options);
  expect_exact_result(replay);
  expect_replay_identical(report, replay);
}

TEST_P(FaultMatrix, StochasticChaosReplaysBitIdentically) {
  // Seeded generators only: armed mid-stream transfer deaths plus Poisson
  // worker crashes. Two runs with the same schedule seed must produce the
  // same result, the same counters, and the same transaction log.
  exec::RunOptions options = base_options();
  options.faults.stochastic.transfer_kill_prob = 0.05;
  options.faults.stochastic.worker_crash_rate_per_hour = 30.0;
  options.faults.seed = 13;
  // Every sink on: the perf log and Chrome trace also see the chaos.
  options.observability.perf_log = true;
  options.observability.chrome_trace = true;
  const auto report = run(options);
  expect_exact_result(report);
  const auto replay = run(options);
  expect_exact_result(replay);
  expect_replay_identical(report, replay);
  EXPECT_EQ(report.observation->txn().text(), replay.observation->txn().text());
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, FaultMatrix,
                         ::testing::Values("taskvine", "work-queue",
                                           "dask.distributed"));

}  // namespace
}  // namespace hepvine
