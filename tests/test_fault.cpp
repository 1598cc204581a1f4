// Fault-injection subsystem tests: RetryPolicy/FaultSchedule units, the
// crash double-count regression, exact chained lineage-reset accounting,
// the poisoned-task detector, relay retry when the source dies, and the
// zero-cost-when-off guarantee (empty schedule => byte-identical txn log).
#include <gtest/gtest.h>

#include <string>

#include "fault/backoff_ledger.h"
#include "fault/fault_schedule.h"
#include "scheduler_test_util.h"
#include "vine/vine_scheduler.h"

namespace hepvine {
namespace {

using namespace hepvine::testutil;
using util::Tick;

// --- RetryPolicy / FaultSchedule units -----------------------------------

TEST(RetryPolicy, BackoffIsCappedExponential) {
  fault::RetryPolicy policy;
  policy.backoff_base = 100 * util::kMsec;
  policy.backoff_multiplier = 2.0;
  policy.backoff_cap = 5 * util::kSec;
  EXPECT_EQ(policy.backoff(1), 100 * util::kMsec);
  EXPECT_EQ(policy.backoff(2), 200 * util::kMsec);
  EXPECT_EQ(policy.backoff(3), 400 * util::kMsec);
  EXPECT_EQ(policy.backoff(6), 3200 * util::kMsec);
  // 100ms * 2^6 = 6.4 s: capped.
  EXPECT_EQ(policy.backoff(7), 5 * util::kSec);
  EXPECT_EQ(policy.backoff(30), 5 * util::kSec);
}

TEST(FaultSchedule, BuildersFillEventFields) {
  fault::FaultSchedule schedule;
  schedule.crash_worker(util::seconds(1), 3)
      .lose_cached_file(util::seconds(2), -1, 17)
      .kill_transfers(util::seconds(3), 4)
      .fs_brownout(util::seconds(4), util::seconds(10), 0.25)
      .fs_outage(util::seconds(5), util::seconds(2))
      .straggler(util::seconds(6), 1, 8.0, util::seconds(30));
  ASSERT_EQ(schedule.events.size(), 6u);
  EXPECT_EQ(schedule.events[0].kind, fault::FaultKind::kWorkerCrash);
  EXPECT_EQ(schedule.events[0].worker, 3);
  EXPECT_EQ(schedule.events[1].kind, fault::FaultKind::kCacheLoss);
  EXPECT_EQ(schedule.events[1].worker, -1);
  EXPECT_EQ(schedule.events[1].file, 17);
  EXPECT_EQ(schedule.events[2].kind, fault::FaultKind::kTransferKill);
  EXPECT_EQ(schedule.events[2].count, 4u);
  EXPECT_EQ(schedule.events[3].kind, fault::FaultKind::kFsDegrade);
  EXPECT_DOUBLE_EQ(schedule.events[3].factor, 0.25);
  EXPECT_EQ(schedule.events[3].duration, util::seconds(10));
  EXPECT_EQ(schedule.events[4].kind, fault::FaultKind::kFsDegrade);
  EXPECT_DOUBLE_EQ(schedule.events[4].factor, 0.0);  // outage = zero bw
  EXPECT_EQ(schedule.events[5].kind, fault::FaultKind::kStraggler);
  EXPECT_DOUBLE_EQ(schedule.events[5].factor, 8.0);
}

TEST(FaultSchedule, ManagerCrashBuilderFillsEventFields) {
  fault::FaultSchedule schedule;
  schedule.crash_manager(util::seconds(9));
  ASSERT_EQ(schedule.events.size(), 1u);
  EXPECT_EQ(schedule.events[0].kind, fault::FaultKind::kManagerCrash);
  EXPECT_EQ(schedule.events[0].at, util::seconds(9));
  EXPECT_FALSE(schedule.empty());
}

TEST(BackoffLedger, EscalatesPerKeyAndResetsOnSuccess) {
  // Regression (sticky escalation): the raw per-file counters this class
  // replaced were never cleared on success, so a later, independent failure
  // of the same file inherited the earlier episode's escalation. reset()
  // must make the next failure a fresh attempt 1.
  fault::BackoffLedger<std::int64_t> ledger;
  EXPECT_TRUE(ledger.empty());
  EXPECT_EQ(ledger.attempts(7), 0u);
  EXPECT_EQ(ledger.next_attempt(7), 1u);
  EXPECT_EQ(ledger.next_attempt(7), 2u);
  EXPECT_EQ(ledger.next_attempt(9), 1u);  // keys escalate independently
  EXPECT_EQ(ledger.attempts(7), 2u);
  EXPECT_EQ(ledger.size(), 2u);
  ledger.reset(7);
  EXPECT_EQ(ledger.attempts(7), 0u);
  EXPECT_EQ(ledger.next_attempt(7), 1u);  // fresh episode, not 3
  ledger.reset(42);  // resetting an unknown key is a no-op
  EXPECT_EQ(ledger.size(), 2u);
}

TEST(BackoffLedger, VisitsOpenEpisodesInKeyOrder) {
  // Snapshot serialization (ha/snapshot.h) depends on a deterministic
  // visitation order regardless of insertion order.
  fault::BackoffLedger<std::int64_t> ledger;
  ledger.next_attempt(30);
  ledger.next_attempt(10);
  ledger.next_attempt(20);
  ledger.next_attempt(10);
  std::string seen;
  ledger.for_each([&seen](std::int64_t key, std::uint32_t attempts) {
    seen += std::to_string(key) + ":" + std::to_string(attempts) + " ";
  });
  EXPECT_EQ(seen, "10:2 20:1 30:1 ");
}

TEST(FaultSchedule, EmptyDetection) {
  fault::FaultSchedule schedule;
  EXPECT_TRUE(schedule.empty());
  schedule.stochastic.transfer_kill_prob = 0.1;
  EXPECT_FALSE(schedule.empty());
  schedule.stochastic.transfer_kill_prob = 0.0;
  schedule.crash_worker(util::seconds(1), 0);
  EXPECT_FALSE(schedule.empty());
}

// --- end-to-end regressions ----------------------------------------------

/// Successful attempt of `t`, or nullptr.
const obs::AttemptSpan* find_success(const exec::RunReport& report,
                                     dag::TaskId t) {
  for (const auto& a : report.profile.attempts()) {
    if (a.task == t && !a.failed) return &a;
  }
  return nullptr;
}

exec::RunReport run_vine(const dag::TaskGraph& graph,
                         const exec::RunOptions& options,
                         std::uint32_t workers) {
  cluster::Cluster cluster(tiny_cluster(workers));
  vine::VineScheduler scheduler;
  return scheduler.run(graph, cluster, options);
}

TEST(VineFaults, DuplicateCrashRequestsCountOnce) {
  // Regression (double-crash window): a second crash request for the same
  // worker — same tick or while its forced preemption is still in flight —
  // must be a no-op, not a second counted crash.
  const apps::WorkloadSpec workload = tiny_dv3(24);
  const dag::TaskGraph graph = apps::build_workload(workload, 5);
  exec::RunOptions options = fast_options();
  options.max_task_retries = 20;

  const auto probe = run_vine(graph, options, 4);
  ASSERT_TRUE(probe.success) << probe.failure_reason;

  const Tick mid = probe.makespan / 2;
  options.faults.crash_worker(mid, 0)
      .crash_worker(mid, 0)                  // same tick duplicate
      .crash_worker(mid + util::kMsec, 0);   // inside the teardown window
  const auto report = run_vine(graph, options, 4);
  ASSERT_TRUE(report.success) << report.failure_reason;
  EXPECT_EQ(report.worker_crashes, 1u);
  EXPECT_EQ(report.faults.worker_crashes, 1u);
  EXPECT_EQ(report.faults.faults_injected, 1u);
  EXPECT_EQ(sink_digest(report), reference_digest(graph));
}

TEST(VineFaults, ChainedLineageResetCountsEachTaskOnce) {
  // A depth-3 reduction tree on a single worker: a crash while the final
  // reduce executes loses every retained output at once. Recovery must
  // lineage-reset the whole ancestor subtree — reduces first, then chained
  // through them their producers — counting each task exactly once: every
  // task except the sink itself, graph.size() - 1 resets total.
  apps::WorkloadSpec workload = tiny_dv3(4);
  workload.reduce_arity = 2;
  const dag::TaskGraph graph = apps::build_workload(workload, 7);
  ASSERT_EQ(graph.sinks().size(), 1u);
  ASSERT_GE(graph.size(), 7u);
  const dag::TaskId sink = graph.sinks().at(0);

  exec::RunOptions options = fast_options();
  options.seed = 7;
  options.max_task_retries = 20;
  const auto probe = run_vine(graph, options, 1);
  ASSERT_TRUE(probe.success) << probe.failure_reason;
  const auto* rec = find_success(probe, sink);
  ASSERT_NE(rec, nullptr);
  ASSERT_LT(rec->exec_at, rec->exec_end_at);

  // The fault run replays the probe timeline exactly until the crash, so
  // the midpoint of the probe's sink execution is mid-R3 here too.
  options.faults.crash_worker((rec->exec_at + rec->exec_end_at) / 2, 0);
  const auto report = run_vine(graph, options, 1);
  ASSERT_TRUE(report.success) << report.failure_reason;
  EXPECT_EQ(report.faults.worker_crashes, 1u);
  EXPECT_EQ(report.lineage_resets, graph.size() - 1);
  EXPECT_EQ(sink_digest(report), reference_digest(graph));
}

TEST(VineFaults, PoisonedTaskDetectorFailsRunWithPreciseReason) {
  // Two crashes, each timed (via probe runs) to land while the final
  // reduce executes, reset its producers twice. With the threshold at 1
  // the run must fail naming the poisoned task instead of looping.
  apps::WorkloadSpec workload = tiny_dv3(2);
  const dag::TaskGraph graph = apps::build_workload(workload, 3);
  const dag::TaskId sink = graph.sinks().at(0);

  exec::RunOptions options = fast_options();
  options.max_task_retries = 50;

  const auto probe0 = run_vine(graph, options, 1);
  ASSERT_TRUE(probe0.success) << probe0.failure_reason;
  const auto* rec0 = find_success(probe0, sink);
  ASSERT_NE(rec0, nullptr);
  const Tick crash1 = (rec0->exec_at + rec0->exec_end_at) / 2;

  exec::RunOptions once = options;
  once.faults.crash_worker(crash1, 0);
  const auto probe1 = run_vine(graph, once, 1);
  ASSERT_TRUE(probe1.success) << probe1.failure_reason;
  const auto* rec1 = find_success(probe1, sink);  // the post-crash re-run
  ASSERT_NE(rec1, nullptr);
  ASSERT_GT(rec1->exec_at, crash1);

  exec::RunOptions twice = options;
  twice.faults.crash_worker(crash1, 0)
      .crash_worker((rec1->exec_at + rec1->exec_end_at) / 2, 0);
  twice.fault_retry.poisoned_reset_threshold = 1;
  const auto report = run_vine(graph, twice, 1);
  EXPECT_FALSE(report.success);
  EXPECT_NE(report.failure_reason.find("poisoned"), std::string::npos)
      << report.failure_reason;
  EXPECT_NE(report.failure_reason.find("output lost 2 times"),
            std::string::npos)
      << report.failure_reason;
}

TEST(VineFaults, RelayRetrySurvivesSourceWorkerCrash) {
  // Without peer transfers, a consumer reaches a worker-resident output
  // through a manager relay pull. Crash the holder while the final reduce
  // is staging: the relay retry finds the source gone and the lost-input
  // path (lineage reset on a fresh worker) must still finish the run.
  // Enough tasks to overflow one 16-core node so outputs land on several
  // workers and the final reduce must pull across nodes.
  const apps::WorkloadSpec workload = tiny_dv3(40);
  const dag::TaskGraph graph = apps::build_workload(workload, 17);
  const dag::TaskId sink = graph.sinks().at(0);
  vine::DataPolicy policy = vine::taskvine_policy();
  policy.peer_transfers = false;

  exec::RunOptions options = fast_options();
  options.seed = 17;
  options.max_task_retries = 20;
  auto run_with = [&](const exec::RunOptions& opts) {
    cluster::Cluster cluster(tiny_cluster(3));
    vine::VineScheduler scheduler(policy, vine::VineTunables{});
    return scheduler.run(graph, cluster, opts);
  };

  const auto probe = run_with(options);
  ASSERT_TRUE(probe.success) << probe.failure_reason;
  const auto* rec = find_success(probe, sink);
  ASSERT_NE(rec, nullptr);
  // Crash a worker that ran a process task on another node than the sink:
  // its retained output is mid-relay (or about to be) while the sink stages.
  std::int32_t victim = -1;
  for (const auto& r : probe.profile.attempts()) {
    if (!r.failed && r.worker >= 0 && r.worker != rec->worker) {
      victim = r.worker;
      break;
    }
  }
  ASSERT_GE(victim, 0);
  const Tick staging_mid = (rec->dispatched_at + rec->exec_at) / 2;
  options.faults.crash_worker(
      staging_mid > rec->dispatched_at ? staging_mid : rec->dispatched_at + 1,
      victim);
  const auto report = run_with(options);
  ASSERT_TRUE(report.success) << report.failure_reason;
  EXPECT_EQ(report.faults.worker_crashes, 1u);
  EXPECT_EQ(sink_digest(report), reference_digest(graph));
}

TEST(VineFaults, TransferKillStormOnRelayPathRecovers) {
  // Same no-peer topology, but kill live transfers (fetches, relay pulls,
  // manager sends, returns) repeatedly across the whole run. Backoff
  // retries and the lost-input path must converge to the exact result.
  const apps::WorkloadSpec workload = tiny_dv3(16);
  const dag::TaskGraph graph = apps::build_workload(workload, 19);
  vine::DataPolicy policy = vine::taskvine_policy();
  policy.peer_transfers = false;

  exec::RunOptions options = fast_options();
  options.seed = 19;
  options.max_task_retries = 30;
  cluster::Cluster probe_cluster(tiny_cluster(3));
  vine::VineScheduler probe_sched(policy, vine::VineTunables{});
  const auto probe = probe_sched.run(graph, probe_cluster, options);
  ASSERT_TRUE(probe.success) << probe.failure_reason;

  for (int i = 1; i <= 8; ++i) {
    options.faults.kill_transfers(probe.makespan * i / 10, 2);
  }
  cluster::Cluster cluster(tiny_cluster(3));
  vine::VineScheduler scheduler(policy, vine::VineTunables{});
  const auto report = scheduler.run(graph, cluster, options);
  ASSERT_TRUE(report.success) << report.failure_reason;
  EXPECT_GE(report.faults.transfers_killed, 1u);
  EXPECT_EQ(sink_digest(report), reference_digest(graph));
}

TEST(VineFaults, ExhaustedKillBudgetRecordsGiveupAndConverges) {
  // Regression (off-by-one budget): max_transfer_retries counts kills
  // tolerated, and the Nth kill exhausts it — with the budget at 1 the
  // FIRST kill of a staging fetch must give up immediately (no backoff
  // re-fetch), emit a TRANSFER_GIVEUP audit line, and hand the file to the
  // lost-input path. The run still converges bit-identically.
  const apps::WorkloadSpec workload = tiny_dv3(16);
  const dag::TaskGraph graph = apps::build_workload(workload, 31);
  vine::DataPolicy policy = vine::taskvine_policy();
  policy.peer_transfers = false;

  exec::RunOptions options = fast_options();
  options.seed = 31;
  options.max_task_retries = 30;
  options.observability.enabled = true;
  options.observability.txn_log = true;
  auto run_with = [&](const exec::RunOptions& opts) {
    cluster::Cluster cluster(tiny_cluster(3));
    vine::VineScheduler scheduler(policy, vine::VineTunables{});
    return scheduler.run(graph, cluster, opts);
  };

  const auto probe = run_with(options);
  ASSERT_TRUE(probe.success) << probe.failure_reason;

  options.fault_retry.max_transfer_retries = 1;
  for (int i = 1; i <= 8; ++i) {
    options.faults.kill_transfers(probe.makespan * i / 10, 3);
  }
  const auto report = run_with(options);
  ASSERT_TRUE(report.success) << report.failure_reason;
  EXPECT_GE(report.faults.transfers_killed, 1u);
  EXPECT_GE(report.faults.transfer_giveups, 1u);
  ASSERT_NE(report.observation, nullptr);
  EXPECT_NE(report.observation->txn().text().find("TRANSFER_GIVEUP"),
            std::string::npos);
  EXPECT_EQ(sink_digest(report), reference_digest(graph));
}

TEST(VineFaults, CacheLossOnAllHoldersForcesRecovery) {
  // Drop a sweep of file ids from every holder mid-run. Dataset chunks are
  // re-fetched from the shared FS; task outputs lineage-reset. Either way
  // the histogram must come out bit-identical.
  const apps::WorkloadSpec workload = tiny_dv3(24);
  const dag::TaskGraph graph = apps::build_workload(workload, 23);
  exec::RunOptions options = fast_options();
  options.seed = 23;
  options.max_task_retries = 20;
  const auto probe = run_vine(graph, options, 4);
  ASSERT_TRUE(probe.success) << probe.failure_reason;

  for (std::int64_t f = 0; f < 16; ++f) {
    options.faults.lose_cached_file(probe.makespan * (3 + f % 4) / 10, -1, f);
  }
  const auto report = run_vine(graph, options, 4);
  ASSERT_TRUE(report.success) << report.failure_reason;
  EXPECT_GE(report.faults.cache_losses, 1u);
  EXPECT_EQ(sink_digest(report), reference_digest(graph));
}

TEST(VineFaults, EmptyScheduleLeavesTxnLogByteIdentical) {
  // Zero-cost-when-off: with an empty FaultSchedule no injector exists, no
  // fault RNG is drawn, and the transaction log is byte-identical no
  // matter how the retry policy is tuned.
  const apps::WorkloadSpec workload = tiny_dv3(24);
  const dag::TaskGraph graph = apps::build_workload(workload, 29);
  exec::RunOptions options = fast_options();
  options.seed = 29;
  options.observability.enabled = true;
  options.observability.txn_log = true;

  const auto base = run_vine(graph, options, 4);
  ASSERT_TRUE(base.success) << base.failure_reason;
  ASSERT_NE(base.observation, nullptr);

  exec::RunOptions tuned = options;
  tuned.fault_retry.max_transfer_retries = 1;
  tuned.fault_retry.backoff_base = util::kSec;
  tuned.fault_retry.poisoned_reset_threshold = 2;
  const auto other = run_vine(graph, tuned, 4);
  ASSERT_TRUE(other.success) << other.failure_reason;
  ASSERT_NE(other.observation, nullptr);

  const std::string a = base.observation->txn().text();
  const std::string b = other.observation->txn().text();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.find("FAULT"), std::string::npos);
  EXPECT_EQ(base.faults.faults_injected, 0u);
  EXPECT_EQ(base.faults.transfer_retries, 0u);
}

}  // namespace
}  // namespace hepvine
