// Fault-injection subsystem tests: RetryPolicy/FaultSchedule units, the
// crash double-count regression, exact chained lineage-reset accounting,
// the poisoned-task detector, relay retry when the source dies, the
// zero-cost-when-off guarantee (empty schedule => byte-identical txn log),
// a targeted kill of every retried transfer kind and of a Work Queue
// output return, and the kill budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dag/value.h"
#include "dd/dask_distributed.h"
#include "fault/backoff_ledger.h"
#include "fault/fault_schedule.h"
#include "scheduler_test_util.h"
#include "vine/vine_scheduler.h"
#include "wq/work_queue.h"

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

TEST(VineFaults, CrashDuringSinkGatherCancelsTheGather) {
  // A worker that dies while its sink result streams to the manager takes
  // the gather down with it: the disconnection cancels the flow (FAILED at
  // the crash tick), and the gather re-resolves a holder or recomputes.
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(24), 5);
  const std::string out =
      std::to_string(graph.task(graph.sinks().at(0)).output_file);
  exec::RunOptions options = fast_options();
  options.max_task_retries = 20;
  options.observability.enabled = true;
  options.observability.perf_log = false;
  options.observability.chrome_trace = false;

  const auto probe = run_vine(graph, options, 4);
  ASSERT_TRUE(probe.success) << probe.failure_reason;
  ASSERT_NE(probe.observation, nullptr);
  TxnTransfer gather;
  for (const auto& x : txn_transfers(probe.observation->txn().text())) {
    if (x.dst == 0 && x.file == out) gather = x;
  }
  ASSERT_GE(gather.src, 1u) << "no sink gather in the probe run";
  const Tick mid = (gather.start + gather.close) / 2;
  ASSERT_GT(mid, gather.start);

  options.faults.crash_worker(mid, static_cast<std::int32_t>(gather.src) - 1);
  const auto report = run_vine(graph, options, 4);
  ASSERT_TRUE(report.success) << report.failure_reason;
  EXPECT_EQ(report.faults.worker_crashes, 1u);
  EXPECT_EQ(sink_digest(report), reference_digest(graph));
  ASSERT_NE(report.observation, nullptr);
  const std::string txn = report.observation->txn().text();
  EXPECT_EQ(txn_tick(txn, "TRANSFER " + gather.fields + " FAILED"), mid);
  expect_transfers_paired(txn);
  expect_residency_tally(report);
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
  // Same no-peer topology, but kill live transfers repeatedly across the
  // whole run. The kills land on staging fetches (manager sends); a relay
  // pull is killed in KilledRelayPullRetries. Backoff retries and the
  // lost-input path must converge to the exact result.
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

// --- every retried transfer kind, killed on purpose ---------------------

std::unique_ptr<exec::SchedulerBackend> make_scheduler(
    const std::string& name) {
  if (name == "taskvine") return std::make_unique<vine::VineScheduler>();
  if (name == "work-queue") return std::make_unique<wq::WorkQueueScheduler>();
  return std::make_unique<dd::DaskDistScheduler>();
}

exec::RunOptions txn_options(std::uint64_t seed) {
  exec::RunOptions options = fast_options();
  options.seed = seed;
  options.max_task_retries = 30;
  options.observability.enabled = true;
  options.observability.perf_log = false;
  options.observability.chrome_trace = false;
  return options;
}

/// Probe `run` fault-free, take the first transfer `victim` picks from the
/// probe's txn log, and rerun with every killable flow killed at the
/// midpoint of that transfer. The rerun replays the probe until the kill,
/// so the victim is in flight then. It must converge to the serial result,
/// and its txn log must show the kill retried: the victim's wire FAILED at
/// the kill tick, a later START of the same file to the same destination,
/// then that START's DONE.
void expect_kill_retried(
    const dag::TaskGraph& graph, exec::RunOptions options,
    const std::function<exec::RunReport(const exec::RunOptions&)>& run,
    const std::function<bool(const TxnTransfer&)>& victim) {
  const auto probe = run(options);
  ASSERT_TRUE(probe.success) << probe.failure_reason;
  ASSERT_NE(probe.observation, nullptr);
  TxnTransfer target;
  for (const auto& x : txn_transfers(probe.observation->txn().text())) {
    if (victim(x) && x.close > x.start + 1) {
      target = x;
      break;
    }
  }
  ASSERT_GE(target.start, 0) << "the probe run never reached the site";
  const Tick mid = (target.start + target.close) / 2;

  options.faults.kill_transfers(mid, 64);
  const auto report = run(options);
  ASSERT_TRUE(report.success) << report.failure_reason;
  EXPECT_GE(report.faults.transfer_retries, 1u);
  EXPECT_EQ(sink_digest(report), reference_digest(graph));
  ASSERT_NE(report.observation, nullptr);
  const std::string txn = report.observation->txn().text();
  expect_transfers_paired(txn);
  EXPECT_EQ(txn_tick(txn, "TRANSFER " + target.fields + " FAILED"), mid);

  const auto after = txn_transfers(txn);
  const auto retried =
      std::find_if(after.begin(), after.end(), [&](const TxnTransfer& x) {
        return x.start > mid && x.file == target.file && x.dst == target.dst;
      });
  ASSERT_NE(retried, after.end()) << "the killed transfer never restarted";
  EXPECT_EQ(txn_tick(txn, "TRANSFER " + retried->fields + " DONE"),
            retried->close);
}

TEST(VineFaults, KilledRelayPullRetries) {
  // Without peer transfers a consumer reaches another worker's output
  // through a relay pull to the manager. A killed pull backs off, re-picks
  // a live holder and pulls again.
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(16), 19);
  const std::string sink_out =
      std::to_string(graph.task(graph.sinks().at(0)).output_file);
  vine::DataPolicy policy = vine::taskvine_policy();
  policy.peer_transfers = false;
  expect_kill_retried(
      graph, txn_options(19),
      [&](const exec::RunOptions& options) {
        cluster::Cluster cluster(tiny_cluster(3));
        vine::VineScheduler scheduler(policy, vine::VineTunables{});
        return scheduler.run(graph, cluster, options);
      },
      [&](const TxnTransfer& x) {
        return x.src != 0 && x.dst == 0 && x.file != sink_out;
      });
}

/// Gathers of the sink result to the manager, on `scheduler`.
void expect_sink_gather_kill_retried(const std::string& scheduler) {
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(24), 5);
  const std::string sink_out =
      std::to_string(graph.task(graph.sinks().at(0)).output_file);
  expect_kill_retried(
      graph, txn_options(5),
      [&](const exec::RunOptions& options) {
        cluster::Cluster cluster(tiny_cluster(4));
        return make_scheduler(scheduler)->run(graph, cluster, options);
      },
      [&](const TxnTransfer& x) { return x.dst == 0 && x.file == sink_out; });
}

TEST(VineFaults, KilledSinkGatherRetries) {
  expect_sink_gather_kill_retried("taskvine");
}

TEST(DaskFaults, KilledSinkGatherRetries) {
  expect_sink_gather_kill_retried("dask.distributed");
}

TEST(WqFaults, KilledReturnRerunInsertsItsOutputOnce) {
  // A killed Work Queue output return fails its attempt and leaves the
  // output on the worker's disk. On one worker the re-run rewrites that
  // copy: the txn log must not record a second arrival of a file the worker
  // already holds, or the residency record counts more files than the disk
  // has (Debug builds audit the two at completion).
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(8), 31);
  exec::RunOptions options = txn_options(31);
  auto run = [&](const exec::RunOptions& o) {
    cluster::Cluster cluster(tiny_cluster(1));
    return wq::WorkQueueScheduler().run(graph, cluster, o);
  };
  const auto probe = run(options);
  ASSERT_TRUE(probe.success) << probe.failure_reason;
  ASSERT_NE(probe.observation, nullptr);
  TxnTransfer ret;
  for (const auto& x : txn_transfers(probe.observation->txn().text())) {
    if (x.src == 1 && x.dst == 0 && x.close > x.start + 1) {  // worker 0
      ret = x;
      break;
    }
  }
  ASSERT_GE(ret.start, 0) << "no output return in the probe run";
  const Tick mid = (ret.start + ret.close) / 2;

  options.faults.kill_transfers(mid, 64);
  const auto report = run(options);
  ASSERT_TRUE(report.success) << report.failure_reason;
  EXPECT_EQ(sink_digest(report), reference_digest(graph));
  ASSERT_NE(report.observation, nullptr);
  const std::string txn = report.observation->txn().text();
  EXPECT_EQ(txn_tick(txn, "TRANSFER " + ret.fields + " FAILED"), mid);
  const auto after = txn_transfers(txn);
  EXPECT_TRUE(std::any_of(after.begin(), after.end(), [&](const auto& x) {
    return x.start > mid && x.fields == ret.fields;
  })) << "the re-run never returned its output";
  std::map<std::string, bool> held;  // "file worker" -> on disk
  std::istringstream in(txn);
  for (std::string line; std::getline(in, line);) {
    std::istringstream fields(line);
    std::string tick, subject, f, verb, bytes, w;
    if (!(fields >> tick >> subject >> f >> verb >> bytes >> w) ||
        subject != "CACHE") {
      continue;
    }
    bool& on_disk = held[f + " " + w];
    EXPECT_NE(verb == "INSERT", on_disk) << line;
    on_disk = verb == "INSERT";
  }
  expect_residency_tally(report);
}

TEST(DaskFaults, GiveupCountsOnlyItsOwnAttemptsKills) {
  // A dd input's kills count against one attempt: when the attempt fails,
  // its inputs' episodes end, and the next attempt starts at backoff(1)
  // with the full budget. So every give-up's kills happened in its own
  // attempt: since the task's previous attempt failed, the txn log holds at
  // least that many FAILED lines of the file (each file here has one
  // consumer, so they are this task's).
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(24), 31);
  exec::RunOptions options = txn_options(31);
  options.faults.stochastic.transfer_kill_prob = 0.5;
  // Crashes fail attempts while their inputs are still being fetched.
  options.faults.stochastic.worker_crash_rate_per_hour = 60.0;
  std::size_t giveups = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    options.faults.seed = seed;
    cluster::Cluster cluster(tiny_cluster(4));
    const auto report = dd::DaskDistScheduler().run(graph, cluster, options);
    ASSERT_NE(report.observation, nullptr);
    std::map<std::string, std::size_t> failed_since;  // task -> count start
    std::map<std::string, std::vector<std::size_t>> killed;  // file -> lines
    std::istringstream in(report.observation->txn().text());
    std::size_t n = 0;
    for (std::string line; std::getline(in, line); ++n) {
      std::istringstream f(line);
      std::string tick, subject, a, b, c, d, verb;
      f >> tick >> subject >> a >> b >> c >> d >> verb;
      if (subject == "TASK" && b == "RETRIEVED" && c == "FAILURE") {
        failed_since[a] = n;
      } else if (subject == "TRANSFER" && verb == "FAILED") {
        killed[c].push_back(n);
      } else if (subject == "FAULT" && b == "TRANSFER_GIVEUP") {
        ++giveups;
        // FAULT <seq> TRANSFER_GIVEUP task=<id> file=<id> kills=<n>
        const std::string task = c.substr(5);
        const std::string file = d.substr(5);
        const auto& lines = killed[file];
        const std::size_t since = failed_since.count(task) != 0
                                      ? failed_since[task]
                                      : 0;
        const auto own = std::count_if(lines.begin(), lines.end(),
                                       [since](std::size_t l) {
                                         return l > since;
                                       });
        EXPECT_GE(own, std::stoll(verb.substr(6)))
            << "faults.seed " << seed << ": " << line;
      }
    }
  }
  EXPECT_GT(giveups, 0u);
}

TEST(DaskFaults, NannyRestartDropsHeldKeysAndTheProducerReRuns) {
  // One node, two single-core processes with 8 GB of memory each. A's 5 GB
  // result key sits in process 0 when X, queued behind A and B, runs there
  // and its 4 GB result overflows the slice: the nanny restarts process 0,
  // and A's key must die with it. C, A's consumer, waits on B until well
  // after the restart, so a key the restarted process kept would still
  // serve C; a dropped one makes C's dispatch reset A, which runs again.
  dag::TaskGraph graph;
  const auto task = [&graph](std::vector<dag::TaskId> deps, double cpu,
                             std::uint64_t output, double value) {
    dag::TaskSpec spec;
    spec.deps = std::move(deps);
    spec.cpu_seconds = cpu;
    spec.output_bytes = output;
    spec.fn = [value](const std::vector<dag::ValuePtr>& in) {
      double sum = value;
      for (const auto& v : in) {
        sum += dynamic_cast<const dag::ScalarValue&>(*v).get();
      }
      return std::make_shared<dag::ScalarValue>(sum);
    };
    return graph.add_task(spec);
  };
  const dag::TaskId a = task({}, 1.0, 5 * util::kGB, 1.0);
  const dag::TaskId b = task({}, 30.0, 512 * util::kMB, 2.0);
  task({}, 1.0, 4 * util::kGB, 3.0);  // X
  task({a, b}, 1.0, 1 * util::kMB, 4.0);  // C
  cluster::ClusterSpec spec = tiny_cluster(1);
  spec.worker.cores = 2;
  spec.worker.memory = 16 * util::kGB;
  cluster::Cluster cluster(spec);
  const auto report =
      dd::DaskDistScheduler().run(graph, cluster, txn_options(31));
  ASSERT_TRUE(report.success) << report.failure_reason;
  EXPECT_GE(report.worker_crashes, 1u);
  EXPECT_GE(report.lineage_resets, 1u);
  ASSERT_NE(report.observation, nullptr);
  const std::string txn = report.observation->txn().text();
  const std::string done = " TASK " + std::to_string(a) + " DONE SUCCESS";
  const auto first = txn.find(done);
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(txn.find(done, first + 1), std::string::npos)
      << "A's key died with its process, yet A never ran again:\n" << txn;
  const auto expected = dag::evaluate_serially(graph);
  ASSERT_EQ(report.results.size(), expected.size());
  for (const auto& [sink, value] : expected) {
    EXPECT_EQ(report.results.at(sink)->digest(), value->digest());
  }
}

// --- the kill budget ------------------------------------------------------

class FaultRetry : public ::testing::TestWithParam<const char*> {};

TEST_P(FaultRetry, GiveupSpendsExactlyTheBudget) {
  // RetryPolicy::max_transfer_retries is the kill budget of one logical
  // transfer, so every give-up reports exactly that many kills. A count
  // that outlives its transfer (kept per task across a failed attempt)
  // gives up on the next attempt's first kill, with no backoff.
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(24), 31);
  exec::RunOptions options = txn_options(31);
  options.faults.stochastic.transfer_kill_prob = 0.5;
  const std::string budget =
      "kills=" + std::to_string(options.fault_retry.max_transfer_retries);
  std::uint64_t giveups = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    options.faults.seed = seed;
    cluster::Cluster cluster(tiny_cluster(4, 0.0));
    const auto report =
        make_scheduler(GetParam())->run(graph, cluster, options);
    ASSERT_NE(report.observation, nullptr);
    std::istringstream in(report.observation->txn().text());
    std::uint64_t lines = 0;
    for (std::string line; std::getline(in, line);) {
      const auto at = line.find(" TRANSFER_GIVEUP ");
      if (at == std::string::npos) continue;
      ++lines;
      EXPECT_EQ(line.substr(line.find(" kills=", at) + 1), budget)
          << "faults.seed " << seed << ": " << line;
    }
    EXPECT_EQ(lines, report.faults.transfer_giveups);
    giveups += lines;
  }
  EXPECT_GT(giveups, 0u) << "no run spent its budget";
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, FaultRetry,
                         ::testing::Values("taskvine", "work-queue",
                                           "dask.distributed"));

// --- a library install that gives up ----------------------------------------

class LibraryGiveup : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LibraryGiveup, RunEndsWithTheSerialResultOrTheRetryLimit) {
  // Every killed fetch gives up at once, the library's environment fetch
  // included. The attempts waiting for that library must fail through the
  // retry budget, and the next function call on the worker installs the
  // library again; before that, the library stayed "installing" for good
  // and the run sat out max_sim_time.
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(), 3);
  exec::RunOptions options = txn_options(3);
  options.mode = exec::ExecMode::kFunctionCalls;
  options.faults.stochastic.transfer_kill_prob = 0.4;
  options.fault_retry.max_transfer_retries = 1;
  options.faults.seed = GetParam();
  cluster::Cluster cluster(tiny_cluster(4));
  const auto report =
      vine::VineScheduler(vine::taskvine_policy(), vine::VineTunables{})
          .run(graph, cluster, options);
  EXPECT_LT(report.makespan, options.max_sim_time);
  if (report.success) {
    EXPECT_EQ(sink_digest(report), reference_digest(graph));
  } else {
    EXPECT_NE(report.failure_reason.find(
                  " exceeded " + std::to_string(options.max_task_retries) +
                  " attempts"),
              std::string::npos)
        << report.failure_reason;
  }
}

INSTANTIATE_TEST_SUITE_P(FaultSeeds, LibraryGiveup,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace hepvine
