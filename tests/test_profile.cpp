// The time-attribution profiler: core-second blame accounting, critical-
// path extraction, span-log serialization, and their determinism contract.
//
// Two layers of coverage:
//  - a hand-built SpanLog whose ledger, critical path, and speedup bounds
//    are known exactly and asserted to the tick, and
//  - a property sweep over every scheduler backend × fault schedule: the
//    accounting identity (Σ blame == cores × makespan, no negative idle)
//    must hold on every run, the ledger-derived manager busy fraction must
//    equal the legacy direct measurement exactly, and serialized spans /
//    profile text / profile JSON must be bit-identical across replays.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "dd/dask_distributed.h"
#include "obs/attribution.h"
#include "obs/chrome_trace.h"
#include "obs/critical_path.h"
#include "obs/profile_report.h"
#include "obs/span.h"
#include "obs/txn_query.h"
#include "scheduler_test_util.h"
#include "vine/vine_scheduler.h"
#include "wq/work_queue.h"

namespace hepvine {
namespace {

using namespace hepvine::testutil;
using obs::Blame;
using util::Tick;

std::int64_t blame_ticks(const obs::BlameVector& v, Blame b) {
  return v[static_cast<std::size_t>(b)];
}

obs::AttemptSpan make_span(std::int64_t task, std::uint32_t attempt,
                           std::int32_t worker, Tick ready, Tick dispatched,
                           Tick staged, Tick exec, Tick compute,
                           Tick exec_end, Tick retrieved, bool failed,
                           const std::string& category) {
  obs::AttemptSpan s;
  s.task = task;
  s.attempt = attempt;
  s.worker = worker;
  s.ready_at = ready;
  s.dispatched_at = dispatched;
  s.staged_at = staged;
  s.exec_at = exec;
  s.compute_at = compute;
  s.exec_end_at = exec_end;
  s.retrieved_at = retrieved;
  s.failed = failed;
  s.category = category;
  return s;
}

/// A three-task chain (0 → 1 → 2) on two workers whose every segment is
/// chosen by hand, so the ledger and critical path are known to the tick.
/// Worker 0 has 2 cores and stays up; worker 1 has 1 core and is lost at
/// t=500 (of a 1000-tick makespan). Task 2 fails once on worker 1 before
/// succeeding there.
obs::SpanLog hand_built_log() {
  obs::SpanLog log;
  log.set_worker_cores({2, 1});
  log.set_deps(1, {0});
  log.set_deps(2, {1});
  log.worker_up(0, 0);
  log.worker_up(0, 1);
  log.worker_down(500, 1);
  // Worker 0: dispatch 20, transfer 10, import 20, compute 140.
  log.add_attempt(
      make_span(0, 1, 0, 0, 10, 30, 40, 60, 200, 210, false, "process"));
  // Worker 0: dispatch 40, transfer 10, import 30, compute 100.
  log.add_attempt(
      make_span(1, 1, 0, 210, 220, 260, 270, 300, 400, 410, false,
                "process"));
  // Worker 1, failed during staging: recovery [100, 180] = 80.
  log.add_attempt(
      make_span(2, 1, 1, 90, 100, -1, -1, -1, -1, 180, true, "accumulate"));
  // Worker 1: dispatch 10, transfer 10, import 10, compute 40.
  log.add_attempt(
      make_span(2, 2, 1, 410, 420, 430, 440, 450, 490, 495, false,
                "accumulate"));
  obs::FlowSpan flow;
  flow.flow = 7;
  flow.bytes = 1000;
  flow.carried = 600;
  flow.started_at = 30;
  flow.ended_at = 40;
  flow.outcome = 'F';
  log.add_flow(flow);
  obs::CacheSpan drop;
  drop.t = 450;
  drop.worker = 0;
  drop.file = 3;
  drop.bytes = 2048;
  drop.verb = 'E';
  log.add_cache(drop);
  log.set_manager(680, 42);
  log.set_run(1000, "hand-built", true);
  return log;
}

TEST(Attribution, HandBuiltLedgerIsExact) {
  const obs::AttributionLedger ledger = obs::attribute(hand_built_log());

  EXPECT_EQ(ledger.makespan, 1000);
  EXPECT_EQ(ledger.capacity, 3000);  // 2×1000 + 1×1000
  EXPECT_EQ(blame_ticks(ledger.ticks, Blame::kCompute), 280);
  EXPECT_EQ(blame_ticks(ledger.ticks, Blame::kImport), 60);
  EXPECT_EQ(blame_ticks(ledger.ticks, Blame::kTransferWait), 30);
  EXPECT_EQ(blame_ticks(ledger.ticks, Blame::kDispatchWait), 70);
  EXPECT_EQ(blame_ticks(ledger.ticks, Blame::kRecovery), 80);
  // Worker 1 disappears at 500 with 1 core: 500 preempted core-ticks.
  EXPECT_EQ(blame_ticks(ledger.ticks, Blame::kPreempted), 500);
  // Idle is the residual: w0 2000−370 = 1630, w1 500−150 = 350.
  EXPECT_EQ(blame_ticks(ledger.ticks, Blame::kIdle), 1980);
  EXPECT_EQ(ledger.attributed(), ledger.capacity);
  EXPECT_EQ(ledger.identity_error(), 0);
  EXPECT_TRUE(ledger.identity_ok());

  ASSERT_EQ(ledger.workers.size(), 2u);
  EXPECT_EQ(ledger.workers[0].capacity, 2000);
  EXPECT_EQ(ledger.workers[0].alive, 1000);
  EXPECT_EQ(blame_ticks(ledger.workers[0].ticks, Blame::kIdle), 1630);
  EXPECT_EQ(ledger.workers[1].capacity, 1000);
  EXPECT_EQ(ledger.workers[1].alive, 500);
  EXPECT_EQ(blame_ticks(ledger.workers[1].ticks, Blame::kPreempted), 500);
  EXPECT_EQ(blame_ticks(ledger.workers[1].ticks, Blame::kRecovery), 80);
  EXPECT_EQ(blame_ticks(ledger.workers[1].ticks, Blame::kIdle), 350);

  ASSERT_EQ(ledger.tenants.size(), 2u);
  const auto& process = ledger.tenants.at("process");
  EXPECT_EQ(process.attempts, 2);
  EXPECT_EQ(blame_ticks(process.ticks, Blame::kCompute), 240);
  const auto& accumulate = ledger.tenants.at("accumulate");
  EXPECT_EQ(accumulate.attempts, 2);
  EXPECT_EQ(blame_ticks(accumulate.ticks, Blame::kRecovery), 80);
  EXPECT_EQ(blame_ticks(accumulate.ticks, Blame::kCompute), 40);

  EXPECT_EQ(ledger.manager_busy_ticks, 680);
  EXPECT_EQ(ledger.manager_ops, 42u);
  EXPECT_DOUBLE_EQ(ledger.manager_busy_fraction, 0.68);
}

TEST(Attribution, NegativeIdleBreaksTheIdentity) {
  // Three concurrent attempts on a 1-core worker: the residual goes
  // negative and identity_ok must flag it even though the sum still
  // telescopes to capacity.
  obs::SpanLog log;
  log.set_worker_cores({1});
  log.worker_up(0, 0);
  for (std::int64_t t = 0; t < 3; ++t) {
    log.add_attempt(
        make_span(t, 1, 0, 0, 10, 20, 30, 40, 900, 910, false, "p"));
  }
  log.set_run(1000, "overcommit", true);
  const obs::AttributionLedger ledger = obs::attribute(log);
  EXPECT_EQ(ledger.identity_error(), 0);
  EXPECT_LT(blame_ticks(ledger.workers[0].ticks, Blame::kIdle), 0);
  EXPECT_FALSE(ledger.identity_ok());
}

TEST(CriticalPath, HandBuiltChainIsExact) {
  const obs::SpanLog log = hand_built_log();
  const obs::CriticalPath path = obs::extract_critical_path(log);

  // Chain is 0 → 1 → 2, root first; gates tile exactly.
  ASSERT_EQ(path.nodes.size(), 3u);
  EXPECT_EQ(path.nodes[0].task, 0);
  EXPECT_EQ(path.nodes[1].task, 1);
  EXPECT_EQ(path.nodes[2].task, 2);
  EXPECT_EQ(path.nodes[0].gate, 0);
  EXPECT_EQ(path.nodes[0].finish, 200);
  EXPECT_EQ(path.nodes[1].gate, 200);
  EXPECT_EQ(path.nodes[1].finish, 400);
  EXPECT_EQ(path.nodes[2].gate, 400);
  EXPECT_EQ(path.nodes[2].finish, 490);
  EXPECT_EQ(path.start, 0);
  EXPECT_EQ(path.finish, 490);
  EXPECT_EQ(path.realized_length(), 490);

  // Per-category path ticks, worked out by hand (the [gate → ready] gap of
  // task 2 is recovery because its first attempt failed; task 1's gap is
  // dispatch-wait).
  EXPECT_EQ(blame_ticks(path.ticks, Blame::kCompute), 280);
  EXPECT_EQ(blame_ticks(path.ticks, Blame::kImport), 60);
  EXPECT_EQ(blame_ticks(path.ticks, Blame::kTransferWait), 30);
  EXPECT_EQ(blame_ticks(path.ticks, Blame::kDispatchWait), 110);
  EXPECT_EQ(blame_ticks(path.ticks, Blame::kRecovery), 10);
  std::int64_t sum = 0;
  for (const std::int64_t t : path.ticks) sum += t;
  EXPECT_EQ(sum, path.realized_length());

  // Amdahl bounds follow exactly.
  EXPECT_DOUBLE_EQ(path.overall_speedup_bound(), 1000.0 / 490.0);
  EXPECT_DOUBLE_EQ(path.speedup_bound_without(Blame::kCompute),
                   1000.0 / 210.0);
  EXPECT_DOUBLE_EQ(path.speedup_bound_without(Blame::kDispatchWait),
                   1000.0 / 380.0);
  EXPECT_DOUBLE_EQ(path.category_share(Blame::kCompute), 280.0 / 490.0);
}

TEST(SpanLog, SerializeParseRoundTripsExactly) {
  const obs::SpanLog log = hand_built_log();
  const std::string text = log.serialize();
  const auto parsed = obs::SpanLog::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->serialize(), text);
  EXPECT_EQ(parsed->worker_cores(), log.worker_cores());
  EXPECT_EQ(parsed->attempts().size(), log.attempts().size());
  EXPECT_EQ(parsed->flows().size(), log.flows().size());
  EXPECT_EQ(parsed->cache_events().size(), log.cache_events().size());
  EXPECT_EQ(parsed->deps(), log.deps());
  EXPECT_EQ(parsed->makespan(), log.makespan());
  EXPECT_EQ(parsed->scheduler(), log.scheduler());
  EXPECT_EQ(parsed->manager_busy_ticks(), log.manager_busy_ticks());

  // Profiles built from the original and the round-tripped log agree.
  const obs::ProfileReport a = obs::build_profile(log);
  const obs::ProfileReport b = obs::build_profile(*parsed);
  EXPECT_EQ(obs::profile_text(log, a, 5), obs::profile_text(*parsed, b, 5));
  EXPECT_EQ(obs::profile_json(log, a), obs::profile_json(*parsed, b));

  EXPECT_FALSE(obs::SpanLog::parse("not a spans file").has_value());
}

TEST(SpanLog, ParseRejectsTxnLogText) {
  // Handing a transactions log to the span parser must fail cleanly (the
  // vine_profile CLI then points the user at txn_query), never produce a
  // zero-filled log.
  const std::string txn =
      "# time_us SUBJECT id EVENT ...\n"
      "0 MANAGER 0 START\n"
      "12 TASK 7 WAITING process 0\n"
      "99 MANAGER 0 END\n";
  EXPECT_FALSE(obs::SpanLog::parse(txn).has_value());
}

TEST(SpanLog, LifecycleTraceNestsAndEmptyLogIsByteStable) {
  obs::ChromeTraceBuilder trace;
  trace.set_lane_name(0, "manager");
  const std::string before = trace.to_json();

  // Empty span log: the builder's output must not change at all.
  obs::emit_lifecycle_trace(obs::SpanLog{}, trace);
  EXPECT_EQ(trace.to_json(), before);

  // The hand-built log: one outer B/E pair per attempt that ran, nested
  // phase pairs inside, in timestamp order within each attempt.
  obs::emit_lifecycle_trace(hand_built_log(), trace);
  const std::string json = trace.to_json();
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("task 0 attempt 1"), std::string::npos);
  EXPECT_NE(json.find("fetch-inputs"), std::string::npos);
  EXPECT_NE(json.find("startup-import"), std::string::npos);
  // The failed attempt never reached staging: only the outer span exists.
  EXPECT_NE(json.find("attempt-failed"), std::string::npos);
}

std::unique_ptr<exec::SchedulerBackend> make_scheduler(
    const std::string& name) {
  if (name == "taskvine") return std::make_unique<vine::VineScheduler>();
  if (name == "work-queue") return std::make_unique<wq::WorkQueueScheduler>();
  return std::make_unique<dd::DaskDistScheduler>();
}

class ProfileMatrix : public ::testing::TestWithParam<const char*> {
 protected:
  dag::TaskGraph graph_ = apps::build_workload(tiny_dv3(24), 47);

  exec::RunOptions base_options() const {
    exec::RunOptions options = fast_options();
    options.seed = 47;
    options.max_task_retries = 30;
    return options;
  }

  exec::RunReport run(const exec::RunOptions& options,
                      double preempt_per_hour = 0.0) const {
    cluster::Cluster cluster(tiny_cluster(4, preempt_per_hour));
    return make_scheduler(GetParam())->run(graph_, cluster, options);
  }

  /// The tentpole invariants every run must satisfy, faults or not.
  void expect_profile_sound(const exec::RunReport& report) const {
    const obs::AttributionLedger ledger = obs::attribute(report.profile);
    EXPECT_GT(ledger.capacity, 0);
    EXPECT_EQ(ledger.identity_error(), 0);
    EXPECT_TRUE(ledger.identity_ok());
    // The critical path is a lower bound on the makespan and its per-node
    // blame tiles its realized length exactly.
    const obs::CriticalPath path =
        obs::extract_critical_path(report.profile);
    if (report.success) {
      ASSERT_FALSE(path.nodes.empty());
      EXPECT_LE(path.realized_length(), report.makespan);
      std::int64_t sum = 0;
      for (const std::int64_t t : path.ticks) sum += t;
      EXPECT_EQ(sum, path.realized_length());
      EXPECT_GE(path.overall_speedup_bound(), 1.0);
    }
  }
};

TEST_P(ProfileMatrix, IdentityHoldsOnCleanRun) {
  const auto report = run(base_options());
  ASSERT_TRUE(report.success) << report.failure_reason;
  expect_profile_sound(report);
  // Every attempt of a clean run succeeded and landed on a real worker.
  for (const auto& s : report.profile.attempts()) {
    EXPECT_FALSE(s.failed);
    EXPECT_GE(s.worker, 0);
    EXPECT_LE(s.ready_at, s.dispatched_at);
    EXPECT_LE(s.dispatched_at, s.staged_at);
    EXPECT_LE(s.staged_at, s.exec_at);
    EXPECT_LE(s.exec_at, s.compute_at);
    EXPECT_LE(s.compute_at, s.exec_end_at);
    EXPECT_LE(s.exec_end_at, s.retrieved_at);
  }
}

TEST_P(ProfileMatrix, IdentityHoldsUnderFaults) {
  // A clean probe gives timestamps to aim the fault schedule at.
  const auto clean = run(base_options());
  ASSERT_TRUE(clean.success) << clean.failure_reason;

  exec::RunOptions options = base_options();
  options.faults.crash_worker(clean.makespan / 3, 1)
      .crash_worker(clean.makespan / 2, 2)
      .kill_transfers(clean.makespan / 5, 2)
      .fs_brownout(clean.makespan / 4, clean.makespan / 8, 0.25);
  const auto report = run(options, /*preempt_per_hour=*/40.0);
  ASSERT_TRUE(report.success) << report.failure_reason;
  expect_profile_sound(report);
  // Recovery blame only exists when something actually failed, and the
  // sweep is only meaningful if something did.
  const obs::AttributionLedger ledger = obs::attribute(report.profile);
  if (report.task_failures > 0) {
    EXPECT_GT(blame_ticks(ledger.ticks, Blame::kRecovery), 0);
  }
}

TEST_P(ProfileMatrix, ProfileOutputsReplayBitIdentically) {
  exec::RunOptions options = base_options();
  options.faults.crash_worker(20 * util::kSec, 1)
      .kill_transfers(10 * util::kSec, 2);
  const auto a = run(options, /*preempt_per_hour=*/20.0);
  const auto b = run(options, /*preempt_per_hour=*/20.0);
  ASSERT_TRUE(a.success) << a.failure_reason;
  ASSERT_TRUE(b.success) << b.failure_reason;

  EXPECT_EQ(a.profile.serialize(), b.profile.serialize());
  const obs::ProfileReport pa = obs::build_profile(a.profile);
  const obs::ProfileReport pb = obs::build_profile(b.profile);
  EXPECT_EQ(obs::profile_text(a.profile, pa, 10),
            obs::profile_text(b.profile, pb, 10));
  EXPECT_EQ(obs::profile_json(a.profile, pa),
            obs::profile_json(b.profile, pb));
}

TEST_P(ProfileMatrix, TxnSpanLinesMatchTheSpanLog) {
  exec::RunOptions options = base_options();
  options.observability.enabled = true;
  options.observability.txn_log = true;
  options.observability.perf_log = false;
  options.observability.chrome_trace = false;
  const auto report = run(options);
  ASSERT_TRUE(report.success) << report.failure_reason;
  ASSERT_TRUE(report.observation != nullptr);

  const auto events =
      obs::txnq::parse_log(report.observation->txn().text());
  const auto spans = obs::txnq::span_records(events);
  ASSERT_EQ(spans.size(), report.profile.attempts().size());
  // The txn rollup and the ledger agree on the occupied categories (both
  // derive from the same boundaries by the same clamping rules).
  const auto rollup = obs::txnq::profile_rollup(spans);
  const obs::AttributionLedger ledger = obs::attribute(report.profile);
  EXPECT_EQ(rollup.compute, blame_ticks(ledger.ticks, Blame::kCompute));
  EXPECT_EQ(rollup.import_cost, blame_ticks(ledger.ticks, Blame::kImport));
  EXPECT_EQ(rollup.transfer_wait,
            blame_ticks(ledger.ticks, Blame::kTransferWait));
  EXPECT_EQ(rollup.dispatch_wait,
            blame_ticks(ledger.ticks, Blame::kDispatchWait));
  EXPECT_EQ(rollup.recovery, blame_ticks(ledger.ticks, Blame::kRecovery));
}

TEST_P(ProfileMatrix, LifecycleTraceOptInLeavesLegacyTraceByteStable) {
  exec::RunOptions options = base_options();
  options.observability.enabled = true;
  options.observability.txn_log = false;
  options.observability.perf_log = false;
  options.observability.chrome_trace = true;
  const auto plain = run(options);
  ASSERT_TRUE(plain.success) << plain.failure_reason;

  exec::RunOptions opted = options;
  opted.observability.trace_lifecycle_spans = true;
  const auto with_spans = run(opted);
  ASSERT_TRUE(with_spans.success) << with_spans.failure_reason;

  const std::string plain_json = plain.observation->trace().to_json();
  const std::string spans_json = with_spans.observation->trace().to_json();
  // Off by default: no B/E events anywhere in the legacy trace.
  EXPECT_EQ(plain_json.find("\"ph\":\"B\""), std::string::npos);
  // Opt-in: strictly additive nested lifecycle events.
  EXPECT_NE(spans_json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(spans_json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_GT(with_spans.observation->trace().events(),
            plain.observation->trace().events());
}

INSTANTIATE_TEST_SUITE_P(Schedulers, ProfileMatrix,
                         ::testing::Values("taskvine", "work-queue",
                                           "dask.distributed"));

}  // namespace
}  // namespace hepvine
