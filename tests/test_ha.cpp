// Manager high-availability tests: snapshot serialization round trips,
// the vine_factory-style elastic pool, injected manager crashes, and the
// full recovery protocol — restore the latest snapshot, replay the txn
// tail, and prove the recovered run bit-identical to an uninterrupted one
// on all three scheduler backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dag/value.h"
#include "dd/dask_distributed.h"
#include "fault/fault_schedule.h"
#include "ha/factory.h"
#include "ha/recovery.h"
#include "ha/snapshot.h"
#include "scheduler_test_util.h"
#include "sim/engine.h"
#include "vine/vine_scheduler.h"
#include "wq/work_queue.h"

namespace hepvine {
namespace {

using namespace hepvine::testutil;
using util::Tick;

// --- snapshot serialization ----------------------------------------------

ha::SnapshotRecord sample_snapshot(std::uint64_t done) {
  ha::SnapshotBuilder b;
  b.section("run");
  b.field("tasks_done", done);
  b.field_i("cursor", -3);
  b.section("workers");
  b.field_s("w0", "inc=2 out=1 pins=4:1,7:2");
  b.section("rng");
  b.field_rng("main", {1, 2, 3, 0xfffffffffffffffeULL});
  return b.finish(12345, 7);
}

TEST(Snapshot, BuilderIsDeterministic) {
  const auto a = sample_snapshot(10);
  const auto b = sample_snapshot(10);
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.tick, 12345);
  EXPECT_EQ(a.seq, 7u);
  EXPECT_EQ(a.bytes, a.state.size());

  // Any state change must change the digest.
  const auto c = sample_snapshot(11);
  EXPECT_NE(a.digest, c.digest);
}

TEST(Snapshot, ParseRoundTripsFieldsInOrder) {
  const auto rec = sample_snapshot(10);
  const auto fields = ha::parse_snapshot(rec.state);
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0].first, "run.tasks_done");
  EXPECT_EQ(fields[0].second, "10");
  EXPECT_EQ(fields[1].first, "run.cursor");
  EXPECT_EQ(fields[1].second, "-3");
  EXPECT_EQ(fields[2].first, "workers.w0");
  EXPECT_EQ(fields[2].second, "inc=2 out=1 pins=4:1,7:2");
  EXPECT_EQ(fields[3].first, "rng.main");

  EXPECT_EQ(ha::snapshot_field(rec.state, "workers.w0"),
            "inc=2 out=1 pins=4:1,7:2");
  EXPECT_EQ(ha::snapshot_field(rec.state, "run.missing"), "");
}

// --- factory demand model ------------------------------------------------

TEST(Factory, TargetClampsDemandToBounds) {
  sim::Engine engine;
  ha::FactorySpec spec;
  spec.min_workers = 2;
  spec.max_workers = 8;
  spec.tasks_per_worker = 4;
  ha::Factory factory(engine, spec, {});
  EXPECT_EQ(factory.target(0), 2u);    // floor
  EXPECT_EQ(factory.target(8), 2u);    // ceil(8/4) = 2
  EXPECT_EQ(factory.target(9), 3u);    // ceil(9/4) = 3
  EXPECT_EQ(factory.target(32), 8u);
  EXPECT_EQ(factory.target(1000), 8u);  // ceiling
}

// --- end-to-end helpers --------------------------------------------------

exec::RunReport run_backend(const std::string& kind,
                            const dag::TaskGraph& graph,
                            const exec::RunOptions& options,
                            std::uint32_t workers) {
  cluster::Cluster cluster(tiny_cluster(workers));
  if (kind == "vine") {
    vine::VineScheduler s;
    return s.run(graph, cluster, options);
  }
  if (kind == "wq") {
    wq::WorkQueueScheduler s;
    return s.run(graph, cluster, options);
  }
  dd::DaskDistScheduler s;
  return s.run(graph, cluster, options);
}

/// Successful attempt of `t`, or nullptr.
const obs::AttemptSpan* find_success(const exec::RunReport& report,
                                     dag::TaskId t) {
  for (const auto& a : report.profile.attempts()) {
    if (a.task == t && !a.failed) return &a;
  }
  return nullptr;
}

exec::RunOptions ha_options() {
  exec::RunOptions options = fast_options();
  options.max_task_retries = 20;
  options.observability.enabled = true;
  options.ha.snapshot_interval = util::seconds(5);
  return options;
}

// --- manager crash -------------------------------------------------------

TEST(ManagerHa, InjectedCrashEndsRunAndRecordsState) {
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(24), 5);
  exec::RunOptions options = ha_options();

  const auto probe = run_backend("vine", graph, options, 4);
  ASSERT_TRUE(probe.success) << probe.failure_reason;
  EXPECT_FALSE(probe.ha.manager_crashed);
  EXPECT_FALSE(probe.ha.snapshots.empty());

  const Tick mid = probe.makespan / 2;
  options.faults.crash_manager(mid);
  const auto crashed = run_backend("vine", graph, options, 4);
  EXPECT_FALSE(crashed.success);
  EXPECT_TRUE(crashed.ha.manager_crashed);
  EXPECT_EQ(crashed.ha.crash_tick, mid);
  EXPECT_EQ(crashed.makespan, mid);
  EXPECT_EQ(crashed.faults.manager_crashes, 1u);
  EXPECT_EQ(crashed.faults.faults_injected, 1u);
  // Snapshots up to the crash are a prefix of the uninterrupted series.
  ASSERT_FALSE(crashed.ha.snapshots.empty());
  ASSERT_LE(crashed.ha.snapshots.size(), probe.ha.snapshots.size());
  for (std::size_t i = 0; i < crashed.ha.snapshots.size(); ++i) {
    EXPECT_EQ(crashed.ha.snapshots[i].digest, probe.ha.snapshots[i].digest)
        << "snapshot " << i << " diverged before the crash";
  }
}

TEST(ManagerHa, CrashAfterCompletionDoesNotCount) {
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(12), 5);
  exec::RunOptions options = ha_options();
  const auto probe = run_backend("vine", graph, options, 4);
  ASSERT_TRUE(probe.success) << probe.failure_reason;

  options.faults.crash_manager(probe.makespan + util::seconds(1));
  const auto report = run_backend("vine", graph, options, 4);
  EXPECT_TRUE(report.success) << report.failure_reason;
  EXPECT_FALSE(report.ha.manager_crashed);
  EXPECT_EQ(report.faults.manager_crashes, 0u);
}

// --- recovery: snapshot + txn-tail replay, bit-identity ------------------

void expect_recovery_bit_identical(const std::string& kind) {
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(24), 5);
  exec::RunOptions options = ha_options();

  // Uninterrupted baseline: what the recovered run must be identical to.
  const auto baseline = run_backend(kind, graph, options, 4);
  ASSERT_TRUE(baseline.success) << baseline.failure_reason;
  ASSERT_GE(baseline.ha.snapshots.size(), 2u)
      << "workload too short to checkpoint; lower snapshot_interval";

  // Crash mid-campaign, after at least one checkpoint.
  exec::RunOptions crash_options = options;
  crash_options.faults.crash_manager(baseline.makespan * 6 / 10);
  const auto crashed = run_backend(kind, graph, crash_options, 4);
  ASSERT_TRUE(crashed.ha.manager_crashed);
  ASSERT_FALSE(crashed.ha.snapshots.empty())
      << "crash landed before the first checkpoint";

  exec::RunOptions rerun_options = crash_options;
  rerun_options.faults = ha::strip_manager_crash(crash_options.faults);
  const auto outcome =
      ha::recover(crashed, crash_options.ha, [&] {
        return run_backend(kind, graph, rerun_options, 4);
      });

  EXPECT_TRUE(outcome.snapshot_converged) << outcome.error;
  EXPECT_TRUE(outcome.tail_identical) << outcome.error;
  EXPECT_TRUE(outcome.recovered) << outcome.error;
  EXPECT_GT(outcome.tail_lines, 0u);
  EXPECT_GT(outcome.restore_cost, 0);
  EXPECT_GT(outcome.replay_cost, 0);

  // End-to-end bit-identity: recovered run == uninterrupted baseline.
  EXPECT_EQ(ha::run_digest(outcome.report), ha::run_digest(baseline));
  EXPECT_EQ(sink_digest(outcome.report), reference_digest(graph));

  // The protocol journal records all three phases in txn-line format.
  EXPECT_NE(outcome.journal.find("RECOVER"), std::string::npos);
  EXPECT_NE(outcome.journal.find("RESTORE"), std::string::npos);
  EXPECT_NE(outcome.journal.find("REPLAY"), std::string::npos);
  EXPECT_NE(outcome.journal.find("DONE"), std::string::npos);
  EXPECT_NE(outcome.journal.find("recovered=1"), std::string::npos);
}

TEST(ManagerHa, RecoveryBitIdenticalVine) {
  expect_recovery_bit_identical("vine");
}

TEST(ManagerHa, RecoveryBitIdenticalWq) {
  expect_recovery_bit_identical("wq");
}

TEST(ManagerHa, RecoveryBitIdenticalDask) {
  expect_recovery_bit_identical("dd");
}

TEST(ManagerHa, RecoveryBitIdenticalWithObjectStoreSpills) {
  // The object store adds live manager state — holder map, ref counts,
  // per-object LRU stamps, the serialize residue accumulators — all of
  // which must survive the snapshot/replay cycle. A deliberately small
  // budget keeps the store under pressure so snapshots are taken with
  // objects resident AND spills already on disk.
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(24), 5);
  exec::RunOptions options = ha_options();
  options.mode = exec::ExecMode::kFunctionCalls;
  vine::VineTunables tun;
  tun.object_store = true;
  tun.object_store_bytes = 64 * util::kMB;  // ~2 process outputs
  auto run_store = [&](const exec::RunOptions& o) {
    cluster::Cluster cluster(tiny_cluster(4));
    vine::VineScheduler s(vine::taskvine_policy(), tun);
    return s.run(graph, cluster, o);
  };

  const auto baseline = run_store(options);
  ASSERT_TRUE(baseline.success) << baseline.failure_reason;
  ASSERT_GE(baseline.ha.snapshots.size(), 2u);
  EXPECT_GT(baseline.store_puts, 0u);
  EXPECT_GT(baseline.store_spills, 0u)
      << "budget too large: no snapshot can catch a spilled object";

  // At least one cadence tick must serialize live store objects.
  bool saw_object = false;
  for (const auto& rec : baseline.ha.snapshots) {
    EXPECT_FALSE(ha::snapshot_field(rec.state, "store.puts").empty())
        << rec.state;
    if (!ha::snapshot_field(rec.state, "store.objects").empty() &&
        ha::snapshot_field(rec.state, "store.objects") != "0") {
      saw_object = true;
    }
  }
  EXPECT_TRUE(saw_object)
      << "no snapshot observed a resident store object";

  exec::RunOptions crash_options = options;
  crash_options.faults.crash_manager(baseline.makespan * 6 / 10);
  const auto crashed = run_store(crash_options);
  ASSERT_TRUE(crashed.ha.manager_crashed);
  ASSERT_FALSE(crashed.ha.snapshots.empty());

  exec::RunOptions rerun_options = crash_options;
  rerun_options.faults = ha::strip_manager_crash(crash_options.faults);
  const auto outcome = ha::recover(crashed, crash_options.ha, [&] {
    return run_store(rerun_options);
  });

  EXPECT_TRUE(outcome.snapshot_converged) << outcome.error;
  EXPECT_TRUE(outcome.tail_identical) << outcome.error;
  EXPECT_TRUE(outcome.recovered) << outcome.error;
  EXPECT_EQ(ha::run_digest(outcome.report), ha::run_digest(baseline));
  EXPECT_EQ(sink_digest(outcome.report), reference_digest(graph));
}

/// Txn CACHE EVICT lines of `txn` stamped after tick `after`.
std::size_t evict_lines_after(const std::string& txn, Tick after) {
  std::size_t n = 0;
  std::istringstream in(txn);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' ||
        line.find(" CACHE ") == std::string::npos ||
        line.find(" EVICT ") == std::string::npos) {
      continue;
    }
    if (std::stoll(line.substr(0, line.find(' '))) > after) ++n;
  }
  return n;
}

/// `parts` dataset chunks, each read by a first-pass task and again, after
/// a barrier over the first pass, by a second-pass task: every chunk stays
/// live across the first pass, so small disks must evict, and the second
/// pass re-stages and evicts again.
dag::TaskGraph double_pass(std::uint32_t parts) {
  const auto sum = [](const std::vector<dag::ValuePtr>& in) {
    double total = 0;
    for (const auto& v : in) {
      total += dynamic_cast<const dag::ScalarValue&>(*v).get();
    }
    return std::make_shared<dag::ScalarValue>(total + 1.0);
  };
  dag::TaskGraph graph;
  std::vector<data::FileId> chunks;
  for (std::uint32_t i = 0; i < parts; ++i) {
    chunks.push_back(graph.add_input_file("part" + std::to_string(i),
                                          3 * util::kGB, 900 + i));
  }
  auto task = [&](const char* category, std::vector<dag::TaskId> deps,
                  std::vector<data::FileId> inputs) {
    dag::TaskSpec spec;
    spec.category = category;
    spec.function = category;
    spec.deps = std::move(deps);
    spec.input_files = std::move(inputs);
    spec.memory_bytes = 1 * util::kGB;
    spec.fn = sum;
    return graph.add_task(spec);
  };
  std::vector<dag::TaskId> pass1;
  for (data::FileId chunk : chunks) pass1.push_back(task("pass1", {}, {chunk}));
  const dag::TaskId barrier = task("barrier", pass1, {});
  std::vector<dag::TaskId> pass2;
  for (data::FileId chunk : chunks) {
    pass2.push_back(task("pass2", {barrier}, {chunk}));
  }
  task("accumulate", pass2, {});
  return graph;
}

TEST(ManagerHa, RecoveryBitIdenticalUnderDiskPressure) {
  // The snapshot does not serialize WorkerDisk's last-use ticks: recovery
  // relies on the deterministic rerun to rebuild the LRU clock. Small
  // scratch disks keep pressure eviction busy before and after the crash,
  // so a recovered run that aged its cache differently would evict other
  // victims, and the txn tail (EVICT lines included) and run digest would
  // differ from the uninterrupted run's.
  const dag::TaskGraph graph = double_pass(12);
  exec::RunOptions options = ha_options();
  auto run_tight = [&](const exec::RunOptions& o) {
    cluster::ClusterSpec spec = tiny_cluster(3);
    spec.worker.cores = 1;  // sequential staging per worker
    spec.worker.disk_capacity = 8 * util::kGB;  // two chunks fit, not three
    cluster::Cluster cluster(spec);
    vine::VineScheduler s;
    return s.run(graph, cluster, o);
  };

  const auto baseline = run_tight(options);
  ASSERT_TRUE(baseline.success) << baseline.failure_reason;
  ASSERT_GE(baseline.ha.snapshots.size(), 2u);

  exec::RunOptions crash_options = options;
  crash_options.faults.crash_manager(baseline.makespan / 2);
  const auto crashed = run_tight(crash_options);
  ASSERT_TRUE(crashed.ha.manager_crashed);
  ASSERT_FALSE(crashed.ha.snapshots.empty());
  EXPECT_GT(crashed.cache_evictions, 0u) << "no eviction before the crash";
  EXPECT_GT(baseline.cache_evictions, crashed.cache_evictions)
      << "no eviction after the crash";
  const std::string txn = baseline.observation->txn().text();
  EXPECT_GT(evict_lines_after(txn, crashed.ha.crash_tick), 0u);

  exec::RunOptions rerun_options = crash_options;
  rerun_options.faults = ha::strip_manager_crash(crash_options.faults);
  const auto outcome = ha::recover(crashed, crash_options.ha, [&] {
    return run_tight(rerun_options);
  });

  EXPECT_TRUE(outcome.snapshot_converged) << outcome.error;
  EXPECT_TRUE(outcome.tail_identical) << outcome.error;
  EXPECT_TRUE(outcome.recovered) << outcome.error;
  EXPECT_EQ(ha::run_digest(outcome.report), ha::run_digest(baseline));
  EXPECT_EQ(sink_digest(outcome.report), reference_digest(graph));
}

/// A checkpoint with a retry episode open: a backoff entry, or a fetch
/// that has survived kills.
bool has_open_retry(const std::string& state) {
  for (const auto& [key, value] : ha::parse_snapshot(state)) {
    if (key.rfind("backoff.", 0) == 0) return true;
    if (key.rfind("flows.fetch.", 0) == 0 && value != "kills=0") return true;
  }
  return false;
}

TEST(ManagerHa, RecoveryBitIdenticalWithOpenRetryEpisodes) {
  // Stochastic transfer kills keep retry episodes open across checkpoints.
  // Crash the manager just after the first checkpoint that holds one, so
  // recovery restores it: the rerun must serialize the same open episodes,
  // replay the tail, and finish identical to the uninterrupted run.
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(24), 31);
  for (const std::string kind : {"vine", "wq", "dd"}) {
    SCOPED_TRACE(kind);
    exec::RunOptions options = ha_options();
    options.seed = 31;
    options.max_task_retries = 30;
    options.ha.snapshot_interval = util::seconds(2);
    options.faults.stochastic.transfer_kill_prob = 0.3;
    const auto baseline = run_backend(kind, graph, options, 4);
    ASSERT_TRUE(baseline.success) << baseline.failure_reason;
    const auto& snaps = baseline.ha.snapshots;
    const auto open = std::find_if(snaps.begin(), snaps.end(),
                                   [](const ha::SnapshotRecord& r) {
                                     return has_open_retry(r.state);
                                   });
    ASSERT_NE(open, snaps.end()) << "no checkpoint caught an open episode";
    const Tick next =
        open + 1 == snaps.end() ? baseline.makespan : (open + 1)->tick;

    exec::RunOptions crash_options = options;
    crash_options.faults.crash_manager((open->tick + next) / 2);
    const auto crashed = run_backend(kind, graph, crash_options, 4);
    ASSERT_TRUE(crashed.ha.manager_crashed);
    ASSERT_FALSE(crashed.ha.snapshots.empty());
    EXPECT_EQ(crashed.ha.snapshots.back().digest, open->digest);
    EXPECT_TRUE(has_open_retry(crashed.ha.snapshots.back().state));

    exec::RunOptions rerun_options = crash_options;
    rerun_options.faults = ha::strip_manager_crash(crash_options.faults);
    const auto outcome = ha::recover(crashed, crash_options.ha, [&] {
      return run_backend(kind, graph, rerun_options, 4);
    });
    EXPECT_EQ(outcome.snapshot_seq, crashed.ha.snapshots.back().seq);
    EXPECT_TRUE(outcome.snapshot_converged) << outcome.error;
    EXPECT_TRUE(outcome.tail_identical) << outcome.error;
    EXPECT_TRUE(outcome.recovered) << outcome.error;
    EXPECT_EQ(ha::run_digest(outcome.report), ha::run_digest(baseline));
    EXPECT_EQ(sink_digest(outcome.report), reference_digest(graph));
  }
}

// --- snapshot completeness: the VL007-audited fields are live ------------

TEST(ManagerHa, SnapshotCarriesCursorResetAndInjectorState) {
  // A reduction tree on a single worker: crashing the worker while the
  // final reduce executes loses every retained output at once, forcing
  // lineage resets (the per-task r<id> counters) on the rerun tasks.
  apps::WorkloadSpec workload = tiny_dv3(4);
  workload.reduce_arity = 2;
  const dag::TaskGraph graph = apps::build_workload(workload, 7);
  ASSERT_EQ(graph.sinks().size(), 1u);
  const dag::TaskId sink = graph.sinks().at(0);
  exec::RunOptions options = ha_options();
  options.seed = 7;

  const auto probe = run_backend("vine", graph, options, 1);
  ASSERT_TRUE(probe.success) << probe.failure_reason;
  const auto* rec = find_success(probe, sink);
  ASSERT_NE(rec, nullptr);
  ASSERT_LT(rec->exec_at, rec->exec_end_at);
  options.faults.crash_worker((rec->exec_at + rec->exec_end_at) / 2, 0);

  const auto baseline = run_backend("vine", graph, options, 1);
  ASSERT_TRUE(baseline.success) << baseline.failure_reason;
  ASSERT_FALSE(baseline.ha.snapshots.empty());
  const std::string& state = baseline.ha.snapshots.back().state;

  // The dispatch round-robin cursor (unserialized before the VL007 audit).
  EXPECT_FALSE(ha::snapshot_field(state, "run.rr_cursor").empty());
  // The injector tallies, present and counting the crash we injected.
  EXPECT_EQ(ha::snapshot_field(state, "injector.faults_injected"), "1");
  EXPECT_EQ(ha::snapshot_field(state, "injector.worker_crashes"), "1");
  EXPECT_FALSE(ha::snapshot_field(state, "injector.backoff_wait").empty());
  // The sparse per-task reset counters (r<id> lines in the tasks section).
  bool has_reset = false;
  for (const auto& [key, value] : ha::parse_snapshot(state)) {
    if (key.rfind("tasks.r", 0) == 0 && value != "0") {
      has_reset = true;
      break;
    }
  }
  EXPECT_TRUE(has_reset)
      << "worker crash produced no tasks.r<id> reset field";

  // With the new fields in the stream, recovery must still converge and
  // the recovered run must stay bit-identical to the uninterrupted one.
  exec::RunOptions crash_options = options;
  crash_options.faults.crash_manager(baseline.makespan * 7 / 10);
  const auto crashed = run_backend("vine", graph, crash_options, 1);
  ASSERT_TRUE(crashed.ha.manager_crashed);
  ASSERT_FALSE(crashed.ha.snapshots.empty());
  exec::RunOptions rerun_options = crash_options;
  rerun_options.faults = ha::strip_manager_crash(crash_options.faults);
  const auto outcome = ha::recover(crashed, crash_options.ha, [&] {
    return run_backend("vine", graph, rerun_options, 1);
  });
  EXPECT_TRUE(outcome.snapshot_converged) << outcome.error;
  EXPECT_TRUE(outcome.recovered) << outcome.error;
  EXPECT_EQ(ha::run_digest(outcome.report), ha::run_digest(baseline));
}

TEST(ManagerHa, RecoveryCostScalesWithTailNotCampaign) {
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(24), 5);
  exec::RunOptions options = ha_options();
  const auto probe = run_backend("vine", graph, options, 4);
  ASSERT_TRUE(probe.success) << probe.failure_reason;
  const Tick crash_at = probe.makespan * 6 / 10;

  const auto crash_with_cadence = [&](Tick interval) {
    exec::RunOptions o = options;
    o.ha.snapshot_interval = interval;
    o.faults = fault::FaultSchedule{};
    o.faults.crash_manager(crash_at);
    const auto crashed = run_backend("vine", graph, o, 4);
    exec::RunOptions rerun = o;
    rerun.faults = ha::strip_manager_crash(o.faults);
    return ha::recover(crashed, o.ha, [&] {
      return run_backend("vine", graph, rerun, 4);
    });
  };

  // Denser checkpoints leave a shorter tail since the last anchor, so the
  // modeled recovery time shrinks — it tracks work-since-checkpoint, not
  // campaign length.
  const auto dense = crash_with_cadence(crash_at / 7 + 1);
  const auto sparse = crash_with_cadence(crash_at / 2 + 1);
  ASSERT_TRUE(dense.recovered) << dense.error;
  ASSERT_TRUE(sparse.recovered) << sparse.error;
  EXPECT_LT(dense.tail_lines, sparse.tail_lines);
  EXPECT_LT(dense.replay_cost, sparse.replay_cost);
}

TEST(ManagerHa, CrashBeforeFirstCheckpointIsDiagnosed) {
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(12), 5);
  exec::RunOptions options = ha_options();
  options.ha.snapshot_interval = util::kHour;  // never fires in this run
  options.faults.crash_manager(util::seconds(8));
  const auto crashed = run_backend("vine", graph, options, 4);
  ASSERT_TRUE(crashed.ha.manager_crashed);
  ASSERT_TRUE(crashed.ha.snapshots.empty());

  bool rerun_called = false;
  const auto outcome = ha::recover(crashed, options.ha, [&] {
    rerun_called = true;
    return exec::RunReport{};
  });
  EXPECT_FALSE(outcome.recovered);
  EXPECT_FALSE(rerun_called);
  EXPECT_NE(outcome.error.find("no snapshot"), std::string::npos)
      << outcome.error;
}

TEST(ManagerHa, RecoverOnHealthyRunIsAnError) {
  exec::RunReport healthy;
  const auto outcome = ha::recover(healthy, ha::HaOptions{}, [] {
    return exec::RunReport{};
  });
  EXPECT_FALSE(outcome.recovered);
  EXPECT_NE(outcome.error.find("did not crash"), std::string::npos);
}

// --- elastic factory end-to-end ------------------------------------------

TEST(Factory, ElasticPoolGrowsToDemandAndCompletes) {
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(24), 5);
  exec::RunOptions options = fast_options();
  options.ha.factory.min_workers = 1;
  options.ha.factory.max_workers = 4;
  options.ha.factory.tasks_per_worker = 2;
  options.ha.factory.evaluation_interval = util::seconds(2);

  const auto report = run_backend("vine", graph, options, 4);
  ASSERT_TRUE(report.success) << report.failure_reason;
  // A 24-task campaign over tasks_per_worker=2 demands more than the
  // single seed worker: the factory must have grown the pool.
  EXPECT_GT(report.ha.factory_grow_events, 0u);
  EXPECT_GT(report.ha.workers_started, 0u);
  EXPECT_EQ(sink_digest(report), reference_digest(graph));
}

TEST(Factory, DisabledByDefaultAndLeavesNoTrace) {
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(12), 5);
  const exec::RunOptions options = fast_options();
  ASSERT_FALSE(options.ha.factory.enabled());
  ASSERT_FALSE(options.ha.snapshots_enabled());
  const auto report = run_backend("vine", graph, options, 4);
  ASSERT_TRUE(report.success) << report.failure_reason;
  EXPECT_TRUE(report.ha.snapshots.empty());
  EXPECT_FALSE(report.ha.manager_crashed);
  EXPECT_EQ(report.ha.factory_grow_events, 0u);
  EXPECT_EQ(report.ha.workers_started, 0u);
}

}  // namespace
}  // namespace hepvine
