// Worker-disk lifecycle tests: ref-counted GC of dead intermediates,
// pinning of in-use files, and deterministic LRU eviction under disk
// pressure — plus the staging-overflow regression (waiters must be failed,
// not dropped) and the eviction/injected-loss composition contract.
//
// The core fixture is a three-task chain on ONE paper worker (108 GB
// scratch disk) whose dataset inputs cannot coexist:
//
//   chunk0 (60 GB)  chunk1 (50 GB)        dataset inputs
//        |               |
//        A ------------> B -------------> D
//                            (D re-reads chunk0)
//
// Staging chunk1 for B does not fit next to the cached chunk0 (plus the
// software environment). With eviction disabled that reservation overflows
// the disk and kills the worker — the paper's Fig 11 pathology. With
// eviction enabled the manager evicts the unpinned chunk0 (recoverable:
// dataset inputs re-stage from shared storage), B runs, chunk1 is
// garbage-collected the moment its last consumer finishes, and D re-stages
// chunk0 into the reclaimed space. Same graph, crash vs. success — the
// ablation the DataPolicy::evict_on_pressure knob exists for.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "dag/task_graph.h"
#include "dag/value.h"
#include "exec/scheduler.h"
#include "obs/observer.h"
#include "obs/txn_query.h"
#include "scheduler_test_util.h"
#include "vine/vine_scheduler.h"

namespace hepvine::vine {
namespace {

using namespace hepvine::testutil;

dag::ValuePtr scalar(double v) {
  return std::make_shared<dag::ScalarValue>(v);
}

/// The chain described in the file header. Built fresh per run so
/// determinism tests never share closure state between runs.
dag::TaskGraph pressure_chain() {
  dag::TaskGraph graph;
  const data::FileId chunk0 =
      graph.add_input_file("chunk0", 60 * util::kGB, /*content_seed=*/101);
  const data::FileId chunk1 =
      graph.add_input_file("chunk1", 50 * util::kGB, /*content_seed=*/102);

  dag::TaskSpec a;
  a.category = "scan";
  a.function = "scan";
  a.input_files = {chunk0};
  a.cpu_seconds = 2.0;
  a.output_bytes = 1 * util::kMB;
  a.fn = [](const std::vector<dag::ValuePtr>&) { return scalar(1.0); };
  const dag::TaskId ta = graph.add_task(a);

  dag::TaskSpec b;
  b.category = "scan";
  b.function = "scan";
  b.deps = {ta};
  b.input_files = {chunk1};
  b.cpu_seconds = 2.0;
  b.output_bytes = 1 * util::kMB;
  b.fn = [](const std::vector<dag::ValuePtr>& in) {
    return scalar(dynamic_cast<const dag::ScalarValue&>(*in[0]).get() + 1.0);
  };
  const dag::TaskId tb = graph.add_task(b);

  dag::TaskSpec d;
  d.category = "merge";
  d.function = "merge";
  d.deps = {tb};
  d.input_files = {chunk0};
  d.cpu_seconds = 2.0;
  d.output_bytes = 1 * util::kMB;
  d.fn = [](const std::vector<dag::ValuePtr>& in) {
    return scalar(dynamic_cast<const dag::ScalarValue&>(*in[0]).get() * 2.0);
  };
  graph.add_task(d);
  return graph;
}

exec::RunReport run_chain(const DataPolicy& policy,
                          exec::RunOptions options) {
  const dag::TaskGraph graph = pressure_chain();
  cluster::Cluster cluster(tiny_cluster(/*workers=*/1, /*preempt=*/0.0,
                                        options.seed));
  VineScheduler scheduler(policy, VineTunables{});
  return scheduler.run(graph, cluster, options);
}

// --- the eviction-vs-crash ablation -------------------------------------

TEST(DiskLifecycle, EvictionTurnsOverflowCrashIntoSuccess) {
  exec::RunOptions options = fast_options();
  options.observability.enabled = true;
  const auto report = run_chain(taskvine_policy(), options);

  ASSERT_TRUE(report.success) << report.failure_reason;
  EXPECT_EQ(report.worker_crashes, 0u)
      << "pressure eviction must absorb the overflow, not crash the worker";
  EXPECT_GE(report.cache_evictions, 1u);
  EXPECT_GT(report.cache_evicted_bytes, 0u);
  // chunk1 dies when B (its only consumer) finishes; the task outputs of A
  // and B die when their consumers finish.
  EXPECT_GE(report.cache_gc_drops, 2u);
  // Evicting is a scheduler decision, not a fault: no injector ran and no
  // loss may be reported.
  EXPECT_EQ(report.faults.cache_losses, 0u);

  // The result is still the correct one.
  EXPECT_EQ(sink_digest(report), reference_digest(pressure_chain()));

  // Txn log carries the new verbs, and they agree with the counters.
  ASSERT_TRUE(report.observation != nullptr);
  const auto events = obs::txnq::parse_log(report.observation->txn().text());
  const auto cs = obs::txnq::cache_summary(events);
  EXPECT_EQ(cs.evictions, report.cache_evictions);
  EXPECT_EQ(cs.evicted_bytes, report.cache_evicted_bytes);
  EXPECT_EQ(cs.gc_drops, report.cache_gc_drops);
  EXPECT_EQ(cs.losses, 0u);
}

TEST(DiskLifecycle, EvictionDisabledReproducesOverflowCrash) {
  DataPolicy policy = taskvine_policy();
  policy.evict_on_pressure = false;

  exec::RunOptions options = fast_options();
  options.max_task_retries = 2;  // bound the crash/replace/crash loop
  const auto report = run_chain(policy, options);

  EXPECT_FALSE(report.success);
  EXPECT_GE(report.worker_crashes, 1u)
      << "with eviction off the staging overflow must kill the worker";
  EXPECT_EQ(report.cache_evictions, 0u);
  // Regression (staging overflow used to drop its fetch waiters on the
  // floor): the run must end decisively via the retry budget, not stall
  // until the simulation horizon with a task waiting on a callback that
  // was never invoked.
  EXPECT_LT(report.makespan, options.max_sim_time);
}

// --- GC bookkeeping on a real workload ----------------------------------

TEST(DiskLifecycle, RefcountGcMatchesTxnLogOnWorkload) {
  exec::RunOptions options = fast_options();
  options.observability.enabled = true;
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(24),
                                                    options.seed);
  cluster::Cluster cluster(tiny_cluster(4, 0.0, options.seed));
  VineScheduler scheduler;
  const auto report = scheduler.run(graph, cluster, options);

  ASSERT_TRUE(report.success) << report.failure_reason;
  // Intermediates must be collected as their consumers finish.
  EXPECT_GE(report.cache_gc_drops, 1u);

  ASSERT_TRUE(report.observation != nullptr);
  const auto events = obs::txnq::parse_log(report.observation->txn().text());
  const auto cs = obs::txnq::cache_summary(events);
  EXPECT_EQ(cs.gc_drops, report.cache_gc_drops);
  EXPECT_EQ(cs.evictions, report.cache_evictions);
  EXPECT_EQ(cs.losses, 0u);
  EXPECT_GE(cs.inserts, graph.size());
}

TEST(DiskLifecycle, ConsumedDatasetInputsLeaveEveryDisk) {
  // A dataset input is dead once its last consumer finishes, like any
  // intermediate: GC drops every worker copy. At successful completion no
  // disk still holds a dataset input that was staged onto it.
  exec::RunOptions options = fast_options();
  options.observability.enabled = true;
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(24),
                                                    options.seed);
  cluster::Cluster cluster(tiny_cluster(4, 0.0, options.seed));
  const auto report = VineScheduler().run(graph, cluster, options);
  ASSERT_TRUE(report.success) << report.failure_reason;
  ASSERT_NE(report.observation, nullptr);

  std::map<std::string, bool> held;  // "file worker" -> on disk
  std::istringstream in(report.observation->txn().text());
  for (std::string line; std::getline(in, line);) {
    std::istringstream fields(line);
    std::string tick, subject, f, verb, bytes, w;
    if (!(fields >> tick >> subject >> f >> verb >> bytes >> w) ||
        subject != "CACHE") {
      continue;
    }
    held[f + " " + w] = verb == "INSERT";
  }
  std::size_t staged = 0;
  for (const auto& file : graph.catalog()) {
    if (file.kind != data::FileKind::kDatasetInput) continue;
    for (const auto& [key, on_disk] : held) {
      if (key.substr(0, key.find(' ')) != std::to_string(file.id)) continue;
      ++staged;
      EXPECT_FALSE(on_disk) << "dataset input " << key << " outlived its "
                            << "last consumer";
    }
  }
  EXPECT_GT(staged, 0u);
}

// --- eviction composes with injected cache loss -------------------------

TEST(DiskLifecycle, InjectedLossIsDistinctFromEviction) {
  // Probe once to learn the makespan, then aim a cache-loss fault at the
  // first dataset chunk mid-run. Two legal outcomes, both exercised by the
  // composition contract: the chunk still has holders (a LOST record and
  // cache_losses == 1) or the lifecycle already dropped every copy
  // (cache_loss_noops == 1 — evicting/GCing is not a fault). Exactly one
  // of the two must be reported.
  const apps::WorkloadSpec workload = tiny_dv3(24);
  exec::RunOptions options = fast_options();
  const dag::TaskGraph probe_graph = apps::build_workload(workload,
                                                          options.seed);
  cluster::Cluster probe_cluster(tiny_cluster(4, 0.0, options.seed));
  VineScheduler scheduler;
  const auto probe = scheduler.run(probe_graph, probe_cluster, options);
  ASSERT_TRUE(probe.success) << probe.failure_reason;

  options.observability.enabled = true;
  options.faults.lose_cached_file(probe.makespan / 2, /*worker=*/-1,
                                  /*file=*/0);
  const dag::TaskGraph graph = apps::build_workload(workload, options.seed);
  cluster::Cluster cluster(tiny_cluster(4, 0.0, options.seed));
  const auto report = scheduler.run(graph, cluster, options);

  ASSERT_TRUE(report.success) << report.failure_reason;
  EXPECT_EQ(report.faults.cache_losses + report.faults.cache_loss_noops, 1u);

  ASSERT_TRUE(report.observation != nullptr);
  const auto events = obs::txnq::parse_log(report.observation->txn().text());
  const auto cs = obs::txnq::cache_summary(events);
  EXPECT_EQ(cs.losses, report.faults.cache_losses);
  EXPECT_EQ(cs.evictions, report.cache_evictions);
  EXPECT_EQ(sink_digest(report), sink_digest(probe));
}

// --- determinism ---------------------------------------------------------

TEST(DiskLifecycle, EvictionPathIsDeterministic) {
  exec::RunOptions options = fast_options();
  options.observability.enabled = true;
  const auto a = run_chain(taskvine_policy(), options);
  const auto b = run_chain(taskvine_policy(), options);
  ASSERT_TRUE(a.success) << a.failure_reason;
  ASSERT_TRUE(b.success) << b.failure_reason;
  ASSERT_TRUE(a.observation && b.observation);
  // Byte-identical transaction logs: the LRU victim order (last-use tick,
  // file-id tiebreak) and id-ordered GC sweeps admit no nondeterminism.
  EXPECT_EQ(a.observation->txn().text(), b.observation->txn().text());
  EXPECT_GE(a.cache_evictions, 1u);
  // Pins and peer slots balance at the end of the run: no slot was
  // released twice, and (audited at completion in Debug builds) no file
  // is still pinned except by a peer slot that is still sourcing it.
  EXPECT_EQ(a.peer_slot_underflows, 0u);
  EXPECT_EQ(b.peer_slot_underflows, 0u);
}

TEST(DiskLifecycle, DisabledEvictionPathIsDeterministic) {
  DataPolicy policy = taskvine_policy();
  policy.evict_on_pressure = false;

  exec::RunOptions options = fast_options();
  options.observability.enabled = true;
  options.max_task_retries = 2;
  const auto a = run_chain(policy, options);
  const auto b = run_chain(policy, options);
  ASSERT_TRUE(a.observation && b.observation);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.worker_crashes, b.worker_crashes);
  EXPECT_EQ(a.observation->txn().text(), b.observation->txn().text());
}

// --- peer-slot accounting ------------------------------------------------

TEST(DiskLifecycle, PeerSlotReleasesBalanceUnderPreemption) {
  // Replication plus heavy preemption drives every peer-transfer teardown
  // path (completion, source death, destination death, throttle-queue
  // kills). Releases must exactly balance acquisitions: any double release
  // shows up as a nonzero underflow counter (and an assert in Debug).
  const apps::WorkloadSpec workload = tiny_dv3(48);
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    exec::RunOptions options = fast_options();
    options.seed = seed;
    options.max_task_retries = 40;
    options.intermediate_replicas = 2;
    const dag::TaskGraph graph = apps::build_workload(workload, seed);
    cluster::Cluster cluster(tiny_cluster(4, /*preempt_per_hour=*/120.0,
                                          seed));
    VineScheduler scheduler;
    const auto report = scheduler.run(graph, cluster, options);
    ASSERT_TRUE(report.success) << "seed " << seed << ": "
                                << report.failure_reason;
    EXPECT_EQ(report.peer_slot_underflows, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace hepvine::vine
