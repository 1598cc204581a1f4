// Manager-saturation hot path: the slab event arena, the flat/dense
// container swaps, and the indexed dispatch index must all be invisible
// to the simulation's observable behaviour. The arena tests pin the
// handle/generation contract; the differential tests prove the indexed
// choose_worker and the container swaps replay bit-identically against
// the reference scans (vine) and across runs (vine, dd).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "apps/workloads.h"
#include "dd/dask_distributed.h"
#include "exec/scheduler.h"
#include "obs/observer.h"
#include "scheduler_test_util.h"
#include "sim/engine.h"
#include "vine/vine_scheduler.h"

namespace hepvine {
namespace {

using testutil::fast_options;
using testutil::sink_digest;
using testutil::tiny_cluster;
using testutil::tiny_dv3;

// ---------------------------------------------------------------------
// Event arena: slab allocation, generation-counted handles, batching.
// ---------------------------------------------------------------------

TEST(EventArena, CancelledEventDoesNotFire) {
  sim::Engine engine;
  int fired = 0;
  auto h = engine.schedule_at(10, [&] { ++fired; });
  engine.schedule_at(20, [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  engine.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), 20);
}

TEST(EventArena, SlotReuseBumpsGeneration) {
  // Fire an event, then schedule another: the arena recycles the slot.
  // The stale handle must stay inert — cancelling it must not touch the
  // recycled slot's new occupant.
  sim::Engine engine;
  int first = 0;
  int second = 0;
  auto stale = engine.schedule_at(1, [&] { ++first; });
  engine.run();
  EXPECT_EQ(first, 1);
  EXPECT_FALSE(stale.pending());

  auto fresh = engine.schedule_at(2, [&] { ++second; });
  stale.cancel();  // must be a no-op even if the slot was recycled
  EXPECT_TRUE(fresh.pending());
  engine.run();
  EXPECT_EQ(second, 1);
}

TEST(EventArena, HandleOutlivesEngine) {
  sim::Engine::EventHandle handle;
  {
    sim::Engine engine;
    handle = engine.schedule_at(5, [] {});
    EXPECT_TRUE(handle.pending());
  }
  // The arena is gone; the handle must go inert, not dangle.
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // must not crash
}

TEST(EventArena, ScheduleManyPreservesArgumentOrder) {
  sim::Engine engine;
  std::vector<int> order;
  std::vector<sim::Engine::Callback> batch;
  for (int i = 0; i < 100; ++i) {
    batch.emplace_back([&order, i] { order.push_back(i); });
  }
  auto handles = engine.schedule_many(50, std::move(batch));
  ASSERT_EQ(handles.size(), 100u);
  // Interleave a single-event schedule at the same tick after the batch:
  // FIFO within a tick means it fires last.
  engine.schedule_at(50, [&order] { order.push_back(100); });
  handles[7].cancel();
  engine.run();
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    int expected = static_cast<int>(i);
    if (expected >= 7) ++expected;  // 7 was cancelled
    EXPECT_EQ(order[i], expected);
  }
}

TEST(EventArena, MassCancellationPurgesTombstones) {
  // Cancel-heavy load (the flow network's reschedule pattern) must not
  // leave the queue dominated by tombstones: after the purge kicks in,
  // pending() reflects live events, not cancelled husks.
  sim::Engine engine;
  std::vector<sim::Engine::EventHandle> handles;
  int fired = 0;
  constexpr int kEvents = 8192;
  for (int i = 0; i < kEvents; ++i) {
    handles.push_back(engine.schedule_at(1000 + i, [&] { ++fired; }));
  }
  for (std::size_t i = 0; i < handles.size(); ++i) {
    if (i % 8 != 0) handles[i].cancel();  // cancel 7/8ths
  }
  // The purge runs lazily at the next schedule once tombstones dominate.
  engine.schedule_at(1, [&] { ++fired; });
  EXPECT_LT(engine.pending(), static_cast<std::size_t>(kEvents) / 2)
      << "purge must drop tombstones";
  engine.run();
  EXPECT_EQ(fired, kEvents / 8 + 1);
}

TEST(EventArena, RescheduleMovesEventAndKeepsStoredCallback) {
  // A live event's reschedule reuses the slot and the callback already
  // stored in it; the replacement callback is only consumed when the
  // handle is dead. Observable contract: the original callback fires at
  // the new time, exactly once.
  sim::Engine engine;
  int original = 0;
  int replacement = 0;
  auto h = engine.schedule_at(10, [&] { ++original; });
  h = engine.reschedule_at(h, 30, [&] { ++replacement; });
  EXPECT_TRUE(h.pending());
  engine.run();
  EXPECT_EQ(original, 1);
  EXPECT_EQ(replacement, 0);
  EXPECT_EQ(engine.now(), 30);

  // A dead handle falls back to a fresh schedule with the new callback.
  h = engine.reschedule_at(h, 40, [&] { ++replacement; });
  EXPECT_TRUE(h.pending());
  engine.run();
  EXPECT_EQ(original, 1);
  EXPECT_EQ(replacement, 1);

  // A handle from another engine must not touch this engine's slots.
  sim::Engine other;
  auto foreign = other.schedule_at(5, [&] { ++original; });
  auto local = engine.reschedule_at(foreign, 50, [&] { ++replacement; });
  EXPECT_TRUE(foreign.pending());
  EXPECT_TRUE(local.pending());
  engine.run();
  EXPECT_EQ(replacement, 2);
  EXPECT_EQ(original, 1);  // the foreign event never ran
}

TEST(EventArena, RescheduleOrderMatchesCancelPlusSchedule) {
  // reschedule_at consumes exactly one seq, like cancel()+schedule_at —
  // so interleaved same-tick events fire in the same order under either
  // pattern. This is the bit-identity contract the flow network's
  // re-rate loop depends on.
  auto run = [](bool use_reschedule) {
    sim::Engine engine;
    std::vector<int> order;
    auto moved = engine.schedule_at(10, [&] { order.push_back(0); });
    engine.schedule_at(20, [&] { order.push_back(1); });
    if (use_reschedule) {
      moved = engine.reschedule_at(moved, 20, [&] { order.push_back(0); });
    } else {
      moved.cancel();
      moved = engine.schedule_at(20, [&] { order.push_back(0); });
    }
    engine.schedule_at(20, [&] { order.push_back(2); });
    engine.run();
    return order;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(EventArena, SlabReusedAcrossWaves) {
  // Scheduling N events, draining them, and scheduling N more must not
  // grow the arena a second time: the free list recycles the first
  // wave's slots.
  sim::Engine engine;
  for (int i = 0; i < 1000; ++i) engine.schedule_at(i, [] {});
  engine.run();
  const std::size_t cap_after_first = engine.arena_capacity();
  for (int i = 0; i < 1000; ++i) engine.schedule_at(2000 + i, [] {});
  engine.run();
  EXPECT_EQ(engine.arena_capacity(), cap_after_first);
}

// ---------------------------------------------------------------------
// Differential: indexed dispatch vs reference scans, and run-to-run
// determinism of the flat/dense container swaps.
// ---------------------------------------------------------------------

struct TxnRun {
  exec::RunReport report;
  std::string txn;
};

[[nodiscard]] exec::RunOptions txn_options() {
  exec::RunOptions options = fast_options();
  options.observability.enabled = true;
  options.observability.txn_log = true;
  options.observability.perf_log = false;
  options.observability.chrome_trace = false;
  return options;
}

[[nodiscard]] TxnRun run_vine(const apps::WorkloadSpec& workload,
                              bool indexed_dispatch,
                              std::uint32_t workers = 6) {
  const dag::TaskGraph graph = apps::build_workload(workload, 3);
  cluster::Cluster cluster(tiny_cluster(workers));
  vine::VineTunables tun;
  tun.indexed_dispatch = indexed_dispatch;
  // Same scheduler name for both paths so the txn logs are comparable
  // byte-for-byte.
  vine::VineScheduler scheduler(vine::taskvine_policy(), tun);
  TxnRun out;
  out.report = scheduler.run(graph, cluster, txn_options());
  out.txn = out.report.observation->txn().text();
  return out;
}

TEST(DispatchDifferential, IndexedMatchesReferenceTxnByteForByte) {
  const auto indexed = run_vine(tiny_dv3(48), /*indexed_dispatch=*/true);
  const auto reference = run_vine(tiny_dv3(48), /*indexed_dispatch=*/false);
  ASSERT_TRUE(indexed.report.success);
  ASSERT_TRUE(reference.report.success);
  EXPECT_EQ(indexed.report.makespan, reference.report.makespan);
  EXPECT_EQ(indexed.report.task_attempts, reference.report.task_attempts);
  ASSERT_FALSE(indexed.txn.empty());
  EXPECT_EQ(indexed.txn, reference.txn)
      << "indexed choose_worker diverged from the reference scan";
}

TEST(DispatchDifferential, IndexedMatchesReferenceUnderTightDisks) {
  // Tight scratch disks drive the disk-pressure fallback — the segment
  // tree's territory. The tree argmax must pick exactly the worker the
  // reference scan picks, including tie-breaks.
  apps::WorkloadSpec workload = tiny_dv3(48);
  workload.process_output_bytes = 400 * util::kMB;
  const auto indexed = run_vine(workload, /*indexed_dispatch=*/true);
  const auto reference = run_vine(workload, /*indexed_dispatch=*/false);
  EXPECT_EQ(indexed.report.success, reference.report.success);
  EXPECT_EQ(indexed.report.makespan, reference.report.makespan);
  EXPECT_EQ(indexed.txn, reference.txn);
}

TEST(DispatchDifferential, VineTwoRunTxnIdentity) {
  // Flat containers (FlatMap pins/last_use, sharded fetches, dense
  // attempts) iterate in key order by construction; two identical runs
  // must emit identical transaction logs.
  const auto a = run_vine(tiny_dv3(), /*indexed_dispatch=*/true);
  const auto b = run_vine(tiny_dv3(), /*indexed_dispatch=*/true);
  ASSERT_TRUE(a.report.success);
  ASSERT_FALSE(a.txn.empty());
  EXPECT_EQ(a.txn, b.txn);
  EXPECT_EQ(sink_digest(a.report), sink_digest(b.report));
}

TEST(DispatchDifferential, DaskTwoRunTxnIdentity) {
  // dd's dense attempts/running_on/sink_gathered must not perturb replay.
  auto run_dd = [] {
    const dag::TaskGraph graph = apps::build_workload(tiny_dv3(), 3);
    cluster::Cluster cluster(tiny_cluster(4));
    dd::DaskDistScheduler scheduler{dd::DaskTunables{}};
    TxnRun out;
    out.report = scheduler.run(graph, cluster, txn_options());
    out.txn = out.report.observation->txn().text();
    return out;
  };
  const auto a = run_dd();
  const auto b = run_dd();
  ASSERT_TRUE(a.report.success);
  ASSERT_FALSE(a.txn.empty());
  EXPECT_EQ(a.txn, b.txn);
}

TEST(DispatchDifferential, ObjectStoreTwoRunTxnIdentity) {
  // The node-local object store adds state (holder map, ref counts, the
  // serialize residue accumulator) to every dispatch and completion; with
  // it on, two identical serverless runs must still replay byte-for-byte.
  auto run_fc = [](bool object_store) {
    const dag::TaskGraph graph = apps::build_workload(tiny_dv3(48), 3);
    cluster::Cluster cluster(tiny_cluster(6));
    vine::VineTunables tun;
    tun.object_store = object_store;
    vine::VineScheduler scheduler(vine::taskvine_policy(), tun);
    exec::RunOptions options = txn_options();
    options.mode = exec::ExecMode::kFunctionCalls;
    TxnRun out;
    out.report = scheduler.run(graph, cluster, options);
    out.txn = out.report.observation->txn().text();
    return out;
  };
  const auto on_a = run_fc(true);
  const auto on_b = run_fc(true);
  ASSERT_TRUE(on_a.report.success) << on_a.report.failure_reason;
  ASSERT_FALSE(on_a.txn.empty());
  EXPECT_GT(on_a.report.store_puts, 0u);
  EXPECT_EQ(on_a.txn, on_b.txn);
  EXPECT_EQ(sink_digest(on_a.report), sink_digest(on_b.report));

  // And the off arm both replays and stays verb-free.
  const auto off_a = run_fc(false);
  const auto off_b = run_fc(false);
  ASSERT_TRUE(off_a.report.success) << off_a.report.failure_reason;
  EXPECT_EQ(off_a.txn, off_b.txn);
  EXPECT_EQ(off_a.txn.find(" STORE "), std::string::npos);
  EXPECT_EQ(sink_digest(on_a.report), sink_digest(off_a.report));
}

TEST(DispatchDifferential, DaskServerlessTwoRunTxnIdentity) {
  // dd's serverless path now charges serialization through the per-proc
  // residue accumulator; the accumulator state must not perturb replay.
  auto run_dd_fc = [] {
    const dag::TaskGraph graph = apps::build_workload(tiny_dv3(), 3);
    cluster::Cluster cluster(tiny_cluster(4));
    dd::DaskDistScheduler scheduler{dd::DaskTunables{}};
    exec::RunOptions options = txn_options();
    options.mode = exec::ExecMode::kFunctionCalls;
    TxnRun out;
    out.report = scheduler.run(graph, cluster, options);
    out.txn = out.report.observation->txn().text();
    return out;
  };
  const auto a = run_dd_fc();
  const auto b = run_dd_fc();
  ASSERT_TRUE(a.report.success) << a.report.failure_reason;
  ASSERT_FALSE(a.txn.empty());
  EXPECT_EQ(a.txn, b.txn);
}

// ---------------------------------------------------------------------
// Dispatch-correctness bugfix regressions.
// ---------------------------------------------------------------------

TEST(DispatchBugfix, LocalityTriesSecondBestHolderUnderDiskPressure) {
  // With scratch outputs sized so a single worker's disk cannot hold the
  // whole reduction, locality placement must fall through to the next
  // holder in (score, id) order instead of abandoning locality — the run
  // still completes and matches the two-run replay.
  apps::WorkloadSpec workload = tiny_dv3(48);
  workload.process_output_bytes = 300 * util::kMB;
  const auto a = run_vine(workload, /*indexed_dispatch=*/true);
  ASSERT_TRUE(a.report.success) << a.report.failure_reason;
  const auto b = run_vine(workload, /*indexed_dispatch=*/true);
  EXPECT_EQ(a.txn, b.txn);
}

TEST(DispatchBugfix, LocalityWinsStillRotateRoundRobinCursor) {
  // The fairness fix: locality placements advance the round-robin cursor,
  // so cache-miss dispatches keep rotating instead of hammering the
  // worker after the last cold start. Observable effect: with plenty of
  // workers, dispatches spread — no worker is starved while another
  // hoards the whole run.
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(60), 3);
  cluster::Cluster cluster(tiny_cluster(8));
  vine::VineScheduler scheduler(vine::taskvine_policy(), vine::VineTunables{});
  const auto report = scheduler.run(graph, cluster, fast_options());
  ASSERT_TRUE(report.success);

  std::map<std::int32_t, std::size_t> per_worker;
  for (const obs::AttemptSpan& a : report.profile.attempts()) {
    if (!a.failed) ++per_worker[a.worker];
  }
  EXPECT_GE(per_worker.size(), 4u)
      << "round-robin cursor stuck: dispatches collapsed onto "
      << per_worker.size() << " workers";
  std::size_t max_share = 0;
  std::size_t total = 0;
  for (const auto& [w, n] : per_worker) {
    max_share = std::max(max_share, n);
    total += n;
  }
  EXPECT_LT(max_share, total)  // at least two workers did real work
      << "one worker hoarded every dispatch";
}

}  // namespace
}  // namespace hepvine
