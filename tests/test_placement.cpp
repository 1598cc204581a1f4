// Direct tests for vine::Placement, the vine/wq engine's choice of where
// each task runs. States are built through WorkerDisk, ReplicaTable and
// ObjectStore directly, with no scheduler run. The randomized
// differential places one task sequence on an indexed and a reference
// Placement reading the same state and requires the same worker and the
// same round-robin cursor at every step; the targeted cases pin the
// locality order, the wait-or-force rule and the index's memory-fit
// fallback.

#include "vine/placement.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/calibration.h"
#include "sim/rng.h"
#include "storage/disk.h"

namespace hepvine::vine {
namespace {

using cluster::WorkerId;
using data::FileId;
constexpr WorkerId kNone = cluster::kNoWorker;

cluster::ClusterSpec spec_for(std::uint32_t workers) {
  return cluster::paper_cluster(workers, cluster::paper_worker_node(),
                                storage::vast_spec(), /*seed=*/1);
}

std::vector<std::uint64_t> reclaim_for(const std::vector<std::uint64_t>& sizes,
                                       std::size_t inputs) {
  std::vector<std::uint64_t> out(sizes.size(), 0);
  for (std::size_t f = 0; f < inputs; ++f) out[f] = sizes[f];
  return out;
}

Placement::Config arm(Placement::Config config, bool indexed) {
  config.indexed_dispatch = indexed;
  return config;
}

/// One placement state: every worker alive and idle with `capacity` bytes
/// of disk, `memory` bytes of memory and `cores` cores; files 0..inputs-1
/// are dataset inputs. Both arms read it; only the indexed arm's index is
/// marked by the disk, as in the engine.
struct World {
  World(std::uint32_t workers, std::vector<std::uint64_t> sizes,
        std::size_t inputs, Placement::Config config,
        std::uint64_t capacity = 1000, std::uint32_t cores = 4,
        std::uint64_t memory = 100)
      : cluster(spec_for(workers)),
        replicas(sizes.size()),
        disk(workers, sizes, reclaim_for(sizes, inputs)),
        indexed(arm(config, true), cluster, replicas, disk, store),
        reference(arm(config, false), cluster, replicas, disk, store) {
    store.reset(workers, 1ull << 40);
    disk.watch(&indexed.index());
    for (WorkerId w = 0; w < static_cast<WorkerId>(workers); ++w) {
      auto& node = cluster.worker(w);
      node.disk = storage::LocalDisk(storage::nvme_disk(), capacity);
      node.cores = cores;
      node.memory = memory;
      set_alive(w, true);
    }
  }

  void refresh_eligible(WorkerId w) {
    const auto& node = cluster.worker(w);
    const bool eligible = node.alive && node.cores_free() > 0;
    indexed.set_eligible(w, eligible);
    reference.set_eligible(w, eligible);
  }
  void set_alive(WorkerId w, bool alive) {
    cluster.worker(w).alive = alive;
    cluster.worker(w).cores_in_use = 0;
    refresh_eligible(w);
  }
  void set_busy(WorkerId w, std::uint32_t cores_in_use) {
    cluster.worker(w).cores_in_use = cores_in_use;
    refresh_eligible(w);
  }
  void take_memory(WorkerId w, std::uint64_t bytes) {
    indexed.take_memory(w, bytes);
    reference.take_memory(w, bytes);
  }
  void free_memory(WorkerId w, std::uint64_t bytes) {
    indexed.free_memory(w, bytes);
    reference.free_memory(w, bytes);
  }
  void cache(WorkerId w, FileId f, util::Tick now = 0) {
    disk.insert(w, f, now);
    replicas.add(f, w);
  }
  void kill(WorkerId w) {
    replicas.drop_worker(w, disk.cached_files(w));
    store.drop_node(w);
    disk.reset(w);
    indexed.reset_memory(w);
    reference.reset_memory(w);
    set_alive(w, false);
  }

  /// Place on both arms from their own cursors; they must agree.
  WorkerId place(const dag::Task& task, const std::vector<FileId>& need,
                 std::size_t attempts_live) {
    const WorkerId a =
        indexed.choose_worker(task, need, indexed_cursor, attempts_live);
    const WorkerId b =
        reference.choose_worker(task, need, reference_cursor, attempts_live);
    EXPECT_EQ(a, b) << "indexed and reference arms chose different workers";
    EXPECT_EQ(indexed_cursor, reference_cursor);
    return a;
  }

  cluster::Cluster cluster;
  ReplicaTable replicas;
  WorkerDisk disk;
  objstore::ObjectStore store;
  Placement indexed;
  Placement reference;
  WorkerId indexed_cursor = 0;
  WorkerId reference_cursor = 0;
};

dag::Task make_task(std::uint64_t output, std::uint64_t memory = 1) {
  dag::Task task;
  task.id = 0;
  task.spec.output_bytes = output;
  task.spec.memory_bytes = memory;
  return task;
}

// --- randomized differential --------------------------------------------

/// Would any eligible, memory-fitting worker take `task` on disk? When
/// none does, placement reaches the disk-tight fallback (wait or force).
bool some_worker_fits(const World& world, const dag::Task& task,
                      const std::vector<FileId>& need,
                      const std::vector<std::uint64_t>& mem) {
  for (WorkerId w = 0;
       w < static_cast<WorkerId>(world.cluster.worker_count()); ++w) {
    const auto& node = world.cluster.worker(w);
    if (!node.alive || node.cores_free() == 0) continue;
    if (mem[static_cast<std::size_t>(w)] + task.spec.memory_bytes >
        node.memory) {
      continue;
    }
    const std::uint64_t cap = node.disk.capacity();
    const std::uint64_t used = world.disk.used(w);
    const std::uint64_t avail = cap > used ? cap - used : 0;
    if (world.indexed.missing_bytes(w, need) + task.spec.output_bytes +
            world.disk.committed(w) <=
        avail) {
      return true;
    }
  }
  return false;
}

TEST(PlacementDifferential, RandomStates) {
  constexpr std::uint64_t kSeeds = 600;
  std::uint64_t tight_seeds = 0;
  std::uint64_t forced = 0;
  std::uint64_t waited = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Rng rng(seed, "placement-differential");
    const auto below = [&rng](std::uint64_t n) { return rng.uniform_below(n); };

    const auto workers = static_cast<std::uint32_t>(
        below(4) == 0 ? 65 + below(80) : 2 + below(30));
    const std::size_t files = 4 + below(30);
    std::vector<std::uint64_t> sizes;
    for (std::size_t f = 0; f < files; ++f) sizes.push_back(1 + below(120));
    const std::size_t inputs = below(files / 2 + 1);
    Placement::Config config;
    config.locality_placement = below(5) != 0;
    config.evict_on_pressure = below(2) == 0;
    // The last file is the environment in half the seeds.
    if (below(2) == 0) config.env_file = static_cast<FileId>(files - 1);
    World world(workers, sizes, inputs, config, /*capacity=*/1,
                /*cores=*/1, /*memory=*/100);

    // Per-worker state: capacities, dead workers, full cores, memory in
    // use, cached and pinned files, committed bytes and store objects.
    std::vector<std::uint64_t> mem(workers, 0);
    for (WorkerId w = 0; w < static_cast<WorkerId>(workers); ++w) {
      auto& node = world.cluster.worker(w);
      node.disk = storage::LocalDisk(storage::nvme_disk(), 60 + below(400));
      node.cores = 1 + static_cast<std::uint32_t>(below(3));
      if (below(7) == 0) {
        world.set_alive(w, false);
        continue;
      }
      world.set_busy(w, static_cast<std::uint32_t>(below(node.cores + 1)));
      mem[static_cast<std::size_t>(w)] = below(4) == 0 ? below(120) : 0;
      world.take_memory(w, mem[static_cast<std::size_t>(w)]);
      for (FileId f = 0; f < static_cast<FileId>(files); ++f) {
        const std::uint64_t size = sizes[static_cast<std::size_t>(f)];
        if (below(4) == 0 &&
            world.disk.used(w) + size <= node.disk.capacity()) {
          world.cache(w, f, static_cast<util::Tick>(below(50)));
          if (below(4) == 0) world.disk.pin(w, f, 60);
        } else if (below(20) == 0) {
          world.disk.pin(w, f, 60);  // pinned ahead of its bytes
        }
      }
      if (below(2) == 0) world.disk.commit(w, below(node.disk.capacity()));
    }
    for (FileId f = static_cast<FileId>(inputs); f < static_cast<FileId>(files);
         ++f) {
      const auto w = static_cast<WorkerId>(below(workers));
      if (below(6) == 0 && world.cluster.worker(w).alive &&
          !world.disk.cached(w, f)) {
        world.store.put(w, f, sizes[static_cast<std::size_t>(f)], 0);
      }
    }
    world.indexed_cursor = world.reference_cursor =
        static_cast<WorkerId>(below(workers));

    bool reached_tight = false;
    const std::size_t steps = 10 + below(30);
    for (std::size_t step = 0; step < steps; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const dag::Task task = make_task(below(80), below(60));
      std::vector<FileId> need;
      for (FileId f = 0; f < static_cast<FileId>(files); ++f) {
        if (below(6) == 0) need.push_back(f);
      }
      const std::size_t live = below(3);
      const bool tight = !some_worker_fits(world, task, need, mem);
      const WorkerId w = world.place(task, need, live);
      if (::testing::Test::HasFailure()) return;
      if (tight) {
        reached_tight = true;
        (w == kNone ? waited : forced) += 1;
      }
      if (w != kNone) {
        // Dispatch as the engine does: a core, the memory, the committed
        // bytes and a pin on every needed file.
        world.set_busy(w, world.cluster.worker(w).cores_in_use + 1);
        mem[static_cast<std::size_t>(w)] += task.spec.memory_bytes;
        world.take_memory(w, task.spec.memory_bytes);
        world.disk.commit(w, world.indexed.missing_bytes(w, need) +
                                 task.spec.output_bytes);
        for (FileId f : need) world.disk.pin(w, f, 100 + step);
      }

      // Then one random event on a random worker.
      const auto v = static_cast<WorkerId>(below(workers));
      auto& node = world.cluster.worker(v);
      const auto f = static_cast<FileId>(below(files));
      switch (below(6)) {
        case 0:  // an attempt ends
          if (node.alive && node.cores_in_use > 0) {
            world.set_busy(v, node.cores_in_use - 1);
            world.disk.uncommit(v, below(100));
            const std::uint64_t freed = below(60);
            mem[static_cast<std::size_t>(v)] -=
                std::min(freed, mem[static_cast<std::size_t>(v)]);
            world.free_memory(v, freed);
          }
          break;
        case 1:  // a file lands, if it fits
          if (node.alive && !world.disk.cached(v, f) &&
              world.disk.used(v) + sizes[static_cast<std::size_t>(f)] <=
                  node.disk.capacity()) {
            world.cache(v, f, static_cast<util::Tick>(200 + step));
          }
          break;
        case 2:  // a file leaves
          if (world.disk.erase(v, f)) world.replicas.remove(f, v);
          break;
        case 3:  // a pin is released
          world.disk.unpin(v, f);
          break;
        case 4:  // the worker dies, or a dead one reconnects
          if (node.alive) {
            world.kill(v);
            mem[static_cast<std::size_t>(v)] = 0;
          } else {
            world.set_alive(v, true);
          }
          break;
        default:
          break;
      }
    }
    if (reached_tight) ++tight_seeds;
  }
  RecordProperty("tight_seeds", std::to_string(tight_seeds));
  RecordProperty("forced", std::to_string(forced));
  RecordProperty("waited", std::to_string(waited));
  EXPECT_GE(tight_seeds * 3, kSeeds)
      << "too few seeds reach the disk-tight fallback";
  EXPECT_GT(forced, 0u) << "no forced dispatch";
  EXPECT_GT(waited, 0u) << "no disk-tight wait";
}

// --- targeted cases -----------------------------------------------------

TEST(Placement, LocalityOrderIsScoreThenIdWhenTopHolderIsDiskTight) {
  // Files 0 (300 bytes) and 1 (100). Worker 3 holds both (score 400);
  // workers 1 and 4 hold file 0 (score 300 each).
  for (bool evict : {false, true}) {
    SCOPED_TRACE(evict ? "eviction on" : "eviction off");
    World world(5, {300, 100}, /*inputs=*/0,
                Placement::Config{true, evict, true, data::kInvalidFile});
    world.cache(3, 0);
    world.cache(3, 1);
    world.cache(4, 0);
    world.cache(1, 0);
    world.indexed_cursor = world.reference_cursor = 4;
    const dag::Task task = make_task(100);
    const std::vector<FileId> need{0, 1};

    EXPECT_EQ(world.place(task, need, 1), 3) << "the top holder fits";
    EXPECT_EQ(world.indexed_cursor, 4);

    // Worker 3 is disk-tight: 100 + 650 > 600. Workers 1 and 4 tie at
    // score 300; the smaller id goes first, whatever the cursor says.
    world.disk.commit(3, 650);
    EXPECT_EQ(world.place(task, need, 1), 1);
    EXPECT_EQ(world.indexed_cursor, 2);

    world.disk.commit(1, 700);  // 100 + 100 + 700 > 700
    EXPECT_EQ(world.place(task, need, 1), 4);
    EXPECT_EQ(world.indexed_cursor, 0);

    // No holder fits: round robin from the cursor, past tight workers.
    world.disk.commit(4, 700);
    EXPECT_EQ(world.place(task, need, 1), 0);
    EXPECT_EQ(world.indexed_cursor, 1);
  }
}

TEST(Placement, WaitOrForceFollowsCouldEverFitAndLiveAttempts) {
  // Three 1000-byte disks, all tight for a 200-byte output. Fallback
  // headroom: 50, 100, 100; workers 1 and 2 tie.
  World world(3, {80}, /*inputs=*/1,
              Placement::Config{true, false, true, data::kInvalidFile});
  world.disk.commit(0, 950);
  world.disk.commit(1, 900);
  world.disk.commit(2, 900);
  world.indexed_cursor = world.reference_cursor = 2;
  const dag::Task fits_empty = make_task(200);
  const dag::Task never_fits = make_task(1500);

  EXPECT_EQ(world.place(fits_empty, {}, 2), kNone)
      << "could fit an empty disk and attempts are live: wait";
  EXPECT_EQ(world.indexed_cursor, 2) << "a wait leaves the cursor";
  EXPECT_EQ(world.place(fits_empty, {}, 0), 1)
      << "nothing runs: force onto the most headroom, smaller id on a tie";
  EXPECT_EQ(world.indexed_cursor, 2);
  EXPECT_EQ(world.place(never_fits, {}, 3), 1)
      << "fits no disk at all: force even with attempts live";

  // A reclaimable dataset input counts as room only with eviction on.
  for (bool evict : {false, true}) {
    SCOPED_TRACE(evict ? "eviction on" : "eviction off");
    World w2(3, {80}, /*inputs=*/1,
             Placement::Config{true, evict, true, data::kInvalidFile});
    w2.disk.commit(0, 950);
    w2.disk.commit(1, 900);
    w2.cache(2, 0);          // 80 reclaimable bytes
    w2.disk.commit(2, 880);  // headroom 40, or 120 with the credit
    EXPECT_EQ(w2.place(fits_empty, {}, 0), evict ? 2 : 1);
  }
}

TEST(Placement, IndexArgmaxFailingTheMemoryFitFallsBackToTheScan) {
  // Four tight disks; headroom 10, 30, 300, 30. Worker 2 leads the index
  // but has no memory for the task; the scan picks worker 1 (tied with 3,
  // smaller id).
  World world(4, {10}, /*inputs=*/0,
              Placement::Config{true, false, true, data::kInvalidFile});
  world.disk.commit(0, 990);
  world.disk.commit(1, 970);
  world.disk.commit(2, 700);
  world.disk.commit(3, 970);
  world.take_memory(2, 90);
  const dag::Task task = make_task(400, /*memory=*/20);
  EXPECT_EQ(world.place(task, {}, 0), 1);
  EXPECT_EQ(world.indexed_cursor, 2);

  world.free_memory(2, 90);  // now it fits: the index answers directly
  EXPECT_EQ(world.place(task, {}, 0), 2);

  world.kill(2);
  world.kill(1);
  EXPECT_EQ(world.place(task, {}, 0), 3);
  world.set_busy(3, 4);
  world.set_busy(0, 4);
  EXPECT_EQ(world.place(task, {}, 0), kNone) << "no eligible worker";
}

TEST(Placement, ReplicaTargetsRankByFreeDisk) {
  World world(4, {100, 50}, /*inputs=*/0,
              Placement::Config{true, true, true, data::kInvalidFile});
  world.cache(0, 1);        // holds the file: skipped
  world.disk.commit(1, 500);  // committed bytes do not count here
  world.cache(2, 0);        // 900 free
  world.kill(3);            // dead: skipped
  EXPECT_EQ(world.indexed.replica_targets(1), (std::vector<WorkerId>{1, 2}));
  world.cache(1, 0);
  world.cache(2, 1);
  EXPECT_EQ(world.indexed.replica_targets(1), (std::vector<WorkerId>{1}));
}

}  // namespace
}  // namespace hepvine::vine
