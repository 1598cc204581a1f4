// Placement: where the vine/wq engine runs each task and where it copies
// fresh intermediates (DESIGN.md §8 "Indexed dispatch").
//
// Most of TaskVine's speedup over Work Queue comes from running a task on
// a worker that already holds its inputs (paper Table I). Placement makes
// that call: the eligible holder with the most resident input bytes whose
// disk fits wins; otherwise a round robin from the cursor takes the first
// eligible worker whose disk fits; when every disk is tight the task waits
// for space, or — if it could never fit or nothing is running — goes to
// the worker with the most fallback headroom. It reads the engine's
// cluster, replica table, worker disks and object store and changes none
// of them. It owns only what the decision needs: the eligible set (alive
// with a free core), the memory in use per worker and the dispatch index.
//
// Two arms answer identically. The indexed arm reads the disk-tight
// ranking from a DispatchIndex whose stale leaves WorkerDisk and
// set_eligible mark; the reference arm (VineTunables::indexed_dispatch off)
// rescans every worker and is the differential oracle.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "dag/task_graph.h"
#include "objstore/object_store.h"
#include "vine/dispatch_index.h"
#include "vine/replica_table.h"
#include "vine/worker_disk.h"

namespace hepvine::vine {

class Placement {
 public:
  using WorkerId = cluster::WorkerId;
  using FileId = data::FileId;

  struct Config {
    /// DataPolicy::locality_placement.
    bool locality_placement = true;
    /// DataPolicy::evict_on_pressure: unpinned dataset inputs count as
    /// room, since a forced dispatch can reclaim them.
    bool evict_on_pressure = true;
    /// VineTunables::indexed_dispatch.
    bool indexed_dispatch = true;
    /// Every standard task stages the environment, so it is no locality
    /// signal.
    FileId env_file = data::kInvalidFile;
  };

  Placement(Config config, const cluster::Cluster& cluster,
            const ReplicaTable& replicas, const WorkerDisk& disk,
            const objstore::ObjectStore& store);

  /// The worker to run `task` on, or kNoWorker to leave it queued. `need`
  /// lists the files the task stages. A choice moves the round-robin
  /// `cursor` past the chosen worker; `attempts_live` decides whether a
  /// disk-tight task may wait for space.
  [[nodiscard]] WorkerId choose_worker(const dag::Task& task,
                                       const std::vector<FileId>& need,
                                       WorkerId& cursor,
                                       std::size_t attempts_live);

  /// Where to copy a fresh intermediate `f`, best first: alive workers
  /// without it, with at least twice its size free, most free disk first.
  [[nodiscard]] std::vector<WorkerId> replica_targets(FileId f) const;

  /// Bytes of `need` neither on `w`'s disk nor in its object store.
  [[nodiscard]] std::uint64_t missing_bytes(
      WorkerId w, const std::vector<FileId>& need) const {
    std::uint64_t bytes = 0;
    for (FileId f : need) {
      if (!disk_.cached(w, f) && !store_.holds(w, f)) bytes += disk_.size(f);
    }
    return bytes;
  }

  /// `w` is alive with a free core (or no longer is).
  void set_eligible(WorkerId w, bool eligible) {
    if (eligible_.set(w, eligible)) dispatch_index_.mark(w);
  }
  void take_memory(WorkerId w, std::uint64_t bytes) { mem(w) += bytes; }
  /// Clamps at zero: a reboot already zeroed what its attempts held.
  void free_memory(WorkerId w, std::uint64_t bytes) {
    mem(w) = bytes > mem(w) ? 0 : mem(w) - bytes;
  }
  void reset_memory(WorkerId w) { mem(w) = 0; }

  /// The dispatch index, for WorkerDisk::watch.
  [[nodiscard]] DispatchIndex& index() { return dispatch_index_; }

 private:
  /// One choose_worker call: the task, what it stages, the cursor to
  /// advance and the live-attempt count.
  struct Ask {
    const dag::Task& task;
    const std::vector<FileId>& need;
    WorkerId& cursor;
    std::size_t attempts_live = 0;
  };

  [[nodiscard]] std::uint64_t& mem(WorkerId w) {
    return mem_in_use_[static_cast<std::size_t>(w)];
  }
  [[nodiscard]] bool worker_eligible(WorkerId w, const dag::Task& task) const {
    const auto& node = cluster_.worker(w);
    if (!node.alive || node.cores_free() == 0) return false;
    return mem_in_use_[static_cast<std::size_t>(w)] + task.spec.memory_bytes <=
           node.memory;
  }
  [[nodiscard]] std::uint64_t available(WorkerId w) const {
    const std::uint64_t capacity = cluster_.worker(w).disk.capacity();
    const std::uint64_t used = disk_.used(w);
    return capacity > used ? capacity - used : 0;
  }
  /// Fallback headroom for `w`: available scratch minus bytes promised to
  /// in-flight attempts, plus space held by unpinned cached dataset inputs
  /// when eviction can mint it back. Matches what disk_fits charges, so
  /// the ranking never crowns a worker whose free space is already spoken
  /// for.
  [[nodiscard]] std::uint64_t fallback_headroom(WorkerId w) const {
    const std::uint64_t avail = available(w);
    const std::uint64_t committed = disk_.committed(w);
    std::uint64_t free = avail > committed ? avail - committed : 0;
    if (config_.evict_on_pressure) free += disk_.reclaimable(w);
    return free;
  }
  [[nodiscard]] bool disk_fits(WorkerId w, const Ask& ask) const {
    return missing_bytes(w, ask.need) + ask.task.spec.output_bytes +
               disk_.committed(w) <=
           available(w);
  }
  [[nodiscard]] bool fits(WorkerId w, const Ask& ask) const {
    return worker_eligible(w, ask.task) && disk_fits(w, ask);
  }
  /// Choose `w` (unless it is kNoWorker): the cursor moves past it.
  WorkerId take(const Ask& ask, WorkerId w) const {
    const auto n = static_cast<WorkerId>(cluster_.worker_count());
    if (w != cluster::kNoWorker) ask.cursor = (w + 1) % n;
    return w;
  }
  /// `w`'s dispatch-index keys: (headroom + 1, capacity + 1) while
  /// eligible, (0, 0) otherwise.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> leaf_keys(
      WorkerId w) const {
    if (!eligible_.contains(w)) return {0, 0};
    return {fallback_headroom(w) + 1, cluster_.worker(w).disk.capacity() + 1};
  }

  WorkerId locality_choice(const Ask& ask);
  WorkerId rr_reference(const Ask& ask);
  WorkerId rr_indexed(const Ask& ask);
  [[nodiscard]] WorkerId scan_fallback_worker(const dag::Task& task) const;
  [[nodiscard]] bool wait_for_space(const Ask& ask,
                                    std::uint64_t best_capacity) const;
  void index_flush();

  const Config config_;
  const cluster::Cluster& cluster_;
  const ReplicaTable& replicas_;
  const WorkerDisk& disk_;
  const objstore::ObjectStore& store_;

  // Everything below is a function of worker state, rebuilt as events
  // touch workers, or scratch dead between dispatches.
  EligibleSet eligible_;
  DispatchIndex dispatch_index_;
  std::vector<std::uint64_t> mem_in_use_;
  // Locality scoring stamps loc_epoch_ per candidate instead of clearing a
  // map: a worker's score is valid only when its stamp equals the current
  // epoch, so reset between dispatches is one counter increment.
  std::vector<WorkerId> scratch_holders_;
  std::vector<std::uint64_t> loc_score_;
  std::vector<std::uint32_t> loc_epoch_;
  std::uint32_t loc_epoch_cur_ = 0;
};

}  // namespace hepvine::vine
