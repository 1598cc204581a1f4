// Worker-disk state: the manager's record of what each worker's scratch
// partition holds — cached files, pin counts, last-use ticks, bytes
// promised to in-flight attempts, and the dataset-input bytes eviction
// could reclaim without a recompute (paper Fig 11; DESIGN.md §4
// "Worker-disk lifecycle").
//
// The class keeps one sorted map per worker, sized by the files that
// worker holds, never by the graph. It applies no policy: the scheduler
// decides when to collect, spill, evict or crash (it needs the replica
// table and the task graph for that), and this class answers what is
// cached, what is pinned and in which order victims go.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/cluster.h"
#include "data/file_catalog.h"
#include "util/flat_map.h"
#include "util/units.h"

namespace hepvine::vine {

// vine-snapshot: state
class WorkerDisk {
 public:
  using WorkerId = cluster::WorkerId;
  using FileId = data::FileId;

  /// One file on one worker. The entry lives while the file is cached or
  /// pinned (a pin may arrive before the bytes do).
  struct Entry {
    util::Tick last_use = 0;  // LRU clock: inserts and pins are uses
    std::uint32_t pins = 0;   // attempt inputs/outputs, transfer sources
    bool cached = false;      // bytes are on the worker's disk
  };
  using Files = util::FlatMap<FileId, Entry>;

  /// Tier for files the eviction classifier must never pick.
  static constexpr int kNeverEvict = -1;

  /// `reclaim_bytes[f]` is what `f` adds to a worker's reclaimable bytes
  /// while cached and unpinned: a dataset input's size, 0 for any other
  /// file.
  WorkerDisk(std::size_t workers, std::vector<std::uint64_t> reclaim_bytes)
      : disks_(workers), reclaim_bytes_(std::move(reclaim_bytes)) {}

  /// Every cached or pinned file on `w`, ascending by file id.
  [[nodiscard]] const Files& files(WorkerId w) const { return disk(w).files; }
  [[nodiscard]] std::vector<FileId> cached_files(WorkerId w) const;
  [[nodiscard]] bool cached(WorkerId w, FileId f) const {
    const auto it = files(w).find(f);
    return it != files(w).end() && it->second.cached;
  }
  [[nodiscard]] std::uint32_t pins(WorkerId w, FileId f) const {
    const auto it = files(w).find(f);
    return it == files(w).end() ? 0 : it->second.pins;
  }
  /// Bytes promised to in-flight attempts on `w`.
  [[nodiscard]] std::uint64_t committed(WorkerId w) const {
    return disk(w).committed;
  }
  /// Bytes of cached, unpinned dataset inputs on `w`: space eviction can
  /// mint without forcing a recompute (inputs re-stage from storage).
  [[nodiscard]] std::uint64_t reclaimable(WorkerId w) const {
    return disk(w).reclaimable;
  }
  /// The end-of-run audit: nothing is promised to attempts any more, and
  /// reclaimable(w) matches a recount over the entries.
  [[nodiscard]] bool settled(WorkerId w) const;

  /// `f` landed on `w`'s disk at `now` (re-inserting refreshes last use).
  void insert(WorkerId w, FileId f, util::Tick now);
  /// `f` left `w`'s disk. Returns false, changing nothing, if it was not
  /// cached.
  bool erase(WorkerId w, FileId f);
  /// Pin `f` on `w`: a pinned file is never an eviction victim. A pin is
  /// also a use.
  void pin(WorkerId w, FileId f, util::Tick now);
  /// Tolerant of a missing pin: a reboot wipes the pin set, and
  /// incarnation-guarded callers may race the wipe by design.
  void unpin(WorkerId w, FileId f);

  void commit(WorkerId w, std::uint64_t bytes) { disk(w).committed += bytes; }
  /// Clamps at zero: a reboot already zeroed what its attempts promised.
  void uncommit(WorkerId w, std::uint64_t bytes) {
    std::uint64_t& committed = disk(w).committed;
    committed = bytes > committed ? 0 : committed - bytes;
  }

  /// The worker rebooted or died: its disk and every pin are gone.
  void reset(WorkerId w) { disk(w) = Disk{}; }

  /// Cached, unpinned files on `w` in pressure-eviction order: ascending
  /// tier, then least recently used, then file id — a total order, so
  /// the victim choice is deterministic. `tier(f)` ranks a candidate
  /// (lower goes first) or returns kNeverEvict to exclude it.
  [[nodiscard]] std::vector<FileId> eviction_order(
      WorkerId w, const std::function<int(FileId)>& tier) const;

 private:
  struct Disk {
    Files files;
    std::uint64_t committed = 0;
    std::uint64_t reclaimable = 0;
  };

  [[nodiscard]] Disk& disk(WorkerId w) {
    return disks_[static_cast<std::size_t>(w)];
  }
  [[nodiscard]] const Disk& disk(WorkerId w) const {
    return disks_[static_cast<std::size_t>(w)];
  }
  [[nodiscard]] std::uint64_t reclaim_bytes(FileId f) const {
    return reclaim_bytes_[static_cast<std::size_t>(f)];
  }

  // Pins and cached files are written by VineRun's snapshot; committed
  // and reclaimable bytes follow from the live attempts and the pins, and
  // last-use ticks are rebuilt by the deterministic rerun recovery runs.
  // vine-snapshot: serialized(pins= in the workers section, holders in the replicas section)
  std::vector<Disk> disks_;
  // vine-snapshot: derived(fixed at construction from the file table)
  std::vector<std::uint64_t> reclaim_bytes_;
};

}  // namespace hepvine::vine
