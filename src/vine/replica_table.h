// Replica tracking: the manager's cluster-wide map of which workers hold
// which files (by cachename). This is the data structure that enables
// locality-aware placement and peer transfers (paper Section IV-B,
// "Retaining Data"). The worker-side view — what one worker's disk holds —
// lives in WorkerDisk (vine/worker_disk.h).
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "data/file_catalog.h"

namespace hepvine::vine {

class ReplicaTable {
 public:
  explicit ReplicaTable(std::size_t files)
      : holders_(files), at_manager_(files, false) {}

  void add(data::FileId file, cluster::WorkerId worker);
  void remove(data::FileId file, cluster::WorkerId worker);
  void set_at_manager(data::FileId file, bool present = true) {
    at_manager_[static_cast<std::size_t>(file)] = present;
  }

  [[nodiscard]] bool at_manager(data::FileId file) const {
    return at_manager_[static_cast<std::size_t>(file)];
  }
  [[nodiscard]] const std::vector<cluster::WorkerId>& holders(
      data::FileId file) const {
    return holders_[static_cast<std::size_t>(file)];
  }
  /// Anywhere at all (worker or manager)?
  [[nodiscard]] bool available(data::FileId file) const {
    return at_manager(file) || !holders(file).empty();
  }
  [[nodiscard]] std::size_t replica_count(data::FileId file) const {
    return holders(file).size() +
           (at_manager(file) ? 1u : 0u);
  }

  /// `holders(file)` sorted ascending by worker id, as a copy. Lifecycle
  /// sweeps (ref-count GC, pressure eviction) iterate this instead of the
  /// insertion-ordered list so every drop order is id-deterministic — the
  /// differential suites diff transaction logs byte-for-byte.
  [[nodiscard]] std::vector<cluster::WorkerId> holders_sorted(
      data::FileId file) const;

  /// Drop `worker`'s replicas of `files` (preemption; the caller lists
  /// what the worker's disk held). Returns the files that lost their last
  /// replica (manager copies don't count as lost).
  std::vector<data::FileId> drop_worker(
      cluster::WorkerId worker, const std::vector<data::FileId>& files);

 private:
  // Small vectors: replica counts are 1-3 in practice, so linear scans win.
  std::vector<std::vector<cluster::WorkerId>> holders_;
  std::vector<bool> at_manager_;
};

}  // namespace hepvine::vine
