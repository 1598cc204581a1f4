#include "vine/placement.h"

#include <algorithm>
#include <cassert>

namespace hepvine::vine {

Placement::Placement(Config config, const cluster::Cluster& cluster,
                     const ReplicaTable& replicas, const WorkerDisk& disk,
                     const objstore::ObjectStore& store)
    : config_(config),
      cluster_(cluster),
      replicas_(replicas),
      disk_(disk),
      store_(store) {
  const std::size_t workers = cluster.worker_count();
  eligible_.reset(workers);
  dispatch_index_.reset(workers);
  mem_in_use_.assign(workers, 0);
  loc_score_.assign(workers, 0);
  loc_epoch_.assign(workers, 0);
}

cluster::WorkerId Placement::choose_worker(const dag::Task& task,
                                           const std::vector<FileId>& need,
                                           WorkerId& cursor,
                                           std::size_t attempts_live) {
  const Ask ask{task, need, cursor, attempts_live};
  if (config_.locality_placement) {
    // A locality win consumes this worker's turn too: without the cursor
    // advance, the round-robin path restarted at the same worker on the
    // next non-local dispatch and starved the tail of the id space under
    // mixed workloads.
    const WorkerId w = take(ask, locality_choice(ask));
    if (w != cluster::kNoWorker) return w;
  }
  return config_.indexed_dispatch ? rr_indexed(ask) : rr_reference(ask);
}

/// Locality placement: score eligible workers by resident input bytes
/// and take the best-scored one whose disk fits — trying the remaining
/// holders in descending (score, id-ascending) order rather than giving
/// up when only the top holder is disk-tight. Replica lists are tiny, so
/// this is O(inputs x replicas) per dispatch in both dispatch modes.
cluster::WorkerId Placement::locality_choice(const Ask& ask) {
  if (++loc_epoch_cur_ == 0) {  // epoch wrapped: invalidate all stamps
    std::fill(loc_epoch_.begin(), loc_epoch_.end(), 0);
    loc_epoch_cur_ = 1;
  }
  scratch_holders_.clear();
  const auto score_holder = [&](WorkerId holder, FileId f) {
    const auto hi = static_cast<std::size_t>(holder);
    if (loc_epoch_[hi] != loc_epoch_cur_) {
      if (!worker_eligible(holder, ask.task)) return;
      loc_epoch_[hi] = loc_epoch_cur_;
      loc_score_[hi] = 0;
      scratch_holders_.push_back(holder);
    }
    loc_score_[hi] += disk_.size(f);
  };
  for (FileId f : ask.need) {
    if (f == config_.env_file) continue;
    for (WorkerId holder : replicas_.holders(f)) score_holder(holder, f);
    // An in-memory store object is the strongest locality signal of
    // all: placing the consumer on its holder makes the input free.
    const objstore::NodeId sh = store_.holder_of(f);
    if (sh != objstore::kNoHolder) score_holder(sh, f);
  }
  std::sort(scratch_holders_.begin(), scratch_holders_.end(),
            [this](WorkerId a, WorkerId b) {
              const std::uint64_t sa = loc_score_[static_cast<std::size_t>(a)];
              const std::uint64_t sb = loc_score_[static_cast<std::size_t>(b)];
              if (sa != sb) return sa > sb;
              return a < b;
            });
  for (WorkerId w : scratch_holders_) {
    if (disk_fits(w, ask)) return w;
  }
  return cluster::kNoWorker;
}

/// Reference round-robin: circular walk over eligible workers from the
/// cursor, first disk-fitting worker wins; disk-tight fallback re-derived
/// by full scan. Kept as the differential oracle for rr_indexed.
cluster::WorkerId Placement::rr_reference(const Ask& ask) {
  std::uint64_t best_capacity = 0;
  const WorkerId hit = eligible_.walk(ask.cursor, [&](WorkerId w) {
    best_capacity = std::max(best_capacity, cluster_.worker(w).disk.capacity());
    return fits(w, ask);
  });
  if (hit != cluster::kNoWorker) return take(ask, hit);
  if (wait_for_space(ask, best_capacity)) return cluster::kNoWorker;
  return take(ask, scan_fallback_worker(ask.task));
}

/// Indexed round-robin: identical outcomes to rr_reference, with the
/// O(workers) scans replaced by dispatch-index reads. The walk for a
/// disk-fitting worker is skipped outright when even the cluster-wide
/// max headroom cannot cover the task's output (disk_fits needs
/// avail - committed >= missing + output, and headroom bounds
/// avail - committed from above), and the disk-tight fallback comes from
/// the index argmax instead of a rescan.
cluster::WorkerId Placement::rr_indexed(const Ask& ask) {
  // Probe a bounded prefix of the round-robin walk before touching the
  // index at all: when disks have room the first eligible worker wins
  // and the tree (and its deferred leaf fix-ups) stays cold. Only a
  // failed probe — the disk-tight regime — pays the flush, and the tree
  // then prunes the rest of the scan or answers the fallback outright.
  constexpr std::size_t kProbe = 64;
  std::size_t visited = 0;
  WorkerId bound_stop = cluster::kNoWorker;
  WorkerId hit = eligible_.walk(ask.cursor, [&](WorkerId w) {
    if (fits(w, ask)) return true;
    if (++visited >= kProbe) {
      bound_stop = w;
      return true;  // stop the walk; not a hit
    }
    return false;
  });
  if (hit != cluster::kNoWorker && hit != bound_stop) return take(ask, hit);
  index_flush();
  const DispatchIndex::Node& top = dispatch_index_.top();
  if (top.free_key == 0) return cluster::kNoWorker;  // nothing eligible
  const std::uint64_t best_capacity = top.cap_key - 1;
  if (bound_stop != cluster::kNoWorker &&
      top.free_key - 1 >= ask.task.spec.output_bytes) {
    // Something may still fit; resume past the probe boundary. The
    // continuation wraps through the already-probed prefix at its tail,
    // which re-tests provably unfit workers — harmless, and only on
    // this no-hit-in-prefix path.
    const auto n = static_cast<WorkerId>(cluster_.worker_count());
    hit = eligible_.walk(static_cast<WorkerId>((bound_stop + 1) % n),
                         [&](WorkerId w) { return fits(w, ask); });
    if (hit != cluster::kNoWorker) return take(ask, hit);
  }
  if (wait_for_space(ask, best_capacity)) return cluster::kNoWorker;
  // The index argmax ignores the per-task memory fit; when the top worker
  // passes it, it is also the argmax over the memory-fitting subset (max
  // over a superset attained inside the subset, same smaller-id
  // tiebreak). Otherwise re-derive by scan.
  if (!worker_eligible(top.free_w, ask.task)) {
    return take(ask, scan_fallback_worker(ask.task));
  }
  return take(ask, top.free_w);
}

/// Disk-tight fallback by scan: the eligible, memory-fitting worker with
/// the most fallback headroom (ties to the smaller id — the walk is in
/// ascending id order and replacement is strict). Ranking by headroom
/// rather than raw availability matters: raw availability can crown a
/// "roomiest" worker whose free space is already promised to in-flight
/// attempts, and when eviction is on, space held by unpinned dataset
/// inputs counts — a forced dispatch landing there reclaims it instead
/// of overflowing.
cluster::WorkerId Placement::scan_fallback_worker(const dag::Task& task) const {
  WorkerId fb = cluster::kNoWorker;
  std::uint64_t fb_free = 0;
  (void)eligible_.walk(0, [&](WorkerId w) {
    if (!worker_eligible(w, task)) return false;
    const std::uint64_t free = fallback_headroom(w);
    if (fb == cluster::kNoWorker || free > fb_free) {
      fb = w;
      fb_free = free;
    }
    return false;
  });
  return fb;
}

/// Workers are eligible but their disks are currently tight. If the task
/// would fit an *empty* scratch disk, wait: running tasks will finish and
/// pruning will reclaim space. If it cannot fit any disk at all — the
/// paper's single-node reduction — dispatch to the roomiest worker anyway
/// and let the overflow surface as the worker failure it would be in
/// production. Also force progress if nothing is running (waiting would
/// deadlock). `best_capacity` spans every eligible worker, memory fit
/// aside — a task that only "could ever fit" on a memory-busy worker
/// should still wait for it rather than overflow a smaller disk. Callers
/// rank a fallback worker only when this says no, so the common wait case
/// never pays the ranking scan.
bool Placement::wait_for_space(const Ask& ask,
                               std::uint64_t best_capacity) const {
  std::uint64_t footprint = ask.task.spec.output_bytes;
  for (FileId f : ask.need) footprint += disk_.size(f);
  return footprint <= best_capacity && ask.attempts_live != 0;
}

/// Re-derive every stale leaf; the tree is current on return. Debug
/// builds then check every leaf against a recomputation, so a mutation
/// that forgot its staleness mark fails at the next flush.
void Placement::index_flush() {
  dispatch_index_.refresh([this](WorkerId w) { return leaf_keys(w); });
#ifndef NDEBUG
  for (WorkerId w = 0; w < static_cast<WorkerId>(cluster_.worker_count());
       ++w) {
    assert(dispatch_index_.leaf(w) == leaf_keys(w) &&
           "dispatch-index leaf missed a staleness mark");
  }
#endif
}

std::vector<cluster::WorkerId> Placement::replica_targets(FileId f) const {
  std::vector<WorkerId> targets;
  for (WorkerId w = 0; w < static_cast<WorkerId>(cluster_.worker_count());
       ++w) {
    if (!cluster_.worker(w).alive || disk_.cached(w, f)) continue;
    if (available(w) < disk_.size(f) * 2) continue;
    targets.push_back(w);
  }
  std::sort(targets.begin(), targets.end(), [this](WorkerId a, WorkerId b) {
    return available(a) > available(b);
  });
  return targets;
}

}  // namespace hepvine::vine
