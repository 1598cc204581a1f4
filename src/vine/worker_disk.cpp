#include "vine/worker_disk.h"

#include <algorithm>
#include <tuple>

namespace hepvine::vine {

std::vector<data::FileId> WorkerDisk::cached_files(WorkerId w) const {
  std::vector<FileId> out;
  for (const auto& [f, e] : files(w)) {
    if (e.cached) out.push_back(f);
  }
  return out;
}

bool WorkerDisk::settled(WorkerId w) const {
  std::uint64_t reclaimable = 0;
  for (const auto& [f, e] : files(w)) {
    if (e.cached && e.pins == 0) reclaimable += reclaim_bytes(f);
  }
  return disk(w).committed == 0 && disk(w).reclaimable == reclaimable;
}

void WorkerDisk::insert(WorkerId w, FileId f, util::Tick now) {
  Disk& d = disk(w);
  Entry& e = d.files[f];
  if (!e.cached && e.pins == 0) d.reclaimable += reclaim_bytes(f);
  e.cached = true;
  e.last_use = now;
}

bool WorkerDisk::erase(WorkerId w, FileId f) {
  Disk& d = disk(w);
  const auto it = d.files.find(f);
  if (it == d.files.end() || !it->second.cached) return false;
  if (it->second.pins > 0) {
    it->second.cached = false;
  } else {
    d.reclaimable -= reclaim_bytes(f);
    d.files.erase(it);
  }
  return true;
}

void WorkerDisk::pin(WorkerId w, FileId f, util::Tick now) {
  Disk& d = disk(w);
  Entry& e = d.files[f];
  if (e.pins++ == 0 && e.cached) d.reclaimable -= reclaim_bytes(f);
  e.last_use = now;
}

void WorkerDisk::unpin(WorkerId w, FileId f) {
  Disk& d = disk(w);
  const auto it = d.files.find(f);
  if (it == d.files.end() || it->second.pins == 0) return;
  if (--it->second.pins > 0) return;
  if (it->second.cached) {
    d.reclaimable += reclaim_bytes(f);
  } else {
    d.files.erase(it);
  }
}

std::vector<data::FileId> WorkerDisk::eviction_order(
    WorkerId w, const std::function<int(FileId)>& tier) const {
  std::vector<std::tuple<int, util::Tick, FileId>> victims;
  for (const auto& [f, e] : files(w)) {
    if (!e.cached || e.pins > 0) continue;
    const int t = tier(f);
    if (t != kNeverEvict) victims.emplace_back(t, e.last_use, f);
  }
  std::sort(victims.begin(), victims.end());
  std::vector<FileId> order;
  for (const auto& v : victims) order.push_back(std::get<2>(v));
  return order;
}

}  // namespace hepvine::vine
