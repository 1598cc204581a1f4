#include "vine/replica_table.h"

#include <algorithm>

namespace hepvine::vine {

void ReplicaTable::add(data::FileId file, cluster::WorkerId worker) {
  auto& hs = holders_[static_cast<std::size_t>(file)];
  if (std::find(hs.begin(), hs.end(), worker) == hs.end()) {
    hs.push_back(worker);
  }
}

void ReplicaTable::remove(data::FileId file, cluster::WorkerId worker) {
  auto& hs = holders_[static_cast<std::size_t>(file)];
  hs.erase(std::remove(hs.begin(), hs.end(), worker), hs.end());
}

std::vector<cluster::WorkerId> ReplicaTable::holders_sorted(
    data::FileId file) const {
  std::vector<cluster::WorkerId> hs = holders_[static_cast<std::size_t>(file)];
  std::sort(hs.begin(), hs.end());
  return hs;
}

std::vector<data::FileId> ReplicaTable::drop_worker(
    cluster::WorkerId worker, const std::vector<data::FileId>& files) {
  std::vector<data::FileId> lost;
  for (data::FileId file : files) {
    auto& hs = holders_[static_cast<std::size_t>(file)];
    const auto it = std::find(hs.begin(), hs.end(), worker);
    if (it == hs.end()) continue;
    hs.erase(it);
    if (hs.empty() && !at_manager(file)) lost.push_back(file);
  }
  return lost;
}

}  // namespace hepvine::vine
