// Node-local disk model: a capacity plus a simple service-time model
// (per-op latency + size/bandwidth). Capacity pressure is load-bearing for
// the paper's Fig 11 (worker cache overflow kills workers); throughput
// matters for local cache reads vs shared-filesystem reads. What fills a
// worker's scratch disk is the scheduler's record (vine::WorkerDisk), not
// this class's.
#pragma once

#include <cstdint>

#include "util/units.h"

namespace hepvine::storage {

using util::Bandwidth;
using util::Tick;

struct DiskSpec {
  Bandwidth read_bw = util::mbs(500);
  Bandwidth write_bw = util::mbs(400);
  Tick op_latency = 200 * util::kUsec;
};

/// Spinning-disk profile (HDFS data nodes in the paper).
[[nodiscard]] constexpr DiskSpec spinning_disk() {
  return DiskSpec{util::mbs(160), util::mbs(120), 8 * util::kMsec};
}

/// NVMe profile (VAST storage nodes, worker scratch disks).
[[nodiscard]] constexpr DiskSpec nvme_disk() {
  return DiskSpec{util::mbs(2500), util::mbs(1800), 80 * util::kUsec};
}

class LocalDisk {
 public:
  LocalDisk() = default;
  LocalDisk(DiskSpec spec, std::uint64_t capacity)
      : spec_(spec), capacity_(capacity) {}

  [[nodiscard]] const DiskSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }

  /// Service time for a contention-free write of `bytes`.
  [[nodiscard]] Tick write_time(std::uint64_t bytes) const noexcept {
    return spec_.op_latency + util::transfer_time(bytes, spec_.write_bw);
  }

 private:
  DiskSpec spec_{};
  std::uint64_t capacity_ = 0;
};

}  // namespace hepvine::storage
