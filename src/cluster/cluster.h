// Cluster assembly: wires the event engine, flow network, shared
// filesystem, batch system, and worker nodes into one simulated facility.
//
// Topology is a star: every node (manager, each worker, the shared
// filesystem) has an uplink and a downlink of its NIC's capacity; the core
// switch is non-blocking (the paper's campus cluster bottlenecks are NICs
// and the filesystem, not the fabric). Workers are granted and preempted by
// the batch system; the scheduler on top registers a listener to react.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "batch/batch_system.h"
#include "net/network.h"
#include "sim/engine.h"
#include "sim/rng.h"
#include "storage/disk.h"
#include "storage/shared_fs.h"
#include "util/units.h"

namespace hepvine::cluster {

using util::Bandwidth;
using util::Tick;

using WorkerId = std::int32_t;
inline constexpr WorkerId kNoWorker = -1;

struct NodeSpec {
  std::uint32_t cores = 12;
  std::uint64_t memory = 96 * util::kGB;
  std::uint64_t disk_capacity = 108 * util::kGB;
  storage::DiskSpec disk = storage::nvme_disk();
  Bandwidth nic = util::gbps(10);
  /// Relative CPU speed; per-node heterogeneity is layered on top.
  double base_speed = 1.0;
};

struct ClusterSpec {
  std::uint32_t worker_count = 200;
  NodeSpec worker;
  Bandwidth manager_nic = util::gbps(25);
  storage::SharedFsSpec fs = storage::vast_spec();
  /// Wide-area data federation reachable from every node (XRootD). Always
  /// wired; schedulers use it only when asked to stream inputs remotely.
  storage::SharedFsSpec wan = storage::xrootd_wan_spec();
  batch::BatchSpec batch;
  /// Flow-network engine knobs (incremental vs reference recompute).
  net::NetworkOptions net;
  /// +/- fractional spread of per-node CPU speed (heterogeneous campus
  /// cluster; 0 disables).
  double speed_spread = 0.10;
  std::uint64_t seed = 1;
};

/// One worker node's physical state. Core accounting is cooperative: the
/// scheduler reserves/releases cores as it places work.
struct WorkerNode {
  WorkerId id = kNoWorker;
  net::LinkId uplink = -1;
  net::LinkId downlink = -1;
  std::uint32_t cores = 0;
  std::uint32_t cores_in_use = 0;
  std::uint64_t memory = 0;
  storage::LocalDisk disk;
  double speed = 1.0;
  /// Fault-injected straggler factor (1 = nominal). Kept separate from
  /// `speed` so a window can end by restoring exactly 1.0, drift-free.
  double speed_scale = 1.0;
  bool alive = false;
  std::uint32_t incarnation = 0;

  [[nodiscard]] std::uint32_t cores_free() const noexcept {
    return cores > cores_in_use ? cores - cores_in_use : 0;
  }
  /// Speed after any active straggler window; what task runtimes divide by.
  [[nodiscard]] double effective_speed() const noexcept {
    return speed * speed_scale;
  }
};

class Cluster {
 public:
  explicit Cluster(ClusterSpec spec);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] net::Network& network() noexcept { return *network_; }
  [[nodiscard]] storage::SharedFilesystem& fs() noexcept { return *fs_; }
  [[nodiscard]] storage::SharedFilesystem& wan() noexcept { return *wan_; }
  [[nodiscard]] batch::BatchSystem& batch() noexcept { return *batch_; }
  [[nodiscard]] const ClusterSpec& spec() const noexcept { return spec_; }

  [[nodiscard]] std::uint32_t worker_count() const noexcept {
    return static_cast<std::uint32_t>(workers_.size());
  }
  [[nodiscard]] WorkerNode& worker(WorkerId id) {
    return workers_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const WorkerNode& worker(WorkerId id) const {
    return workers_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::uint32_t alive_workers() const;
  [[nodiscard]] std::uint32_t total_cores() const;

  [[nodiscard]] net::LinkId manager_uplink() const noexcept {
    return manager_up_;
  }
  [[nodiscard]] net::LinkId manager_downlink() const noexcept {
    return manager_down_;
  }

  // --- transfer-matrix endpoint numbering -------------------------------
  // 0 = manager, 1..N = workers, N+1 = shared filesystem.
  [[nodiscard]] std::size_t endpoint_count() const noexcept {
    return workers_.size() + 2;
  }
  [[nodiscard]] static std::size_t manager_endpoint() noexcept { return 0; }
  [[nodiscard]] std::size_t worker_endpoint(WorkerId id) const noexcept {
    return static_cast<std::size_t>(id) + 1;
  }
  [[nodiscard]] std::size_t fs_endpoint() const noexcept {
    return workers_.size() + 1;
  }

  /// Source endpoint for transfer(): the wide-area federation. It lies past
  /// endpoint_count() because the transfer matrix has no row for it.
  [[nodiscard]] std::size_t wan_endpoint() const noexcept {
    return workers_.size() + 2;
  }
  /// The endpoint a transfer from `ep` records under: a WAN read records as
  /// the shared filesystem, so the matrix keeps its shape.
  [[nodiscard]] std::size_t matrix_endpoint(std::size_t ep) const noexcept {
    return ep == wan_endpoint() ? fs_endpoint() : ep;
  }

  // --- data movement -------------------------------------------------------
  /// Move `bytes` from endpoint `from` to endpoint `to` (the manager or a
  /// worker). A send from the manager or a worker crosses the source's
  /// uplink and the destination's downlink after `latency` of setup. A read
  /// from the shared filesystem or the WAN goes through that filesystem: its
  /// aggregate link, its open latency in place of `latency`, and its
  /// bytes_read count. `done` fires with the flow id when the last byte
  /// lands; a null `done` is fire and forget.
  net::FlowId transfer(std::size_t from, std::size_t to, std::uint64_t bytes,
                       Tick latency, std::function<void(net::FlowId)> done);

  /// Round-trip control-message latency between manager and a worker.
  [[nodiscard]] Tick control_rtt() const noexcept { return 600 * util::kUsec; }

  // --- batch integration ---------------------------------------------------
  /// Ask the batch system for all configured workers. `on_up` / `on_down`
  /// fire as nodes are matched and preempted; the cluster updates the node
  /// state (alive flag, cleared disk) before forwarding. When `initial` is
  /// smaller than the configured pool, the remainder stays parked for an
  /// elastic factory to start via `batch().start_slots()`.
  void request_workers(std::function<void(WorkerId)> on_up,
                       std::function<void(WorkerId)> on_down,
                       std::uint32_t initial = 0xffffffffU);

 private:
  ClusterSpec spec_;
  sim::Engine engine_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<storage::SharedFilesystem> fs_;
  std::unique_ptr<storage::SharedFilesystem> wan_;
  std::unique_ptr<batch::BatchSystem> batch_;
  std::vector<WorkerNode> workers_;
  net::LinkId manager_up_ = -1;
  net::LinkId manager_down_ = -1;
};

}  // namespace hepvine::cluster
