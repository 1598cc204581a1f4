// Shared (cluster-wide) filesystem models.
//
// Two presets reproduce the paper's storage layer:
//  * HDFS  — commodity spinning disks, triple replication, optimized for
//            bulk throughput: decent aggregate bandwidth, poor per-open
//            latency and expensive metadata operations.
//  * VAST  — NVMe parallel filesystem with a POSIX interface: similar
//            aggregate bandwidth at our scale but ~100x better open and
//            metadata latency.
//
// The filesystem owns one aggregate network link; a read by a node is a
// flow across [fs_link, node_downlink] that starts after the open latency.
// Metadata operations (the expensive part of Python imports on a shared
// filesystem, per the import-hoisting experiment) are modeled as latency
// only, with a cap on how many can be serviced per second.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/network.h"
#include "obs/stats_registry.h"
#include "sim/engine.h"
#include "util/units.h"

namespace hepvine::storage {

using util::Bandwidth;
using util::Tick;

struct SharedFsSpec {
  std::string name;
  std::uint64_t capacity = 0;
  Bandwidth aggregate_bw = 0;   // total bytes/second across all clients
  Tick open_latency = 0;        // per-file open (data path)
  Tick metadata_latency = 0;    // per metadata op (stat/lookup), unloaded
  double metadata_ops_per_sec = 0;  // server-wide metadata throughput cap
  std::uint32_t replication = 1;
};

/// The paper's 644 TB HDFS cluster: spinning disks, triple replication.
[[nodiscard]] SharedFsSpec hdfs_spec();

/// The paper's 918 TB (676 usable) VAST NVMe parallel filesystem.
[[nodiscard]] SharedFsSpec vast_spec();

/// The wide-area XRootD federation (Section IV-A): CMS data served from
/// remote sites over the WAN. High per-open latency and limited effective
/// bandwidth into the campus — the reason the group maintains local data
/// subsets instead of streaming from the federation per run.
[[nodiscard]] SharedFsSpec xrootd_wan_spec();

class SharedFilesystem {
 public:
  /// `link` must be a link registered in `network` with the filesystem's
  /// aggregate bandwidth.
  SharedFilesystem(sim::Engine& engine, net::Network& network,
                   net::LinkId link, SharedFsSpec spec);

  [[nodiscard]] const SharedFsSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] net::LinkId link() const noexcept { return link_; }

  /// Read `bytes` to a node reachable via `node_downlink`. `done` fires with
  /// the flow id when the data has fully arrived. Returns the flow id
  /// (cancellable).
  net::FlowId read(net::LinkId node_downlink, std::uint64_t bytes,
                   std::function<void(net::FlowId)> done);

  /// Write `bytes` from a node via `node_uplink`. Replication multiplies the
  /// bytes that cross the filesystem's aggregate link.
  net::FlowId write(net::LinkId node_uplink, std::uint64_t bytes,
                    std::function<void(net::FlowId)> done);

  /// Degrade (or restore) the filesystem's aggregate bandwidth to `factor`
  /// of nominal — the fault-injection hook for brownouts (0 < factor < 1)
  /// and full outages (factor 0: reads/writes stall until restored).
  void set_bandwidth_scale(double factor) {
    network_.set_link_scale(link_, factor);
  }
  [[nodiscard]] double bandwidth_scale() const {
    return network_.link_scale(link_);
  }

  /// Perform `count` metadata operations (stat/open/lookup) and invoke
  /// `done` when they finish. Latency grows once the server-wide metadata
  /// throughput cap is exceeded (a queueing delay), which is what makes
  /// un-hoisted imports on a shared filesystem expensive at scale.
  void metadata_ops(std::uint64_t count, std::function<void()> done);

  [[nodiscard]] std::uint64_t bytes_read() const noexcept {
    return bytes_read_;
  }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_written_;
  }
  [[nodiscard]] std::uint64_t metadata_ops_served() const noexcept {
    return metadata_served_;
  }

  /// Register gauges (`<prefix>.bytes_read`, `<prefix>.bytes_written`,
  /// `<prefix>.metadata_ops`) into a per-run stats registry.
  void register_stats(obs::StatsRegistry& registry,
                      const std::string& prefix = "fs") const;

 private:
  sim::Engine& engine_;
  net::Network& network_;
  net::LinkId link_;
  SharedFsSpec spec_;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t metadata_served_ = 0;
  Tick metadata_busy_until_ = 0;  // virtual-queue model for the MDS
};

}  // namespace hepvine::storage
