#include "storage/shared_fs.h"

#include <algorithm>
#include <utility>

namespace hepvine::storage {

SharedFsSpec hdfs_spec() {
  SharedFsSpec spec;
  spec.name = "hdfs";
  spec.capacity = 644 * util::kTB / 3;  // triple replication
  // Effective read bandwidth this application saw from the end-of-life
  // spinning-disk cluster (shared with other users), not the nameplate
  // aggregate.
  spec.aggregate_bw = util::gbps(8);
  spec.open_latency = 35 * util::kMsec;
  spec.metadata_latency = 12 * util::kMsec;
  spec.metadata_ops_per_sec = 4'000;
  spec.replication = 3;
  return spec;
}

SharedFsSpec vast_spec() {
  SharedFsSpec spec;
  spec.name = "vast";
  spec.capacity = 676 * util::kTB;
  // Effective share of the campus-wide NVMe system available to one
  // application's streams.
  spec.aggregate_bw = util::gbps(40);
  spec.open_latency = 700 * util::kUsec;
  spec.metadata_latency = 250 * util::kUsec;
  spec.metadata_ops_per_sec = 200'000;
  spec.replication = 1;
  return spec;
}

SharedFsSpec xrootd_wan_spec() {
  SharedFsSpec spec;
  spec.name = "xrootd-wan";
  spec.capacity = 200'000 * util::kTB;  // the global CMS data federation
  spec.aggregate_bw = util::gbps(4);    // effective WAN ingress to campus
  spec.open_latency = 180 * util::kMsec;
  spec.metadata_latency = 120 * util::kMsec;
  spec.metadata_ops_per_sec = 500;
  spec.replication = 1;
  return spec;
}

SharedFilesystem::SharedFilesystem(sim::Engine& engine, net::Network& network,
                                   net::LinkId link, SharedFsSpec spec)
    : engine_(engine), network_(network), link_(link), spec_(std::move(spec)) {}

net::FlowId SharedFilesystem::read(net::LinkId node_downlink,
                                   std::uint64_t bytes,
                                   std::function<void(net::FlowId)> done) {
  bytes_read_ += bytes;
  return network_.start_flow({link_, node_downlink}, bytes,
                             spec_.open_latency, std::move(done));
}

net::FlowId SharedFilesystem::write(net::LinkId node_uplink,
                                    std::uint64_t bytes,
                                    std::function<void(net::FlowId)> done) {
  bytes_written_ += bytes;
  // Replication amplifies traffic on the filesystem's aggregate link; we
  // charge it by inflating the flow size (the client sees the same bytes,
  // but the shared link carries `replication` copies).
  const std::uint64_t wire_bytes = bytes * spec_.replication;
  return network_.start_flow({node_uplink, link_}, wire_bytes,
                             spec_.open_latency, std::move(done));
}

void SharedFilesystem::metadata_ops(std::uint64_t count,
                                    std::function<void()> done) {
  metadata_served_ += count;
  const Tick now = engine_.now();
  // Virtual queue: the metadata server drains ops at a fixed rate. A client
  // issuing `count` ops waits for its ops' position in the queue plus the
  // unloaded per-op latency.
  const Tick service =
      static_cast<Tick>(static_cast<double>(count) /
                        std::max(1.0, spec_.metadata_ops_per_sec) *
                        static_cast<double>(util::kSec));
  metadata_busy_until_ = std::max(metadata_busy_until_, now) + service;
  const Tick finish = metadata_busy_until_ + spec_.metadata_latency;
  engine_.schedule_at(finish, [cb = std::move(done)] {
    if (cb) cb();
  });
}

void SharedFilesystem::register_stats(obs::StatsRegistry& registry,
                                      const std::string& prefix) const {
  registry.gauge(prefix + ".bytes_read",
                 [this] { return static_cast<double>(bytes_read_); });
  registry.gauge(prefix + ".bytes_written",
                 [this] { return static_cast<double>(bytes_written_); });
  registry.gauge(prefix + ".metadata_ops",
                 [this] { return static_cast<double>(metadata_served_); });
}

}  // namespace hepvine::storage
