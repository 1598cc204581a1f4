#include "cluster/cluster.h"

#include <utility>

namespace hepvine::cluster {

Cluster::Cluster(ClusterSpec spec) : spec_(std::move(spec)) {
  network_ = std::make_unique<net::Network>(engine_, spec_.net);

  manager_up_ = network_->add_link("manager.up", spec_.manager_nic);
  manager_down_ = network_->add_link("manager.down", spec_.manager_nic);

  const net::LinkId fs_link =
      network_->add_link("fs." + spec_.fs.name, spec_.fs.aggregate_bw);
  fs_ = std::make_unique<storage::SharedFilesystem>(engine_, *network_,
                                                    fs_link, spec_.fs);

  const net::LinkId wan_link =
      network_->add_link("wan." + spec_.wan.name, spec_.wan.aggregate_bw);
  wan_ = std::make_unique<storage::SharedFilesystem>(engine_, *network_,
                                                     wan_link, spec_.wan);

  sim::Rng speed_rng(spec_.seed, "node-speed");
  workers_.reserve(spec_.worker_count);
  for (std::uint32_t i = 0; i < spec_.worker_count; ++i) {
    WorkerNode node;
    node.id = static_cast<WorkerId>(i);
    node.uplink = network_->add_link("w" + std::to_string(i) + ".up",
                                     spec_.worker.nic);
    node.downlink = network_->add_link("w" + std::to_string(i) + ".down",
                                       spec_.worker.nic);
    node.cores = spec_.worker.cores;
    node.memory = spec_.worker.memory;
    node.disk = storage::LocalDisk(spec_.worker.disk,
                                   spec_.worker.disk_capacity);
    node.speed = spec_.worker.base_speed;
    if (spec_.speed_spread > 0) {
      node.speed *= speed_rng.uniform(1.0 - spec_.speed_spread,
                                      1.0 + spec_.speed_spread);
    }
    workers_.push_back(std::move(node));
  }

  batch_ = std::make_unique<batch::BatchSystem>(engine_, spec_.batch,
                                                spec_.seed);
}

std::uint32_t Cluster::alive_workers() const {
  std::uint32_t n = 0;
  for (const auto& w : workers_) {
    if (w.alive) ++n;
  }
  return n;
}

std::uint32_t Cluster::total_cores() const {
  std::uint32_t n = 0;
  for (const auto& w : workers_) n += w.cores;
  return n;
}

net::FlowId Cluster::send_manager_to_worker(WorkerId dst, std::uint64_t bytes,
                                            Tick latency,
                                            std::function<void()> done) {
  return network_->start_flow(
      {manager_up_, worker(dst).downlink}, bytes, latency,
      [cb = std::move(done)](net::FlowId) {
        if (cb) cb();
      });
}

net::FlowId Cluster::send_worker_to_manager(WorkerId src, std::uint64_t bytes,
                                            Tick latency,
                                            std::function<void()> done) {
  return network_->start_flow(
      {worker(src).uplink, manager_down_}, bytes, latency,
      [cb = std::move(done)](net::FlowId) {
        if (cb) cb();
      });
}

net::FlowId Cluster::send_peer(WorkerId src, WorkerId dst, std::uint64_t bytes,
                               Tick latency, std::function<void()> done) {
  return network_->start_flow(
      {worker(src).uplink, worker(dst).downlink}, bytes, latency,
      [cb = std::move(done)](net::FlowId) {
        if (cb) cb();
      });
}

net::FlowId Cluster::read_fs_to_worker(WorkerId dst, std::uint64_t bytes,
                                       std::function<void()> done) {
  return fs_->read(worker(dst).downlink, bytes, std::move(done));
}

net::FlowId Cluster::read_wan_to_worker(WorkerId dst, std::uint64_t bytes,
                                        std::function<void()> done) {
  return wan_->read(worker(dst).downlink, bytes, std::move(done));
}

net::FlowId Cluster::read_fs_to_manager(std::uint64_t bytes,
                                        std::function<void()> done) {
  return fs_->read(manager_down_, bytes, std::move(done));
}

void Cluster::request_workers(std::function<void(WorkerId)> on_up,
                              std::function<void(WorkerId)> on_down,
                              std::uint32_t initial) {
  batch_->submit(
      spec_.worker_count,
      [this, up = std::move(on_up)](std::uint32_t slot,
                                    std::uint32_t incarnation) {
        WorkerNode& node = workers_[slot];
        node.alive = true;
        node.incarnation = incarnation;
        node.cores_in_use = 0;
        // A replacement job lands on a fresh scratch allocation.
        node.disk = storage::LocalDisk(spec_.worker.disk,
                                       spec_.worker.disk_capacity);
        if (up) up(static_cast<WorkerId>(slot));
      },
      [this, down = std::move(on_down)](std::uint32_t slot,
                                        std::uint32_t /*incarnation*/) {
        WorkerNode& node = workers_[slot];
        node.alive = false;
        node.cores_in_use = 0;
        if (down) down(static_cast<WorkerId>(slot));
      },
      initial);
}

}  // namespace hepvine::cluster
