#include "cluster/cluster.h"

#include <cassert>
#include <utility>

#include "util/text.h"
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
    node.uplink =
        network_->add_link(util::numbered("w", i, ".up"), spec_.worker.nic);
    node.downlink =
        network_->add_link(util::numbered("w", i, ".down"), spec_.worker.nic);
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

net::FlowId Cluster::transfer(std::size_t from, std::size_t to,
                              std::uint64_t bytes, Tick latency,
                              std::function<void(net::FlowId)> done) {
  assert(to < fs_endpoint() && "a transfer lands on the manager or a worker");
  const net::LinkId down =
      to == manager_endpoint() ? manager_down_ : workers_[to - 1].downlink;
  if (from == fs_endpoint()) return fs_->read(down, bytes, std::move(done));
  if (from == wan_endpoint()) return wan_->read(down, bytes, std::move(done));
  const net::LinkId up =
      from == manager_endpoint() ? manager_up_ : workers_[from - 1].uplink;
  return network_->start_flow({up, down}, bytes, latency, std::move(done));
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
