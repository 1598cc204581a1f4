#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster/calibration.h"

namespace hepvine::cluster {
namespace {

ClusterSpec small_spec() {
  ClusterSpec spec = paper_cluster(4, paper_worker_node(),
                                   storage::vast_spec(), 1);
  spec.batch.first_match_delay = 0;
  spec.batch.match_window = 0;
  spec.batch.preemption_rate_per_hour = 0;
  return spec;
}

TEST(Cluster, AssemblesWorkersWithSpecs) {
  Cluster cluster(small_spec());
  EXPECT_EQ(cluster.worker_count(), 4u);
  EXPECT_EQ(cluster.total_cores(), 48u);
  EXPECT_EQ(cluster.worker(0).cores, 12u);
  EXPECT_EQ(cluster.worker(0).disk.capacity(), 108 * util::kGB);
  EXPECT_FALSE(cluster.worker(0).alive) << "workers start unmatched";
}

TEST(Cluster, HeterogeneousSpeedsWithinSpread) {
  ClusterSpec spec = small_spec();
  spec.worker_count = 100;
  spec.speed_spread = 0.10;
  Cluster cluster(spec);
  bool varied = false;
  for (WorkerId w = 0; w < 100; ++w) {
    const double s = cluster.worker(w).speed;
    EXPECT_GE(s, 0.9);
    EXPECT_LE(s, 1.1);
    if (s != cluster.worker(0).speed) varied = true;
  }
  EXPECT_TRUE(varied);
}

TEST(Cluster, ZeroSpreadMeansUniformSpeed) {
  ClusterSpec spec = small_spec();
  spec.speed_spread = 0;
  Cluster cluster(spec);
  for (WorkerId w = 0; w < 4; ++w) {
    EXPECT_DOUBLE_EQ(cluster.worker(w).speed, 1.0);
  }
}

TEST(Cluster, EndpointNumbering) {
  Cluster cluster(small_spec());
  EXPECT_EQ(cluster.endpoint_count(), 6u);  // manager + 4 workers + fs
  EXPECT_EQ(Cluster::manager_endpoint(), 0u);
  EXPECT_EQ(cluster.worker_endpoint(0), 1u);
  EXPECT_EQ(cluster.worker_endpoint(3), 4u);
  EXPECT_EQ(cluster.fs_endpoint(), 5u);
}

TEST(Cluster, RequestWorkersBringsAllUp) {
  Cluster cluster(small_spec());
  int up = 0;
  cluster.request_workers([&](WorkerId) { ++up; }, nullptr);
  cluster.engine().run();
  EXPECT_EQ(up, 4);
  EXPECT_EQ(cluster.alive_workers(), 4u);
}

TEST(Cluster, PreemptionResetsNodeState) {
  Cluster cluster(small_spec());
  int down = 0;
  cluster.request_workers(nullptr, [&](WorkerId) { ++down; });
  cluster.engine().run();
  cluster.worker(2).cores_in_use = 5;
  cluster.batch().force_preempt(2);
  EXPECT_EQ(down, 1);
  EXPECT_FALSE(cluster.worker(2).alive);
  EXPECT_EQ(cluster.worker(2).cores_in_use, 0u);
  EXPECT_EQ(cluster.alive_workers(), 3u);
}

TEST(Cluster, ReplacementArrivesWithFreshDiskAndIncarnation) {
  ClusterSpec spec = small_spec();
  spec.batch.replacement_delay_mean = util::seconds(5);
  Cluster cluster(spec);
  cluster.request_workers(nullptr, nullptr);
  cluster.engine().run_until(util::seconds(1));
  cluster.batch().force_preempt(1);
  cluster.engine().run_until(util::seconds(600));
  EXPECT_TRUE(cluster.worker(1).alive);
  EXPECT_EQ(cluster.worker(1).incarnation, 1u);
}

TEST(Cluster, ManagerToWorkerTransferTiming) {
  Cluster cluster(small_spec());
  util::Tick done = -1;
  // 1.25 GB over the worker's 10 Gbit/s downlink (manager has 25 Gbit/s).
  cluster.transfer(Cluster::manager_endpoint(), cluster.worker_endpoint(0),
                   1'250'000'000, 0,
                   [&](net::FlowId) { done = cluster.engine().now(); });
  cluster.engine().run();
  EXPECT_NEAR(util::to_seconds(done), 1.0, 0.02);
}

TEST(Cluster, PeerTransferUsesWorkerLinks) {
  Cluster cluster(small_spec());
  util::Tick done = -1;
  cluster.transfer(cluster.worker_endpoint(0), cluster.worker_endpoint(1),
                   1'250'000'000, 0,
                   [&](net::FlowId) { done = cluster.engine().now(); });
  cluster.engine().run();
  EXPECT_NEAR(util::to_seconds(done), 1.0, 0.02);
  EXPECT_GT(cluster.network().link_stats(cluster.worker(0).uplink)
                .bytes_carried,
            1'200'000'000u);
}

TEST(Cluster, FsReadsShareAggregateBandwidth) {
  ClusterSpec spec = small_spec();
  spec.worker_count = 16;
  Cluster cluster(spec);
  int completed = 0;
  // 16 simultaneous 1 GB reads: VAST at 40 Gbit/s = 5 GB/s aggregate,
  // worker NICs 1.25 GB/s each -> fs link is the bottleneck: ~3.2 s.
  for (WorkerId w = 0; w < 16; ++w) {
    cluster.transfer(cluster.fs_endpoint(), cluster.worker_endpoint(w),
                     1'000'000'000, 0, [&](net::FlowId) { ++completed; });
  }
  cluster.engine().run();
  EXPECT_EQ(completed, 16);
  EXPECT_NEAR(util::to_seconds(cluster.engine().now()), 3.2, 0.2);
}

/// Run one 1 MB transfer from `from` to `to` on a fresh cluster and check
/// that it crossed exactly `path` (the links that carried bytes) and landed
/// after `setup` plus the bytes at the narrowest link's rate. `path` and
/// `setup` are read off the cluster passed in, which has the same spec.
void expect_transfer(std::size_t from, std::size_t to, util::Tick latency,
                     std::vector<net::LinkId> path, util::Tick setup) {
  constexpr std::uint64_t kBytes = 1'000'000;
  Cluster cluster(small_spec());
  util::Tick landed = -1;
  net::FlowId id = net::kInvalidFlow;
  const net::FlowId started = cluster.transfer(
      from, to, kBytes, latency, [&](net::FlowId f) {
        id = f;
        landed = cluster.engine().now();
      });
  cluster.engine().run();
  EXPECT_EQ(id, started) << "done receives the flow id";

  auto& net = cluster.network();
  std::vector<net::LinkId> crossed;
  double narrowest = 0;
  for (net::LinkId l = 0; l < static_cast<net::LinkId>(net.link_count());
       ++l) {
    if (net.link_stats(l).bytes_carried == 0) continue;
    crossed.push_back(l);
    const double cap = net.link(l).capacity;
    narrowest = crossed.size() == 1 ? cap : std::min(narrowest, cap);
  }
  std::sort(path.begin(), path.end());
  EXPECT_EQ(crossed, path);
  EXPECT_NEAR(util::to_seconds(landed),
              util::to_seconds(setup) + static_cast<double>(kBytes) / narrowest,
              1e-6);
}

constexpr util::Tick kLatency = util::kSec / 2;

TEST(ClusterTransfer, ManagerToWorker) {
  Cluster c(small_spec());
  expect_transfer(Cluster::manager_endpoint(), c.worker_endpoint(0), kLatency,
                  {c.manager_uplink(), c.worker(0).downlink}, kLatency);
}

TEST(ClusterTransfer, WorkerToManager) {
  Cluster c(small_spec());
  expect_transfer(c.worker_endpoint(2), Cluster::manager_endpoint(), kLatency,
                  {c.worker(2).uplink, c.manager_downlink()}, kLatency);
}

TEST(ClusterTransfer, PeerCrossesBothWorkerNics) {
  Cluster c(small_spec());
  expect_transfer(c.worker_endpoint(0), c.worker_endpoint(3), kLatency,
                  {c.worker(0).uplink, c.worker(3).downlink}, kLatency);
}

// Filesystem and WAN reads open with their filesystem's latency in place
// of the one passed.
TEST(ClusterTransfer, FsToWorkerOpensWithFsLatency) {
  Cluster c(small_spec());
  expect_transfer(c.fs_endpoint(), c.worker_endpoint(1), kLatency,
                  {c.fs().link(), c.worker(1).downlink},
                  c.fs().spec().open_latency);
}

TEST(ClusterTransfer, WanToWorkerOpensWithWanLatency) {
  Cluster c(small_spec());
  EXPECT_GE(c.wan_endpoint(), c.endpoint_count())
      << "the WAN has no transfer-matrix row";
  EXPECT_EQ(c.matrix_endpoint(c.wan_endpoint()), c.fs_endpoint());
  EXPECT_EQ(c.matrix_endpoint(c.fs_endpoint()), c.fs_endpoint());
  EXPECT_EQ(c.matrix_endpoint(c.worker_endpoint(1)), c.worker_endpoint(1));
  expect_transfer(c.wan_endpoint(), c.worker_endpoint(1), kLatency,
                  {c.wan().link(), c.worker(1).downlink},
                  c.wan().spec().open_latency);
}

TEST(ClusterTransfer, FsToManager) {
  Cluster c(small_spec());
  expect_transfer(c.fs_endpoint(), Cluster::manager_endpoint(), kLatency,
                  {c.fs().link(), c.manager_downlink()},
                  c.fs().spec().open_latency);
}

TEST(ClusterTransfer, FilesystemReadsCountTheirBytes) {
  Cluster cluster(small_spec());
  cluster.transfer(cluster.fs_endpoint(), cluster.worker_endpoint(0), 7, 0,
                   nullptr);
  cluster.transfer(cluster.wan_endpoint(), Cluster::manager_endpoint(), 11, 0,
                   nullptr);
  cluster.transfer(Cluster::manager_endpoint(), cluster.worker_endpoint(1), 13,
                   0, nullptr);
  cluster.engine().run();
  EXPECT_EQ(cluster.fs().bytes_read(), 7u);
  EXPECT_EQ(cluster.wan().bytes_read(), 11u);
}

TEST(Calibration, PaperNodeMatchesPaper) {
  const NodeSpec node = paper_worker_node();
  EXPECT_EQ(node.cores, 12u);
  EXPECT_EQ(node.memory, 96 * util::kGB);
  EXPECT_EQ(node.disk_capacity, 108 * util::kGB);
  const NodeSpec rs = triphoton_worker_node();
  EXPECT_EQ(rs.memory, 200 * util::kGB);
  EXPECT_EQ(rs.disk_capacity, 700 * util::kGB);
}

}  // namespace
}  // namespace hepvine::cluster
