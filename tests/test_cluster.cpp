#include "cluster/cluster.h"

#include <gtest/gtest.h>

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
  ASSERT_TRUE(cluster.worker(2).disk.try_reserve(util::kGB));
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
  ASSERT_TRUE(cluster.worker(1).disk.try_reserve(2 * util::kGB));
  cluster.batch().force_preempt(1);
  cluster.engine().run_until(util::seconds(600));
  EXPECT_TRUE(cluster.worker(1).alive);
  EXPECT_EQ(cluster.worker(1).incarnation, 1u);
  EXPECT_EQ(cluster.worker(1).disk.used(), 0u);
}

TEST(Cluster, ManagerToWorkerTransferTiming) {
  Cluster cluster(small_spec());
  util::Tick done = -1;
  // 1.25 GB over the worker's 10 Gbit/s downlink (manager has 25 Gbit/s).
  cluster.send_manager_to_worker(0, 1'250'000'000, 0,
                                 [&] { done = cluster.engine().now(); });
  cluster.engine().run();
  EXPECT_NEAR(util::to_seconds(done), 1.0, 0.02);
}

TEST(Cluster, PeerTransferUsesWorkerLinks) {
  Cluster cluster(small_spec());
  util::Tick done = -1;
  cluster.send_peer(0, 1, 1'250'000'000, 0,
                    [&] { done = cluster.engine().now(); });
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
    cluster.read_fs_to_worker(w, 1'000'000'000, [&] { ++completed; });
  }
  cluster.engine().run();
  EXPECT_EQ(completed, 16);
  EXPECT_NEAR(util::to_seconds(cluster.engine().now()), 3.2, 0.2);
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
