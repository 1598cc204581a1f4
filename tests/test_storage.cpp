#include <gtest/gtest.h>

#include "net/network.h"
#include "sim/engine.h"
#include "storage/disk.h"
#include "storage/shared_fs.h"

namespace hepvine::storage {
namespace {

using util::Tick;

TEST(LocalDisk, TryReserveReportsOverflow) {
  LocalDisk disk(nvme_disk(), 100);
  EXPECT_TRUE(disk.try_reserve(80)) << "within capacity: still healthy";
  EXPECT_FALSE(disk.try_reserve(80)) << "overflow: partition is doomed";
  EXPECT_EQ(disk.used(), 160u) << "bytes are accounted regardless";
  EXPECT_EQ(disk.available(), 0u);
}

TEST(LocalDisk, ReleaseClampsAtZero) {
  LocalDisk disk(nvme_disk(), 100);
  ASSERT_TRUE(disk.try_reserve(50));
  disk.release(70);
  EXPECT_EQ(disk.used(), 0u);
}

TEST(LocalDisk, ServiceTimesScaleWithSize) {
  LocalDisk disk(nvme_disk(), util::kGB);
  EXPECT_GT(disk.write_time(100 * util::kMB), disk.write_time(10 * util::kMB));
  EXPECT_GT(disk.write_time(1), 0);
}

TEST(DiskSpecs, SpinningIsSlowerThanNvme) {
  EXPECT_LT(spinning_disk().read_bw, nvme_disk().read_bw);
  EXPECT_GT(spinning_disk().op_latency, nvme_disk().op_latency);
}

TEST(FsSpecs, HdfsVsVastProfiles) {
  const SharedFsSpec hdfs = hdfs_spec();
  const SharedFsSpec vast = vast_spec();
  EXPECT_GT(hdfs.open_latency, vast.open_latency)
      << "the paper's core storage contrast: HDFS is high-latency";
  EXPECT_GT(hdfs.metadata_latency, vast.metadata_latency);
  EXPECT_LT(hdfs.metadata_ops_per_sec, vast.metadata_ops_per_sec);
  EXPECT_EQ(hdfs.replication, 3u);
  EXPECT_EQ(vast.replication, 1u);
}

struct FsFixture : public ::testing::Test {
  sim::Engine engine;
  net::Network net{engine};
  net::LinkId fs_link = net.add_link("fs", util::gbps(80));
  net::LinkId node_down = net.add_link("node.down", util::gbps(10));
  net::LinkId node_up = net.add_link("node.up", util::gbps(10));
  SharedFilesystem fs{engine, net, fs_link, vast_spec()};
};

TEST_F(FsFixture, ReadDeliversAfterOpenLatencyPlusTransfer) {
  Tick done = -1;
  fs.read(node_down, 1'250'000'000,
          [&](net::FlowId) { done = engine.now(); });  // 1.25 GB
  engine.run();
  // 1.25 GB over a 10 Gbit/s node link = 1 s, plus ~0.7 ms open latency.
  EXPECT_NEAR(util::to_seconds(done), 1.0007, 0.01);
  EXPECT_EQ(fs.bytes_read(), 1'250'000'000u);
}

TEST_F(FsFixture, WriteChargesReplicationOnFsLink) {
  sim::Engine eng2;
  net::Network net2(eng2);
  const net::LinkId fsl = net2.add_link("fs", util::gbps(80));
  const net::LinkId up = net2.add_link("up", util::gbps(80));
  SharedFilesystem hdfs(eng2, net2, fsl, hdfs_spec());
  hdfs.write(up, 100 * util::kMB, nullptr);
  eng2.run();
  // Triple replication: the fs link carries 3x the client bytes.
  EXPECT_NEAR(static_cast<double>(net2.link_stats(fsl).bytes_carried),
              3.0 * 100e6, 5e6);
}

TEST_F(FsFixture, MetadataOpsCompleteInOrderWithQueueing) {
  std::vector<Tick> done;
  fs.metadata_ops(1000, [&] { done.push_back(engine.now()); });
  fs.metadata_ops(1000, [&] { done.push_back(engine.now()); });
  engine.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_LT(done[0], done[1]) << "second batch queues behind the first";
}

TEST_F(FsFixture, MetadataContentionGrowsLatency) {
  // One client: ~1000/200k = 5 ms. Heavy contention: 100 batches queue.
  sim::Engine eng2;
  net::Network net2(eng2);
  const net::LinkId fsl = net2.add_link("fs", util::gbps(80));
  SharedFilesystem vast(eng2, net2, fsl, vast_spec());
  Tick last = 0;
  for (int i = 0; i < 100; ++i) {
    vast.metadata_ops(2000, [&] { last = eng2.now(); });
  }
  eng2.run();
  // 200k ops at 200k ops/s ~ 1 s total.
  EXPECT_NEAR(util::to_seconds(last), 1.0, 0.05);
  EXPECT_EQ(vast.metadata_ops_served(), 200'000u);
}

TEST_F(FsFixture, HdfsMetadataFarSlowerThanVast) {
  sim::Engine e1;
  net::Network n1(e1);
  SharedFilesystem hdfs(e1, n1, n1.add_link("h", util::gbps(40)),
                        hdfs_spec());
  Tick hdfs_done = 0;
  hdfs.metadata_ops(5'000, [&] { hdfs_done = e1.now(); });
  e1.run();

  sim::Engine e2;
  net::Network n2(e2);
  SharedFilesystem vast(e2, n2, n2.add_link("v", util::gbps(80)),
                        vast_spec());
  Tick vast_done = 0;
  vast.metadata_ops(5'000, [&] { vast_done = e2.now(); });
  e2.run();

  EXPECT_GT(hdfs_done, 10 * vast_done);
}

}  // namespace
}  // namespace hepvine::storage
