// Direct unit tests for WorkerDisk — the manager's per-worker record of
// what each scratch disk holds. The scheduler suites see it only through
// txn logs and placement; these tests pin down the contract the disk
// ladder relies on: the pressure-eviction victim order (tier, then least
// recently used, then file id), pin tolerance, reclaimable-byte
// bookkeeping, reboot reset, and committed-byte clamping.

#include "vine/worker_disk.h"

#include <gtest/gtest.h>

#include <vector>

namespace hepvine::vine {
namespace {

using cluster::WorkerId;
using data::FileId;

constexpr WorkerId kW = 0;

/// Files 0..7; files 0, 2 and 4 are dataset inputs (100, 50, 7 bytes).
WorkerDisk make_disk(std::size_t workers = 1) {
  return WorkerDisk(workers, {100, 0, 50, 0, 7, 0, 0, 0});
}

TEST(WorkerDisk, EvictionOrderIsTierThenLruThenFileId) {
  WorkerDisk disk = make_disk();
  // (file, insert tick): the ticks disagree with file-id order on purpose.
  disk.insert(kW, 5, 10);
  disk.insert(kW, 7, 5);
  disk.insert(kW, 1, 20);
  disk.insert(kW, 3, 20);
  disk.insert(kW, 0, 30);
  disk.insert(kW, 2, 1);
  disk.insert(kW, 6, 2);  // a runtime file: never a victim
  disk.insert(kW, 4, 3);  // pinned below: never a victim
  disk.pin(kW, 4, 3);

  // Tier 0: files 1, 3 and 0. Tier 1: files 5, 7 and 2.
  const auto tier = [](FileId f) {
    if (f == 6) return WorkerDisk::kNeverEvict;
    return (f == 5 || f == 7 || f == 2) ? 1 : 0;
  };
  // Tier 0 by last use: 1 and 3 tie at tick 20 (id breaks it), 0 at 30.
  // Tier 1 by last use: 2 at 1, 7 at 5, 5 at 10.
  EXPECT_EQ(disk.eviction_order(kW, tier),
            (std::vector<FileId>{1, 3, 0, 2, 7, 5}));
}

TEST(WorkerDisk, PinsAndReinsertsRefreshLastUse) {
  WorkerDisk disk = make_disk();
  disk.insert(kW, 1, 1);
  disk.insert(kW, 3, 2);
  disk.insert(kW, 5, 3);
  disk.pin(kW, 1, 4);  // a use: file 1 is now the most recent
  disk.unpin(kW, 1);
  disk.insert(kW, 3, 5);  // a re-insert is a use too
  const auto all = [](FileId) { return 0; };
  EXPECT_EQ(disk.eviction_order(kW, all), (std::vector<FileId>{5, 1, 3}));
}

TEST(WorkerDisk, PinnedFilesAreNeverVictims) {
  WorkerDisk disk = make_disk();
  disk.insert(kW, 1, 1);
  disk.insert(kW, 3, 2);
  disk.pin(kW, 1, 3);
  disk.pin(kW, 1, 3);
  disk.unpin(kW, 1);  // still pinned once
  const auto all = [](FileId) { return 0; };
  EXPECT_EQ(disk.eviction_order(kW, all), std::vector<FileId>{3});
  disk.unpin(kW, 1);
  EXPECT_EQ(disk.eviction_order(kW, all), (std::vector<FileId>{3, 1}));
}

TEST(WorkerDisk, UnpinningAMissingPinIsTolerated) {
  WorkerDisk disk = make_disk();
  disk.insert(kW, 0, 1);
  disk.unpin(kW, 0);  // cached, never pinned
  disk.unpin(kW, 3);  // neither cached nor pinned
  EXPECT_EQ(disk.pins(kW, 0), 0u);
  EXPECT_EQ(disk.reclaimable(kW), 100u) << "no second credit for file 0";
  EXPECT_EQ(disk.files(kW).size(), 1u) << "no entry for file 3";

  disk.pin(kW, 2, 1);
  disk.reset(kW);     // reboot wipes the pin set
  disk.unpin(kW, 2);  // a stale release from the previous incarnation
  EXPECT_EQ(disk.pins(kW, 2), 0u);
  EXPECT_TRUE(disk.files(kW).empty());
}

TEST(WorkerDisk, ReclaimableBytesTrackInsertPinUnpinErase) {
  WorkerDisk disk = make_disk();
  const auto check = [&](std::uint64_t want) {
    EXPECT_EQ(disk.reclaimable(kW), want);
    EXPECT_TRUE(disk.settled(kW)) << "recount must agree";
  };
  disk.insert(kW, 0, 1);
  check(100);
  disk.insert(kW, 0, 2);  // re-insert: no second credit
  disk.insert(kW, 1, 2);  // not a dataset input
  check(100);
  disk.pin(kW, 0, 3);
  disk.pin(kW, 0, 3);
  check(0);
  disk.unpin(kW, 0);
  check(0);
  disk.unpin(kW, 0);
  check(100);

  // Pinned before the bytes land: no credit until the last unpin.
  disk.pin(kW, 2, 4);
  EXPECT_FALSE(disk.cached(kW, 2));
  check(100);
  disk.insert(kW, 2, 5);
  EXPECT_TRUE(disk.cached(kW, 2));
  check(100);
  disk.unpin(kW, 2);
  check(150);

  EXPECT_TRUE(disk.erase(kW, 0));
  check(50);
  EXPECT_FALSE(disk.erase(kW, 0)) << "not cached any more";
  check(50);

  // Erasing a pinned file keeps its entry (the pin) until the last unpin.
  disk.pin(kW, 2, 6);
  EXPECT_TRUE(disk.erase(kW, 2));
  check(0);
  EXPECT_FALSE(disk.cached(kW, 2));
  EXPECT_EQ(disk.pins(kW, 2), 1u);
  disk.unpin(kW, 2);
  check(0);
  EXPECT_EQ(disk.cached_files(kW), std::vector<FileId>{1});
  EXPECT_EQ(disk.files(kW).size(), 1u);
}

TEST(WorkerDisk, ResetOnRebootClearsOnlyThatWorker) {
  WorkerDisk disk = make_disk(/*workers=*/2);
  for (WorkerId w : {WorkerId{0}, WorkerId{1}}) {
    disk.insert(w, 0, 1);
    disk.insert(w, 4, 1);
    disk.pin(w, 4, 2);
    disk.commit(w, 500);
  }
  disk.reset(WorkerId{0});
  EXPECT_TRUE(disk.files(WorkerId{0}).empty());
  EXPECT_EQ(disk.committed(WorkerId{0}), 0u);
  EXPECT_EQ(disk.reclaimable(WorkerId{0}), 0u);
  EXPECT_FALSE(disk.cached(WorkerId{0}, 0));
  EXPECT_EQ(disk.pins(WorkerId{0}, 4), 0u);

  EXPECT_EQ(disk.cached_files(WorkerId{1}), (std::vector<FileId>{0, 4}));
  EXPECT_EQ(disk.committed(WorkerId{1}), 500u);
  EXPECT_EQ(disk.reclaimable(WorkerId{1}), 100u);
  EXPECT_EQ(disk.pins(WorkerId{1}, 4), 1u);
}

TEST(WorkerDisk, CommittedBytesClampAtZero) {
  WorkerDisk disk = make_disk();
  disk.commit(kW, 100);
  disk.commit(kW, 20);
  disk.uncommit(kW, 30);
  EXPECT_EQ(disk.committed(kW), 90u);
  disk.uncommit(kW, 500);  // a release that outlived a reboot's wipe
  EXPECT_EQ(disk.committed(kW), 0u);
  disk.commit(kW, 40);
  disk.reset(kW);
  disk.uncommit(kW, 40);
  EXPECT_EQ(disk.committed(kW), 0u);
}

}  // namespace
}  // namespace hepvine::vine
