// Direct unit tests for ReplicaTable — the manager's cluster-wide map of
// which workers hold which files. The scheduler integration suites exercise
// it constantly but only ever observe it through placement decisions; these
// tests pin down the contract the disk-lifecycle machinery (ref-count GC,
// pressure eviction) now leans on: idempotent add/remove, exact lost sets
// from drop_worker, holder lists that stay consistent under interleaved
// removes, and the id-sorted holder order lifecycle sweeps iterate.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "vine/replica_table.h"

namespace hepvine::vine {
namespace {

using cluster::WorkerId;
using data::FileId;

bool held(const ReplicaTable& table, FileId f, WorkerId w) {
  const auto& hs = table.holders(f);
  return std::find(hs.begin(), hs.end(), w) != hs.end();
}

TEST(ReplicaTable, AddIsIdempotent) {
  ReplicaTable table(/*files=*/4);
  table.add(FileId{1}, WorkerId{0});
  table.add(FileId{1}, WorkerId{0});
  table.add(FileId{1}, WorkerId{0});
  EXPECT_EQ(table.holders(FileId{1}).size(), 1u);
  EXPECT_EQ(table.replica_count(FileId{1}), 1u);
}

TEST(ReplicaTable, RemoveIsIdempotent) {
  ReplicaTable table(4);
  table.add(FileId{1}, WorkerId{0});
  table.remove(FileId{1}, WorkerId{0});
  table.remove(FileId{1}, WorkerId{0});  // double remove must be a no-op
  table.remove(FileId{2}, WorkerId{1});  // never added at all
  EXPECT_TRUE(table.holders(FileId{1}).empty());
  EXPECT_FALSE(table.available(FileId{1}));
}

TEST(ReplicaTable, OnWorkerAndAvailabilityTrackMembership) {
  ReplicaTable table(4);
  EXPECT_FALSE(held(table, FileId{0}, WorkerId{0}));
  table.add(FileId{0}, WorkerId{2});
  EXPECT_TRUE(held(table, FileId{0}, WorkerId{2}));
  EXPECT_FALSE(held(table, FileId{0}, WorkerId{1}));
  EXPECT_TRUE(table.available(FileId{0}));

  // A manager copy keeps the file available with zero worker holders.
  table.remove(FileId{0}, WorkerId{2});
  EXPECT_FALSE(table.available(FileId{0}));
  table.set_at_manager(FileId{0});
  EXPECT_TRUE(table.available(FileId{0}));
  EXPECT_EQ(table.replica_count(FileId{0}), 1u);
}

TEST(ReplicaTable, DropWorkerReturnsExactLostSet) {
  ReplicaTable table(/*files=*/6);
  // file 0: only on worker 0                      -> lost
  // file 1: on workers 0 and 1                    -> survives on 1
  // file 2: on worker 0 but also at the manager   -> not lost
  // file 3: on worker 1 only                      -> untouched
  table.add(FileId{0}, WorkerId{0});
  table.add(FileId{1}, WorkerId{0});
  table.add(FileId{1}, WorkerId{1});
  table.add(FileId{2}, WorkerId{0});
  table.set_at_manager(FileId{2});
  table.add(FileId{3}, WorkerId{1});

  // The caller lists what worker 0's disk held; file 3 was never on it.
  const std::vector<FileId> lost = table.drop_worker(
      WorkerId{0}, {FileId{0}, FileId{1}, FileId{2}, FileId{3}});
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0], FileId{0});

  for (FileId f = 0; f < 6; ++f) EXPECT_FALSE(held(table, f, WorkerId{0}));
  EXPECT_TRUE(table.holders(FileId{0}).empty());
  ASSERT_EQ(table.holders(FileId{1}).size(), 1u);
  EXPECT_EQ(table.holders(FileId{1})[0], WorkerId{1});
  EXPECT_TRUE(table.available(FileId{2}));
  EXPECT_TRUE(held(table, FileId{3}, WorkerId{1}));
}

TEST(ReplicaTable, DropWorkerIsIdempotent) {
  ReplicaTable table(4);
  table.add(FileId{0}, WorkerId{0});
  EXPECT_EQ(table.drop_worker(WorkerId{0}, {FileId{0}}).size(), 1u);
  EXPECT_TRUE(table.drop_worker(WorkerId{0}, {FileId{0}}).empty());
}

TEST(ReplicaTable, HoldersStayConsistentUnderInterleavedRemoves) {
  ReplicaTable table(/*files=*/8);
  for (FileId f = 0; f < 8; ++f) table.add(f, WorkerId{0});
  for (FileId f = 0; f < 4; ++f) table.add(f, WorkerId{1});

  // Remove alternating files from worker 0, interleaved with removes of
  // the shared copies from worker 1 — each side's bookkeeping must not
  // disturb the other's.
  table.remove(FileId{0}, WorkerId{0});
  table.remove(FileId{1}, WorkerId{1});
  table.remove(FileId{2}, WorkerId{0});
  table.remove(FileId{3}, WorkerId{1});
  table.remove(FileId{4}, WorkerId{0});

  // Worker 0 keeps 1, 3, 5, 6, 7; worker 1 keeps 0, 2.
  const std::vector<bool> on0 = {false, true, false, true,
                                 false, true, true, true};
  const std::vector<bool> on1 = {true, false, true, false,
                                 false, false, false, false};
  for (FileId f = 0; f < 8; ++f) {
    const auto i = static_cast<std::size_t>(f);
    EXPECT_EQ(held(table, f, WorkerId{0}), on0[i]) << "file " << f;
    EXPECT_EQ(held(table, f, WorkerId{1}), on1[i]) << "file " << f;
    EXPECT_EQ(table.holders(f).size(),
              static_cast<std::size_t>(on0[i]) + (on1[i] ? 1u : 0u))
        << "file " << f;
  }
}

TEST(ReplicaTable, HoldersSortedIsIdOrderedRegardlessOfInsertion) {
  ReplicaTable table(2);
  table.add(FileId{0}, WorkerId{3});
  table.add(FileId{0}, WorkerId{0});
  table.add(FileId{0}, WorkerId{4});
  table.add(FileId{0}, WorkerId{1});

  const auto sorted = table.holders_sorted(FileId{0});
  ASSERT_EQ(sorted.size(), 4u);
  EXPECT_EQ(sorted[0], WorkerId{0});
  EXPECT_EQ(sorted[1], WorkerId{1});
  EXPECT_EQ(sorted[2], WorkerId{3});
  EXPECT_EQ(sorted[3], WorkerId{4});
  // The insertion-ordered list is untouched by the sorted copy.
  EXPECT_EQ(table.holders(FileId{0})[0], WorkerId{3});
}

}  // namespace
}  // namespace hepvine::vine
