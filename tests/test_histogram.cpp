#include "hep/histogram.h"

#include <gtest/gtest.h>

#include "sim/rng.h"

namespace hepvine::hep {
namespace {

TEST(Histogram, ConstructionValidates) {
  EXPECT_THROW(Histogram1D(0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Histogram1D(10, 2.0, 1.0), std::invalid_argument);
  EXPECT_NO_THROW(Histogram1D(10, 0.0, 1.0));
}

TEST(Histogram, FillLandsInCorrectBin) {
  Histogram1D h(10, 0.0, 10.0);
  h.fill(0.5);
  h.fill(9.99);
  h.fill(5.0);
  EXPECT_DOUBLE_EQ(h.bin_content(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_content(9), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_content(5), 1.0);
  EXPECT_EQ(h.entries(), 3u);
}

TEST(Histogram, UnderAndOverflow) {
  Histogram1D h(10, 0.0, 10.0);
  h.fill(-1.0);
  h.fill(10.0);  // hi edge is exclusive
  h.fill(100.0);
  EXPECT_DOUBLE_EQ(h.underflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 2.0);
  EXPECT_DOUBLE_EQ(h.integral(), 3.0);
}

TEST(Histogram, WeightsQuantizedTo1024ths) {
  Histogram1D h(4, 0.0, 4.0);
  h.fill(1.0, 0.10009765625);  // exactly 102.5/1024 -> rounds to 103/1024
  EXPECT_DOUBLE_EQ(h.bin_content(1) * 1024.0,
                   std::round(h.bin_content(1) * 1024.0));
}

TEST(Histogram, MergeAddsBinwise) {
  Histogram1D a(4, 0.0, 4.0);
  Histogram1D b(4, 0.0, 4.0);
  a.fill(0.5);
  b.fill(0.5);
  b.fill(3.5, 2.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.bin_content(0), 2.0);
  EXPECT_DOUBLE_EQ(a.bin_content(3), 2.0);
  EXPECT_EQ(a.entries(), 3u);
}

TEST(Histogram, MergeRejectsDifferentBinning) {
  Histogram1D a(4, 0.0, 4.0);
  Histogram1D b(8, 0.0, 4.0);
  a.fill(1);
  b.fill(1);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Histogram, MergeIntoDefaultAdoptsBinning) {
  Histogram1D a;  // default-constructed (empty)
  Histogram1D b(4, 0.0, 4.0);
  b.fill(2.0);
  a.merge(b);
  EXPECT_EQ(a.bins(), 4u);
  EXPECT_DOUBLE_EQ(a.bin_content(2), 1.0);
}

TEST(Histogram, MeanOfSymmetricFillIsCenter) {
  Histogram1D h(100, 0.0, 10.0);
  h.fill(2.0);
  h.fill(8.0);
  EXPECT_NEAR(h.mean(), 5.0, 0.1);
}

TEST(Histogram, MergeIsExactlyAssociativeAndCommutative) {
  // Weight quantization makes merge order irrelevant bit-for-bit.
  sim::Rng rng(99);
  std::vector<Histogram1D> parts;
  for (int p = 0; p < 12; ++p) {
    Histogram1D h(50, 0.0, 100.0);
    for (int i = 0; i < 1000; ++i) {
      const double weight = rng.uniform(0.0, 2.0);
      const double x = rng.uniform(0.0, 110.0);
      h.fill(x, weight);
    }
    parts.push_back(std::move(h));
  }
  // Left fold.
  Histogram1D left = parts[0];
  for (std::size_t i = 1; i < parts.size(); ++i) left.merge(parts[i]);
  // Reverse fold.
  Histogram1D right = parts.back();
  for (std::size_t i = parts.size() - 1; i-- > 0;) right.merge(parts[i]);
  // Pairwise tree.
  std::vector<Histogram1D> level = parts;
  while (level.size() > 1) {
    std::vector<Histogram1D> next;
    for (std::size_t i = 0; i < level.size(); i += 2) {
      Histogram1D merged = level[i];
      if (i + 1 < level.size()) merged.merge(level[i + 1]);
      next.push_back(std::move(merged));
    }
    level = std::move(next);
  }
  EXPECT_EQ(left, right);
  EXPECT_EQ(left, level[0]);
}

TEST(HistogramSet, GetCreatesOnce) {
  HistogramSet set;
  Histogram1D& a = set.get("met", 10, 0, 100);
  a.fill(50);
  const Histogram1D& again = set.get("met");
  EXPECT_DOUBLE_EQ(again.bin_content(5), 1.0);
  EXPECT_EQ(set.count(), 1u);
}

TEST(HistogramSet, FindReturnsNullForMissing) {
  HistogramSet set;
  EXPECT_EQ(set.find("nope"), nullptr);
}

TEST(HistogramSet, MergeUnionsNames) {
  HistogramSet a;
  a.get("x", 4, 0, 4).fill(1);
  HistogramSet b;
  b.get("x", 4, 0, 4).fill(1);
  b.get("y", 4, 0, 4).fill(2);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.find("x")->bin_content(1), 2.0);
  EXPECT_DOUBLE_EQ(a.find("y")->bin_content(2), 1.0);
}

TEST(HistogramSet, DigestDetectsAnyChange) {
  HistogramSet a;
  a.get("x", 4, 0, 4).fill(1);
  HistogramSet b;
  b.get("x", 4, 0, 4).fill(1);
  EXPECT_EQ(a.digest(), b.digest());
  b.get("x").fill(2);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(HistogramSet, MergeValuesComputeFn) {
  auto p1 = std::make_shared<HistogramSet>();
  p1->get("m", 4, 0, 4).fill(1);
  auto p2 = std::make_shared<HistogramSet>();
  p2->get("m", 4, 0, 4).fill(2);
  const dag::ValuePtr merged = HistogramSet::merge_values({p1, p2});
  const auto& set = dynamic_cast<const HistogramSet&>(*merged);
  EXPECT_DOUBLE_EQ(set.find("m")->integral(), 2.0);
}

TEST(HistogramSet, MergeValuesRejectsWrongType) {
  const dag::ValuePtr bogus = std::make_shared<dag::ScalarValue>(1.0);
  EXPECT_THROW(HistogramSet::merge_values({bogus}), std::invalid_argument);
}

TEST(HistogramSet, MergeValuesSkipsNull) {
  auto p1 = std::make_shared<HistogramSet>();
  p1->get("m", 4, 0, 4).fill(1);
  const dag::ValuePtr merged = HistogramSet::merge_values({nullptr, p1});
  EXPECT_DOUBLE_EQ(
      dynamic_cast<const HistogramSet&>(*merged).find("m")->integral(), 1.0);
}

TEST(HistogramSet, ByteSizeGrowsWithContent) {
  HistogramSet set;
  const auto empty = set.byte_size();
  set.get("big", 1000, 0, 1);
  EXPECT_GT(set.byte_size(), empty + 1000 * sizeof(double) - 1);
}

}  // namespace
}  // namespace hepvine::hep
