#include "sim/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace hepvine::sim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, TaggedConstructionIsolatesComponents) {
  Rng batch(7, "batch");
  Rng events(7, "events");
  EXPECT_NE(batch.next_u64(), events.next_u64());
  Rng batch2(7, "batch");
  EXPECT_NE(batch.next_u64(), batch2.next_u64());  // batch advanced once
  Rng batch3(7, "batch");
  batch3.next_u64();
  EXPECT_EQ(batch2.next_u64(), batch3.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(42);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformLoHiRespectsBounds) {
  Rng rng(42);
  for (int i = 0; i < 1'000; ++i) {
    const double u = rng.uniform(3.0, 7.0);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 7.0);
  }
}

TEST(Rng, UniformBelowCoversRange) {
  Rng rng(42);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100'000; ++i) {
    counts[rng.uniform_below(10)] += 1;
  }
  for (int c : counts) {
    EXPECT_GT(c, 9'000);
    EXPECT_LT(c, 11'000);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= v == 2;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) {
    if (rng.bernoulli(0.25)) ++hits;
  }
  EXPECT_NEAR(hits / 100'000.0, 0.25, 0.01);
}

TEST(Rng, ExponentialMeanIsApproximatelyRight) {
  Rng rng(11);
  double sum = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, NormalMeanAndSpread) {
  Rng rng(13);
  double sum = 0;
  double sq = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, TransformsOfRawDrawsMatchDrawingMembers) {
  // The drawing members are the pure transforms applied to fresh draws,
  // so taking the draws first and transforming later is bit-identical.
  Rng drawn(23);
  Rng raw(23);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_EQ(drawn.uniform(-2.5, 2.5), Rng::uniform_from(raw.uniform(), -2.5,
                                                          2.5));
    EXPECT_EQ(drawn.exponential(45.0),
              Rng::exponential_from(raw.uniform(), 45.0));
    const double u1 = raw.uniform();
    const double u2 = raw.uniform();
    EXPECT_EQ(drawn.normal(125.0, 8.0), Rng::normal_from(u1, u2, 125.0, 8.0));
  }
  EXPECT_EQ(drawn.state(), raw.state());
  // A zero draw is clamped rather than taking log(0).
  EXPECT_GT(Rng::exponential_from(0.0, 1.0), 36.0);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(17);
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
  }
}

}  // namespace
}  // namespace hepvine::sim
