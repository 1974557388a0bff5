#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "stats/markov.hpp"

namespace cfpm {
namespace {

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Xoshiro, DoubleInUnitInterval) {
  Xoshiro256 rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro, DoubleMeanNearHalf) {
  Xoshiro256 rng(5);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Xoshiro, BernoulliMatchesProbability) {
  Xoshiro256 rng(17);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.next_bool(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Xoshiro, NextBelowRespectsBound) {
  Xoshiro256 rng(23);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Xoshiro, NextBelowRoughlyUniform) {
  Xoshiro256 rng(31);
  int counts[8] = {};
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[rng.next_below(8)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.125, 0.01);
  }
}

TEST(Rng, ThresholdDrawMatchesNextBool) {
  std::vector<double> ps = {0.0,  1.0,  0.5, 0x1.0p-60, -0.5, 1.5,
                            std::numeric_limits<double>::quiet_NaN()};
  // k / 2^53 is exactly representable; its neighbours straddle the
  // threshold k.
  for (const double k : {1.0, 2.0, 3.0, 12345.0, 0x1.0p52, 0x1.0p53 - 1.0}) {
    const double p = k * 0x1.0p-53;
    ps.push_back(p);
    ps.push_back(std::nextafter(p, 0.0));
    ps.push_back(std::nextafter(p, 1.0));
  }
  for (const stats::InputStatistics& s : stats::evaluation_grid()) {
    const auto [p01, p10] = stats::flip_probabilities(s);
    ps.push_back(p01);
    ps.push_back(p10);
    ps.push_back(s.sp);
  }
  std::uint64_t seed = 0;
  for (const double p : ps) {
    const std::uint64_t threshold = Xoshiro256::bernoulli_threshold(p);
    // The identity at the draws next to the threshold, where a rounding
    // slip would show.
    for (std::uint64_t m = threshold > 2 ? threshold - 2 : 0;
         m < threshold + 2 && m < (std::uint64_t{1} << 53); ++m) {
      EXPECT_EQ(static_cast<double>(m) * 0x1.0p-53 < p, m < threshold)
          << "p " << p << " m " << m;
    }
    ++seed;
    Xoshiro256 a(seed), b(seed);
    int mismatches = 0;
    for (int n = 0; n < 1000000; ++n) {
      mismatches += a.next_bool(p) != b.next_bool_below(threshold) ? 1 : 0;
    }
    EXPECT_EQ(mismatches, 0) << "p " << p;
  }
}

TEST(SplitMix, KnownSequenceIsStable) {
  SplitMix64 sm(0);
  const std::uint64_t first = sm.next();
  SplitMix64 sm2(0);
  EXPECT_EQ(sm2.next(), first);
  EXPECT_NE(sm.next(), first);
}

}  // namespace
}  // namespace cfpm
