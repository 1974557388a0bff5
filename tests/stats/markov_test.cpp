#include "stats/markov.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace cfpm::stats {
namespace {

TEST(Feasible, Boundary) {
  EXPECT_TRUE(feasible({0.5, 0.5}));
  EXPECT_TRUE(feasible({0.5, 1.0}));   // alternating chain
  EXPECT_TRUE(feasible({0.2, 0.4}));
  EXPECT_FALSE(feasible({0.2, 0.5}));  // st > 2 sp
  EXPECT_FALSE(feasible({0.8, 0.5}));  // st > 2 (1 - sp)
  EXPECT_TRUE(feasible({0.0, 0.0}));
  EXPECT_TRUE(feasible({1.0, 0.0}));
  EXPECT_FALSE(feasible({-0.1, 0.1}));
  EXPECT_FALSE(feasible({0.5, 1.1}));
}

TEST(Markov, InfeasibleRejected) {
  EXPECT_THROW(MarkovSequenceGenerator({0.1, 0.9}, 1), ContractError);
}

struct GridParam {
  double sp;
  double st;
};

class MarkovStatisticsTest
    : public ::testing::TestWithParam<GridParam> {};

TEST_P(MarkovStatisticsTest, EmpiricalStatsMatchTargets) {
  const auto [sp, st] = GetParam();
  MarkovSequenceGenerator gen({sp, st}, 12345);
  const auto seq = gen.generate(16, 20000);
  EXPECT_NEAR(seq.signal_probability(), sp, 0.02) << "sp target " << sp;
  EXPECT_NEAR(seq.transition_probability(), st, 0.02) << "st target " << st;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MarkovStatisticsTest,
    ::testing::Values(GridParam{0.5, 0.5}, GridParam{0.5, 0.1},
                      GridParam{0.5, 0.9}, GridParam{0.2, 0.1},
                      GridParam{0.2, 0.4}, GridParam{0.8, 0.3},
                      GridParam{0.35, 0.6}, GridParam{0.65, 0.2}));

TEST(Markov, DeterministicForSeed) {
  MarkovSequenceGenerator a({0.5, 0.3}, 7);
  MarkovSequenceGenerator b({0.5, 0.3}, 7);
  const auto sa = a.generate(4, 100);
  const auto sb = b.generate(4, 100);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t t = 0; t < 100; ++t) {
      ASSERT_EQ(sa.bit(i, t), sb.bit(i, t));
    }
  }
}

TEST(Markov, SuccessiveCallsDiffer) {
  MarkovSequenceGenerator g({0.5, 0.5}, 11);
  const auto s1 = g.generate(4, 64);
  const auto s2 = g.generate(4, 64);
  bool any_diff = false;
  for (std::size_t i = 0; i < 4 && !any_diff; ++i) {
    for (std::size_t t = 0; t < 64 && !any_diff; ++t) {
      any_diff = s1.bit(i, t) != s2.bit(i, t);
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Markov, FrozenChainWhenStZero) {
  MarkovSequenceGenerator g({0.7, 0.0}, 3);
  const auto seq = g.generate(8, 500);
  EXPECT_DOUBLE_EQ(seq.transition_probability(), 0.0);
  EXPECT_NEAR(seq.signal_probability(), 0.7, 0.2);  // only initial draw varies
}

TEST(Markov, AlternatingChainWhenStOne) {
  MarkovSequenceGenerator g({0.5, 1.0}, 3);
  const auto seq = g.generate(4, 100);
  EXPECT_DOUBLE_EQ(seq.transition_probability(), 1.0);
}

TEST(Markov, AllZerosWhenSpZero) {
  MarkovSequenceGenerator g({0.0, 0.0}, 3);
  const auto seq = g.generate(4, 100);
  EXPECT_DOUBLE_EQ(seq.signal_probability(), 0.0);
}

TEST(Markov, PinnedBoundariesNeverToggle) {
  // Regression: the boundary branches used to report flip probability 1.0
  // for the direction a pinned chain can never take (sp=1 => p01, sp=0 =>
  // p10). Pinned chains must be frozen in both directions.
  EXPECT_EQ(flip_probabilities({1.0, 0.0}),
            (std::pair<double, double>{0.0, 0.0}));
  EXPECT_EQ(flip_probabilities({0.0, 0.0}),
            (std::pair<double, double>{0.0, 0.0}));
  EXPECT_EQ(flip_probabilities({0.3, 0.0}),
            (std::pair<double, double>{0.0, 0.0}));
  for (const double sp : {0.0, 1.0}) {
    for (const std::uint64_t seed : {1u, 99u}) {
      MarkovSequenceGenerator g({sp, 0.0}, seed);
      const auto seq = g.generate(8, 1000);
      EXPECT_DOUBLE_EQ(seq.transition_probability(), 0.0);
      EXPECT_DOUBLE_EQ(seq.signal_probability(), sp);
    }
  }
}

TEST(Markov, FlipProbabilitiesMatchInteriorFormula) {
  const auto [p01, p10] = flip_probabilities({0.25, 0.3});
  EXPECT_DOUBLE_EQ(p01, 0.3 / (2.0 * 0.75));
  EXPECT_DOUBLE_EQ(p10, 0.3 / (2.0 * 0.25));
  // Alternating chain: both directions saturate at 1.
  EXPECT_EQ(flip_probabilities({0.5, 1.0}),
            (std::pair<double, double>{1.0, 1.0}));
}

TEST(Burst, PhaseModulatedActivity) {
  stats::BurstSpec spec;
  spec.idle = {0.5, 0.02};
  spec.active = {0.5, 0.6};
  spec.enter_active = 0.05;
  spec.exit_active = 0.05;
  BurstSequenceGenerator gen(spec, 7);
  const auto seq = gen.generate(8, 20000);
  // Roughly half the time active (symmetric phase chain); overall st lies
  // strictly between the two phases' targets.
  EXPECT_NEAR(gen.last_active_fraction(), 0.5, 0.15);
  const double st = seq.transition_probability();
  EXPECT_GT(st, 0.05);
  EXPECT_LT(st, 0.55);
}

TEST(Burst, MostlyIdleWorkloadHasLowActivity) {
  stats::BurstSpec spec;  // defaults: rare bursts
  BurstSequenceGenerator gen(spec, 11);
  const auto seq = gen.generate(8, 20000);
  EXPECT_LT(gen.last_active_fraction(), 0.4);
  EXPECT_LT(seq.transition_probability(), 0.3);
  EXPECT_NEAR(seq.signal_probability(), 0.5, 0.1);
}

TEST(Burst, DeterministicAndValidated) {
  stats::BurstSpec spec;
  BurstSequenceGenerator a(spec, 3), b(spec, 3);
  const auto sa = a.generate(4, 200);
  const auto sb = b.generate(4, 200);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t t = 0; t < 200; ++t) {
      ASSERT_EQ(sa.bit(i, t), sb.bit(i, t));
    }
  }
  stats::BurstSpec bad;
  bad.active = {0.1, 0.9};  // infeasible phase
  EXPECT_THROW(BurstSequenceGenerator(bad, 1), ContractError);
}

// ---------------------------------------------------------------------------
// Stream pins. The generators draw word-at-a-time from integer thresholds;
// the loops below are the per-bit generators they replaced, one
// next_bool(double) and one set_bit per input bit per timestep. Every word
// of every sequence must match them, and the crc32 constants were computed
// from the per-bit generators so that the references cannot drift with the
// code.
// ---------------------------------------------------------------------------

sim::InputSequence per_bit_markov(Xoshiro256& rng, const InputStatistics& s,
                                  std::size_t num_inputs, std::size_t length) {
  const auto [p01, p10] = flip_probabilities(s);
  sim::InputSequence seq(num_inputs, length);
  for (std::size_t i = 0; i < num_inputs; ++i) {
    bool v = rng.next_bool(s.sp);
    seq.set_bit(i, 0, v);
    for (std::size_t t = 1; t < length; ++t) {
      const double flip = v ? p10 : p01;
      if (rng.next_bool(flip)) v = !v;
      seq.set_bit(i, t, v);
    }
  }
  return seq;
}

sim::InputSequence per_bit_burst(Xoshiro256& rng, const BurstSpec& spec,
                                 std::size_t num_inputs, std::size_t length,
                                 double* active_fraction) {
  sim::InputSequence seq(num_inputs, length);
  const auto idle = flip_probabilities(spec.idle);
  const auto active = flip_probabilities(spec.active);
  std::vector<std::uint8_t> bits(num_inputs);
  for (std::size_t i = 0; i < num_inputs; ++i) {
    bits[i] = rng.next_bool(spec.idle.sp) ? 1 : 0;
    seq.set_bit(i, 0, bits[i] != 0);
  }
  bool is_active = false;
  std::size_t active_steps = 0;
  for (std::size_t t = 1; t < length; ++t) {
    if (is_active ? rng.next_bool(spec.exit_active)
                  : rng.next_bool(spec.enter_active)) {
      is_active = !is_active;
    }
    if (is_active) ++active_steps;
    const auto [p01, p10] = is_active ? active : idle;
    for (std::size_t i = 0; i < num_inputs; ++i) {
      const double flip = bits[i] ? p10 : p01;
      if (rng.next_bool(flip)) bits[i] = bits[i] ? 0 : 1;
      seq.set_bit(i, t, bits[i] != 0);
    }
  }
  *active_fraction =
      length > 1 ? static_cast<double>(active_steps) / (length - 1) : 0.0;
  return seq;
}

// Compares word for word and checks that the bits past length() are zero.
void expect_same_words(const sim::InputSequence& got,
                       const sim::InputSequence& want,
                       const std::string& what) {
  ASSERT_EQ(got.num_inputs(), want.num_inputs()) << what;
  ASSERT_EQ(got.length(), want.length()) << what;
  ASSERT_EQ(got.words_per_input(), want.words_per_input()) << what;
  const std::size_t last = got.words_per_input() - 1;
  const std::size_t tail = got.length() % 64;
  for (std::size_t i = 0; i < got.num_inputs(); ++i) {
    for (std::size_t k = 0; k <= last; ++k) {
      ASSERT_EQ(got.word(i, k), want.word(i, k))
          << what << " input " << i << " word " << k;
    }
    if (tail != 0) {
      EXPECT_EQ(got.word(i, last) >> tail, 0u) << what << " input " << i;
    }
  }
}

std::uint32_t crc_of_words(const sim::InputSequence& seq) {
  Crc32 crc;
  for (std::size_t i = 0; i < seq.num_inputs(); ++i) {
    for (std::size_t k = 0; k < seq.words_per_input(); ++k) {
      const std::uint64_t w = seq.word(i, k);
      char bytes[8];
      for (int b = 0; b < 8; ++b) {
        bytes[b] = static_cast<char>((w >> (8 * b)) & 0xffu);
      }
      crc.update(std::string_view(bytes, 8));
    }
  }
  return crc.value();
}

constexpr std::size_t kPinWidths[] = {1, 16};
constexpr std::size_t kPinLengths[] = {1, 2, 63, 64, 65, 1000};

TEST(Markov, StreamMatchesPerBitReference) {
  std::vector<InputStatistics> cells = evaluation_grid();
  cells.push_back({0.0, 0.0});
  cells.push_back({1.0, 0.0});
  cells.push_back({0.3, 0.0});
  cells.push_back({0.5, 1.0});
  std::uint64_t seed = 1000;
  for (const InputStatistics& s : cells) {
    for (const std::size_t width : kPinWidths) {
      for (const std::size_t length : kPinLengths) {
        ++seed;
        MarkovSequenceGenerator gen(s, seed);
        Xoshiro256 rng(seed);
        // Two calls on one generator: the second continues the stream.
        for (int call = 0; call < 2; ++call) {
          const std::string what =
              "cell (" + std::to_string(s.sp) + "," + std::to_string(s.st) +
              ") width " + std::to_string(width) + " length " +
              std::to_string(length) + " call " + std::to_string(call);
          expect_same_words(gen.generate(width, length),
                            per_bit_markov(rng, s, width, length), what);
        }
      }
    }
  }
  MarkovSequenceGenerator gen({0.35, 0.6}, 2024);
  EXPECT_EQ(crc_of_words(gen.generate(16, 1000)), 0x8a116786u);
  Xoshiro256 rng(2024);
  EXPECT_EQ(crc_of_words(per_bit_markov(rng, {0.35, 0.6}, 16, 1000)),
            0x8a116786u);
}

std::vector<BurstSpec> pinned_burst_specs() {
  std::vector<BurstSpec> specs(5);  // [0]: the defaults
  specs[1].enter_active = 0.05;
  specs[1].exit_active = 0.05;
  specs[2].idle = {0.2, 0.1};
  specs[2].active = {0.65, 0.7};
  specs[2].enter_active = 0.3;
  specs[2].exit_active = 0.2;
  specs[3].idle = {0.0, 0.0};  // frozen idle phase, alternating active one
  specs[3].active = {0.5, 1.0};
  specs[3].enter_active = 1.0;
  specs[3].exit_active = 1.0;
  specs[4].idle = {1.0, 0.0};
  specs[4].active = {0.3, 0.0};
  specs[4].enter_active = 0.0;
  specs[4].exit_active = 0.0;
  return specs;
}

TEST(Burst, StreamMatchesPerBitReference) {
  std::uint64_t seed = 5000;
  for (const BurstSpec& spec : pinned_burst_specs()) {
    for (const std::size_t width : kPinWidths) {
      for (const std::size_t length : kPinLengths) {
        ++seed;
        BurstSequenceGenerator gen(spec, seed);
        Xoshiro256 rng(seed);
        for (int call = 0; call < 2; ++call) {
          const std::string what =
              "seed " + std::to_string(seed) + " width " +
              std::to_string(width) + " length " + std::to_string(length) +
              " call " + std::to_string(call);
          double fraction = -1.0;
          const sim::InputSequence want =
              per_bit_burst(rng, spec, width, length, &fraction);
          expect_same_words(gen.generate(width, length), want, what);
          EXPECT_EQ(gen.last_active_fraction(), fraction) << what;
        }
      }
    }
  }
  BurstSequenceGenerator gen(pinned_burst_specs()[1], 2024);
  EXPECT_EQ(crc_of_words(gen.generate(16, 1000)), 0xa92de384u);
  Xoshiro256 rng(2024);
  double fraction = -1.0;
  EXPECT_EQ(crc_of_words(per_bit_burst(rng, pinned_burst_specs()[1], 16, 1000,
                                       &fraction)),
            0xa92de384u);
}


TEST(EvaluationGrid, AllFeasibleAndNonEmpty) {
  const auto grid = evaluation_grid();
  EXPECT_GE(grid.size(), 25u);
  for (const auto& s : grid) {
    EXPECT_TRUE(feasible(s)) << s.sp << "," << s.st;
  }
}

TEST(EvaluationGrid, Fig7aSweepIsSpHalf) {
  const auto sweep = fig7a_sweep();
  EXPECT_EQ(sweep.size(), 19u);
  for (const auto& s : sweep) {
    EXPECT_DOUBLE_EQ(s.sp, 0.5);
    EXPECT_TRUE(feasible(s));
  }
  EXPECT_NEAR(sweep.front().st, 0.05, 1e-12);
  EXPECT_NEAR(sweep.back().st, 0.95, 1e-12);
}

}  // namespace
}  // namespace cfpm::stats
