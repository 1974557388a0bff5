#include "sim/sequence.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace cfpm::sim {
namespace {

TEST(InputSequence, BitSetGetRoundTrip) {
  InputSequence seq(3, 130);  // spans three 64-bit words
  seq.set_bit(0, 0, true);
  seq.set_bit(1, 64, true);
  seq.set_bit(2, 129, true);
  EXPECT_TRUE(seq.bit(0, 0));
  EXPECT_FALSE(seq.bit(0, 1));
  EXPECT_TRUE(seq.bit(1, 64));
  EXPECT_FALSE(seq.bit(1, 63));
  EXPECT_TRUE(seq.bit(2, 129));
  seq.set_bit(0, 0, false);
  EXPECT_FALSE(seq.bit(0, 0));
}

TEST(InputSequence, FromVectors) {
  const std::vector<std::vector<std::uint8_t>> vecs = {
      {1, 0}, {1, 1}, {0, 1}};
  InputSequence seq = InputSequence::from_vectors(vecs);
  EXPECT_EQ(seq.num_inputs(), 2u);
  EXPECT_EQ(seq.length(), 3u);
  EXPECT_EQ(seq.num_transitions(), 2u);
  EXPECT_TRUE(seq.bit(0, 0));
  EXPECT_FALSE(seq.bit(0, 2));
  EXPECT_TRUE(seq.bit(1, 2));
}

TEST(InputSequence, VectorAt) {
  const std::vector<std::vector<std::uint8_t>> vecs = {{1, 0, 1}, {0, 1, 1}};
  InputSequence seq = InputSequence::from_vectors(vecs);
  std::vector<std::uint8_t> out(3);
  seq.vector_at(1, out);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{0, 1, 1}));
}

TEST(InputSequence, SignalProbability) {
  InputSequence seq(2, 4);
  // input 0: 1,1,0,0 ; input 1: 1,0,0,0 -> 3 ones / 8 bits
  seq.set_bit(0, 0, true);
  seq.set_bit(0, 1, true);
  seq.set_bit(1, 0, true);
  EXPECT_DOUBLE_EQ(seq.signal_probability(), 3.0 / 8.0);
}

TEST(InputSequence, TransitionProbability) {
  InputSequence seq(1, 4);
  // 0,1,1,0 -> toggles at t=0 and t=2: 2 of 3 transitions.
  seq.set_bit(0, 1, true);
  seq.set_bit(0, 2, true);
  EXPECT_DOUBLE_EQ(seq.transition_probability(), 2.0 / 3.0);
}

TEST(InputSequence, TailBitsDoNotPolluteStatistics) {
  // length 65 with all-one values: sp must be exactly 1.
  InputSequence seq(1, 65);
  for (std::size_t t = 0; t < 65; ++t) seq.set_bit(0, t, true);
  EXPECT_DOUBLE_EQ(seq.signal_probability(), 1.0);
  EXPECT_DOUBLE_EQ(seq.transition_probability(), 0.0);
}

TEST(InputSequence, WordAccessMatchesBits) {
  InputSequence seq(1, 70);
  seq.set_bit(0, 5, true);
  seq.set_bit(0, 69, true);
  EXPECT_EQ(seq.word(0, 0), std::uint64_t{1} << 5);
  EXPECT_EQ(seq.word(0, 1), std::uint64_t{1} << 5);  // 69 - 64 = 5
}

TEST(InputSequence, TransitionProbabilityMatchesPerBitCount) {
  // Word-at-a-time toggle counting against a per-bit count, at lengths that
  // end inside, exactly on and just past a word boundary.
  Xoshiro256 rng(41);
  for (const std::size_t length : {1u, 2u, 63u, 64u, 65u, 129u}) {
    for (const double p : {0.0, 0.3, 0.5, 1.0}) {
      InputSequence seq(3, length);
      for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t t = 0; t < length; ++t) {
          // p = 1 alternates, so every word boundary carries a toggle.
          seq.set_bit(i, t, p == 1.0 ? (t + i) % 2 == 0 : rng.next_bool(p));
        }
      }
      std::size_t toggles = 0;
      for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t t = 0; t + 1 < length; ++t) {
          toggles += seq.bit(i, t) != seq.bit(i, t + 1) ? 1 : 0;
        }
      }
      const double want =
          length < 2 ? 0.0
                     : static_cast<double>(toggles) /
                           static_cast<double>(3 * (length - 1));
      EXPECT_DOUBLE_EQ(seq.transition_probability(), want)
          << "length " << length << " p " << p;
    }
  }
}

TEST(InputSequence, SetWordStoresWholeWords) {
  InputSequence seq(2, 70);
  seq.set_word(1, 0, ~std::uint64_t{0});
  seq.set_word(1, 1, 0x21);  // timesteps 64 and 69
  EXPECT_EQ(seq.word(0, 0), 0u);
  EXPECT_TRUE(seq.bit(1, 63));
  EXPECT_TRUE(seq.bit(1, 64));
  EXPECT_FALSE(seq.bit(1, 65));
  EXPECT_TRUE(seq.bit(1, 69));
  EXPECT_EQ(seq.window64(1, 60), 0x21fu);  // 60..64 and 69
}

TEST(InputSequence, SingleVectorHasNoTransitions) {
  InputSequence seq(4, 1);
  EXPECT_EQ(seq.num_transitions(), 0u);
}

}  // namespace
}  // namespace cfpm::sim
