// Bit-packed input vector sequences.
//
// A sequence of T vectors over n inputs is stored as one bitstream per
// input: bit t of stream i is the value of input i at time t. This layout
// lets the simulator process 64 consecutive transitions per machine word
// and lets workload generators append vectors cheaply.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/assert.hpp"

namespace cfpm::sim {

class InputSequence {
 public:
  InputSequence(std::size_t num_inputs, std::size_t length)
      : num_inputs_(num_inputs),
        length_(length),
        words_per_input_((length + 63) / 64),
        bits_(num_inputs * words_per_input_, 0) {
    CFPM_REQUIRE(num_inputs >= 1);
  }

  std::size_t num_inputs() const noexcept { return num_inputs_; }
  /// Number of vectors (timesteps). Transitions = length() - 1.
  std::size_t length() const noexcept { return length_; }
  std::size_t num_transitions() const noexcept {
    return length_ == 0 ? 0 : length_ - 1;
  }

  bool bit(std::size_t input, std::size_t t) const {
    CFPM_ASSERT(input < num_inputs_ && t < length_);
    return (word(input, t / 64) >> (t % 64)) & 1u;
  }

  void set_bit(std::size_t input, std::size_t t, bool v) {
    CFPM_ASSERT(input < num_inputs_ && t < length_);
    std::uint64_t& w = bits_[input * words_per_input_ + t / 64];
    const std::uint64_t mask = std::uint64_t{1} << (t % 64);
    w = v ? (w | mask) : (w & ~mask);
  }

  /// Word `k` of input `i`'s stream (timesteps 64k .. 64k+63).
  std::uint64_t word(std::size_t input, std::size_t k) const {
    CFPM_ASSERT(input < num_inputs_ && k < words_per_input_);
    return bits_[input * words_per_input_ + k];
  }

  /// Stores word `k` of input `i`'s stream whole. The bits past length()
  /// must be zero: window64() and the statistics rely on the padding.
  void set_word(std::size_t input, std::size_t k, std::uint64_t w) {
    CFPM_ASSERT(input < num_inputs_ && k < words_per_input_);
    CFPM_ASSERT(k + 1 < words_per_input_ || length_ % 64 == 0 ||
                (w >> (length_ % 64)) == 0);
    bits_[input * words_per_input_ + k] = w;
  }

  std::size_t words_per_input() const noexcept { return words_per_input_; }

  /// 64 consecutive timesteps of input `i` starting at `t` (bit k = value
  /// at time t + k), zero-padded past length(). This is the gather primitive
  /// of the bit-parallel trace evaluator: one call replaces 64 bit() reads.
  std::uint64_t window64(std::size_t input, std::size_t t) const {
    CFPM_ASSERT(input < num_inputs_ && t < length_);
    const std::size_t k = t / 64;
    const std::size_t s = t % 64;
    std::uint64_t w = word(input, k) >> s;
    if (s != 0 && k + 1 < words_per_input_) {
      w |= word(input, k + 1) << (64 - s);
    }
    return w;
  }

  /// Copies vector `t` into `out[0..num_inputs)` (one byte per input).
  void vector_at(std::size_t t, std::span<std::uint8_t> out) const {
    CFPM_REQUIRE(out.size() >= num_inputs_);
    for (std::size_t i = 0; i < num_inputs_; ++i) {
      out[i] = bit(i, t) ? 1 : 0;
    }
  }

  /// Builds a sequence from explicit vectors (vectors[t][i], tests mostly).
  static InputSequence from_vectors(
      const std::vector<std::vector<std::uint8_t>>& vectors);

  // ----- empirical statistics ----------------------------------------------

  /// Average signal probability over all inputs and timesteps.
  double signal_probability() const;
  /// Average per-transition toggle probability over all inputs.
  double transition_probability() const;

 private:
  std::size_t num_inputs_;
  std::size_t length_;
  std::size_t words_per_input_;
  std::vector<std::uint64_t> bits_;
};

}  // namespace cfpm::sim
