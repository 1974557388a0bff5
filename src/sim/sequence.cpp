#include "sim/sequence.hpp"

#include <bit>

namespace cfpm::sim {

InputSequence InputSequence::from_vectors(
    const std::vector<std::vector<std::uint8_t>>& vectors) {
  CFPM_REQUIRE(!vectors.empty());
  const std::size_t n = vectors.front().size();
  InputSequence seq(n, vectors.size());
  for (std::size_t t = 0; t < vectors.size(); ++t) {
    CFPM_REQUIRE(vectors[t].size() == n);
    for (std::size_t i = 0; i < n; ++i) {
      seq.set_bit(i, t, vectors[t][i] != 0);
    }
  }
  return seq;
}

double InputSequence::signal_probability() const {
  if (length_ == 0) return 0.0;
  std::size_t ones = 0;
  for (std::size_t i = 0; i < num_inputs_; ++i) {
    for (std::size_t k = 0; k < words_per_input_; ++k) {
      std::uint64_t w = word(i, k);
      // Mask tail bits beyond length_.
      if (k == words_per_input_ - 1 && length_ % 64 != 0) {
        w &= (std::uint64_t{1} << (length_ % 64)) - 1;
      }
      ones += static_cast<std::size_t>(std::popcount(w));
    }
  }
  return static_cast<double>(ones) /
         static_cast<double>(num_inputs_ * length_);
}

double InputSequence::transition_probability() const {
  if (num_transitions() == 0) return 0.0;
  // Bit j of w ^ (w shifted down one timestep) is set when timestep 64k + j
  // differs from the next one; the next word supplies the successor of bit
  // 63. Only the first num_transitions() positions count.
  const std::size_t words = (num_transitions() + 63) / 64;
  const std::size_t tail = num_transitions() % 64;
  std::size_t toggles = 0;
  for (std::size_t i = 0; i < num_inputs_; ++i) {
    for (std::size_t k = 0; k < words; ++k) {
      const std::uint64_t w = word(i, k);
      const std::uint64_t next =
          k + 1 < words_per_input_ ? word(i, k + 1) : 0;
      std::uint64_t x = w ^ ((w >> 1) | (next << 63));
      if (k + 1 == words && tail != 0) {
        x &= (std::uint64_t{1} << tail) - 1;
      }
      toggles += static_cast<std::size_t>(std::popcount(x));
    }
  }
  return static_cast<double>(toggles) /
         static_cast<double>(num_inputs_ * num_transitions());
}

}  // namespace cfpm::sim
