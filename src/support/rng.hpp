// Deterministic, fast pseudo-random generation.
//
// All stochastic components of the library (workload generators,
// characterization sampling, randomized tests) draw from Xoshiro256**
// seeded through SplitMix64, so every experiment is reproducible from a
// single 64-bit seed.
#pragma once

#include <cmath>
#include <cstdint>

namespace cfpm {

/// SplitMix64: used to expand a user seed into generator state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256** 1.0 (Blackman & Vigna). Satisfies UniformRandomBitGenerator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept { return next(); }

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with probability p of returning true.
  bool next_bool(double p) noexcept { return next_double() < p; }

  /// Integer form of next_bool(p). next_double() is m * 2^-53 for the
  /// integer m = next() >> 11 in [0, 2^53), and the product is exact, so
  /// m * 2^-53 < p holds exactly when m < p * 2^53, that is when
  /// m < ceil(p * 2^53). Hence, draw for draw,
  ///   next_bool(p) == next_bool_below(bernoulli_threshold(p)),
  /// with the threshold clamped to 0 for p <= 0 (and NaN) and to 2^53 for
  /// p >= 1. Generators compute the threshold once and compare integers.
  static std::uint64_t bernoulli_threshold(double p) noexcept {
    if (!(p > 0.0)) return 0;
    if (p >= 1.0) return std::uint64_t{1} << 53;
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
  }

  /// Bernoulli draw against a threshold from bernoulli_threshold().
  bool next_bool_below(std::uint64_t threshold) noexcept {
    return (next() >> 11) < threshold;
  }

  /// Uniform integer in [0, bound) using Lemire's method.
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;
    unsigned __int128 m =
        static_cast<unsigned __int128>(next()) * static_cast<unsigned __int128>(bound);
    return static_cast<std::uint64_t>(m >> 64);
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace cfpm
