#include "stats/markov.hpp"

#include <algorithm>
#include <vector>

#include "support/assert.hpp"
#include "support/trace.hpp"

namespace cfpm::stats {

bool feasible(const InputStatistics& s) noexcept {
  if (s.sp < 0.0 || s.sp > 1.0 || s.st < 0.0 || s.st > 1.0) return false;
  // st <= 2 sp (1 can only toggle to 0 as often as 1s occur) and symmetric.
  return s.st <= 2.0 * s.sp + 1e-12 && s.st <= 2.0 * (1.0 - s.sp) + 1e-12;
}

std::pair<double, double> flip_probabilities(const InputStatistics& s) noexcept {
  // A pinned chain (st = 0, or sp at a boundary where feasibility forces
  // st = 0) never flips in either direction. The boundary cases used to
  // report 1.0 for the direction the chain cannot take — harmless to the
  // generators (the pinned state never consults it) but wrong for anyone
  // inspecting the chain, so both probabilities are 0 there.
  if (s.st <= 0.0 || s.sp <= 0.0 || s.sp >= 1.0) return {0.0, 0.0};
  const double p01 = s.st / (2.0 * (1.0 - s.sp));
  const double p10 = s.st / (2.0 * s.sp);
  return {std::min(p01, 1.0), std::min(p10, 1.0)};
}

MarkovSequenceGenerator::MarkovSequenceGenerator(InputStatistics stats,
                                                 std::uint64_t seed)
    : stats_(stats), rng_(seed) {
  CFPM_REQUIRE(feasible(stats));
}

namespace {

// Integer thresholds {t01, t10} of a chain's flip draws (see
// Xoshiro256::bernoulli_threshold).
std::pair<std::uint64_t, std::uint64_t> flip_thresholds(
    const InputStatistics& s) noexcept {
  const auto [p01, p10] = flip_probabilities(s);
  return {Xoshiro256::bernoulli_threshold(p01),
          Xoshiro256::bernoulli_threshold(p10)};
}

// One step of a chain in state v (0 or 1): the same next() draw and the same
// outcome as `if (rng.next_bool(v ? p10 : p01)) v = !v`, without a branch.
// From 0 the chain moves to [m < t01]; from 1 it moves to [m >= t10]. Both
// compares are independent of v, so only an AND and an XOR wait on it.
inline std::uint64_t step(Xoshiro256& rng, std::uint64_t v, std::uint64_t t01,
                          std::uint64_t t10) noexcept {
  const std::uint64_t m = rng.next() >> 11;
  const std::uint64_t f0 = m < t01 ? 1 : 0;
  const std::uint64_t stay1 = m < t10 ? 0 : 1;
  return f0 ^ (v & (f0 ^ stay1));
}

}  // namespace

sim::InputSequence MarkovSequenceGenerator::generate(std::size_t num_inputs,
                                                     std::size_t length) {
  CFPM_TRACE_SPAN("stats.gen");
  CFPM_REQUIRE(length >= 1);
  sim::InputSequence seq(num_inputs, length);
  const std::uint64_t t_sp = Xoshiro256::bernoulli_threshold(stats_.sp);
  const auto [t01, t10] = flip_thresholds(stats_);
  // A local copy keeps the generator state in registers across the stores.
  Xoshiro256 rng = rng_;
  for (std::size_t i = 0; i < num_inputs; ++i) {
    std::uint64_t v = rng.next_bool_below(t_sp) ? 1 : 0;  // stationary start
    // Each timestep enters w at bit 63 and moves down one bit per step (a
    // constant shift, cheaper than a variable one); a short last word is
    // shifted down into place.
    std::uint64_t w = v << 63;
    std::size_t b = 1;  // bit 0 of word 0 is the start state
    for (std::size_t k = 0; k < seq.words_per_input(); ++k, b = 0, w = 0) {
      const std::size_t bits = std::min<std::size_t>(64, length - 64 * k);
      for (; b < bits; ++b) {
        v = step(rng, v, t01, t10);
        w = (w >> 1) | (v << 63);
      }
      seq.set_word(i, k, w >> (64 - bits));
    }
  }
  rng_ = rng;
  return seq;
}

BurstSequenceGenerator::BurstSequenceGenerator(BurstSpec spec,
                                               std::uint64_t seed)
    : spec_(spec), rng_(seed) {
  CFPM_REQUIRE(feasible(spec.idle));
  CFPM_REQUIRE(feasible(spec.active));
  CFPM_REQUIRE(spec.enter_active >= 0.0 && spec.enter_active <= 1.0);
  CFPM_REQUIRE(spec.exit_active >= 0.0 && spec.exit_active <= 1.0);
}

sim::InputSequence BurstSequenceGenerator::generate(std::size_t num_inputs,
                                                    std::size_t length) {
  CFPM_REQUIRE(length >= 1);
  sim::InputSequence seq(num_inputs, length);

  // Per-phase per-bit flip thresholds (shared with MarkovSequenceGenerator);
  // the phase is one more chain, with enter/exit as its flips.
  const auto idle = flip_thresholds(spec_.idle);
  const auto active = flip_thresholds(spec_.active);
  const std::uint64_t t_enter =
      Xoshiro256::bernoulli_threshold(spec_.enter_active);
  const std::uint64_t t_exit =
      Xoshiro256::bernoulli_threshold(spec_.exit_active);
  const std::uint64_t t_sp = Xoshiro256::bernoulli_threshold(spec_.idle.sp);

  Xoshiro256 rng = rng_;
  // Per input: its chain state and the word of timesteps being collected,
  // stored whole every 64 steps.
  std::vector<std::uint64_t> state(num_inputs);
  std::vector<std::uint64_t> word(num_inputs);
  for (std::size_t i = 0; i < num_inputs; ++i) {
    state[i] = rng.next_bool_below(t_sp) ? 1 : 0;
    word[i] = state[i];
  }
  std::uint64_t is_active = 0;
  std::size_t active_steps = 0;
  for (std::size_t t = 1; t < length; ++t) {
    const std::size_t b = t % 64;
    if (b == 0) {
      for (std::size_t i = 0; i < num_inputs; ++i) {
        seq.set_word(i, t / 64 - 1, word[i]);
        word[i] = 0;
      }
    }
    is_active = step(rng, is_active, t_enter, t_exit);
    active_steps += is_active;
    const auto [t01, t10] = is_active != 0 ? active : idle;
    for (std::size_t i = 0; i < num_inputs; ++i) {
      state[i] = step(rng, state[i], t01, t10);
      word[i] |= state[i] << b;
    }
  }
  for (std::size_t i = 0; i < num_inputs; ++i) {
    seq.set_word(i, (length - 1) / 64, word[i]);
  }
  rng_ = rng;
  last_active_fraction_ =
      length > 1 ? static_cast<double>(active_steps) / (length - 1) : 0.0;
  return seq;
}

std::vector<InputStatistics> evaluation_grid() {
  std::vector<InputStatistics> grid;
  for (double sp : {0.2, 0.35, 0.5, 0.65, 0.8}) {
    // Low transition activities come first: out-of-sample robustness at
    // small st is exactly where characterized models break down (Fig. 7a).
    grid.push_back(InputStatistics{sp, 0.05});
    for (int k = 1; k <= 9; ++k) {
      const InputStatistics s{sp, 0.1 * k};
      if (feasible(s)) grid.push_back(s);
    }
  }
  return grid;
}

std::vector<InputStatistics> fig7a_sweep() {
  std::vector<InputStatistics> sweep;
  for (int k = 1; k <= 19; ++k) {
    sweep.push_back(InputStatistics{0.5, 0.05 * k});
  }
  return sweep;
}

}  // namespace cfpm::stats
