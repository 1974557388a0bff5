// Input-statistics workload generation.
//
// The paper characterizes and evaluates models under random input sequences
// parameterized by average signal probability (sp) and average transition
// probability (st). We realize (sp, st) exactly in expectation with one
// independent two-state Markov chain per input bit:
//   P(0 -> 1) = st / (2 (1 - sp)),   P(1 -> 0) = st / (2 sp)
// whose stationary distribution has P(1) = sp and toggle probability st.
// Feasibility requires st <= 2 sp and st <= 2 (1 - sp).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/sequence.hpp"
#include "support/rng.hpp"

namespace cfpm::stats {

struct InputStatistics {
  double sp = 0.5;  ///< average signal probability, in [0, 1]
  double st = 0.5;  ///< average transition probability, in [0, 1]
};

/// True when a stationary Markov chain with the given (sp, st) exists.
bool feasible(const InputStatistics& s) noexcept;

/// Per-bit flip probabilities {P(0->1), P(1->0)} of the stationary chain
/// realizing (sp, st), clamped to [0, 1]. At the boundaries (sp = 0, sp = 1,
/// or st = 0) the chain is frozen: both probabilities are 0, including the
/// direction the chain can never take from its pinned state.
std::pair<double, double> flip_probabilities(const InputStatistics& s) noexcept;

class MarkovSequenceGenerator {
 public:
  /// Throws cfpm::ContractError when `stats` is infeasible.
  MarkovSequenceGenerator(InputStatistics stats, std::uint64_t seed);

  const InputStatistics& statistics() const noexcept { return stats_; }

  /// Generates `length` vectors over `num_inputs` bits. Each call advances
  /// the generator state; successive calls give independent sequences.
  sim::InputSequence generate(std::size_t num_inputs, std::size_t length);

 private:
  InputStatistics stats_;
  Xoshiro256 rng_;
};

/// Bursty workload: a hidden two-state (idle/active) process modulates the
/// per-bit statistics, yielding the phase-like traffic RTL datapaths see in
/// practice (long quiet stretches punctuated by activity bursts). Pattern-
/// independent models are maximally wrong on such workloads, which is what
/// the paper's introduction motivates.
struct BurstSpec {
  InputStatistics idle{0.5, 0.02};
  InputStatistics active{0.5, 0.6};
  double enter_active = 0.02;  ///< per-step probability idle -> active
  double exit_active = 0.10;   ///< per-step probability active -> idle
};

class BurstSequenceGenerator {
 public:
  BurstSequenceGenerator(BurstSpec spec, std::uint64_t seed);

  sim::InputSequence generate(std::size_t num_inputs, std::size_t length);

  /// Fraction of timesteps spent in the active phase during the last
  /// generate() call.
  double last_active_fraction() const noexcept { return last_active_fraction_; }

 private:
  BurstSpec spec_;
  Xoshiro256 rng_;
  double last_active_fraction_ = 0.0;
};

/// The (sp, st) grid used to compute average relative errors in the
/// experiments: sp in {0.2, 0.35, 0.5, 0.65, 0.8} crossed with
/// st in {0.1, 0.2, ..., 0.9}, restricted to feasible pairs.
std::vector<InputStatistics> evaluation_grid();

/// The single-axis sweep of Fig. 7a: sp = 0.5, st in {0.05, 0.1, ..., 0.95}.
std::vector<InputStatistics> fig7a_sweep();

}  // namespace cfpm::stats
