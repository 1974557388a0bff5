// Characterization-based baseline models of Section 4.
//
//  * ConstantModel (Con): the mean switching capacitance observed during a
//    characterization run; pattern-independent.
//  * LinearModel (Lin):  C = c0 + sum_j c_j a_j with a_j = x^i_j XOR x^f_j,
//    least-squares fitted to characterization data.
//  * ConstantBoundModel: a pattern-independent worst-case estimator (used
//    as the "Con" column of the Table-1 upper-bound section).
//
// None of them overrides batch evaluation: traces run the default
// estimate_block (an estimate_ff loop) inside PowerModel::estimate_trace,
// so trace values are bit-identical to a scalar estimate_ff loop.
//
// Both Con and Lin require simulation-based characterization; the paper's
// point is precisely that their accuracy collapses out-of-sample. The
// Characterizer runs the golden-model simulator on a training sequence
// (sp = st = 0.5 in the paper) and fits them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "power/power_model.hpp"
#include "sim/simulator.hpp"

namespace cfpm::power {

class ConstantModel final : public PowerModel {
 public:
  ConstantModel(double value_ff, std::size_t num_inputs)
      : value_ff_(value_ff), num_inputs_(num_inputs) {}

  std::string name() const override { return "Con"; }
  double estimate_ff(std::span<const std::uint8_t>,
                     std::span<const std::uint8_t>) const override {
    return value_ff_;
  }
  std::size_t num_inputs() const override { return num_inputs_; }
  double worst_case_ff() const override { return value_ff_; }
  double value_ff() const { return value_ff_; }

 private:
  double value_ff_;
  std::size_t num_inputs_;
};

class ConstantBoundModel final : public PowerModel {
 public:
  ConstantBoundModel(double bound_ff, std::size_t num_inputs)
      : bound_ff_(bound_ff), num_inputs_(num_inputs) {}

  std::string name() const override { return "ConBound"; }
  double estimate_ff(std::span<const std::uint8_t>,
                     std::span<const std::uint8_t>) const override {
    return bound_ff_;
  }
  bool is_upper_bound() const override { return true; }
  std::size_t num_inputs() const override { return num_inputs_; }
  double worst_case_ff() const override { return bound_ff_; }

 private:
  double bound_ff_;
  std::size_t num_inputs_;
};

class LinearModel final : public PowerModel {
 public:
  /// coeffs = [c0, c1, ..., cn].
  explicit LinearModel(std::vector<double> coeffs);

  std::string name() const override { return "Lin"; }
  double estimate_ff(std::span<const std::uint8_t> xi,
                     std::span<const std::uint8_t> xf) const override;
  std::size_t num_inputs() const override { return coeffs_.size() - 1; }
  double worst_case_ff() const override;
  std::span<const double> coefficients() const { return coeffs_; }

 private:
  std::vector<double> coeffs_;
};

/// Fits baseline models against golden-model simulation data.
class Characterizer {
 public:
  /// `seq` is the characterization workload (the paper uses 10000 random
  /// vectors with sp = st = 0.5).
  Characterizer(const sim::GateLevelSimulator& simulator,
                const sim::InputSequence& seq);

  /// Mean observed switching capacitance (Con).
  ConstantModel fit_constant() const;

  /// Least-squares linear model over transition bits (Lin).
  LinearModel fit_linear() const;

  /// Maximum observed capacitance — what a purely simulation-based flow
  /// would (wrongly) report as "worst case"; not conservative.
  double observed_peak_ff() const { return energy_.peak_ff; }

  /// Mean observed capacitance.
  double observed_average_ff() const { return energy_.average_ff(); }

 private:
  const sim::GateLevelSimulator& simulator_;
  const sim::InputSequence& seq_;
  sim::SequenceEnergy energy_;
};

}  // namespace cfpm::power
