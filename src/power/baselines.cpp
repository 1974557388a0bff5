#include "power/baselines.hpp"

#include <utility>

#include "support/assert.hpp"
#include "support/linear.hpp"

namespace cfpm::power {

LinearModel::LinearModel(std::vector<double> coeffs)
    : coeffs_(std::move(coeffs)) {
  CFPM_REQUIRE(coeffs_.size() >= 2);
}

double LinearModel::estimate_ff(std::span<const std::uint8_t> xi,
                                std::span<const std::uint8_t> xf) const {
  CFPM_REQUIRE(xi.size() == num_inputs() && xf.size() == num_inputs());
  double est = coeffs_[0];
  for (std::size_t j = 0; j < xi.size(); ++j) {
    if ((xi[j] != 0) != (xf[j] != 0)) est += coeffs_[j + 1];
  }
  return est;
}

double LinearModel::worst_case_ff() const {
  double wc = coeffs_[0];
  for (std::size_t j = 1; j < coeffs_.size(); ++j) {
    if (coeffs_[j] > 0.0) wc += coeffs_[j];
  }
  return wc;
}

Characterizer::Characterizer(const sim::GateLevelSimulator& simulator,
                             const sim::InputSequence& seq)
    : simulator_(simulator), seq_(seq), energy_(simulator.simulate(seq)) {
  CFPM_REQUIRE(seq.num_transitions() >= 1);
}

ConstantModel Characterizer::fit_constant() const {
  return ConstantModel(energy_.average_ff(), seq_.num_inputs());
}

LinearModel Characterizer::fit_linear() const {
  const std::size_t n = seq_.num_inputs();
  const std::size_t m = seq_.num_transitions();
  Matrix x(m, n + 1);
  std::vector<double> y(m);
  for (std::size_t t = 0; t < m; ++t) {
    x(t, 0) = 1.0;
    for (std::size_t j = 0; j < n; ++j) {
      x(t, j + 1) = (seq_.bit(j, t) != seq_.bit(j, t + 1)) ? 1.0 : 0.0;
    }
    y[t] = energy_.per_transition_ff[t];
  }
  return LinearModel(least_squares(x, y));
}

}  // namespace cfpm::power
