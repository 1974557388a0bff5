// RT-level composition of macro power models.
//
// An RtlDesign is a set of macro instances whose inputs are bound to bits
// of a global "bus" state. Per-cycle estimates compose additively; the key
// property from the paper (Section 1.2) is that *pattern-dependent* upper
// bounds of the components sum to a much tighter conservative system bound
// than the sum of the components' global worst cases.
//
// The per-transition methods here are the one-shot and reporting API.
// Streaming a trace through a design is chip::evaluate_trace's job: it runs
// power::stream_trace, which gathers each instance's bus window straight
// off the packed sequence and evaluates 512 transitions per
// PowerModel::estimate_block call, with the same per-cycle fold (instance
// order) as estimate_ff.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "power/power_model.hpp"

namespace cfpm::power {

class RtlDesign {
 public:
  /// Binds `model`'s k-th input to global bus bit input_map[k]. The design
  /// shares ownership of the model, so one library model can back many
  /// instances (the library-macro reuse scenario of the paper).
  void add_instance(std::string name, std::shared_ptr<const PowerModel> model,
                    std::vector<std::size_t> input_map);

  std::size_t num_instances() const noexcept { return instances_.size(); }
  std::size_t bus_width() const noexcept { return bus_width_; }
  const std::string& instance_name(std::size_t i) const;
  const PowerModel& instance_model(std::size_t i) const;
  const std::vector<std::size_t>& instance_input_map(std::size_t i) const;

  /// Total estimated switching capacitance for one bus transition: the
  /// left-fold of estimate_breakdown_ff in instance order.
  double estimate_ff(std::span<const std::uint8_t> bus_xi,
                     std::span<const std::uint8_t> bus_xf) const;

  /// Per-instance breakdown for one bus transition (reporting API).
  std::vector<double> estimate_breakdown_ff(
      std::span<const std::uint8_t> bus_xi,
      std::span<const std::uint8_t> bus_xf) const;

  /// True when every instance model is a conservative bound (then
  /// estimate_ff is a conservative system bound).
  bool is_upper_bound() const;

  /// Sum of the instances' global worst cases (the loose bound the paper
  /// argues against). Requires every model to be an upper bound.
  double sum_of_worst_cases_ff() const;

 private:
  struct Instance {
    std::string name;
    std::shared_ptr<const PowerModel> model;
    std::vector<std::size_t> input_map;
  };

  std::vector<Instance> instances_;
  std::size_t bus_width_ = 0;
};

}  // namespace cfpm::power
