#include "power/rtl.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace cfpm::power {

void RtlDesign::add_instance(std::string name,
                             std::shared_ptr<const PowerModel> model,
                             std::vector<std::size_t> input_map) {
  CFPM_REQUIRE(model != nullptr);
  CFPM_REQUIRE(input_map.size() == model->num_inputs());
  for (std::size_t bit : input_map) {
    bus_width_ = std::max(bus_width_, bit + 1);
  }
  instances_.push_back(Instance{std::move(name), std::move(model),
                                std::move(input_map)});
}

const std::string& RtlDesign::instance_name(std::size_t i) const {
  CFPM_REQUIRE(i < instances_.size());
  return instances_[i].name;
}

const PowerModel& RtlDesign::instance_model(std::size_t i) const {
  CFPM_REQUIRE(i < instances_.size());
  return *instances_[i].model;
}

const std::vector<std::size_t>& RtlDesign::instance_input_map(
    std::size_t i) const {
  CFPM_REQUIRE(i < instances_.size());
  return instances_[i].input_map;
}

double RtlDesign::estimate_ff(std::span<const std::uint8_t> bus_xi,
                              std::span<const std::uint8_t> bus_xf) const {
  double total = 0.0;
  for (const double v : estimate_breakdown_ff(bus_xi, bus_xf)) total += v;
  return total;
}

std::vector<double> RtlDesign::estimate_breakdown_ff(
    std::span<const std::uint8_t> bus_xi,
    std::span<const std::uint8_t> bus_xf) const {
  CFPM_REQUIRE(bus_xi.size() >= bus_width_ && bus_xf.size() >= bus_width_);
  std::vector<double> breakdown;
  breakdown.reserve(instances_.size());
  std::vector<std::uint8_t> xi, xf;
  for (const Instance& inst : instances_) {
    xi.clear();
    xf.clear();
    for (const std::size_t bit : inst.input_map) {
      xi.push_back(bus_xi[bit]);
      xf.push_back(bus_xf[bit]);
    }
    breakdown.push_back(inst.model->estimate_ff(xi, xf));
  }
  return breakdown;
}

bool RtlDesign::is_upper_bound() const {
  return std::all_of(instances_.begin(), instances_.end(),
                     [](const Instance& i) { return i.model->is_upper_bound(); });
}

double RtlDesign::sum_of_worst_cases_ff() const {
  double total = 0.0;
  for (const Instance& inst : instances_) {
    total += inst.model->worst_case_ff();
  }
  return total;
}

}  // namespace cfpm::power
