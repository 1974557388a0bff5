// Conservative peak-power analysis (Section 1.2 of the paper).
//
// Compares three worst-case methodologies on a multi-macro design:
//   (a) sum of per-macro global worst cases       -- loose, conservative
//   (b) pattern-dependent ADD bounds, summed       -- tight, conservative
//   (c) max observed in random simulation          -- tight, NOT conservative
// and validates (a) >= (b) >= true cycle bound >= (c)-style estimates.
#include <iomanip>
#include <iostream>
#include <memory>
#include <vector>

#include "netlist/generators.hpp"
#include "power/add_model.hpp"
#include "power/rtl.hpp"
#include "sim/simulator.hpp"
#include "stats/markov.hpp"

int main() {
  using namespace cfpm;

  const netlist::GateLibrary lib = netlist::GateLibrary::standard();
  const netlist::Netlist macro = netlist::gen::mcnc_like("cm85");
  const sim::GateLevelSimulator golden(macro, lib);

  // Pattern-dependent upper-bound model (max-collapse, Fig. 5).
  power::AddModelOptions opt;
  opt.max_nodes = 500;
  opt.mode = dd::ApproxMode::kUpperBound;
  auto bound = std::make_shared<power::AddPowerModel>(
      power::AddPowerModel::build(macro, lib, opt));

  // A virtual system with 6 instances of the macro on one bus.
  power::RtlDesign design;
  const std::size_t n = macro.num_inputs();
  for (int i = 0; i < 6; ++i) {
    std::vector<std::size_t> map;
    for (std::size_t k = 0; k < n; ++k) map.push_back(i * n + k);
    std::string name = "u";
    name += std::to_string(i);
    design.add_instance(name, bound, std::move(map));
  }
  std::cout << "system: 6 x cm85 (" << macro.num_gates()
            << " gates each), bound model " << bound->size() << " nodes\n\n";

  // (a) Loose bound: sum of global worst cases.
  const double loose = design.sum_of_worst_cases_ff();

  // (b,c) Walk a workload; compare the per-cycle pattern bound with the
  // golden per-cycle consumption.
  stats::MarkovSequenceGenerator gen({0.5, 0.4}, 21);
  const auto trace = gen.generate(design.bus_width(), 5000);
  std::vector<std::uint8_t> xi(design.bus_width()), xf(design.bus_width());
  std::vector<std::uint8_t> mi(n), mf(n);
  double peak_bound = 0.0, peak_golden = 0.0, bound_sum = 0.0;
  std::size_t violations = 0;
  for (std::size_t t = 0; t + 1 < trace.length(); ++t) {
    trace.vector_at(t, xi);
    trace.vector_at(t + 1, xf);
    const double b = design.estimate_ff(xi, xf);
    double g = 0.0;
    for (int i = 0; i < 6; ++i) {
      for (std::size_t k = 0; k < n; ++k) {
        mi[k] = xi[i * n + k];
        mf[k] = xf[i * n + k];
      }
      g += golden.switching_capacitance_ff(mi, mf);
    }
    if (b + 1e-9 < g) ++violations;
    peak_bound = std::max(peak_bound, b);
    peak_golden = std::max(peak_golden, g);
    bound_sum += b;
  }
  const double cycles = static_cast<double>(trace.num_transitions());

  std::cout << std::fixed << std::setprecision(1);
  std::cout << "(a) sum of global worst cases : " << loose << " fF\n";
  std::cout << "(b) peak pattern-dep. bound   : " << peak_bound << " fF"
            << "  (avg bound/cycle " << bound_sum / cycles << " fF)\n";
  std::cout << "(c) peak observed (golden sim): " << peak_golden << " fF\n";
  std::cout << "\nconservativeness violations: " << violations << " of "
            << trace.num_transitions() << " cycles\n";
  std::cout << "tightening vs naive worst case: "
            << 100.0 * (1.0 - peak_bound / loose) << "%\n";
  return violations == 0 ? 0 : 1;
}
