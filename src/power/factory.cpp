#include "power/factory.hpp"

#include <utility>

#include "power/baselines.hpp"
#include "sim/simulator.hpp"
#include "support/assert.hpp"

namespace cfpm::power {

namespace {

/// Shared characterization wiring for the baseline kinds: golden simulation
/// of a random sequence drawn from the configured statistics.
template <typename Fit>
auto characterize(const netlist::Netlist& n, const ModelOptions& options,
                  Fit&& fit) {
  const sim::GateLevelSimulator golden(n, options.library);
  stats::MarkovSequenceGenerator gen(options.characterization,
                                     options.characterization_seed);
  const sim::InputSequence seq =
      gen.generate(n.num_inputs(), options.characterization_vectors);
  const Characterizer characterizer(golden, seq);
  return fit(characterizer);
}

}  // namespace

std::unique_ptr<PowerModel> make_model(ModelKind kind,
                                       const netlist::Netlist& n,
                                       const ModelOptions& options) {
  switch (kind) {
    case ModelKind::kAddAverage: {
      AddModelOptions add = options.add;
      add.mode = dd::ApproxMode::kAverage;
      return std::make_unique<AddPowerModel>(
          AddPowerModel::build(n, options.library, add));
    }
    case ModelKind::kAddUpperBound: {
      AddModelOptions add = options.add;
      add.mode = dd::ApproxMode::kUpperBound;
      return std::make_unique<AddPowerModel>(
          AddPowerModel::build(n, options.library, add));
    }
    case ModelKind::kConstant:
      return characterize(n, options, [](const Characterizer& c) {
        return std::make_unique<ConstantModel>(c.fit_constant());
      });
    case ModelKind::kLinear:
      return characterize(n, options, [](const Characterizer& c) {
        return std::make_unique<LinearModel>(c.fit_linear());
      });
  }
  CFPM_UNREACHABLE("bad ModelKind");
}

}  // namespace cfpm::power
