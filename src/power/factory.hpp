// Unified model construction: one factory covering every estimator the
// experiments compare, so the CLI, benches, and tests stop hand-wiring
// characterization sequences and builder options.
//
//   auto add = power::make_model(power::ModelKind::kAddAverage, netlist, opts);
//   auto con = power::make_model(power::ModelKind::kConstant, netlist, opts);
//
// Characterization-based kinds (kConstant, kLinear) replicate the paper's
// Section-4 protocol: simulate `characterization_vectors` random vectors
// drawn from `characterization` statistics on the golden gate-level
// simulator and fit the model to the observed energies.
#pragma once

#include <memory>

#include "netlist/library.hpp"
#include "netlist/netlist.hpp"
#include "power/add_model.hpp"
#include "power/power_model.hpp"
#include "stats/markov.hpp"

namespace cfpm::power {

enum class ModelKind {
  kAddAverage,    ///< characterization-free ADD model, average-accuracy mode
  kAddUpperBound, ///< ADD model with conservative (upper-bound) collapsing
  // 2 is retired (it was an alias of kAddAverage); the explicit values
  // keep every ModelId and wire code of the remaining kinds unchanged.
  kConstant = 3,  ///< Con baseline (characterized mean)
  kLinear = 4,    ///< Lin baseline (characterized least-squares)
};

struct ModelOptions {
  /// Builder options for the ADD kinds (budget, mode, deadline, fallback).
  /// The factory forces `add.mode` from the kind, so callers select
  /// average vs. upper-bound via ModelKind alone.
  AddModelOptions add;
  /// Gate library supplying per-signal loads (all kinds).
  netlist::GateLibrary library = netlist::GateLibrary::standard();
  /// Characterization workload statistics for Con/Lin (paper: sp=st=0.5).
  stats::InputStatistics characterization{0.5, 0.5};
  std::size_t characterization_vectors = 10000;
  std::uint64_t characterization_seed = 0xc0ffee;
};

/// Builds a power model of the requested kind for `n`. ADD kinds may throw
/// what AddPowerModel::build throws (an expired deadline with degradation
/// disabled, or std::bad_alloc); callers needing the degradation report can
/// dynamic_cast the result to AddPowerModel and read build_info().
std::unique_ptr<PowerModel> make_model(ModelKind kind,
                                       const netlist::Netlist& n,
                                       const ModelOptions& options = {});

}  // namespace cfpm::power
