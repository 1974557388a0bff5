// Experiment harness: relative-error evaluation of RTL power models
// against the golden gate-level simulator, over a grid of input statistics
// (Section 4 of the paper).
//
// For every (sp, st) point the harness runs "concurrent RTL and gate-level
// simulation" on the same random sequence and records:
//   average-accuracy RE  = |avg_model - avg_golden| / avg_golden
//   bound-accuracy   RE  = (peak_model - peak_golden) / peak_golden
// The average of RE over all points is the paper's ARE.
//
// Single entry point:
//
//   auto reports = eval::evaluate(models, golden, grid, options);
//
// where `golden` is a Reference (a GateLevelSimulator converts implicitly;
// any other reference wraps as Reference(num_inputs, fn)) and EvalOptions
// selects the metric and run configuration.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "power/power_model.hpp"
#include "sim/simulator.hpp"
#include "stats/markov.hpp"

namespace cfpm::eval {

struct RunConfig {
  std::size_t vectors_per_run = 10000;  ///< paper: 10000 vectors
  std::uint64_t seed = 0x5eed;
  /// Overrides vectors_per_run from the CFPM_VECTORS environment variable
  /// when present (lets CI run fast without touching the benches).
  /// Throws cfpm::Error when the variable is set but is not an integer >= 2
  /// -- a typo'd CFPM_VECTORS must not silently run the full-size (or a
  /// zero-vector) experiment.
  static RunConfig from_env();
};

struct AccuracyPoint {
  stats::InputStatistics statistics;
  double golden = 0.0;  ///< simulated average (or peak) capacitance, fF
  double model = 0.0;   ///< model estimate on the same sequence
  double re = 0.0;      ///< relative error (bound RE keeps its sign)
  /// Per-cell recovery: a cell whose golden reference or model evaluation
  /// threw is marked failed (with the error text) instead of killing the
  /// whole grid; failed cells are excluded from the ARE.
  bool failed = false;
  std::string error;
};

struct AccuracyReport {
  std::string model_name;
  std::vector<AccuracyPoint> points;
  /// Average of |re| over the non-failed points, as a fraction
  /// (0.057 = 5.7%); 0 when every point failed.
  double are = 0.0;
  /// Cells that threw and were skipped (see AccuracyPoint::failed).
  std::size_t failed_points = 0;
  /// Cells the ARE actually averages over (points.size() - failed_points):
  /// distinguishes "are == 0 because the model is perfect" from "are == 0
  /// because nothing survived".
  std::size_t evaluated_points = 0;
};

/// Any golden reference: maps a workload to per-sequence energy. Adapters
/// exist for the zero-delay and the glitch-aware simulators; tests can pass
/// a lambda.
using ReferenceFn = std::function<sim::SequenceEnergy(const sim::InputSequence&)>;

/// The accuracy metric an evaluation scores.
enum class Metric {
  kAverage,  ///< RE of per-transition average power (Table 1 "avg")
  kBound,    ///< signed RE of the per-sequence peak (Table 1 "max")
};

/// Golden reference for an evaluation: either a gate-level simulator
/// (implicit conversion -- the common case) or an arbitrary ReferenceFn
/// with an explicit input arity (glitch-aware simulators, test lambdas).
class Reference {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): by-design shorthand so
  // call sites read evaluate(models, golden, grid, ...).
  Reference(const sim::GateLevelSimulator& golden)
      : num_inputs_(golden.circuit().num_inputs()),
        fn_([&golden](const sim::InputSequence& seq) {
          return golden.simulate(seq);
        }) {}

  Reference(std::size_t num_inputs, ReferenceFn fn)
      : num_inputs_(num_inputs), fn_(std::move(fn)) {}

  std::size_t num_inputs() const { return num_inputs_; }
  const ReferenceFn& fn() const { return fn_; }

 private:
  std::size_t num_inputs_;
  ReferenceFn fn_;
};

struct EvalOptions {
  Metric metric = Metric::kAverage;
  RunConfig run;
};

/// Accuracy of several models against one golden reference over a grid of
/// input statistics (one random sequence per grid point; all models see
/// identical workloads). Grid cells evaluate in parallel and recover
/// per-cell: a throwing cell is marked failed, the rest of the grid runs.
std::vector<AccuracyReport> evaluate(
    std::span<const power::PowerModel* const> models, const Reference& golden,
    std::span<const stats::InputStatistics> grid,
    const EvalOptions& options = {});

}  // namespace cfpm::eval
