// The paper's contribution: characterization-free, pattern-dependent
// switching-capacitance models built symbolically from the gate-level
// netlist (Section 2.1 and Fig. 6).
//
// The model is the discrete function
//   C(x^i, x^f) = sum_j  g_j'(x^i) * g_j(x^f) * C_j            (Eq. 4)
// represented as an ADD over 2n Boolean variables. During construction the
// partial sum is re-approximated by node collapsing whenever it exceeds a
// node budget MAX, with one of two strategies:
//   * kAverage    -> accurate average-power estimator
//   * kUpperBound -> conservative pattern-dependent upper bound
// No simulation is involved anywhere.
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dd/approx.hpp"
#include "dd/compiled.hpp"
#include "dd/manager.hpp"
#include "netlist/library.hpp"
#include "netlist/netlist.hpp"
#include "power/power_model.hpp"
#include "support/governor.hpp"

namespace cfpm::power {

/// Placement of the 2n model variables in the diagram order.
enum class VariableOrder {
  /// x^i_k and x^f_k adjacent: order (x^i_0, x^f_0, x^i_1, x^f_1, ...).
  /// This is the transition-relation interleaving; almost always smaller.
  kInterleaved,
  /// All x^i first, then all x^f (kept for the ablation study).
  kBlocked,
};

struct AddModelOptions {
  /// Node budget MAX of Fig. 6; 0 builds the exact (unbounded) model.
  std::size_t max_nodes = 1000;
  dd::ApproxMode mode = dd::ApproxMode::kAverage;
  VariableOrder order = VariableOrder::kInterleaved;
  /// When false, approximation runs only once after the full sum is built
  /// (ablation: Fig. 6 applies it during construction).
  bool approximate_during_construction = true;
  /// Node budget for each gate's deltaC contribution before it is summed;
  /// 0 disables (Fig. 6 uses the same MAX).
  std::size_t delta_max_nodes = 0;
  /// Sifting passes run on the finished sum before the final approximation
  /// (the paper relies on CUDD's reordering [10] for the same purpose).
  /// Reordering often shrinks the exact ADD below MAX, in which case the
  /// model needs no approximation at all.
  unsigned reorder_passes = 2;
  dd::DdConfig dd_config;
  /// Walk the degradation ladder on ResourceError/DeadlineExceeded instead
  /// of propagating: retry with in-construction approximation forced on,
  /// then with repeatedly halved budgets down to `degrade_floor`, then
  /// surrender to a constant (Con-style) estimator. Every rung taken is
  /// recorded in AddModelBuildInfo::rungs; CancelledError always
  /// propagates. With `degrade` false the first failure is rethrown.
  bool degrade = true;
  /// Smallest MAX the ladder will retry with before the constant fallback.
  std::size_t degrade_floor = 16;
  /// Unused: nothing reads it. Kept only because the benchmark sources
  /// assign it; the next change to the benchmark removes it.
  std::size_t build_threads = 1;
};

/// How the model left the builder (see AddModelOptions::degrade).
enum class BuildOutcome {
  kClean,     ///< first attempt succeeded; no ladder rung taken
  kDegraded,  ///< a retry rung (forced/halved approximation) produced it
  kFallback,  ///< every retry failed; constant Con-style estimator
};

/// One rung of the degradation ladder, recorded so a degraded result is
/// never silently mistaken for a clean one.
struct BuildRung {
  std::string action;     ///< e.g. "force-approximate", "halve-max-nodes"
  std::string reason;     ///< what() of the error that forced this rung
  std::size_t max_nodes;  ///< MAX in force for the retry (0 = n/a)
};

/// Build-time metadata (reported in the Table-1 CPU/MAX columns).
struct AddModelBuildInfo {
  double build_seconds = 0.0;
  std::size_t approximations = 0;   ///< collapse invocations during build
  std::size_t peak_live_nodes = 0;  ///< manager high-water mark
  std::size_t exact_if_zero = 0;    ///< 0 when no approximation ever ran
  std::size_t reorder_runs = 0;     ///< sifting invocations during build
  BuildOutcome outcome = BuildOutcome::kClean;
  std::vector<BuildRung> rungs;     ///< ladder rungs taken, in order
  /// Total attempts across the ladder (1 for a clean build).
  std::size_t attempts = 1;
};

class AddPowerModel final : public PowerModel {
 public:
  /// Builds the model from a netlist with per-signal loads (fF).
  static AddPowerModel build(const netlist::Netlist& n,
                             std::span<const double> loads_ff,
                             const AddModelOptions& options = {});

  /// Convenience: loads annotated from `lib`.
  static AddPowerModel build(const netlist::Netlist& n,
                             const netlist::GateLibrary& lib,
                             const AddModelOptions& options = {});

  // PowerModel interface -----------------------------------------------------
  std::string name() const override;
  double estimate_ff(std::span<const std::uint8_t> xi,
                     std::span<const std::uint8_t> xf) const override;
  bool is_upper_bound() const override {
    return mode_ == dd::ApproxMode::kUpperBound;
  }
  std::size_t num_inputs() const override { return num_inputs_; }
  double worst_case_ff() const override { return function_.max_value(); }

  /// Batch evaluation on the compiled flat-array snapshot of the ADD:
  /// per-pattern values are bit-identical to estimate_ff, chunk order is
  /// fixed, so the result matches the scalar path exactly for any pool.
  TraceEstimate estimate_trace(const sim::InputSequence& seq,
                               ThreadPool* pool = nullptr) const override;

  // Model introspection --------------------------------------------------------
  /// The flattened evaluation snapshot (compiled once at construction;
  /// immutable, shared by copies, safe for concurrent evaluation).
  const dd::CompiledDd& compiled() const { return *compiled_; }
  /// Node count of the ADD (terminals included).
  std::size_t size() const { return function_.size(); }
  const dd::Add& function() const { return function_; }
  dd::ApproxMode mode() const { return mode_; }
  const AddModelBuildInfo& build_info() const { return build_info_; }

  /// Largest value the model can produce (the constant worst-case
  /// estimator used for the Table-1 "Con" bound column).
  double max_estimate_ff() const { return function_.max_value(); }
  /// Exact average of the model over uniform random transitions.
  double average_estimate_ff() const { return function_.average(); }

  /// Symbolic per-input power attribution, computed from the ADD alone (no
  /// simulation): for each macro input k,
  ///   sensitivity[k] = E[C | input k toggles] - E[C | input k is stable]
  /// under uniform statistics on the other inputs. Ranks which inputs the
  /// macro's consumption actually responds to -- useful for encoding and
  /// gating decisions at the RT level.
  std::vector<double> input_sensitivity_ff() const;

  /// A transition (x^i, x^f) on which the model attains worst_case_ff().
  /// For an exact model this is a true maximum-power input pair -- the
  /// search that is exponential at the netlist level ([8, 9] in the paper)
  /// is a linear walk on the ADD.
  struct Transition {
    std::vector<std::uint8_t> xi;
    std::vector<std::uint8_t> xf;
  };
  Transition worst_case_transition() const;

  /// Derives a smaller model by further node collapsing (Fig. 7b sweeps).
  AddPowerModel compress(std::size_t max_nodes) const;
  /// Same, but switching strategy (e.g. derive a bound from an exact model).
  AddPowerModel compress(std::size_t max_nodes, dd::ApproxMode mode) const;

  // Serialization ("back-annotation" without revealing the netlist) ---------
  void save(std::ostream& os) const;
  static AddPowerModel load(std::istream& is);

  // Variable mapping (shared with the symbolic builder and tests) -----------
  std::uint32_t var_of_xi(std::uint32_t input) const;
  std::uint32_t var_of_xf(std::uint32_t input) const;

 private:
  AddPowerModel(std::shared_ptr<dd::DdManager> mgr, dd::Add function,
                std::size_t num_inputs, VariableOrder order,
                dd::ApproxMode mode, std::string circuit_name);

  /// Last ladder rung: a constant (Con-style) estimator built on a fresh,
  /// ungoverned manager -- total driven load in bound mode, its
  /// balanced-gate expectation in average mode.
  static AddPowerModel constant_fallback(const netlist::Netlist& n,
                                         std::span<const double> loads_ff,
                                         const AddModelOptions& options);

  // The manager must outlive the Add handle; shared_ptr keeps compress()d
  // copies cheap (they share the manager).
  std::shared_ptr<dd::DdManager> mgr_;
  dd::Add function_;
  // Frozen flat-array copy of function_, detached from mgr_ (manager GC or
  // reordering cannot invalidate it). Shared so the model stays copyable.
  std::shared_ptr<const dd::CompiledDd> compiled_;
  std::size_t num_inputs_ = 0;
  VariableOrder order_ = VariableOrder::kInterleaved;
  dd::ApproxMode mode_ = dd::ApproxMode::kAverage;
  std::string circuit_name_;
  AddModelBuildInfo build_info_;

  friend class SymbolicBuilder;
};

}  // namespace cfpm::power
