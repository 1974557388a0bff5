// Shared pieces of the repository benchmark: run configuration, the
// workload interface the run loop in main.cpp drives, result accumulation,
// and the accuracy scoring every workload reports against the golden
// gate-level simulator.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "netlist/library.hpp"
#include "netlist/netlist.hpp"
#include "power/add_model.hpp"
#include "power/power_model.hpp"
#include "sim/sequence.hpp"
#include "sim/simulator.hpp"
#include "stats/markov.hpp"

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;          ///< smoke-test sizes
  std::string out_path;       ///< raw result JSON (read by run.py)
  std::string trace_path;     ///< Chrome trace of the traced run
  std::string work_dir = ".";  ///< sockets and other run-time files
};

/// Everything one run measures. Times are seconds unless named _ms.
struct Result {
  std::vector<double> setup_s;        ///< one entry per set-up
  std::vector<double> pass_s;         ///< untraced passes
  std::vector<double> traced_pass_s;  ///< traced passes (traced run only)
  std::vector<double> op_ms;          ///< op latencies of untraced passes
  std::uint64_t transitions = 0;  ///< transitions evaluated, untraced passes
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::map<std::string, double> accuracy;
  std::map<std::string, double> counts;

  /// Counts one attempted op; `ok` false counts it failed with `why`.
  void op(bool ok, const std::string& why);
  void fail(const std::string& why);
};

/// One benchmark workload. The run loop calls setup() (several times in the
/// untraced run, each call replacing the previous state), then
/// prepare_pass() and run_pass() repeatedly; only run_pass() is timed.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  /// Untimed preparation before each pass (default: none).
  virtual void prepare_pass() {}
  /// Runs the fixed op list once. Appends op latencies to `op_ms` (when
  /// non-null), returns the transitions evaluated, and counts attempts and
  /// failures in `r`.
  virtual std::uint64_t run_pass(Result& r, std::vector<double>* op_ms) = 0;
  /// Untimed checks of the pass just run (default: none).
  virtual void verify_pass(Result&) {}
  /// Once, after the last pass: accuracy metrics into r.accuracy.
  virtual void finish(Result& r) = 0;
  /// Per-layer counts over the last set-up and the first pass.
  virtual void counts(Result& r) = 0;
};

std::unique_ptr<Workload> make_build_workload(const Config& c);
std::unique_ptr<Workload> make_estimate_workload(const Config& c);
std::unique_ptr<Workload> make_serve_workload(const Config& c);
std::unique_ptr<Workload> make_chip_workload(const Config& c);

/// Independent stream seed for (run seed, purpose, index).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose,
                          std::uint64_t index = 0);

/// Cell k of `count` spread evenly over the evaluation grid. Op lists take
/// their (sp, st) mix from here, so the seed changes the random streams but
/// never the mix of statistics (generation cost depends on it).
const cfpm::stats::InputStatistics& spread_cell(std::size_t k,
                                                std::size_t count);

/// The experiments' gate library: uniform 5 fF pins, 10 fF external load.
cfpm::netlist::GateLibrary experiment_library();

/// Table-1 circuits with their average and upper-bound node budgets.
struct Circuit {
  const char* name;
  std::size_t avg_max;
  std::size_t bound_max;
};
const std::vector<Circuit>& table1_circuits();

/// Held-out traces of one circuit over the evaluation grid, with their
/// golden energies. The simulator refers to `netlist`, so a Golden must
/// not be moved once built (hold it by unique_ptr).
struct Golden {
  Golden(cfpm::netlist::Netlist n, const cfpm::netlist::GateLibrary& lib);
  Golden(const Golden&) = delete;
  Golden& operator=(const Golden&) = delete;

  /// Generates one `vectors`-long trace per grid cell and simulates it.
  void generate(const std::vector<cfpm::stats::InputStatistics>& grid,
                std::size_t vectors, std::uint64_t seed);

  cfpm::netlist::Netlist netlist;
  cfpm::sim::GateLevelSimulator sim;
  std::vector<cfpm::sim::InputSequence> traces;
  std::vector<cfpm::sim::SequenceEnergy> energy;
};

/// Accumulates the four accuracy metrics over models and grid cells.
class Accuracy {
 public:
  /// Scores an average model on every cell of `g`; the per-model ARE is
  /// the mean |RE| of the per-transition average over the cells.
  void add_average(const cfpm::power::PowerModel& model, const Golden& g);
  /// Scores a bound model: slack (estimate / golden energy) and tightness
  /// (estimated peak / the model's worst case), per cell.
  void add_bound(const cfpm::power::PowerModel& model, const Golden& g);
  /// Overrides bound_tightness (the chip's composed figure).
  void set_tightness(double t) { tightness_override_ = t; }
  void write(std::map<std::string, double>& out) const;

 private:
  std::vector<double> model_are_;
  double slack_sum_ = 0.0;
  double tight_sum_ = 0.0;
  std::size_t bound_cells_ = 0;
  double tightness_override_ = -1.0;
};

/// Per-transition conservativeness check of a bound model on every scored
/// trace of `g`; returns the number of transitions where it undercuts.
std::size_t bound_violations(const cfpm::power::PowerModel& model,
                             const Golden& g);

/// DD and build counters of the ADD models among `models`, added into `r`.
void add_model_counts(
    const std::vector<std::shared_ptr<const cfpm::power::PowerModel>>& models,
    Result& r);

/// Exact bit equality of two doubles (the checks compare results bitwise).
bool same_bits(double a, double b);

double peak_rss_mb();

}  // namespace perfbench
