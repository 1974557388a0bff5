// Per-cell recovery in the experiment grid: a model (or the golden
// reference) that blows up on one grid point must cost exactly that cell,
// not the run -- every other cell completes and the ARE is computed over
// the survivors.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include "eval/experiment.hpp"
#include "netlist/generators.hpp"
#include "power/baselines.hpp"

namespace cfpm::eval {
namespace {

using netlist::GateLibrary;
using netlist::Netlist;

/// A constant model sabotaged to throw on its k-th estimate_block call
/// (calls arrive in nondeterministic order across worker threads, but the
/// count of failures is exact: one). A 200-vector cell is 199 transitions,
/// so each cell makes exactly one block call.
class SabotagedModel : public power::PowerModel {
 public:
  SabotagedModel(double value, std::size_t inputs, int detonate_on_call)
      : value_(value), inputs_(inputs), fuse_(detonate_on_call) {}

  std::string name() const override { return "Sabotaged"; }
  std::size_t num_inputs() const override { return inputs_; }
  double worst_case_ff() const override { return value_; }
  double estimate_ff(std::span<const std::uint8_t>,
                     std::span<const std::uint8_t>) const override {
    return value_;
  }
  void estimate_block(std::span<const std::uint64_t>,
                      std::span<const std::uint64_t>, std::size_t count,
                      std::span<double> out,
                      power::BlockScratch&) const override {
    if (fuse_.fetch_sub(1) == 1) {
      throw std::runtime_error("sabotaged cell detonated");
    }
    std::fill_n(out.begin(), count, value_);
  }

 private:
  double value_;
  std::size_t inputs_;
  mutable std::atomic<int> fuse_;
};

std::vector<stats::InputStatistics> five_point_grid() {
  return {{0.5, 0.5}, {0.5, 0.3}, {0.3, 0.3}, {0.7, 0.3}, {0.5, 0.1}};
}

TEST(GridRecovery, OneBlownCellDoesNotKillTheGrid) {
  const Netlist n = netlist::gen::c17();
  const GateLibrary lib = GateLibrary::standard();
  const sim::GateLevelSimulator golden(n, lib);

  const SabotagedModel bomb(10.0, n.num_inputs(), 3);
  const power::ConstantModel healthy(10.0, n.num_inputs());
  const power::PowerModel* models[] = {&bomb, &healthy};

  EvalOptions options;
  options.run.vectors_per_run = 200;
  const auto grid = five_point_grid();
  const auto reports = evaluate(models, golden, grid, options);
  ASSERT_EQ(reports.size(), 2u);

  // The sabotaged model lost exactly one cell; its report still covers the
  // full grid, with the failure marked and explained.
  const AccuracyReport& wounded = reports[0];
  EXPECT_EQ(wounded.points.size(), grid.size());
  EXPECT_EQ(wounded.failed_points, 1u);
  EXPECT_EQ(wounded.evaluated_points, grid.size() - 1);
  std::size_t marked = 0;
  for (const AccuracyPoint& p : wounded.points) {
    if (p.failed) {
      ++marked;
      EXPECT_NE(p.error.find("detonated"), std::string::npos);
    } else {
      EXPECT_GT(p.golden, 0.0);
    }
  }
  EXPECT_EQ(marked, 1u);

  // The healthy model sharing the run is untouched.
  const AccuracyReport& clean = reports[1];
  EXPECT_EQ(clean.failed_points, 0u);
  EXPECT_EQ(clean.evaluated_points, grid.size());
  for (const AccuracyPoint& p : clean.points) EXPECT_FALSE(p.failed);

  // Identical estimators -> identical ARE contributions on the surviving
  // cells; the wounded ARE averages over one fewer point but every term it
  // does include matches the healthy model's.
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (wounded.points[i].failed) continue;
    EXPECT_DOUBLE_EQ(wounded.points[i].re, clean.points[i].re);
  }
}

TEST(GridRecovery, GoldenReferenceFailureFailsEveryModelCell) {
  const Netlist n = netlist::gen::c17();
  const power::ConstantModel a(5.0, n.num_inputs());
  const power::ConstantModel b(7.0, n.num_inputs());
  const power::PowerModel* models[] = {&a, &b};

  std::atomic<int> fuse{2};
  const ReferenceFn golden = [&](const sim::InputSequence& seq) {
    if (fuse.fetch_sub(1) == 1) {
      throw std::runtime_error("reference simulator crashed");
    }
    sim::SequenceEnergy energy;
    energy.per_transition_ff.assign(seq.num_transitions(), 42.0);
    energy.total_ff = 42.0 * static_cast<double>(seq.num_transitions());
    energy.peak_ff = 42.0;
    return energy;
  };

  EvalOptions options;
  options.run.vectors_per_run = 100;
  const auto grid = five_point_grid();
  const auto reports =
      evaluate(models, Reference(n.num_inputs(), golden), grid, options);
  for (const AccuracyReport& r : reports) {
    EXPECT_EQ(r.failed_points, 1u);
    EXPECT_EQ(r.points.size(), grid.size());
    EXPECT_EQ(r.evaluated_points, grid.size() - 1);
  }
}

TEST(GridRecovery, AllCellsFailedYieldsZeroAreNotNan) {
  const Netlist n = netlist::gen::c17();
  const power::ConstantModel a(5.0, n.num_inputs());
  const power::PowerModel* models[] = {&a};

  const ReferenceFn golden = [](const sim::InputSequence&) -> sim::SequenceEnergy {
    throw std::runtime_error("always down");
  };
  EvalOptions options;
  options.run.vectors_per_run = 50;
  const auto grid = five_point_grid();
  const auto reports =
      evaluate(models, Reference(n.num_inputs(), golden), grid, options);
  EXPECT_EQ(reports[0].failed_points, grid.size());
  EXPECT_EQ(reports[0].evaluated_points, 0u);
  EXPECT_EQ(reports[0].are, 0.0);  // defined, not NaN
}

}  // namespace
}  // namespace cfpm::eval
