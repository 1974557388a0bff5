// Whole-pipeline observability: one model construction plus one evaluation
// grid must leave counters behind in every instrumented subsystem, and the
// trace recorder must capture the corresponding phase spans.
#include <gtest/gtest.h>

#include <sstream>

#include "eval/experiment.hpp"
#include "netlist/generators.hpp"
#include "power/add_model.hpp"
#include "sim/simulator.hpp"
#include "support/deadline.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace cfpm {
namespace {

TEST(Observability, PipelineLeavesCountersInEverySubsystem) {
  metrics::reset_for_testing();

  const netlist::Netlist n = netlist::gen::mcnc_like("cm85");
  const netlist::GateLibrary lib = netlist::GateLibrary::uniform(5.0, 10.0);
  const sim::GateLevelSimulator golden(n, lib);

  power::AddModelOptions opt;
  opt.max_nodes = 200;
  opt.deadline = deadline_after(60 * 60 * 1000);
  const auto model = power::AddPowerModel::build(n, lib, opt);

  eval::EvalOptions options;
  options.run.vectors_per_run = 200;
  const std::vector<stats::InputStatistics> grid = {{0.5, 0.5}, {0.5, 0.2}};
  const power::PowerModel* model_ptr = &model;
  const auto report =
      eval::evaluate(std::span(&model_ptr, 1), golden, grid, options)[0];
  EXPECT_EQ(report.evaluated_points, grid.size());

  const metrics::Snapshot s = metrics::snapshot();
  // dd: the symbolic build allocates nodes and exercises the apply cache.
  EXPECT_GT(s.counter("dd.node.alloc"), 0u);
  EXPECT_GT(s.counter("dd.cache.hit") + s.counter("dd.cache.miss"), 0u);
  EXPECT_GT(s.counter("dd.compile.run"), 0u);
  // power: gates summed during construction, traces estimated during eval.
  EXPECT_GT(s.counter("power.build.gate.summed"), 0u);
  EXPECT_GT(s.counter("power.trace.call"), 0u);
  // deadline: the set deadline was checked during the build.
  EXPECT_GT(s.counter("deadline.check.run"), 0u);
  EXPECT_EQ(s.counter("deadline.expired"), 0u);
  // eval + sim: one grid run, one golden simulation per cell.
  EXPECT_EQ(s.counter("eval.grid.run"), 1u);
  EXPECT_EQ(s.counter("eval.grid.cell"), grid.size());
  EXPECT_GE(s.counter("sim.golden.run"), grid.size());
  // Timing histogram: one observation per evaluated cell.
  const auto* cell_us = s.histogram("eval.grid.cell_us");
  ASSERT_NE(cell_us, nullptr);
  EXPECT_EQ(cell_us->count, grid.size());
}

TEST(Observability, PhaseSpansCoverBuildAndEvaluation) {
  trace::clear();
  trace::set_enabled(true);

  const netlist::Netlist n = netlist::gen::c17();
  const netlist::GateLibrary lib = netlist::GateLibrary::uniform(5.0, 10.0);
  const sim::GateLevelSimulator golden(n, lib);
  power::AddModelOptions opt;
  opt.max_nodes = 0;
  const auto model = power::AddPowerModel::build(n, lib, opt);

  eval::EvalOptions options;
  options.run.vectors_per_run = 100;
  const std::vector<stats::InputStatistics> grid = {{0.5, 0.5}};
  const power::PowerModel* model_ptr = &model;
  (void)eval::evaluate(std::span(&model_ptr, 1), golden, grid, options);

  trace::set_enabled(false);
  std::ostringstream os;
  trace::write_chrome_json(os);
  const std::string json = os.str();
  trace::clear();

  EXPECT_NE(json.find("\"power.build\""), std::string::npos);
  EXPECT_NE(json.find("\"eval.grid\""), std::string::npos);
  EXPECT_NE(json.find("\"eval.cell\""), std::string::npos);
  EXPECT_NE(json.find("\"sim.golden\""), std::string::npos);
}

}  // namespace
}  // namespace cfpm
