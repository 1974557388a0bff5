// Degradation-ladder tests: injected resource faults and expired deadlines
// during model construction must yield a *usable* model via the ladder
// (force-approximate -> halved budgets -> constant fallback), with every
// rung recorded in the build info, and must propagate unchanged when the
// ladder is disabled.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "netlist/generators.hpp"
#include "power/add_model.hpp"
#include "support/deadline.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"

namespace cfpm::power {
namespace {

using netlist::GateLibrary;
using netlist::Netlist;

/// Sanity harness: any model the ladder hands back must be evaluable and,
/// in bound mode, must dominate a handful of sampled transitions... but
/// even in average mode it must at least produce finite values.
void expect_usable(const AddPowerModel& model, const Netlist& n) {
  EXPECT_EQ(model.num_inputs(), n.num_inputs());
  std::vector<std::uint8_t> xi(n.num_inputs(), 0), xf(n.num_inputs(), 1);
  const double v = model.estimate_ff(xi, xf);
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_GE(model.worst_case_ff(), 0.0);
}

class DegradationLadder : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::disarm_all(); }
  void TearDown() override { failpoint::disarm_all(); }
};

TEST_F(DegradationLadder, CleanBuildTakesNoRung) {
  const Netlist n = netlist::gen::c17();
  const AddPowerModel model =
      AddPowerModel::build(n, GateLibrary::standard(), {});
  EXPECT_EQ(model.build_info().outcome, BuildOutcome::kClean);
  EXPECT_TRUE(model.build_info().rungs.empty());
  EXPECT_EQ(model.build_info().attempts, 1u);
}

TEST_F(DegradationLadder, InjectedResourceFaultRecoversWithRungsRecorded) {
  const Netlist n = netlist::gen::ripple_carry_adder(6);
  // The first attempt dies at its first node allocation, the ladder retries
  // (the one-shot fault is then spent) and must succeed.
  failpoint::arm_from_spec("dd.allocate_node=throw_resource:1");

  AddModelOptions opt;
  opt.max_nodes = 500;
  const AddPowerModel model =
      AddPowerModel::build(n, GateLibrary::standard(), opt);

  EXPECT_EQ(model.build_info().outcome, BuildOutcome::kDegraded);
  ASSERT_FALSE(model.build_info().rungs.empty());
  EXPECT_GE(model.build_info().attempts, 2u);
  // The rung records why it was taken.
  EXPECT_NE(model.build_info().rungs[0].reason.find("injected"),
            std::string::npos);
  expect_usable(model, n);
}

TEST_F(DegradationLadder, TinyManagerCapHalvesDownToFallback) {
  // A manager cap so small that even approximate retries blow it: the
  // ladder must walk halve-max-nodes rungs and surrender to the constant
  // fallback instead of throwing.
  const Netlist n = netlist::gen::ripple_carry_adder(6);
  AddModelOptions opt;
  opt.max_nodes = 256;
  opt.degrade_floor = 16;
  opt.dd_config.max_nodes = 40;  // absurdly tight hard cap
  const AddPowerModel model =
      AddPowerModel::build(n, GateLibrary::standard(), opt);

  EXPECT_EQ(model.build_info().outcome, BuildOutcome::kFallback);
  ASSERT_FALSE(model.build_info().rungs.empty());
  EXPECT_EQ(model.build_info().rungs.back().action, "fallback-constant");
  expect_usable(model, n);
  // The fallback is a constant: every transition gets the same estimate.
  std::vector<std::uint8_t> a(n.num_inputs(), 0), b(n.num_inputs(), 1);
  EXPECT_DOUBLE_EQ(model.estimate_ff(a, a), model.estimate_ff(a, b));
}

TEST_F(DegradationLadder, FallbackUpperBoundDominatesGolden) {
  // In bound mode the constant fallback is the total driven load, which
  // dominates any single transition's switched capacitance.
  const Netlist n = netlist::gen::c17();
  AddModelOptions opt;
  opt.mode = dd::ApproxMode::kUpperBound;
  opt.max_nodes = 64;
  opt.dd_config.max_nodes = 30;  // force fallback
  const GateLibrary lib = GateLibrary::standard();
  const AddPowerModel model = AddPowerModel::build(n, lib, opt);
  ASSERT_EQ(model.build_info().outcome, BuildOutcome::kFallback);
  EXPECT_TRUE(model.is_upper_bound());

  const std::vector<double> loads = n.annotate_loads(lib);
  double total = 0.0;
  for (netlist::SignalId s = 0; s < n.num_signals(); ++s) {
    if (!n.signal(s).is_input) total += loads[s];
  }
  std::vector<std::uint8_t> a(n.num_inputs(), 0), b(n.num_inputs(), 1);
  EXPECT_DOUBLE_EQ(model.estimate_ff(a, b), total);
}

TEST_F(DegradationLadder, ExpiredDeadlineSurrendersToConstant) {
  const Netlist n = netlist::gen::ripple_carry_adder(6);
  AddModelOptions opt;
  opt.dd_config.deadline = deadline_after(0);
  const AddPowerModel model =
      AddPowerModel::build(n, GateLibrary::standard(), opt);

  EXPECT_EQ(model.build_info().outcome, BuildOutcome::kFallback);
  ASSERT_EQ(model.build_info().rungs.size(), 1u);
  EXPECT_EQ(model.build_info().rungs[0].action, "fallback-constant");
  EXPECT_NE(model.build_info().rungs[0].reason.find("deadline"),
            std::string::npos);
  expect_usable(model, n);
}

TEST_F(DegradationLadder, DisabledLadderRethrows) {
  const Netlist n = netlist::gen::ripple_carry_adder(6);
  AddModelOptions opt;
  opt.degrade = false;
  opt.dd_config.max_nodes = 40;
  EXPECT_THROW(AddPowerModel::build(n, GateLibrary::standard(), opt),
               ResourceError);

  AddModelOptions opt2;
  opt2.degrade = false;
  opt2.dd_config.deadline = deadline_after(0);
  EXPECT_THROW(AddPowerModel::build(n, GateLibrary::standard(), opt2),
               DeadlineExceeded);
}

TEST_F(DegradationLadder, DegradedAverageModelStaysInRange) {
  // A degraded average model is approximate, not garbage: its global
  // average must stay within the function's min/max envelope and its
  // estimates must be non-negative.
  const Netlist n = netlist::gen::ripple_carry_adder(5);
  failpoint::arm_from_spec("dd.allocate_node=throw_resource:1");

  AddModelOptions opt;
  opt.max_nodes = 200;
  const AddPowerModel model =
      AddPowerModel::build(n, GateLibrary::standard(), opt);
  EXPECT_NE(model.build_info().outcome, BuildOutcome::kClean);
  EXPECT_GE(model.average_estimate_ff(), 0.0);
  EXPECT_LE(model.average_estimate_ff(), model.worst_case_ff() + 1e-9);
}

}  // namespace
}  // namespace cfpm::power
