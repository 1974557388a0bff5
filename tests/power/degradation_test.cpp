// Deadline-fallback tests: an expired deadline during model construction
// must yield a *usable* constant model, with the reason recorded in the
// build info, and must propagate unchanged when degradation is disabled.
#include <gtest/gtest.h>

#include <cmath>
#include <new>
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

/// Sanity harness: any model the fallback hands back must be evaluable and
/// produce finite, non-negative values.
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
  EXPECT_TRUE(model.build_info().fallback_reason.empty());
}

TEST_F(DegradationLadder, TinyManagerCapHalvesDownToFallback) {
  // A tight MAX does not matter once the deadline has expired: the build
  // falls straight back to the constant model instead of throwing.
  const Netlist n = netlist::gen::ripple_carry_adder(6);
  AddModelOptions opt;
  opt.max_nodes = 256;
  opt.deadline = deadline_after(0);
  const AddPowerModel model =
      AddPowerModel::build(n, GateLibrary::standard(), opt);

  EXPECT_EQ(model.build_info().outcome, BuildOutcome::kFallback);
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
  opt.deadline = deadline_after(0);  // force fallback
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
  opt.deadline = deadline_after(0);
  const AddPowerModel model =
      AddPowerModel::build(n, GateLibrary::standard(), opt);

  EXPECT_EQ(model.build_info().outcome, BuildOutcome::kFallback);
  EXPECT_NE(model.build_info().fallback_reason.find("deadline"),
            std::string::npos);
  expect_usable(model, n);
}

TEST_F(DegradationLadder, DisabledLadderRethrows) {
  const Netlist n = netlist::gen::ripple_carry_adder(6);
  AddModelOptions opt;
  opt.degrade = false;
  opt.deadline = deadline_after(0);
  EXPECT_THROW(AddPowerModel::build(n, GateLibrary::standard(), opt),
               DeadlineExceeded);

  // An injected deadline deep inside the DD core propagates the same way.
  failpoint::arm_from_spec("dd.allocate_node=throw_deadline:1");
  AddModelOptions opt2;
  opt2.degrade = false;
  EXPECT_THROW(AddPowerModel::build(n, GateLibrary::standard(), opt2),
               DeadlineExceeded);
}

TEST_F(DegradationLadder, OnlyADeadlineFallsBack) {
  // Degradation answers an expired deadline only: any other failure
  // propagates even with degrade on.
  const Netlist n = netlist::gen::ripple_carry_adder(5);
  failpoint::arm_from_spec("dd.allocate_node=throw_bad_alloc:1");
  EXPECT_THROW(AddPowerModel::build(n, GateLibrary::standard(), {}),
               std::bad_alloc);

  failpoint::arm_from_spec("dd.allocate_node=throw_deadline:1");
  const AddPowerModel model =
      AddPowerModel::build(n, GateLibrary::standard(), {});
  EXPECT_EQ(model.build_info().outcome, BuildOutcome::kFallback);
  EXPECT_NE(model.build_info().fallback_reason.find("injected"),
            std::string::npos);
}

}  // namespace
}  // namespace cfpm::power
