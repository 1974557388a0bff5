// Structural invariants of the breadth-first-packed CompiledDd layout: the
// packed sweep (eval_packed_wide) depends on every one of them, so
// they are pinned here independently of the evaluation equivalence tests.
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "dd/approx.hpp"
#include "dd/compiled.hpp"
#include "dd/manager.hpp"
#include "netlist/generators.hpp"
#include "netlist/library.hpp"
#include "power/add_model.hpp"

namespace cfpm {
namespace {

using dd::CompiledDd;

power::AddPowerModel layout_model(int index, std::size_t max_nodes) {
  netlist::gen::RandomLogicSpec spec;
  spec.name = "layout" + std::to_string(index);
  spec.num_inputs = 5 + index % 8;
  spec.num_outputs = 1 + index % 4;
  spec.target_gates = 14 + 3 * index;
  spec.window = 5;
  spec.seed = 9100 + static_cast<std::uint64_t>(index);
  const netlist::Netlist n = netlist::gen::random_logic(spec);
  power::AddModelOptions opt;
  opt.max_nodes = max_nodes;
  return power::AddPowerModel::build(n, netlist::GateLibrary::standard(), opt);
}

void check_layout(const CompiledDd& c, const std::string& context) {
  SCOPED_TRACE(context);
  const auto nodes = c.nodes();
  const auto offsets = c.level_offsets();
  const std::size_t internals = c.num_internal_nodes();

  // One half-open segment per populated level, covering exactly the
  // internal prefix of the node array.
  ASSERT_EQ(offsets.size(), c.depth() + 1);
  ASSERT_EQ(offsets.back(), internals);
  if (internals > 0) {
    ASSERT_EQ(offsets.front(), 0u);
    EXPECT_EQ(c.root(), 0u) << "root must be the first packed node";
  }

  std::uint32_t prev_var = 0;
  for (std::size_t d = 0; d + 1 < offsets.size(); ++d) {
    ASSERT_LT(offsets[d], offsets[d + 1]) << "empty level segment " << d;
    // Level contiguity: every node of a segment tests the same variable,
    // and segment variables never repeat (each level appears once).
    const std::uint32_t var = nodes[offsets[d]].var;
    for (std::uint32_t i = offsets[d]; i < offsets[d + 1]; ++i) {
      EXPECT_EQ(nodes[i].var, var) << "mixed variables in segment " << d;
    }
    if (d > 0) {
      EXPECT_NE(var, prev_var) << "level split across segments";
    }
    prev_var = var;
  }

  // Children strictly forward (the single-pass sweep requires it) and
  // kFirstEdge set on exactly the first incoming edge in sweep order.
  std::vector<bool> seen(nodes.size(), false);
  for (std::uint32_t i = 0; i < internals; ++i) {
    for (const std::uint32_t edge : {nodes[i].hi, nodes[i].lo}) {
      const std::uint32_t child = edge & CompiledDd::kIndexMask;
      ASSERT_GT(child, i) << "backward edge from node " << i;
      ASSERT_LT(child, nodes.size());
      EXPECT_EQ((edge & CompiledDd::kFirstEdge) != 0, !seen[child])
          << "kFirstEdge wrong on edge " << i << " -> " << child;
      seen[child] = true;
    }
  }

  // Cache-block width: a power of two within [1, kPackedGroups] that
  // respects the scratch budget (or the floor of 1).
  const std::size_t groups = c.sweep_groups();
  EXPECT_TRUE(std::has_single_bit(groups));
  EXPECT_GE(groups, 1u);
  EXPECT_LE(groups, CompiledDd::kPackedGroups);
  EXPECT_TRUE(groups == 1 ||
              c.num_nodes() * groups * sizeof(std::uint64_t) <=
                  CompiledDd::kSweepScratchBudget);
  if (groups < CompiledDd::kPackedGroups) {
    // The chosen width is maximal: doubling it would blow the budget.
    EXPECT_GT(c.num_nodes() * 2 * groups * sizeof(std::uint64_t),
              CompiledDd::kSweepScratchBudget);
  }
}

TEST(CompiledLayout, InvariantsHoldOnRandomModels) {
  for (int i = 0; i < 16; ++i) {
    const auto model = layout_model(i, i % 2 == 0 ? 0 : 48);
    check_layout(model.compiled(), "model " + std::to_string(i));
  }
}

TEST(CompiledLayout, InvariantsHoldAfterApproximationRepack) {
  // Approximation rebuilds the diagram, so a fresh compile must restore
  // every packing invariant on the collapsed shape too.
  for (int i = 0; i < 8; ++i) {
    const auto model = layout_model(i, 12);
    const dd::Add cut =
        dd::approximate_to(model.function(), 6, dd::ApproxMode::kAverage);
    check_layout(CompiledDd::compile(cut), "approx model " + std::to_string(i));
  }
}

TEST(CompiledLayout, ConstantDiagramHasNoLevels) {
  dd::DdManager mgr(4);
  const CompiledDd c = CompiledDd::compile(mgr.constant(3.25));
  EXPECT_EQ(c.depth(), 0u);
  EXPECT_EQ(c.num_internal_nodes(), 0u);
  ASSERT_EQ(c.level_offsets().size(), 1u);
  EXPECT_EQ(c.level_offsets().front(), 0u);
  EXPECT_EQ(c.sweep_groups(), CompiledDd::kPackedGroups);
}

}  // namespace
}  // namespace cfpm
