// Exception-safety regression tests for DdManager: an allocation fault
// (injected through the `dd.allocate_node` failpoint as std::bad_alloc)
// thrown from the middle of an apply must leave the manager
// fully usable -- unique table consistent with the reference counts,
// garbage collectible, and able to complete the same construction
// afterwards.
#include <gtest/gtest.h>

#include <new>

#include "dd/approx.hpp"
#include "dd/manager.hpp"
#include "support/failpoint.hpp"

namespace cfpm::dd {
namespace {

/// Weighted sum  f = sum_k 2^k x_k  over `vars` variables: its ADD has one
/// terminal per assignment, so the node count grows as 2^vars -- an easy
/// way to blow any budget mid-apply.
Add weighted_sum(DdManager& mgr, std::uint32_t vars) {
  Add f = mgr.constant(0.0);
  for (std::uint32_t k = 0; k < vars; ++k) {
    f = f + Add(mgr.bdd_var(k)).times(static_cast<double>(1u << k));
  }
  return f;
}

/// The invariant every throw must preserve: each allocated node is chained
/// in exactly one unique table, live or dead alike.
void expect_table_consistent(const DdManager& mgr) {
  EXPECT_EQ(mgr.unique_table_nodes(), mgr.live_nodes() + mgr.dead_nodes());
}

/// Arms a one-shot std::bad_alloc at the next node allocation.
void arm_allocation_fault() {
  failpoint::arm_from_spec("dd.allocate_node=throw_bad_alloc:1");
}

/// Builds the first `prefix` terms of weighted_sum, arms the allocation
/// fault, then adds the next term: the throw comes from allocate_node
/// underneath the recursive apply of that addition.
void fault_inside_apply(DdManager& mgr, std::uint32_t prefix) {
  const Add partial = weighted_sum(mgr, prefix);
  const Add term =
      Add(mgr.bdd_var(prefix)).times(static_cast<double>(1u << prefix));
  arm_allocation_fault();
  EXPECT_THROW(partial + term, std::bad_alloc) << "prefix " << prefix;
}

class ExceptionSafety : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::disarm_all(); }
  void TearDown() override { failpoint::disarm_all(); }
};

TEST_F(ExceptionSafety, NodeBudgetThrowMidApplyLeavesManagerUsable) {
  DdManager mgr(16);

  Add survivor = weighted_sum(mgr, 4);  // small; completes comfortably
  // A fault deep in a large construction: adding the 13th term to a sum
  // with 4096 leaves.
  fault_inside_apply(mgr, 12);

  // The failed construction's intermediates were dereferenced on unwind.
  expect_table_consistent(mgr);

  // The handle built before the fault is intact and evaluable.
  std::vector<std::uint8_t> assignment(16, 1);
  EXPECT_DOUBLE_EQ(survivor.eval(assignment), 15.0);

  // After a forced GC nothing dead remains and the table shrinks to
  // exactly the externally referenced DAGs.
  mgr.collect_garbage();
  EXPECT_EQ(mgr.dead_nodes(), 0u);
  EXPECT_EQ(mgr.unique_table_nodes(), mgr.live_nodes());

  // The manager still builds new functions afterwards.
  Add again = weighted_sum(mgr, 5);
  EXPECT_DOUBLE_EQ(again.eval(assignment), 31.0);
}

TEST_F(ExceptionSafety, AllocationFaultFiresOnceAtTheNextAllocation) {
  DdManager mgr(2);
  arm_allocation_fault();
  EXPECT_THROW(mgr.constant(42.0), std::bad_alloc);
  EXPECT_TRUE(failpoint::armed().empty());
  expect_table_consistent(mgr);
  EXPECT_DOUBLE_EQ(mgr.constant(42.0).max_value(), 42.0);
}

TEST_F(ExceptionSafety, InjectedFaultThenExactRebuildSucceeds) {
  DdManager mgr(10);

  // Fault the addition of the sixth term, a little way into the
  // construction.
  fault_inside_apply(mgr, 5);
  expect_table_consistent(mgr);

  mgr.collect_garbage();
  EXPECT_EQ(mgr.dead_nodes(), 0u);
  EXPECT_EQ(mgr.unique_table_nodes(), mgr.live_nodes());

  // The fault disarmed itself; the very same exact build now succeeds on
  // the same manager and computes correct values.
  Add f = weighted_sum(mgr, 10);
  std::vector<std::uint8_t> assignment(10, 0);
  assignment[3] = 1;
  assignment[7] = 1;
  EXPECT_DOUBLE_EQ(f.eval(assignment), 8.0 + 128.0);
}

TEST_F(ExceptionSafety, ThrowDuringApproximationRebuild) {
  // The approximation rebuild allocates into the same manager; an injected
  // fault there must unwind without leaking the partial rebuild.
  DdManager gmgr(12);
  Add g = weighted_sum(gmgr, 12);
  arm_allocation_fault();
  EXPECT_THROW(approximate_to(g, 64, ApproxMode::kUpperBound),
               std::bad_alloc);
  EXPECT_EQ(gmgr.unique_table_nodes(),
            gmgr.live_nodes() + gmgr.dead_nodes());

  // Original function unharmed, manager still works: the same
  // approximation succeeds now that the fault is disarmed.
  Add approx = approximate_to(g, 64, ApproxMode::kUpperBound);
  EXPECT_LE(approx.size(), 64u);
  // Upper-bound collapse dominates pointwise.
  std::vector<std::uint8_t> assignment(12, 1);
  EXPECT_GE(approx.eval(assignment), g.eval(assignment) - 1e-9);
}

TEST_F(ExceptionSafety, RepeatedFaultsDoNotAccumulateLeaks) {
  // Hammer the same manager with faults at varying depths; the node
  // population must return to the baseline every time once handles drop.
  DdManager mgr(10);

  mgr.collect_garbage();
  const std::size_t baseline = [&] {
    // Terminals 0/1 plus whatever the constant pool holds.
    return mgr.live_nodes();
  }();

  // Each round faults the addition of a different term, after a longer
  // prefix of the sum.
  for (std::uint32_t prefix = 1; prefix <= 8; ++prefix) {
    fault_inside_apply(mgr, prefix);
    expect_table_consistent(mgr);
  }
  mgr.collect_garbage();
  EXPECT_EQ(mgr.live_nodes(), baseline);
  EXPECT_EQ(mgr.unique_table_nodes(), mgr.live_nodes());
}

}  // namespace
}  // namespace cfpm::dd
