#include "dd/manager.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "support/deadline.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"

namespace cfpm::dd {
namespace {

TEST(DdManager, ConstantsAreHashConsed) {
  DdManager mgr(2);
  Add a = mgr.constant(3.5);
  Add b = mgr.constant(3.5);
  EXPECT_EQ(a, b);
  Add c = mgr.constant(4.0);
  EXPECT_FALSE(a == c);
}

TEST(DdManager, NegativeZeroNormalized) {
  DdManager mgr(1);
  EXPECT_EQ(mgr.constant(0.0), mgr.constant(-0.0));
}

TEST(DdManager, ZeroAndOneDistinct) {
  DdManager mgr(1);
  EXPECT_FALSE(mgr.bdd_zero() == mgr.bdd_one());
  EXPECT_TRUE(mgr.bdd_zero().is_zero());
  EXPECT_TRUE(mgr.bdd_one().is_one());
}

TEST(DdManager, VarsAreCanonical) {
  DdManager mgr(3);
  Bdd x0 = mgr.bdd_var(0);
  Bdd x0b = mgr.bdd_var(0);
  EXPECT_EQ(x0, x0b);
  EXPECT_FALSE(x0 == mgr.bdd_var(1));
}

TEST(DdManager, NewVarExtends) {
  DdManager mgr(0);
  EXPECT_EQ(mgr.num_vars(), 0u);
  const auto v = mgr.new_var();
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(mgr.num_vars(), 1u);
  Bdd x = mgr.bdd_var(v);
  EXPECT_FALSE(x.is_zero());
}

TEST(DdManager, BddVarOutOfRangeThrows) {
  DdManager mgr(2);
  EXPECT_THROW(mgr.bdd_var(2), ContractError);
}

TEST(DdManager, HandleCopySemantics) {
  DdManager mgr(2);
  Bdd x = mgr.bdd_var(0);
  Bdd y = x;  // copy
  EXPECT_EQ(x, y);
  Bdd z = std::move(y);
  EXPECT_EQ(x, z);
  EXPECT_TRUE(y.is_null());  // NOLINT(bugprone-use-after-move)
}

TEST(DdManager, SelfAssignmentSafe) {
  DdManager mgr(2);
  Bdd x = mgr.bdd_var(0);
  Bdd& ref = x;
  x = ref;
  EXPECT_FALSE(x.is_null());
}

TEST(DdManager, GarbageCollectionReclaimsDeadNodes) {
  DdManager mgr(8);
  {
    Bdd f = mgr.bdd_var(0);
    for (std::uint32_t v = 1; v < 8; ++v) f = f ^ mgr.bdd_var(v);
    EXPECT_GT(mgr.live_nodes(), 8u);
  }
  // All intermediate results are dead now.
  EXPECT_GT(mgr.dead_nodes(), 0u);
  const std::size_t reclaimed = mgr.collect_garbage();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_EQ(mgr.dead_nodes(), 0u);
}

TEST(DdManager, ResurrectionAfterDeath) {
  DdManager mgr(2);
  Bdd x0 = mgr.bdd_var(0);
  Bdd x1 = mgr.bdd_var(1);
  {
    Bdd f = x0 & x1;
    EXPECT_FALSE(f.is_null());
  }
  // f is dead but not collected; recreating the same function must
  // resurrect it without corrupting counts.
  Bdd g = x0 & x1;
  Bdd h = x0 & x1;
  EXPECT_EQ(g, h);
  mgr.collect_garbage();
  EXPECT_FALSE(g.is_null());
  // g still evaluates correctly after GC.
  const std::uint8_t assign[2] = {1, 1};
  EXPECT_TRUE(g.eval(assign));
}

/// Allocates fresh terminals until the manager throws DeadlineExceeded and
/// returns how many allocations succeeded first.
std::size_t allocations_until_deadline(DdManager& mgr) {
  for (std::size_t made = 0; made < 8 * kDeadlineCheckInterval; ++made) {
    try {
      mgr.constant(1e6 + static_cast<double>(made));
    } catch (const DeadlineExceeded&) {
      return made;
    }
  }
  ADD_FAILURE() << "the expired deadline never fired";
  return 8 * kDeadlineCheckInterval;
}

TEST(DdManager, ZeroDeadlineStopsAllocationWithinCheckInterval) {
  DdManager mgr(2, deadline_after(0));
  EXPECT_LT(allocations_until_deadline(mgr), kDeadlineCheckInterval);
  EXPECT_EQ(mgr.unique_table_nodes(), mgr.live_nodes() + mgr.dead_nodes());

  // Without a deadline the same loop runs to the end.
  DdManager unbounded(2);
  for (std::size_t i = 0; i < 4 * kDeadlineCheckInterval; ++i) {
    unbounded.constant(1e6 + static_cast<double>(i));
  }
}

TEST(DdManager, DeadlineNeverFiresInsideALevelSwap) {
  constexpr std::uint32_t kVars = 6;
  DdManager mgr(kVars, deadline_after(0));
  // f = sum_k 2^k x_k: one terminal per assignment, built in far fewer than
  // kDeadlineCheckInterval allocations, so no check has run yet.
  Add f = mgr.constant(0.0);
  for (std::uint32_t k = 0; k < kVars; ++k) {
    f = f + Add(mgr.bdd_var(k)).times(static_cast<double>(1u << k));
  }

  // Swaps allocate well over a check interval's worth of nodes with the
  // deadline long expired: none of those allocations may throw, because a
  // half-relabeled level cannot be unwound.
  const std::uint64_t before = mgr.node_allocs();
  for (std::uint32_t i = 0; i < 400; ++i) {
    mgr.swap_adjacent_levels(i % (kVars - 1));
  }
  EXPECT_GE(mgr.node_allocs() - before, kDeadlineCheckInterval);

  // Sifting checks between whole swaps, so it stops at once and leaves
  // every function intact.
  EXPECT_THROW(mgr.sift(), DeadlineExceeded);
  EXPECT_EQ(mgr.unique_table_nodes(), mgr.live_nodes() + mgr.dead_nodes());
  std::vector<std::uint8_t> assignment(kVars, 0);
  assignment[1] = 1;
  assignment[4] = 1;
  EXPECT_DOUBLE_EQ(f.eval(assignment), 2.0 + 16.0);

  // Outside reordering the next check interval catches the deadline.
  EXPECT_LT(allocations_until_deadline(mgr), kDeadlineCheckInterval);
}

TEST(DdManager, SetOrderValidation) {
  DdManager mgr(3);
  const std::uint32_t good[] = {2, 0, 1};
  mgr.set_order(good);
  EXPECT_EQ(mgr.var_at_level(0), 2u);
  EXPECT_EQ(mgr.level_of_var(2), 0u);
  const std::uint32_t bad[] = {0, 0, 1};
  EXPECT_THROW(mgr.set_order(bad), ContractError);
}

TEST(DdManager, SetOrderAffectsStructure) {
  // With order (x1, x0), the top node of x0&x1 is labeled x1.
  DdManager mgr(2);
  const std::uint32_t order[] = {1, 0};
  mgr.set_order(order);
  Bdd f = mgr.bdd_var(0) & mgr.bdd_var(1);
  const auto sup = f.support();
  ASSERT_EQ(sup.size(), 2u);
  // Evaluation is order-independent.
  const std::uint8_t a11[2] = {1, 1};
  const std::uint8_t a10[2] = {1, 0};
  EXPECT_TRUE(f.eval(a11));
  EXPECT_FALSE(f.eval(a10));
}

TEST(DdManager, HandleEqualityIsPerManager) {
  // Regression: handle equality used to compare only the node reference,
  // so structurally identical functions from different managers -- whose
  // arena indices coincide by construction order -- compared equal.
  DdManager mgr_a(2);
  DdManager mgr_b(2);
  Bdd fa = mgr_a.bdd_var(0) & mgr_a.bdd_var(1);
  Bdd fb = mgr_b.bdd_var(0) & mgr_b.bdd_var(1);
  EXPECT_FALSE(fa == fb);
  EXPECT_TRUE(fa != fb);
  // Same manager, same function: still equal (hash-consing).
  Bdd fa2 = mgr_a.bdd_var(1) & mgr_a.bdd_var(0);
  EXPECT_TRUE(fa == fa2);
  // A function and its complement share a node but differ in the edge tag.
  EXPECT_FALSE(fa == !fa);
}

TEST(DdManager, CacheStatisticsAdvance) {
  DdManager mgr(6);
  Bdd f = mgr.bdd_var(0);
  for (std::uint32_t v = 1; v < 6; ++v) f = f & mgr.bdd_var(v);
  Bdd g = mgr.bdd_var(0);
  for (std::uint32_t v = 1; v < 6; ++v) g = g & mgr.bdd_var(v);
  EXPECT_EQ(f, g);
  EXPECT_GT(mgr.cache_lookups(), 0u);
}

TEST(DdManager, PublishesExactCountsByDestruction) {
  const metrics::Snapshot before = metrics::snapshot();
  std::uint64_t allocs = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  {
    DdManager mgr(6);
    auto weighted_sum = [&mgr] {
      Add f = mgr.constant(0.0);
      for (std::uint32_t v = 0; v < 6; ++v) {
        f = f + Add(mgr.bdd_var(v)).times(static_cast<double>(v + 1));
      }
      return f;
    };
    const Add f = weighted_sum();
    const Add g = weighted_sum();  // same applies again: cache hits
    EXPECT_EQ(f, g);
    allocs = mgr.node_allocs();
    hits = mgr.cache_hits();
    misses = mgr.cache_lookups() - hits;
  }
  EXPECT_GT(allocs, 0u);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
  const metrics::Snapshot after = metrics::snapshot();
  EXPECT_EQ(after.counter("dd.node.alloc") - before.counter("dd.node.alloc"),
            allocs);
  EXPECT_EQ(after.counter("dd.cache.hit") - before.counter("dd.cache.hit"),
            hits);
  EXPECT_EQ(after.counter("dd.cache.miss") - before.counter("dd.cache.miss"),
            misses);
}

}  // namespace
}  // namespace cfpm::dd
