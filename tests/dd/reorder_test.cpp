// In-place adjacent swap and sifting: function preservation and size wins.
#include <gtest/gtest.h>

#include <vector>

#include "dd/manager.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"

namespace cfpm::dd {
namespace {

std::vector<double> table_of(const Add& f, std::size_t vars) {
  std::vector<double> t;
  for (unsigned m = 0; m < (1u << vars); ++m) {
    std::vector<std::uint8_t> a(vars);
    for (unsigned v = 0; v < vars; ++v) a[v] = (m >> v) & 1u;
    t.push_back(f.eval(a));
  }
  return t;
}

Add random_add(DdManager& mgr, Xoshiro256& rng, std::size_t vars, int terms) {
  Add f = mgr.constant(0.0);
  for (int i = 0; i < terms; ++i) {
    Bdd v = mgr.bdd_var(static_cast<std::uint32_t>(rng.next_below(vars)));
    Bdd w = mgr.bdd_var(static_cast<std::uint32_t>(rng.next_below(vars)));
    Bdd u = mgr.bdd_var(static_cast<std::uint32_t>(rng.next_below(vars)));
    Bdd prod = rng.next_bool(0.5) ? (v & !w) : ((v ^ w) | u);
    f = f + Add(prod).times(1.0 + static_cast<double>(rng.next_below(9)));
  }
  return f;
}

TEST(Reorder, SwapPreservesFunctions) {
  constexpr std::size_t kVars = 6;
  DdManager mgr(kVars);
  Xoshiro256 rng(17);
  Add f = random_add(mgr, rng, kVars, 8);
  Add g = random_add(mgr, rng, kVars, 5);
  const auto tf = table_of(f, kVars);
  const auto tg = table_of(g, kVars);
  for (std::uint32_t level = 0; level + 1 < kVars; ++level) {
    mgr.swap_adjacent_levels(level);
    EXPECT_EQ(table_of(f, kVars), tf) << "after swap at level " << level;
    EXPECT_EQ(table_of(g, kVars), tg);
  }
}

TEST(Reorder, SwapTwiceIsIdentityOrder) {
  DdManager mgr(4);
  Bdd f = (mgr.bdd_var(0) & mgr.bdd_var(1)) | (mgr.bdd_var(2) ^ mgr.bdd_var(3));
  const std::size_t size_before = f.size();
  mgr.swap_adjacent_levels(1);
  mgr.swap_adjacent_levels(1);
  EXPECT_EQ(mgr.var_at_level(1), 1u);
  EXPECT_EQ(mgr.var_at_level(2), 2u);
  EXPECT_EQ(f.size(), size_before);
}

TEST(Reorder, SiftVariablePreservesFunction) {
  constexpr std::size_t kVars = 7;
  DdManager mgr(kVars);
  Xoshiro256 rng(23);
  Add f = random_add(mgr, rng, kVars, 10);
  const auto tf = table_of(f, kVars);
  for (std::uint32_t v = 0; v < kVars; ++v) {
    mgr.sift_variable(v);
    ASSERT_EQ(table_of(f, kVars), tf) << "after sifting variable " << v;
  }
}

TEST(Reorder, SiftShrinksBadlyOrderedMux) {
  // f = s ? a : b with order (a, b, s): 5 internal nodes; with s on top: 3.
  DdManager mgr(3);
  const std::uint32_t order[] = {1, 2, 0};  // level0=a(var1), level1=b(var2), level2=s(var0)
  mgr.set_order(order);
  Bdd s = mgr.bdd_var(0);
  Bdd a = mgr.bdd_var(1);
  Bdd b = mgr.bdd_var(2);
  Bdd f = s.ite(a, b);
  const std::size_t before = f.size();
  mgr.sift();
  EXPECT_LE(f.size(), before);
  // Function intact.
  for (unsigned m = 0; m < 8; ++m) {
    const std::uint8_t assign[3] = {static_cast<std::uint8_t>(m & 1),
                                    static_cast<std::uint8_t>((m >> 1) & 1),
                                    static_cast<std::uint8_t>((m >> 2) & 1)};
    EXPECT_EQ(f.eval(assign), (assign[0] ? assign[1] : assign[2]) != 0);
  }
}

TEST(Reorder, SiftShrinksInterleavedDependence) {
  // Function with pairwise structure f = sum (x_i AND x_{i+n/2}) is large
  // with blocked order; sifting must find a smaller arrangement.
  constexpr std::size_t kHalf = 5;
  DdManager mgr(2 * kHalf);
  Add f = mgr.constant(0.0);
  for (std::uint32_t i = 0; i < kHalf; ++i) {
    f = f + Add(mgr.bdd_var(i) & mgr.bdd_var(i + kHalf)).times(1.0);
  }
  const std::size_t before = f.size();
  const auto tf = table_of(f, 2 * kHalf);
  mgr.sift();
  EXPECT_LT(f.size(), before);
  EXPECT_EQ(table_of(f, 2 * kHalf), tf);
}

TEST(Reorder, SiftAfterGarbageDoesNotResurrectOrCrash) {
  DdManager mgr(8);
  Xoshiro256 rng(5);
  {
    Add temp = random_add(mgr, rng, 8, 12);
    EXPECT_GT(temp.size(), 1u);
  }  // temp dead
  Add keep = random_add(mgr, rng, 8, 6);
  const auto tk = table_of(keep, 8);
  mgr.sift();
  EXPECT_EQ(table_of(keep, 8), tk);
  EXPECT_EQ(mgr.dead_nodes(), 0u);  // sift() collects garbage
}

TEST(Reorder, HandlesStayValidAcrossManySwaps) {
  constexpr std::size_t kVars = 6;
  DdManager mgr(kVars);
  Xoshiro256 rng(31);
  std::vector<Add> funcs;
  std::vector<std::vector<double>> tables;
  for (int i = 0; i < 5; ++i) {
    funcs.push_back(random_add(mgr, rng, kVars, 6));
    tables.push_back(table_of(funcs.back(), kVars));
  }
  for (int round = 0; round < 50; ++round) {
    mgr.swap_adjacent_levels(
        static_cast<std::uint32_t>(rng.next_below(kVars - 1)));
  }
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    EXPECT_EQ(table_of(funcs[i], kVars), tables[i]) << "function " << i;
  }
}

std::uint64_t cache_wipes() {
  return metrics::snapshot().counter("dd.cache.clear");
}

TEST(Reorder, SiftWipesTheComputedCacheAtMostOnce) {
  constexpr std::size_t kVars = 8;
  DdManager mgr(kVars);
  Xoshiro256 rng(41);
  Add keep = random_add(mgr, rng, kVars, 12);
  { Add temp = random_add(mgr, rng, kVars, 8); }  // dead nodes to sweep
  const auto tk = table_of(keep, kVars);

  // The cache holds entries: the first sift wipes it once, however many of
  // its swaps free a node.
  const std::uint64_t w0 = cache_wipes();
  mgr.sift();
  EXPECT_EQ(cache_wipes(), w0 + 1);

  // Sifting inserts nothing, so the cache is now clean and stays clean.
  mgr.sift();
  EXPECT_EQ(cache_wipes(), w0 + 1);
  { Add temp = mgr.constant(123.5); }  // a dead node made without an apply
  EXPECT_GT(mgr.collect_garbage(), 0u);
  EXPECT_EQ(cache_wipes(), w0 + 1);
  EXPECT_EQ(table_of(keep, kVars), tk);
}

TEST(Reorder, ApplyAfterSiftReusesNoStaleCacheEntry) {
  // Fill the cache, drop every operand, sift (its garbage collection frees
  // them and the free list hands their indices to new functions), then
  // recompute. A cache that survived the sweep would answer the new
  // operands with results computed for the old occupants of their indices.
  constexpr std::size_t kVars = 8;
  struct Term {
    std::uint32_t v, w;
    std::size_t weight;  // index into the live weights
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    DdManager mgr(kVars);
    Xoshiro256 rng(seed);
    std::vector<Add> weights;  // live terminals: stable apply operands
    for (int c = 1; c <= 9; ++c) weights.push_back(mgr.constant(c));
    auto draw = [&] {
      std::vector<Term> terms(10);
      for (Term& t : terms) {
        t.v = static_cast<std::uint32_t>(rng.next_below(kVars));
        t.w = static_cast<std::uint32_t>(rng.next_below(kVars));
        t.weight = rng.next_below(weights.size());
      }
      return terms;
    };
    auto build = [&](const std::vector<Term>& terms) {
      Add f = mgr.constant(0.0);
      for (const Term& t : terms) {
        f = f + Add(mgr.bdd_var(t.v) & !mgr.bdd_var(t.w)) * weights[t.weight];
      }
      return f;
    };
    auto value = [](const std::vector<Term>& terms,
                    const std::vector<std::uint8_t>& a) {
      double sum = 0.0;
      for (const Term& t : terms) {
        if (a[t.v] != 0 && a[t.w] == 0) sum += static_cast<double>(t.weight + 1);
      }
      return sum;
    };
    { Add f = build(draw()), g = build(draw()), h = f * g; }
    mgr.sift();

    const std::vector<Term> tf = draw();
    const std::vector<Term> tg = draw();
    const Add f = build(tf);
    const Add g = build(tg);
    const Add h = f * g;
    for (unsigned m = 0; m < (1u << kVars); ++m) {
      std::vector<std::uint8_t> a(kVars);
      for (unsigned v = 0; v < kVars; ++v) a[v] = (m >> v) & 1u;
      ASSERT_EQ(f.eval(a), value(tf, a)) << "seed " << seed << ", m " << m;
      ASSERT_EQ(g.eval(a), value(tg, a)) << "seed " << seed << ", m " << m;
      ASSERT_EQ(h.eval(a), value(tf, a) * value(tg, a))
          << "seed " << seed << ", m " << m;
    }
  }
}

}  // namespace
}  // namespace cfpm::dd
