// avg/var/max/min traversals (Eq. 5-8) against brute-force enumeration.
#include "dd/stats.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dd/dd_internal.hpp"
#include "dd/manager.hpp"
#include "support/rng.hpp"

namespace cfpm::dd {
namespace {

constexpr std::size_t kVars = 5;

Add random_add(DdManager& mgr, Xoshiro256& rng) {
  Add f = mgr.constant(0.0);
  for (int i = 0; i < 5; ++i) {
    Bdd v = mgr.bdd_var(static_cast<std::uint32_t>(rng.next_below(kVars)));
    Bdd w = mgr.bdd_var(static_cast<std::uint32_t>(rng.next_below(kVars)));
    f = f + Add(v & w).times(1.0 + static_cast<double>(rng.next_below(10)));
  }
  return f;
}

struct BruteStats {
  double avg = 0, var = 0, max = 0, min = 0;
};

BruteStats brute_force(const Add& f) {
  std::vector<double> values;
  for (unsigned m = 0; m < (1u << kVars); ++m) {
    std::uint8_t a[kVars];
    for (unsigned v = 0; v < kVars; ++v) a[v] = (m >> v) & 1u;
    values.push_back(f.eval(std::span<const std::uint8_t>(a, kVars)));
  }
  BruteStats s;
  s.max = values[0];
  s.min = values[0];
  for (double v : values) {
    s.avg += v;
    s.max = std::max(s.max, v);
    s.min = std::min(s.min, v);
  }
  s.avg /= static_cast<double>(values.size());
  for (double v : values) s.var += (v - s.avg) * (v - s.avg);
  s.var /= static_cast<double>(values.size());
  return s;
}

class StatsRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StatsRandomTest, MatchesBruteForce) {
  DdManager mgr(kVars);
  Xoshiro256 rng(GetParam());
  Add f = random_add(mgr, rng);
  const BruteStats expect = brute_force(f);
  EXPECT_NEAR(f.average(), expect.avg, 1e-9);
  EXPECT_NEAR(f.variance(), expect.var, 1e-9);
  EXPECT_DOUBLE_EQ(f.max_value(), expect.max);
  EXPECT_DOUBLE_EQ(f.min_value(), expect.min);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsRandomTest,
                         ::testing::Values(3, 7, 19, 42, 101, 2024));

TEST(Stats, ConstantFunction) {
  DdManager mgr(3);
  Add c = mgr.constant(4.25);
  EXPECT_DOUBLE_EQ(c.average(), 4.25);
  EXPECT_DOUBLE_EQ(c.variance(), 0.0);
  EXPECT_DOUBLE_EQ(c.max_value(), 4.25);
  EXPECT_DOUBLE_EQ(c.min_value(), 4.25);
  EXPECT_EQ(c.size(), 1u);
}

TEST(Stats, SingleVariable) {
  DdManager mgr(1);
  Add x = Add(mgr.bdd_var(0));
  EXPECT_DOUBLE_EQ(x.average(), 0.5);
  EXPECT_DOUBLE_EQ(x.variance(), 0.25);
  EXPECT_DOUBLE_EQ(x.max_value(), 1.0);
  EXPECT_DOUBLE_EQ(x.min_value(), 0.0);
}

TEST(Stats, PaperExampleNodeN) {
  // Fig. 4: node n has children {leaf 10, subtree with avg 5, var 25};
  // avg(n) = 7.5, var(n) = 18.75, and with max(n)=10, mse = 25 (Ex. 5).
  // We reconstruct this shape: n = ite(x, child_with_avg5_var25, 10).
  DdManager mgr(3);
  // Child: value 10 with prob 1/2, 0 with prob 1/2 over one variable:
  // avg 5, var 25.
  Add child = Add(mgr.bdd_var(1)).times(10.0);
  EXPECT_DOUBLE_EQ(child.average(), 5.0);
  EXPECT_DOUBLE_EQ(child.variance(), 25.0);
  Add ten = mgr.constant(10.0);
  // n tests variable 0: else -> child, then -> 10.
  Add n = Add(mgr.bdd_var(0)) * ten + Add(!mgr.bdd_var(0)) * child;
  EXPECT_DOUBLE_EQ(n.average(), 7.5);
  EXPECT_DOUBLE_EQ(n.variance(), 18.75);
  EXPECT_DOUBLE_EQ(n.max_value(), 10.0);
  NodeStats stats(n);
  EXPECT_DOUBLE_EQ(stats.root().mse_of_max(), 25.0);
}

TEST(Stats, AverageIsLinear) {
  DdManager mgr(kVars);
  Xoshiro256 rng(77);
  Add a = random_add(mgr, rng);
  Add b = random_add(mgr, rng);
  EXPECT_NEAR((a + b).average(), a.average() + b.average(), 1e-9);
  EXPECT_NEAR(a.times(3.0).average(), 3.0 * a.average(), 1e-9);
}

TEST(Stats, MaxIsSubadditive) {
  DdManager mgr(kVars);
  Xoshiro256 rng(78);
  for (int trial = 0; trial < 20; ++trial) {
    Add a = random_add(mgr, rng);
    Add b = random_add(mgr, rng);
    EXPECT_LE((a + b).max_value(), a.max_value() + b.max_value() + 1e-12);
  }
}

TEST(Stats, SatCountMatchesEnumeration) {
  DdManager mgr(kVars);
  Xoshiro256 rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    Bdd f = mgr.bdd_zero();
    for (int i = 0; i < 4; ++i) {
      Bdd v = mgr.bdd_var(static_cast<std::uint32_t>(rng.next_below(kVars)));
      f = rng.next_bool(0.5) ? (f | v) : (f ^ v);
    }
    unsigned count = 0;
    for (unsigned m = 0; m < (1u << kVars); ++m) {
      std::uint8_t a[kVars];
      for (unsigned v = 0; v < kVars; ++v) a[v] = (m >> v) & 1u;
      if (f.eval(std::span<const std::uint8_t>(a, kVars))) ++count;
    }
    EXPECT_NEAR(f.sat_count(kVars), static_cast<double>(count), 1e-9);
  }
}

TEST(Stats, ArgmaxWitnessesTheMaximum) {
  DdManager mgr(kVars);
  Xoshiro256 rng(404);
  for (int trial = 0; trial < 10; ++trial) {
    Add f = random_add(mgr, rng);
    const auto assignment = argmax_assignment(f);
    ASSERT_EQ(assignment.size(), kVars);
    EXPECT_DOUBLE_EQ(f.eval(assignment), f.max_value()) << "trial " << trial;
  }
}

TEST(Stats, ArgmaxOnConstant) {
  DdManager mgr(2);
  Add c = mgr.constant(3.0);
  const auto assignment = argmax_assignment(c);
  EXPECT_DOUBLE_EQ(c.eval(assignment), 3.0);
}

TEST(Stats, SupportListsOnlyDependentVars) {
  DdManager mgr(6);
  Bdd f = (mgr.bdd_var(1) & mgr.bdd_var(4)) | mgr.bdd_var(3);
  const auto sup = f.support();
  EXPECT_EQ(sup, (std::vector<std::uint32_t>{1, 3, 4}));
}

TEST(Stats, SizeCountsUniqueNodes) {
  DdManager mgr(2);
  // x0 XOR x1 with complement edges: the two x1 branches are negations of
  // each other, so they share one physical x1 node, and the BDD fragment
  // has the single terminal 1 (zero is a complement edge to it).
  Bdd f = mgr.bdd_var(0) ^ mgr.bdd_var(1);
  EXPECT_EQ(f.size(), 3u);  // x0 node, shared x1 node, terminal 1

  // The ADD view has no complement edges and recovers the classic shape.
  Add a(f);
  EXPECT_EQ(a.size(), 5u);  // x0 node, two x1 nodes, 0, 1
}

TEST(Stats, LeafValuesSortedUnique) {
  DdManager mgr(2);
  Add f = Add(mgr.bdd_var(0)).times(4.0) + Add(mgr.bdd_var(1)).times(4.0);
  const auto leaves = f.leaf_values();
  EXPECT_EQ(leaves, (std::vector<double>{0.0, 4.0, 8.0}));
}

// Reference for the flat-mark traversals: the same DAG walk with a hash set
// of visited arena indices.
struct Walk {
  std::size_t size = 0;
  std::vector<std::uint32_t> support;
  std::vector<double> leaves;
};

Walk hash_set_walk(const DdHandle& f) {
  const DdManager& mgr = *f.manager();
  std::unordered_set<std::uint32_t> seen;
  std::set<std::uint32_t> vars;
  std::set<double> leaves;
  std::vector<std::uint32_t> stack{edge_index(DdInternal::edge(f))};
  while (!stack.empty()) {
    const std::uint32_t i = stack.back();
    stack.pop_back();
    if (!seen.insert(i).second) continue;
    const DdNode& n = DdInternal::node(mgr, i);
    if (n.is_terminal()) {
      leaves.insert(DdInternal::value(mgr, i));
    } else {
      vars.insert(n.var);
      stack.push_back(edge_index(n.then_edge));
      stack.push_back(edge_index(n.else_edge));
    }
  }
  return {seen.size(), {vars.begin(), vars.end()}, {leaves.begin(), leaves.end()}};
}

Bdd random_bdd(DdManager& mgr, Xoshiro256& rng, std::size_t vars) {
  Bdd f = mgr.bdd_var(static_cast<std::uint32_t>(rng.next_below(vars)));
  for (int i = 0; i < 6; ++i) {
    Bdd v = mgr.bdd_var(static_cast<std::uint32_t>(rng.next_below(vars)));
    switch (rng.next_below(3)) {
      case 0: f = f & !v; break;
      case 1: f = f | v; break;
      default: f = f ^ v; break;
    }
  }
  return f;
}

Add random_wide_add(DdManager& mgr, Xoshiro256& rng, std::size_t vars) {
  Add f = mgr.constant(0.0);
  for (int i = 0; i < 8; ++i) {
    f = f + Add(random_bdd(mgr, rng, vars))
                .times(1.0 + static_cast<double>(rng.next_below(20)));
  }
  return f;
}

void expect_walks_agree(const std::vector<Add>& adds,
                        const std::vector<Bdd>& bdds, const char* when) {
  for (const Add& f : adds) {
    const Walk ref = hash_set_walk(f);
    EXPECT_EQ(f.size(), ref.size) << when;
    EXPECT_EQ(f.support(), ref.support) << when;
    EXPECT_EQ(f.leaf_values(), ref.leaves) << when;
  }
  for (const Bdd& b : bdds) {
    const Walk ref = hash_set_walk(b);
    EXPECT_EQ(b.size(), ref.size) << when;
    EXPECT_EQ(b.support(), ref.support) << when;
    EXPECT_EQ((!b).size(), ref.size) << when;  // complement-invariant
  }
}

TEST(Stats, FlatMarkTraversalsMatchHashSetWalk) {
  constexpr std::size_t kWide = 9;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    DdManager mgr(kWide);
    Xoshiro256 rng(seed);
    std::vector<Add> adds;
    std::vector<Bdd> bdds;
    for (int k = 0; k < 4; ++k) {
      adds.push_back(random_wide_add(mgr, rng, kWide));
      bdds.push_back(random_bdd(mgr, rng, kWide));
    }
    expect_walks_agree(adds, bdds, "fresh manager");

    // Drop half the functions, sweep and sift: the survivors are relabelled
    // in place and the arena has free-list holes, which functions built
    // afterwards fill.
    adds.resize(2);
    bdds.resize(2);
    mgr.collect_garbage();
    mgr.sift();
    for (int k = 0; k < 3; ++k) {
      adds.push_back(random_wide_add(mgr, rng, kWide));
      bdds.push_back(random_bdd(mgr, rng, kWide));
    }
    expect_walks_agree(adds, bdds, "after GC and sift");
  }
}

/// The per-node statistics as the recursion over a hash map of arena
/// indices computes them: the reference the dense node table must match.
using Reference = std::unordered_map<std::uint32_t, NodeStats::Entry>;

const NodeStats::Entry& reference_stats(const DdManager& mgr,
                                        std::uint32_t i, Reference& ref) {
  if (auto it = ref.find(i); it != ref.end()) return it->second;
  NodeStats::Entry e;
  const DdNode& n = DdInternal::node(mgr, i);
  if (n.is_terminal()) {
    e.avg = e.max = e.min = DdInternal::value(mgr, i);
  } else {
    const NodeStats::Entry l =
        reference_stats(mgr, edge_index(n.else_edge), ref);
    const NodeStats::Entry r =
        reference_stats(mgr, edge_index(n.then_edge), ref);
    e.avg = 0.5 * (l.avg + r.avg);
    e.var = 0.5 * (l.var + (l.avg - e.avg) * (l.avg - e.avg) + r.var +
                   (r.avg - e.avg) * (r.avg - e.avg));
    e.max = std::max(l.max, r.max);
    e.min = std::min(l.min, r.min);
  }
  return ref.emplace(i, e).first->second;
}

/// Like random_wide_add, with non-dyadic weights: every statistic then
/// rounds, so a sum taken in another order shows in the low bits.
Add random_real_add(DdManager& mgr, Xoshiro256& rng, std::size_t vars) {
  Add f = mgr.constant(0.0);
  for (int i = 0; i < 8; ++i) {
    const Bdd term = random_bdd(mgr, rng, vars);
    f = f + Add(term).times(0.1 + 20.0 * rng.next_double());
  }
  return f;
}

void expect_table_matches_reference(const Add& f) {
  const DdManager& mgr = *f.manager();
  const NodeStats table(f);
  Reference ref;
  reference_stats(mgr, edge_index(DdInternal::edge(f)), ref);
  ASSERT_EQ(table.size(), ref.size());
  ASSERT_EQ(table.node(0), edge_index(DdInternal::edge(f)));  // root first
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::uint32_t s = 0; s < table.size(); ++s) {
    const std::uint32_t i = table.node(s);
    ASSERT_TRUE(ref.contains(i)) << "slot " << s;
    const NodeStats::Entry& want = ref.at(i);
    const NodeStats::Entry& got = table.entry(s);
    EXPECT_EQ(bits(got.avg), bits(want.avg)) << "slot " << s;
    EXPECT_EQ(bits(got.var), bits(want.var)) << "slot " << s;
    EXPECT_EQ(bits(got.max), bits(want.max)) << "slot " << s;
    EXPECT_EQ(bits(got.min), bits(want.min)) << "slot " << s;
    const DdNode& n = DdInternal::node(mgr, i);
    ASSERT_EQ(n.is_terminal(), s >= table.internal_count()) << "slot " << s;
    if (n.is_terminal()) continue;
    // Every parent comes before its children.
    const NodeStats::Children kids = table.children(s);
    EXPECT_GT(kids.then_slot, s);
    EXPECT_GT(kids.else_slot, s);
    EXPECT_EQ(table.node(kids.then_slot), edge_index(n.then_edge));
    EXPECT_EQ(table.node(kids.else_slot), edge_index(n.else_edge));
  }
}

TEST(Stats, DenseTableMatchesRecursiveReference) {
  constexpr std::size_t kWide = 9;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    DdManager mgr(kWide);
    Xoshiro256 rng(seed * 7919);
    std::vector<Add> adds;
    for (int k = 0; k < 4; ++k) {
      adds.push_back(random_real_add(mgr, rng, kWide));
    }
    // Grow the arena well past any one diagram, then free most of it: the
    // survivors sit among free-list holes at high indices.
    std::vector<Add> scratch;
    for (int k = 0; k < 40; ++k) {
      scratch.push_back(random_wide_add(mgr, rng, kWide));
    }
    scratch.clear();
    adds.resize(2);
    mgr.collect_garbage();
    mgr.sift();
    for (int k = 0; k < 3; ++k) {
      adds.push_back(random_real_add(mgr, rng, kWide));
    }
    adds.push_back(mgr.constant(2.5));
    for (const Add& f : adds) {
      ASSERT_LT(f.size() * 4, mgr.allocated_nodes());
      expect_table_matches_reference(f);
    }
  }
}

}  // namespace
}  // namespace cfpm::dd
