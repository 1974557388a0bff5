// Node-collapsing approximation invariants (Section 3).
#include "dd/approx.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "dd/manager.hpp"
#include "dd/serialize.hpp"
#include "dd/stats.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace cfpm::dd {
namespace {

constexpr std::size_t kVars = 6;

Add random_capacitance_like(DdManager& mgr, Xoshiro256& rng, int terms = 8) {
  // Sum of weighted products, mimicking Eq. 4 contributions.
  Add f = mgr.constant(0.0);
  for (int i = 0; i < terms; ++i) {
    Bdd v = mgr.bdd_var(static_cast<std::uint32_t>(rng.next_below(kVars)));
    Bdd w = mgr.bdd_var(static_cast<std::uint32_t>(rng.next_below(kVars)));
    Bdd u = mgr.bdd_var(static_cast<std::uint32_t>(rng.next_below(kVars)));
    Bdd prod = rng.next_bool(0.5) ? (v & !w) : ((v ^ w) & u);
    f = f + Add(prod).times(5.0 + static_cast<double>(rng.next_below(20)));
  }
  return f;
}

class ApproxRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ApproxRandomTest, SizeBudgetIsRespected) {
  DdManager mgr(kVars);
  Xoshiro256 rng(GetParam());
  Add f = random_capacitance_like(mgr, rng);
  for (std::size_t budget : {50u, 20u, 10u, 5u, 2u, 1u}) {
    const ApproxResult r = approximate(f, budget, ApproxMode::kAverage);
    EXPECT_LE(r.final_size, budget) << "budget " << budget;
    EXPECT_EQ(r.function.size(), r.final_size);
  }
}

TEST_P(ApproxRandomTest, AverageModePreservesGlobalAverage) {
  DdManager mgr(kVars);
  Xoshiro256 rng(GetParam() ^ 0x1111);
  Add f = random_capacitance_like(mgr, rng);
  const double avg = f.average();
  for (std::size_t budget : {20u, 5u, 1u}) {
    Add g = approximate_to(f, budget, ApproxMode::kAverage);
    EXPECT_NEAR(g.average(), avg, 1e-9 * (1.0 + std::abs(avg)))
        << "budget " << budget;
  }
}

TEST_P(ApproxRandomTest, UpperBoundModeDominatesPointwise) {
  DdManager mgr(kVars);
  Xoshiro256 rng(GetParam() ^ 0x2222);
  Add f = random_capacitance_like(mgr, rng);
  for (std::size_t budget : {30u, 10u, 3u, 1u}) {
    Add g = approximate_to(f, budget, ApproxMode::kUpperBound);
    for (unsigned m = 0; m < (1u << kVars); ++m) {
      std::uint8_t a[kVars];
      for (unsigned v = 0; v < kVars; ++v) a[v] = (m >> v) & 1u;
      const std::span<const std::uint8_t> sp(a, kVars);
      EXPECT_GE(g.eval(sp) + 1e-12, f.eval(sp))
          << "budget " << budget << " minterm " << m;
    }
    // The bound never exceeds the true global maximum... of itself; but its
    // max must equal at least f's max and at most sum of collapsed maxima:
    EXPECT_GE(g.max_value() + 1e-12, f.max_value());
  }
}

TEST_P(ApproxRandomTest, FullCollapseYieldsConstantEstimators) {
  DdManager mgr(kVars);
  Xoshiro256 rng(GetParam() ^ 0x3333);
  Add f = random_capacitance_like(mgr, rng);
  Add avg1 = approximate_to(f, 1, ApproxMode::kAverage);
  ASSERT_TRUE(avg1.is_terminal_node());
  EXPECT_NEAR(avg1.terminal_value(), f.average(), 1e-9);
  Add max1 = approximate_to(f, 1, ApproxMode::kUpperBound);
  ASSERT_TRUE(max1.is_terminal_node());
  EXPECT_DOUBLE_EQ(max1.terminal_value(), f.max_value());
}

TEST_P(ApproxRandomTest, ErrorBoundedByVarianceAndGrowsTowardIt) {
  // For the average strategy, the mean-square error of any collapse set is
  // at most var(f) (achieved by the full collapse), and the full collapse
  // is never better than a milder one in this greedy scheme.
  DdManager mgr(kVars);
  Xoshiro256 rng(GetParam() ^ 0x4444);
  Add f = random_capacitance_like(mgr, rng);
  auto mse_of = [&](std::size_t budget) {
    Add g = approximate_to(f, budget, ApproxMode::kAverage);
    Add diff = f - g;
    return (diff * diff).average();
  };
  const double var = f.variance();
  const double mse_mild = mse_of(64);
  const double mse_full = mse_of(1);
  EXPECT_NEAR(mse_full, var, 1e-9 * (1.0 + var));  // full collapse == variance
  EXPECT_LE(mse_mild, mse_full + 1e-9);
  EXPECT_LE(mse_of(16), var + 1e-9);
  EXPECT_LE(mse_of(4), var + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproxRandomTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77));

TEST_P(ApproxRandomTest, QuantizeLeavesRespectsBudgetAndMean) {
  DdManager mgr(kVars);
  Xoshiro256 rng(GetParam() ^ 0x9999);
  Add f = random_capacitance_like(mgr, rng, 10);
  const double avg = f.average();
  for (std::size_t leaves : {8u, 4u, 2u, 1u}) {
    Add q = quantize_leaves(f, leaves, ApproxMode::kAverage);
    EXPECT_LE(q.leaf_values().size(), leaves);
    EXPECT_LE(q.size(), f.size());
    // Mass-weighted merging preserves the global mean exactly.
    EXPECT_NEAR(q.average(), avg, 1e-9 * (1.0 + avg)) << leaves;
  }
}

TEST_P(ApproxRandomTest, QuantizeLeavesUpperBoundDominates) {
  DdManager mgr(kVars);
  Xoshiro256 rng(GetParam() ^ 0xaaaa);
  Add f = random_capacitance_like(mgr, rng, 10);
  for (std::size_t leaves : {6u, 3u, 1u}) {
    Add q = quantize_leaves(f, leaves, ApproxMode::kUpperBound);
    EXPECT_LE(q.leaf_values().size(), leaves);
    for (unsigned m = 0; m < (1u << kVars); ++m) {
      std::uint8_t a[kVars];
      for (unsigned v = 0; v < kVars; ++v) a[v] = (m >> v) & 1u;
      const std::span<const std::uint8_t> sp(a, kVars);
      ASSERT_GE(q.eval(sp) + 1e-12, f.eval(sp)) << leaves << " " << m;
    }
    // The bound never exceeds the true maximum (merging is upward but
    // capped at existing values).
    EXPECT_DOUBLE_EQ(q.max_value(), f.max_value());
  }
}

TEST(Approx, QuantizeLeavesOnConstantIsIdentity) {
  DdManager mgr(2);
  Add c = mgr.constant(7.0);
  Add q = quantize_leaves(c, 1, ApproxMode::kAverage);
  EXPECT_TRUE(q.is_terminal_node());
  EXPECT_DOUBLE_EQ(q.terminal_value(), 7.0);
}

TEST(Approx, QuantizeLeavesSingleLeafIsMassWeightedMean) {
  DdManager mgr(2);
  // f = 12 when x0 else 0: mean 6 regardless of the (skewed) leaf set.
  Add f = Add(mgr.bdd_var(0)).times(12.0);
  Add q = quantize_leaves(f, 1, ApproxMode::kAverage);
  ASSERT_TRUE(q.is_terminal_node());
  EXPECT_DOUBLE_EQ(q.terminal_value(), 6.0);
}

TEST(Approx, NoOpWhenAlreadySmall) {
  DdManager mgr(2);
  Add f = Add(mgr.bdd_var(0)).times(3.0);
  const ApproxResult r = approximate(f, 100, ApproxMode::kAverage);
  EXPECT_EQ(r.function, f);
  EXPECT_EQ(r.collapsed, 0u);
  EXPECT_EQ(r.rounds, 0u);
}

TEST(Approx, BudgetZeroRejected) {
  DdManager mgr(2);
  Add f = Add(mgr.bdd_var(0));
  EXPECT_THROW(approximate(f, 0, ApproxMode::kAverage), ContractError);
}

TEST(Approx, PaperExampleCollapsesMinVarianceNode) {
  // Fig. 4/5: when x^i = 00 the sub-function over x^f is {0,10,10,10};
  // avg 7.5, var 18.75. Average-collapse replaces it by 7.5, max-collapse
  // by 10.
  DdManager mgr(2);
  Bdd x = mgr.bdd_var(0);
  Bdd y = mgr.bdd_var(1);
  Add sub = Add(x | y).times(10.0);  // 0 iff x=y=0
  EXPECT_DOUBLE_EQ(sub.average(), 7.5);
  EXPECT_DOUBLE_EQ(sub.variance(), 18.75);
  Add avg_collapsed = approximate_to(sub, 1, ApproxMode::kAverage);
  EXPECT_DOUBLE_EQ(avg_collapsed.terminal_value(), 7.5);
  Add max_collapsed = approximate_to(sub, 1, ApproxMode::kUpperBound);
  EXPECT_DOUBLE_EQ(max_collapsed.terminal_value(), 10.0);
}

TEST(Approx, AllMetricsRespectBudgetAndInvariants) {
  DdManager mgr(kVars);
  Xoshiro256 rng(404);
  Add f = random_capacitance_like(mgr, rng);
  const double avg = f.average();
  for (CollapseMetric metric :
       {CollapseMetric::kRelativeSpread, CollapseMetric::kVariance,
        CollapseMetric::kReachWeightedVariance}) {
    Add g = approximate_to(f, 12, ApproxMode::kAverage, metric);
    EXPECT_LE(g.size(), 12u);
    EXPECT_NEAR(g.average(), avg, 1e-9 * (1.0 + avg));  // mean preserved
    Add b = approximate_to(f, 12, ApproxMode::kUpperBound, metric);
    EXPECT_LE(b.size(), 12u);
    // Pointwise conservative regardless of the selection metric.
    for (unsigned m = 0; m < (1u << kVars); ++m) {
      std::uint8_t a[kVars];
      for (unsigned v = 0; v < kVars; ++v) a[v] = (m >> v) & 1u;
      const std::span<const std::uint8_t> sp(a, kVars);
      ASSERT_GE(b.eval(sp) + 1e-12, f.eval(sp));
    }
  }
}

TEST(Approx, MetricsProduceDifferentSelections) {
  // Not a correctness requirement, but a sanity check that the metric
  // parameter is actually wired through: on a value-rich function the
  // collapse sets should differ.
  DdManager mgr(kVars);
  Xoshiro256 rng(77);
  Add f = random_capacitance_like(mgr, rng, 12);
  Add a = approximate_to(f, 15, ApproxMode::kAverage,
                         CollapseMetric::kRelativeSpread);
  Add b = approximate_to(f, 15, ApproxMode::kAverage,
                         CollapseMetric::kVariance);
  // Either the functions differ or (rarely) the greedy sets coincide;
  // assert only that both are valid approximations of bounded error.
  Add ea = f - a;
  Add eb = f - b;
  EXPECT_LE((ea * ea).average(), f.variance() + 1e-9);
  EXPECT_LE((eb * eb).average(), f.variance() + 1e-9);
}

TEST(Approx, ApproxCommutesWithAdditionInExpectation) {
  // avg(approx(a)) + avg(approx(b)) == avg(a + b) for the average strategy:
  // the guarantee behind Fig. 6's local approximations.
  DdManager mgr(kVars);
  Xoshiro256 rng(123);
  Add a = random_capacitance_like(mgr, rng, 4);
  Add b = random_capacitance_like(mgr, rng, 4);
  Add aa = approximate_to(a, 3, ApproxMode::kAverage);
  Add bb = approximate_to(b, 3, ApproxMode::kAverage);
  EXPECT_NEAR((aa + bb).average(), (a + b).average(), 1e-9);
  // And conservativeness composes for the max strategy.
  Add am = approximate_to(a, 3, ApproxMode::kUpperBound);
  Add bm = approximate_to(b, 3, ApproxMode::kUpperBound);
  EXPECT_GE((am + bm).max_value() + 1e-12, (a + b).max_value());
}

/// The checksum trailer of the saved form of `f`, which covers the variable
/// order and every node.
std::string saved_crc(const Add& f) {
  std::stringstream ss;
  write_add(ss, f);
  const std::string text = ss.str();
  return text.substr(text.rfind("crc ") + 4, 8);
}

TEST(Approx, EveryMetricModeAndQuantizeIsPinned) {
  // One fixed value-rich ADD over 12 variables, collapsed to a fifth of its
  // size under each metric and mode and quantized to a few leaves; each
  // result's checksum is pinned, so a change to ranking, tie-breaks, reach
  // sums, cascades or the rebuild shows up here. A deliberate change must
  // update these pins in the same change.
  constexpr std::size_t kWide = 12;
  auto make = [](DdManager& mgr) {
    Xoshiro256 rng(2718);
    Add f = mgr.constant(0.0);
    for (int i = 0; i < 24; ++i) {
      Bdd v[3];
      for (Bdd& b : v) {
        b = mgr.bdd_var(static_cast<std::uint32_t>(rng.next_below(kWide)));
      }
      const Bdd prod =
          rng.next_bool(0.5) ? (v[0] & !v[1]) : ((v[0] ^ v[1]) & v[2]);
      f = f + Add(prod).times(1.0 + static_cast<double>(rng.next_below(40)));
    }
    return f;
  };
  struct Pin {
    CollapseMetric metric;
    ApproxMode mode;
    const char* crc;
  };
  const Pin pins[] = {
      {CollapseMetric::kRelativeSpread, ApproxMode::kAverage, "5a66c283"},
      {CollapseMetric::kRelativeSpread, ApproxMode::kUpperBound, "1463aa9e"},
      {CollapseMetric::kVariance, ApproxMode::kAverage, "feb31ee5"},
      {CollapseMetric::kVariance, ApproxMode::kUpperBound, "8e7f5eb7"},
      {CollapseMetric::kReachWeightedVariance, ApproxMode::kAverage,
       "0dcd7ef1"},
      {CollapseMetric::kReachWeightedVariance, ApproxMode::kUpperBound,
       "33efd5db"},
  };
  for (const Pin& pin : pins) {
    DdManager mgr(kWide);
    const Add f = make(mgr);
    const ApproxResult r = approximate(f, f.size() / 5, pin.mode, pin.metric);
    EXPECT_EQ(saved_crc(r.function), pin.crc)
        << "metric " << static_cast<int>(pin.metric) << ", mode "
        << static_cast<int>(pin.mode) << ", size " << f.size() << " -> "
        << r.final_size << " in " << r.rounds << " rounds";
  }
  const struct {
    ApproxMode mode;
    const char* crc;
  } quantized[] = {{ApproxMode::kAverage, "f31dcae1"},
                   {ApproxMode::kUpperBound, "a4976274"}};
  for (const auto& pin : quantized) {
    DdManager mgr(kWide);
    const Add f = make(mgr);
    const Add q = quantize_leaves(f, 6, pin.mode);
    EXPECT_EQ(saved_crc(q), pin.crc)
        << "mode " << static_cast<int>(pin.mode) << ", "
        << f.leaf_values().size() << " leaves";
  }
}

}  // namespace
}  // namespace cfpm::dd
