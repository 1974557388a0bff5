// Edge cases of RtlDesign composition: empty designs, shared-model
// aliasing with overlapping bus windows, sparse input maps, oversized bus
// spans, and bit-exact agreement between the one-shot, breakdown and
// streaming (chip::evaluate_trace) evaluation paths (the chip evaluator
// depends on the left-fold association being identical in every path).
#include "power/rtl.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "chip/evaluator.hpp"
#include "netlist/generators.hpp"
#include "power/add_model.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace cfpm::power {
namespace {

using netlist::GateLibrary;
using netlist::Netlist;

std::shared_ptr<AddPowerModel> make_model(const Netlist& n,
                                          dd::ApproxMode mode,
                                          std::size_t max_nodes = 0) {
  AddModelOptions opt;
  opt.max_nodes = max_nodes;
  opt.mode = mode;
  return std::make_shared<AddPowerModel>(
      AddPowerModel::build(n, GateLibrary::standard(), opt));
}

std::vector<std::uint8_t> random_bits(std::size_t n, Xoshiro256& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next() & 1u);
  return v;
}

TEST(RtlDesignEdge, ZeroInstanceDesign) {
  RtlDesign design;
  EXPECT_EQ(design.num_instances(), 0u);
  EXPECT_EQ(design.bus_width(), 0u);

  // Empty spans satisfy size() >= bus_width() == 0.
  const std::span<const std::uint8_t> empty;
  EXPECT_EQ(design.estimate_ff(empty, empty), 0.0);
  EXPECT_TRUE(design.estimate_breakdown_ff(empty, empty).empty());

  // The streaming evaluator accepts any trace and reports nothing.
  const sim::InputSequence trace = sim::InputSequence::from_vectors(
      {{0, 1}, {1, 0}, {1, 1}});
  const chip::ChipTraceResult r = chip::evaluate_trace(design, trace);
  EXPECT_EQ(r.transitions, 2u);
  EXPECT_TRUE(r.per_instance_ff.empty());
  EXPECT_EQ(r.total_ff, 0.0);
  EXPECT_EQ(r.peak_ff, 0.0);

  // Vacuously an upper bound with a zero worst case.
  EXPECT_TRUE(design.is_upper_bound());
  EXPECT_EQ(design.sum_of_worst_cases_ff(), 0.0);
}

TEST(RtlDesignEdge, SharedModelAliasedOverlappingWindows) {
  // Two instances of the same library model whose windows overlap on the
  // bus: the shared bits feed both instances from one stream (the chip
  // sibling-sharing scenario), so identical windows give identical
  // estimates and the total is their exact in-order sum.
  const Netlist adder = netlist::gen::ripple_carry_adder(2);  // 5 inputs
  auto model = make_model(adder, dd::ApproxMode::kAverage);
  RtlDesign design;
  design.add_instance("u0", model, {0, 1, 2, 3, 4});
  design.add_instance("u1", model, {2, 3, 4, 5, 6});  // shares bits 2..4
  design.add_instance("u2", model, {0, 1, 2, 3, 4});  // aliases u0 exactly
  EXPECT_EQ(design.bus_width(), 7u);

  Xoshiro256 rng(0x51aa);
  for (int trial = 0; trial < 32; ++trial) {
    const auto xi = random_bits(7, rng);
    const auto xf = random_bits(7, rng);
    const auto breakdown = design.estimate_breakdown_ff(xi, xf);
    ASSERT_EQ(breakdown.size(), 3u);
    // Exact aliases see exactly the same gathered transition.
    EXPECT_EQ(breakdown[0], breakdown[2]);
    // The total is the left-fold of the breakdown, bitwise.
    EXPECT_EQ(design.estimate_ff(xi, xf),
              (breakdown[0] + breakdown[1]) + breakdown[2]);
  }
}

TEST(RtlDesignEdge, SparseInputMapSetsBusWidthFromMaxBit) {
  const Netlist adder = netlist::gen::ripple_carry_adder(2);  // 5 inputs
  auto model = make_model(adder, dd::ApproxMode::kAverage);
  RtlDesign design;
  // Scattered, non-monotonic map: bit 23 forces a 24-bit bus even though
  // only 5 bits are ever read.
  design.add_instance("sparse", model, {17, 2, 23, 0, 9});
  EXPECT_EQ(design.bus_width(), 24u);

  // The estimate must equal the dense-design estimate of the gathered
  // transition (same model, same bits in map order).
  RtlDesign dense;
  dense.add_instance("dense", model, {0, 1, 2, 3, 4});
  Xoshiro256 rng(0x77);
  for (int trial = 0; trial < 16; ++trial) {
    const auto xi = random_bits(24, rng);
    const auto xf = random_bits(24, rng);
    const std::vector<std::uint8_t> gi = {xi[17], xi[2], xi[23], xi[0], xi[9]};
    const std::vector<std::uint8_t> gf = {xf[17], xf[2], xf[23], xf[0], xf[9]};
    EXPECT_EQ(design.estimate_ff(xi, xf), dense.estimate_ff(gi, gf));
  }
}

TEST(RtlDesignEdge, OversizedBusSpansAccepted) {
  // Spans wider than the bus are fine (the chip evaluator hands every
  // design the full chip bus; a block's design maps only its segment).
  const Netlist adder = netlist::gen::ripple_carry_adder(2);
  auto model = make_model(adder, dd::ApproxMode::kAverage);
  RtlDesign design;
  design.add_instance("u0", model, {0, 1, 2, 3, 4});
  ASSERT_EQ(design.bus_width(), 5u);

  std::vector<std::uint8_t> xi(64, 0), xf(64, 1);
  const double exact = design.estimate_ff(
      std::span<const std::uint8_t>(xi).first(5),
      std::span<const std::uint8_t>(xf).first(5));
  EXPECT_EQ(design.estimate_ff(xi, xf), exact);
}

TEST(RtlDesignEdge, UndersizedSpansAndAccumThrow) {
  const Netlist adder = netlist::gen::ripple_carry_adder(2);
  auto model = make_model(adder, dd::ApproxMode::kAverage);
  RtlDesign design;
  design.add_instance("u0", model, {0, 1, 2, 3, 4});

  std::vector<std::uint8_t> narrow(4, 0), wide(5, 0);
  EXPECT_THROW(design.estimate_ff(narrow, wide), ContractError);
  EXPECT_THROW(design.estimate_ff(wide, narrow), ContractError);
  EXPECT_THROW(design.estimate_breakdown_ff(narrow, narrow), ContractError);

  EXPECT_THROW(design.estimate_breakdown_ff(wide, narrow), ContractError);

  // A trace narrower than the bus cannot be streamed either.
  const sim::InputSequence narrow_trace(4, 8);
  EXPECT_THROW(chip::evaluate_trace(design, narrow_trace), ContractError);
}

TEST(RtlDesignEdge, AllEvaluationPathsAgreeBitwise) {
  // One-shot, breakdown and streaming evaluation must produce bit-identical
  // numbers: the sharded chip evaluator's determinism contract rests on the
  // per-transition fold being the same in every path.
  const Netlist adder = netlist::gen::ripple_carry_adder(2);  // 5 inputs
  const Netlist cmp = netlist::gen::magnitude_comparator(2);  // 4 inputs
  auto a = make_model(adder, dd::ApproxMode::kAverage);
  auto c = make_model(cmp, dd::ApproxMode::kAverage);
  RtlDesign design;
  design.add_instance("a0", a, {0, 1, 2, 3, 4});
  design.add_instance("c0", c, {3, 4, 5, 6});
  design.add_instance("a1", a, {5, 6, 7, 8, 9});

  Xoshiro256 rng(0xbeef);
  std::vector<std::vector<std::uint8_t>> vectors;
  for (int t = 0; t < 65; ++t) vectors.push_back(random_bits(10, rng));

  std::vector<double> summed(design.num_instances(), 0.0);
  double peak = 0.0;
  for (std::size_t t = 0; t + 1 < vectors.size(); ++t) {
    const auto& xi = vectors[t];
    const auto& xf = vectors[t + 1];
    const double plain = design.estimate_ff(xi, xf);
    const auto breakdown = design.estimate_breakdown_ff(xi, xf);
    ASSERT_EQ(breakdown.size(), 3u);
    double fold = 0.0;
    for (std::size_t i = 0; i < breakdown.size(); ++i) {
      fold += breakdown[i];
      summed[i] += breakdown[i];
    }
    EXPECT_EQ(fold, plain);
    peak = std::max(peak, plain);
  }
  // The streaming evaluator's per-instance totals are the per-transition
  // breakdowns summed in transition order, and its peak is the largest
  // one-shot total.
  const chip::ChipTraceResult r = chip::evaluate_trace(
      design, sim::InputSequence::from_vectors(vectors));
  ASSERT_EQ(r.per_instance_ff.size(), summed.size());
  for (std::size_t i = 0; i < summed.size(); ++i) {
    EXPECT_EQ(r.per_instance_ff[i], summed[i]) << "instance " << i;
  }
  EXPECT_EQ(r.total_ff, (summed[0] + summed[1]) + summed[2]);
  EXPECT_EQ(r.peak_ff, peak);
}

}  // namespace
}  // namespace cfpm::power
