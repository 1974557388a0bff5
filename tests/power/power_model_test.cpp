#include "power/power_model.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "netlist/generators.hpp"
#include "power/add_model.hpp"
#include "power/baselines.hpp"
#include "power/residual.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace cfpm::power {
namespace {

TEST(SupplyConfig, EnergyScalesWithVddSquared) {
  const SupplyConfig v33{3.3};
  const SupplyConfig v50{5.0};
  EXPECT_DOUBLE_EQ(v33.energy_fj(10.0), 3.3 * 3.3 * 10.0);
  EXPECT_DOUBLE_EQ(v50.energy_fj(10.0), 250.0);
  EXPECT_GT(v50.energy_fj(1.0), v33.energy_fj(1.0));
}

TEST(SupplyConfig, PowerIsEnergyPerPeriod) {
  const SupplyConfig v{2.0};
  // 25 fF/cycle at Vdd=2V -> 100 fJ; at 10 ns -> 10 uW.
  EXPECT_DOUBLE_EQ(v.power_uw(25.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(v.power_uw(25.0, 5.0), 20.0);
}

TEST(PowerModel, SequenceHelpersOnDegenerateSequences) {
  const ConstantModel con(7.0, 3);
  sim::InputSequence single(3, 1);  // no transitions
  EXPECT_DOUBLE_EQ(con.average_over(single), 0.0);
  EXPECT_DOUBLE_EQ(con.peak_over(single), 0.0);

  sim::InputSequence two(3, 2);  // exactly one transition
  EXPECT_DOUBLE_EQ(con.average_over(two), 7.0);
  EXPECT_DOUBLE_EQ(con.peak_over(two), 7.0);
}

TEST(PowerModel, SequenceHelpersRejectArityMismatch) {
  const ConstantModel con(7.0, 3);
  sim::InputSequence wrong(5, 4);
  EXPECT_THROW(con.average_over(wrong), ContractError);
  EXPECT_THROW(con.peak_over(wrong), ContractError);
}

TEST(PowerModel, EstimateBlockMatchesEstimateFf) {
  // Every model's block path must reproduce its per-transition path bit for
  // bit: the ADD override through the packed sweep, the rest through the
  // default unpacking loop. Operand bits past `count` are random garbage
  // that no model may read.
  const netlist::Netlist n = netlist::gen::mcnc_like("cm85");
  const std::size_t inputs = n.num_inputs();
  AddModelOptions opt;
  opt.max_nodes = 300;
  auto avg = std::make_shared<AddPowerModel>(
      AddPowerModel::build(n, netlist::GateLibrary::standard(), opt));
  opt.mode = dd::ApproxMode::kUpperBound;
  const AddPowerModel bound =
      AddPowerModel::build(n, netlist::GateLibrary::standard(), opt);

  Xoshiro256 rng(0xb10c);
  std::vector<double> coeffs(inputs + 1);
  for (double& c : coeffs) {
    c = static_cast<double>(rng.next() % 2000) / 64.0 - 10.0;
  }
  const ConstantModel con(13.375, inputs);
  const LinearModel lin(coeffs);
  const ResidualCalibratedModel residual(avg, LinearModel(coeffs));
  const PowerModel* models[] = {avg.get(), &bound, &con, &lin, &residual};

  constexpr std::size_t W = PowerModel::kBlockGroups;
  std::vector<std::uint64_t> xi_words(W * inputs), xf_words(W * inputs);
  std::vector<std::uint8_t> xi(inputs), xf(inputs);
  BlockScratch scratch;  // shared across models, as the chip evaluator does
  for (const std::size_t count : {1u, 63u, 64u, 65u, 511u, 512u}) {
    for (std::uint64_t& w : xi_words) w = rng.next();
    for (std::uint64_t& w : xf_words) w = rng.next();
    for (const PowerModel* model : models) {
      std::vector<double> out(count);
      model->estimate_block(xi_words, xf_words, count, out, scratch);
      for (std::size_t t = 0; t < count; ++t) {
        for (std::size_t k = 0; k < inputs; ++k) {
          xi[k] = (xi_words[W * k + t / 64] >> (t % 64)) & 1u;
          xf[k] = (xf_words[W * k + t / 64] >> (t % 64)) & 1u;
        }
        ASSERT_EQ(std::bit_cast<std::uint64_t>(out[t]),
                  std::bit_cast<std::uint64_t>(model->estimate_ff(xi, xf)))
            << model->name() << " count " << count << " transition " << t;
      }
    }
  }
}

TEST(PowerModel, EstimateBlockRejectsBadShapes) {
  const ConstantModel con(7.0, 3);
  BlockScratch scratch;
  std::vector<std::uint64_t> words(PowerModel::kBlockGroups * 3);
  std::vector<double> out(PowerModel::kBlockTransitions + 1);
  EXPECT_THROW(con.estimate_block(words, words, out.size(), out, scratch),
               ContractError);
  const std::vector<std::uint64_t> short_words(words.size() - 1);
  EXPECT_THROW(con.estimate_block(short_words, words, 4, out, scratch),
               ContractError);
}

}  // namespace
}  // namespace cfpm::power
