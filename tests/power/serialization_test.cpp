// Model save/load: the IP-protection back-annotation flow.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "netlist/generators.hpp"
#include "power/add_model.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace cfpm::power {
namespace {

using netlist::GateLibrary;
using netlist::Netlist;

AddPowerModel sample_model(dd::ApproxMode mode, std::size_t max_nodes) {
  const Netlist n = netlist::gen::magnitude_comparator(4);
  AddModelOptions opt;
  opt.max_nodes = max_nodes;
  opt.mode = mode;
  return AddPowerModel::build(n, GateLibrary::standard(), opt);
}

void expect_same_function(const AddPowerModel& a, const AddPowerModel& b) {
  ASSERT_EQ(a.num_inputs(), b.num_inputs());
  Xoshiro256 rng(13);
  std::vector<std::uint8_t> xi(a.num_inputs()), xf(a.num_inputs());
  for (int k = 0; k < 2000; ++k) {
    for (std::size_t i = 0; i < xi.size(); ++i) {
      xi[i] = static_cast<std::uint8_t>(rng.next_below(2));
      xf[i] = static_cast<std::uint8_t>(rng.next_below(2));
    }
    ASSERT_DOUBLE_EQ(a.estimate_ff(xi, xf), b.estimate_ff(xi, xf)) << k;
  }
}

TEST(ModelSerialization, RoundTripExactModel) {
  const AddPowerModel m = sample_model(dd::ApproxMode::kAverage, 0);
  std::stringstream ss;
  m.save(ss);
  const AddPowerModel loaded = AddPowerModel::load(ss);
  EXPECT_EQ(loaded.size(), m.size());
  EXPECT_EQ(loaded.num_inputs(), m.num_inputs());
  EXPECT_FALSE(loaded.is_upper_bound());
  expect_same_function(m, loaded);
}

TEST(ModelSerialization, RoundTripBoundModelKeepsFlag) {
  const AddPowerModel m = sample_model(dd::ApproxMode::kUpperBound, 40);
  std::stringstream ss;
  m.save(ss);
  const AddPowerModel loaded = AddPowerModel::load(ss);
  EXPECT_TRUE(loaded.is_upper_bound());
  expect_same_function(m, loaded);
}

TEST(ModelSerialization, LoadedModelWorksWithoutNetlist) {
  // The loaded model must answer queries with no reference to the original
  // netlist object (IP decoupling): we only keep the stream's content.
  std::string blob;
  {
    const AddPowerModel m = sample_model(dd::ApproxMode::kAverage, 30);
    std::stringstream ss;
    m.save(ss);
    blob = ss.str();
  }
  std::stringstream ss(blob);
  const AddPowerModel loaded = AddPowerModel::load(ss);
  std::vector<std::uint8_t> xi(loaded.num_inputs(), 0),
      xf(loaded.num_inputs(), 1);
  EXPECT_GE(loaded.estimate_ff(xi, xf), 0.0);
}

TEST(ModelSerialization, SerializedFormDoesNotLeakNetlistNames) {
  // Only the circuit's name appears; no gate/signal identifiers leak.
  const Netlist n = netlist::gen::magnitude_comparator(4);
  AddModelOptions opt;
  opt.max_nodes = 0;
  const AddPowerModel m = AddPowerModel::build(n, GateLibrary::standard(), opt);
  std::stringstream ss;
  m.save(ss);
  const std::string text = ss.str();
  EXPECT_EQ(text.find("eqa"), std::string::npos);   // internal gate names
  EXPECT_EQ(text.find("NAND"), std::string::npos);  // gate types
}

TEST(ModelSerialization, CorruptHeaderRejected) {
  std::stringstream ss("not-a-model\n");
  EXPECT_THROW(AddPowerModel::load(ss), ParseError);
}

TEST(ModelSerialization, TruncatedStreamRejected) {
  const AddPowerModel m = sample_model(dd::ApproxMode::kAverage, 20);
  std::stringstream ss;
  m.save(ss);
  const std::string full = ss.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(AddPowerModel::load(truncated), ParseError);
}

TEST(ModelSerialization, BadModeRejected) {
  std::stringstream ss(
      "cfpm-power-model 1\ncircuit x\ninputs 2\norder interleaved\n"
      "mode bogus\ncfpm-dd 2 add\nvars 4\nnodes 1\n0 T 0\nroot 0\n");
  EXPECT_THROW(AddPowerModel::load(ss), ParseError);
}

TEST(ModelSerialization, InputsHeaderMustMatchTheDiagramWidth) {
  const AddPowerModel m = sample_model(dd::ApproxMode::kAverage, 20);
  std::stringstream ss;
  m.save(ss);
  const std::string saved = ss.str();
  const std::string header = "inputs " + std::to_string(m.num_inputs()) + "\n";
  const std::size_t pos = saved.find(header);
  ASSERT_NE(pos, std::string::npos);
  ASSERT_NE(saved.find("vars " + std::to_string(2 * m.num_inputs()) + "\n"),
            std::string::npos);
  const auto with_inputs = [&](const std::string& inputs) {
    std::string text = saved;
    text.replace(pos, header.size(), "inputs " + inputs + "\n");
    return text;
  };
  // Too wide: the diagram is untouched, so only the header check can
  // refuse it (it used to load and size a 200000-variable manager).
  {
    std::stringstream forged(with_inputs("100000"));
    EXPECT_THROW(AddPowerModel::load(forged), ParseError);
  }
  // Far larger: 2^63 + 8 inputs would wrap 2 * inputs to the diagram's own
  // width; it must be refused before any manager is sized.
  {
    std::stringstream forged(with_inputs("9223372036854775816"));
    EXPECT_THROW(AddPowerModel::load(forged), ParseError);
  }
  // Too narrow for the diagram.
  {
    std::stringstream forged(with_inputs("3"));
    EXPECT_THROW(AddPowerModel::load(forged), ParseError);
  }
  // The untouched text still loads, so the header is all that differed.
  std::stringstream intact(saved);
  EXPECT_EQ(AddPowerModel::load(intact).num_inputs(), m.num_inputs());
}

TEST(ModelSerialization, CompressedCopiesSerializeIndependently) {
  const AddPowerModel m = sample_model(dd::ApproxMode::kAverage, 0);
  const AddPowerModel small = m.compress(10);
  std::stringstream s1, s2;
  m.save(s1);
  small.save(s2);
  const AddPowerModel l1 = AddPowerModel::load(s1);
  const AddPowerModel l2 = AddPowerModel::load(s2);
  EXPECT_EQ(l1.size(), m.size());
  EXPECT_EQ(l2.size(), small.size());
  expect_same_function(small, l2);
}

}  // namespace
}  // namespace cfpm::power
