#include "netlist/netlist.hpp"

#include <gtest/gtest.h>

#include "netlist/library.hpp"
#include "support/error.hpp"

namespace cfpm::netlist {
namespace {

Netlist example_unit() {
  // Fig. 2.a of the paper: g1 = NOT x1, g2 = NOT x2, g3 = OR(x1, x2).
  Netlist n("fig2");
  const SignalId x1 = n.add_input("x1");
  const SignalId x2 = n.add_input("x2");
  n.add_gate(GateType::kNot, {x1}, "g1");
  n.add_gate(GateType::kNot, {x2}, "g2");
  n.add_gate(GateType::kOr, {x1, x2}, "g3");
  n.mark_output(n.find("g1"));
  n.mark_output(n.find("g2"));
  n.mark_output(n.find("g3"));
  return n;
}

TEST(Netlist, BasicTopology) {
  Netlist n = example_unit();
  EXPECT_EQ(n.num_inputs(), 2u);
  EXPECT_EQ(n.num_gates(), 3u);
  EXPECT_EQ(n.num_signals(), 5u);
  EXPECT_EQ(n.outputs().size(), 3u);
  n.validate();
}

TEST(Netlist, FindByName) {
  Netlist n = example_unit();
  EXPECT_NE(n.find("g3"), kInvalidSignal);
  EXPECT_EQ(n.find("nope"), kInvalidSignal);
  EXPECT_EQ(n.signal(n.find("g3")).type, GateType::kOr);
}

TEST(Netlist, InputIndexing) {
  Netlist n = example_unit();
  EXPECT_EQ(n.input_index(n.find("x1")), 0u);
  EXPECT_EQ(n.input_index(n.find("x2")), 1u);
  EXPECT_THROW(n.input_index(n.find("g1")), ContractError);
}

TEST(Netlist, DuplicateNamesRejected) {
  Netlist n;
  n.add_input("a");
  EXPECT_THROW(n.add_input("a"), ContractError);
  const SignalId a = n.find("a");
  n.add_gate(GateType::kNot, {a}, "b");
  EXPECT_THROW(n.add_gate(GateType::kNot, {a}, "b"), ContractError);
}

TEST(Netlist, TopologicalOrderEnforced) {
  Netlist n;
  const SignalId a = n.add_input("a");
  // Fanins must already exist: forward reference is impossible by id.
  EXPECT_THROW(n.add_gate(GateType::kNot, {static_cast<SignalId>(99)}, "g"),
               ContractError);
  n.add_gate(GateType::kNot, {a}, "g");
}

TEST(Netlist, ArityChecked) {
  Netlist n;
  const SignalId a = n.add_input("a");
  EXPECT_THROW(n.add_gate(GateType::kAnd, {a}, "g"), ContractError);
  EXPECT_THROW(n.add_gate(GateType::kNot, {a, a}, "g"), ContractError);
  EXPECT_THROW(n.add_gate(GateType::kConst0, {a}, "g"), ContractError);
  n.add_gate(GateType::kAnd, {a, a}, "ok");  // duplicate fanins allowed
}

TEST(Netlist, FanoutsComputed) {
  Netlist n = example_unit();
  const auto& fo = n.fanouts();
  const SignalId x1 = n.find("x1");
  // x1 feeds g1 and g3.
  EXPECT_EQ(fo[x1].size(), 2u);
}

TEST(Netlist, MarkOutputIdempotent) {
  Netlist n = example_unit();
  const std::size_t before = n.outputs().size();
  n.mark_output(n.find("g3"));
  EXPECT_EQ(n.outputs().size(), before);
}

TEST(Netlist, LoadAnnotationFollowsFanout) {
  // Paper rule: load of a driver = sum of its fanout gates' input caps.
  Netlist n = example_unit();
  GateLibrary lib = GateLibrary::uniform(2.0, 0.0);
  const auto loads = n.annotate_loads(lib);
  // x1 drives g1 (NOT) and g3 (OR): 2 pins -> 4.0 fF.
  EXPECT_DOUBLE_EQ(loads[n.find("x1")], 4.0);
  // g1..g3 drive nothing (no out load in this lib).
  EXPECT_DOUBLE_EQ(loads[n.find("g1")], 0.0);
}

TEST(Netlist, OutputLoadAdded) {
  Netlist n = example_unit();
  GateLibrary lib = GateLibrary::uniform(2.0, 7.5);
  const auto loads = n.annotate_loads(lib);
  EXPECT_DOUBLE_EQ(loads[n.find("g3")], 7.5);
  // Inputs are not primary outputs here.
  EXPECT_DOUBLE_EQ(loads[n.find("x1")], 4.0);
}

TEST(Netlist, WireLoadAddsPerFanoutBranch) {
  Netlist n = example_unit();
  GateLibrary lib = GateLibrary::uniform(2.0, 0.0);
  lib.set_wire_cap_per_fanout_ff(1.5);
  const auto loads = n.annotate_loads(lib);
  // x1 drives two pins: 2*(2.0 + 1.5) = 7.0 fF.
  EXPECT_DOUBLE_EQ(loads[n.find("x1")], 7.0);
}

TEST(Netlist, StandardLibraryHasPositiveCaps) {
  GateLibrary lib = GateLibrary::standard();
  EXPECT_GT(lib.input_cap_ff(GateType::kNand), 0.0);
  EXPECT_GT(lib.input_cap_ff(GateType::kXor), lib.input_cap_ff(GateType::kNot));
  EXPECT_DOUBLE_EQ(lib.input_cap_ff(GateType::kConst0), 0.0);
}

TEST(Netlist, LevelsAndDepth) {
  Netlist n = example_unit();
  const auto level = n.levels();
  EXPECT_EQ(level[n.find("x1")], 0u);
  EXPECT_EQ(level[n.find("g1")], 1u);
  EXPECT_EQ(level[n.find("g3")], 1u);
  EXPECT_EQ(n.depth(), 1u);

  // A chain deepens one level per gate.
  Netlist chain("chain");
  SignalId prev = chain.add_input("a");
  for (int i = 0; i < 5; ++i) {
    std::string name = "n";
    name += std::to_string(i);
    prev = chain.add_gate(GateType::kNot, {prev}, name);
  }
  EXPECT_EQ(chain.depth(), 5u);
  EXPECT_EQ(chain.levels()[prev], 5u);
}

TEST(GateEval, ScalarAgreesWithWordEvaluation) {
  for (GateType t : {GateType::kAnd, GateType::kNand, GateType::kOr,
                     GateType::kNor, GateType::kXor, GateType::kXnor}) {
    for (unsigned m = 0; m < 8; ++m) {
      const std::uint8_t bits[3] = {static_cast<std::uint8_t>(m & 1),
                                    static_cast<std::uint8_t>((m >> 1) & 1),
                                    static_cast<std::uint8_t>((m >> 2) & 1)};
      const std::uint64_t words[3] = {bits[0] ? ~0ull : 0, bits[1] ? ~0ull : 0,
                                      bits[2] ? ~0ull : 0};
      const bool scalar = eval_gate(t, bits);
      const bool word = (eval_gate_words(t, words) & 1ull) != 0;
      EXPECT_EQ(scalar, word) << gate_type_name(t) << " minterm " << m;
    }
  }
}

TEST(GateEval, UnaryAndConstants) {
  const std::uint8_t one[1] = {1};
  const std::uint8_t zero[1] = {0};
  EXPECT_TRUE(eval_gate(GateType::kBuf, one));
  EXPECT_FALSE(eval_gate(GateType::kNot, one));
  EXPECT_TRUE(eval_gate(GateType::kNot, zero));
  EXPECT_FALSE(eval_gate(GateType::kConst0, {}));
  EXPECT_TRUE(eval_gate(GateType::kConst1, {}));
}

TEST(GateTypeNames, RoundTrip) {
  for (std::size_t i = 0; i < kNumGateTypes; ++i) {
    const GateType t = static_cast<GateType>(i);
    GateType parsed;
    ASSERT_TRUE(parse_gate_type(gate_type_name(t), parsed));
    EXPECT_EQ(parsed, t);
  }
  GateType t;
  EXPECT_TRUE(parse_gate_type("buff", t));
  EXPECT_EQ(t, GateType::kBuf);
  EXPECT_TRUE(parse_gate_type("inv", t));
  EXPECT_EQ(t, GateType::kNot);
  EXPECT_FALSE(parse_gate_type("MAJ3", t));
}

}  // namespace
}  // namespace cfpm::netlist
