#include "sim/trace_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "netlist/generators.hpp"
#include "support/error.hpp"

namespace cfpm::sim {
namespace {

using netlist::Netlist;

InputSequence toggle_sequence() {
  // input 0: 0,1,1,0 ; input 1..4: constant 0.
  InputSequence seq(5, 4);
  seq.set_bit(0, 1, true);
  seq.set_bit(0, 2, true);
  return seq;
}

TEST(Vcd, HeaderDeclaresAllSignals) {
  Netlist n = netlist::gen::c17();
  GateLevelSimulator sim(n, netlist::GateLibrary::standard());
  std::ostringstream os;
  write_vcd(os, n, toggle_sequence(), &sim);
  const std::string out = os.str();
  EXPECT_NE(out.find("$timescale 1ns $end"), std::string::npos);
  EXPECT_NE(out.find("$scope module c17 $end"), std::string::npos);
  // All 11 signals (5 inputs + 6 gates) declared.
  std::size_t vars = 0, pos = 0;
  while ((pos = out.find("$var wire 1 ", pos)) != std::string::npos) {
    ++vars;
    ++pos;
  }
  EXPECT_EQ(vars, n.num_signals());
  EXPECT_NE(out.find("$dumpvars"), std::string::npos);
}

TEST(Vcd, InputsOnlyWhenNoSimulator) {
  Netlist n = netlist::gen::c17();
  std::ostringstream os;
  write_vcd(os, n, toggle_sequence());
  const std::string out = os.str();
  std::size_t vars = 0, pos = 0;
  while ((pos = out.find("$var wire 1 ", pos)) != std::string::npos) {
    ++vars;
    ++pos;
  }
  EXPECT_EQ(vars, n.num_inputs());
}

TEST(Vcd, OnlyChangesAreDumped) {
  Netlist n = netlist::gen::c17();
  std::ostringstream os;
  write_vcd(os, n, toggle_sequence());
  const std::string out = os.str();
  // Input 0 (id '!') changes at t=0 (initial), t=1 (rises), t=3 (falls);
  // not at t=2.
  EXPECT_NE(out.find("#0"), std::string::npos);
  EXPECT_NE(out.find("1!"), std::string::npos);
  EXPECT_NE(out.find("#3"), std::string::npos);
  EXPECT_EQ(out.find("#2\n"), std::string::npos);  // nothing changed at t=2
}

TEST(Vcd, MultiCharIdsBeyond94Signals) {
  // 100-input circuit forces 2-character identifier codes.
  Netlist n("wide");
  for (int i = 0; i < 100; ++i) {
    std::string name = "x";
    name += std::to_string(i);
    n.add_input(name);
  }
  n.add_gate(netlist::GateType::kOr, {0u, 1u}, "y");
  n.mark_output(n.find("y"));
  InputSequence seq(100, 2);
  seq.set_bit(99, 1, true);
  std::ostringstream os;
  write_vcd(os, n, seq);
  const std::string out = os.str();
  // Identifier index 99 = '!' + 5, '"' (little endian 94+5): "&\"".
  EXPECT_NE(out.find("x99"), std::string::npos);
  EXPECT_NE(out.find("1&\""), std::string::npos);  // x99 rising at t=1
  EXPECT_TRUE(out.ends_with("#2\n"));
}

TEST(Vcd, RejectsMismatchedSequence) {
  Netlist n = netlist::gen::c17();
  InputSequence wrong(3, 4);
  std::ostringstream os;
  EXPECT_THROW(write_vcd(os, n, wrong), ContractError);
}

}  // namespace
}  // namespace cfpm::sim
