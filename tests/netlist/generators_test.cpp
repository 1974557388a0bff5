#include "netlist/generators.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace cfpm::netlist {
namespace {

std::vector<std::uint8_t> eval_all(const Netlist& n,
                                   std::span<const std::uint8_t> in) {
  std::vector<double> loads(n.num_signals(), 0.0);
  sim::GateLevelSimulator s(n, loads);
  return s.eval(in);
}

TEST(Generators, AdderComputesSums) {
  const unsigned w = 4;
  Netlist n = gen::ripple_carry_adder(w);
  ASSERT_EQ(n.num_inputs(), 2 * w + 1);
  for (unsigned a = 0; a < 16; ++a) {
    for (unsigned b = 0; b < 16; b += 3) {
      for (unsigned cin = 0; cin <= 1; ++cin) {
        std::vector<std::uint8_t> in;
        for (unsigned i = 0; i < w; ++i) {  // interleaved a_i, b_i
          in.push_back((a >> i) & 1u);
          in.push_back((b >> i) & 1u);
        }
        in.push_back(static_cast<std::uint8_t>(cin));
        const auto vals = eval_all(n, in);
        unsigned sum = 0;
        for (unsigned i = 0; i < w; ++i) {
          if (vals[n.find("sum" + std::to_string(i))]) sum |= 1u << i;
        }
        if (vals[n.outputs().back()]) sum |= 1u << w;  // cout
        EXPECT_EQ(sum, a + b + cin) << a << "+" << b << "+" << cin;
      }
    }
  }
}

TEST(Generators, ComparatorOrdersCorrectly) {
  const unsigned w = 3;
  Netlist n = gen::magnitude_comparator(w);
  for (unsigned a = 0; a < 8; ++a) {
    for (unsigned b = 0; b < 8; ++b) {
      std::vector<std::uint8_t> in;
      for (unsigned i = 0; i < w; ++i) {  // interleaved a_i, b_i
        in.push_back((a >> i) & 1u);
        in.push_back((b >> i) & 1u);
      }
      const auto vals = eval_all(n, in);
      const bool eq = vals[n.outputs()[0]];
      const bool gt = vals[n.outputs()[1]];
      const bool lt = vals[n.outputs()[2]];
      EXPECT_EQ(eq, a == b);
      EXPECT_EQ(gt, a > b);
      EXPECT_EQ(lt, a < b);
    }
  }
}

TEST(Generators, FlatMuxSelects) {
  // Input order: s0..s2, en, d0..d7 (selects first for compact DDs).
  Netlist n = gen::mux_flat(3);
  for (unsigned sel = 0; sel < 8; ++sel) {
    for (unsigned data_bit = 0; data_bit <= 1; ++data_bit) {
      std::vector<std::uint8_t> in(12, 0);
      for (unsigned s = 0; s < 3; ++s) in[s] = (sel >> s) & 1u;
      in[3] = 1;  // enable
      in[4 + sel] = static_cast<std::uint8_t>(data_bit);  // d[sel]
      const auto vals = eval_all(n, in);
      EXPECT_EQ(vals[n.outputs()[0]] != 0, data_bit != 0) << "sel " << sel;
    }
  }
  // Disabled -> 0 regardless.
  std::vector<std::uint8_t> in(12, 1);
  in[3] = 0;
  const auto vals = eval_all(n, in);
  EXPECT_EQ(vals[n.outputs()[0]], 0);
}

TEST(Generators, TwoLevelMuxMatchesFlat) {
  Netlist two = gen::mux_two_level();
  Netlist flat = gen::mux_flat(4);
  ASSERT_EQ(two.num_inputs(), flat.num_inputs());
  Xoshiro256 rng(5);
  std::vector<std::uint8_t> in(21);
  for (int trial = 0; trial < 500; ++trial) {
    for (auto& b : in) b = static_cast<std::uint8_t>(rng.next_below(2));
    const auto v1 = eval_all(two, in);
    const auto v2 = eval_all(flat, in);
    EXPECT_EQ(v1[two.outputs()[0]], v2[flat.outputs()[0]]) << trial;
  }
}

TEST(Generators, DecoderOneHot) {
  Netlist n = gen::decoder(3);
  for (unsigned a = 0; a < 8; ++a) {
    std::vector<std::uint8_t> in;
    for (unsigned i = 0; i < 3; ++i) in.push_back((a >> i) & 1u);
    in.push_back(1);  // enable
    const auto vals = eval_all(n, in);
    for (unsigned m = 0; m < 8; ++m) {
      EXPECT_EQ(vals[n.outputs()[m]] != 0, m == a) << "a=" << a << " m=" << m;
    }
  }
}

TEST(Generators, ParityTreeComputesParity) {
  Netlist n = gen::parity_tree(8, 1);
  Xoshiro256 rng(3);
  std::vector<std::uint8_t> in(8);
  for (int trial = 0; trial < 256; ++trial) {
    unsigned ones = 0;
    for (unsigned i = 0; i < 8; ++i) {
      in[i] = (trial >> i) & 1u;
      ones += in[i];
    }
    const auto vals = eval_all(n, in);
    EXPECT_EQ(vals[n.outputs()[0]] != 0, (ones % 2) == 1) << trial;
  }
}

TEST(Generators, AluFunctions) {
  const unsigned w = 4;
  Netlist n = gen::alu(w);
  const unsigned mask = (1u << w) - 1;
  for (unsigned a = 0; a < 16; a += 1) {
    for (unsigned b = 0; b < 16; b += 2) {
      for (unsigned f = 0; f < 4; ++f) {
        std::vector<std::uint8_t> in;
        for (unsigned i = 0; i < w; ++i) {  // interleaved a_i, b_i
          in.push_back((a >> i) & 1u);
          in.push_back((b >> i) & 1u);
        }
        in.push_back(f & 1u);         // f0: 0 arith / 1 logic
        in.push_back((f >> 1) & 1u);  // f1
        const auto vals = eval_all(n, in);
        unsigned y = 0;
        for (unsigned i = 0; i < w; ++i) {
          std::string name = "y";
          name += std::to_string(i);
          if (vals[n.find(name)]) y |= 1u << i;
        }
        unsigned expect = 0;
        switch (f) {
          case 0: expect = (a + b) & mask; break;          // add
          case 2: expect = (a - b) & mask; break;          // sub
          case 1: expect = a & b; break;                   // and
          case 3: expect = a | b; break;                   // or
        }
        EXPECT_EQ(y, expect) << "a=" << a << " b=" << b << " f=" << f;
      }
    }
  }
}

TEST(Generators, RandomLogicDeterministic) {
  gen::RandomLogicSpec spec;
  spec.seed = 42;
  Netlist a = gen::random_logic(spec);
  Netlist b = gen::random_logic(spec);
  EXPECT_EQ(a.num_signals(), b.num_signals());
  for (SignalId s = 0; s < a.num_signals(); ++s) {
    EXPECT_EQ(a.signal(s).type, b.signal(s).type);
    EXPECT_EQ(a.signal(s).name, b.signal(s).name);
  }
}

TEST(Generators, RandomLogicRespectsWindow) {
  gen::RandomLogicSpec spec;
  spec.num_inputs = 20;
  spec.target_gates = 60;
  spec.window = 6;
  spec.seed = 9;
  Netlist n = gen::random_logic(spec);
  // Transitive input support of every signal fits in a 6-wide window.
  std::vector<std::pair<unsigned, unsigned>> win(n.num_signals());
  for (SignalId s = 0; s < n.num_signals(); ++s) {
    if (n.signal(s).is_input) {
      const unsigned idx = n.input_index(s);
      win[s] = {idx, idx};
      continue;
    }
    unsigned lo = ~0u, hi = 0;
    for (SignalId f : n.fanins(s)) {
      lo = std::min(lo, win[f].first);
      hi = std::max(hi, win[f].second);
    }
    win[s] = {lo, hi};
    EXPECT_LE(hi - lo + 1, spec.window);
  }
}

TEST(Generators, McncNamesAllBuild) {
  // Expected (n, N) from Table 1. Input counts must match exactly; gate
  // counts are approximate (structural stand-ins whose ADD complexity is
  // additionally tuned to the paper's MAX budgets -- see DESIGN.md), so
  // they only need to stay within a factor of the mapped netlists.
  struct Row {
    const char* name;
    std::size_t n;
    std::size_t paper_gates;
  };
  const Row rows[] = {
      {"alu2", 10, 252}, {"alu4", 14, 460}, {"cmb", 16, 34},
      {"cm150", 21, 46}, {"cm85", 11, 31},  {"comp", 32, 93},
      {"decod", 5, 23},  {"k2", 45, 1206},  {"mux", 21, 61},
      {"parity", 16, 36}, {"pcle", 19, 45}, {"x1", 49, 228},
      {"x2", 10, 40},
  };
  for (const Row& r : rows) {
    Netlist n = gen::mcnc_like(r.name);
    n.validate();
    EXPECT_EQ(n.num_inputs(), r.n) << r.name;
    const double ratio = static_cast<double>(n.num_gates()) /
                         static_cast<double>(r.paper_gates);
    EXPECT_GT(ratio, 0.35) << r.name << " gates=" << n.num_gates();
    EXPECT_LT(ratio, 1.7) << r.name << " gates=" << n.num_gates();
    EXPECT_EQ(n.name(), r.name);
  }
}

TEST(Generators, McncListMatchesTableOrder) {
  const auto names = gen::mcnc_names();
  EXPECT_EQ(names.size(), 13u);
  EXPECT_EQ(names.front(), "alu2");
  EXPECT_EQ(names.back(), "x2");
}

TEST(Generators, UnknownMcncNameThrows) {
  EXPECT_THROW(gen::mcnc_like("c6288"), Error);
}

TEST(Generators, C17MatchesKnownStructure) {
  Netlist n = gen::c17();
  EXPECT_EQ(n.num_inputs(), 5u);
  EXPECT_EQ(n.num_gates(), 6u);
  const auto vals = eval_all(n, std::vector<std::uint8_t>{1, 1, 1, 1, 1});
  // With all inputs 1: 10 = NAND(1,1)=0, 11=0, 16=NAND(1,0)=1, 19=1,
  // 22=NAND(0,1)=1, 23=NAND(1,1)=0.
  EXPECT_EQ(vals[n.find("22")], 1);
  EXPECT_EQ(vals[n.find("23")], 0);
}

}  // namespace
}  // namespace cfpm::netlist
