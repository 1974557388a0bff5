#include "netlist/generators.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "netlist/transform.hpp"
#include "support/assert.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace cfpm::netlist::gen {

namespace {

std::string idx_name(std::string_view base, unsigned i) {
  return std::string(base) + std::to_string(i);
}

}  // namespace

Netlist c17() {
  Netlist n("c17");
  const SignalId g1 = n.add_input("1");
  const SignalId g2 = n.add_input("2");
  const SignalId g3 = n.add_input("3");
  const SignalId g6 = n.add_input("6");
  const SignalId g7 = n.add_input("7");
  const SignalId g10 = n.add_gate(GateType::kNand, {g1, g3}, "10");
  const SignalId g11 = n.add_gate(GateType::kNand, {g3, g6}, "11");
  const SignalId g16 = n.add_gate(GateType::kNand, {g2, g11}, "16");
  const SignalId g19 = n.add_gate(GateType::kNand, {g11, g7}, "19");
  const SignalId g22 = n.add_gate(GateType::kNand, {g10, g16}, "22");
  const SignalId g23 = n.add_gate(GateType::kNand, {g16, g19}, "23");
  n.mark_output(g22);
  n.mark_output(g23);
  n.validate();
  return n;
}

Netlist ripple_carry_adder(unsigned width) {
  CFPM_REQUIRE(width >= 1);
  Netlist n("rca" + std::to_string(width));
  std::vector<SignalId> a(width), b(width);
  // Operand bits are interleaved (a0, b0, a1, b1, ...): adder and
  // comparator functions have linear decision diagrams in this order but
  // exponential ones with blocked operands.
  for (unsigned i = 0; i < width; ++i) {
    a[i] = n.add_input(idx_name("a", i));
    b[i] = n.add_input(idx_name("b", i));
  }
  SignalId carry = n.add_input("cin");
  for (unsigned i = 0; i < width; ++i) {
    const SignalId axb =
        n.add_gate(GateType::kXor, {a[i], b[i]}, idx_name("axb", i));
    const SignalId sum =
        n.add_gate(GateType::kXor, {axb, carry}, idx_name("sum", i));
    const SignalId c1 =
        n.add_gate(GateType::kAnd, {a[i], b[i]}, idx_name("cgen", i));
    const SignalId c2 =
        n.add_gate(GateType::kAnd, {axb, carry}, idx_name("cprop", i));
    carry = n.add_gate(GateType::kOr, {c1, c2}, idx_name("carry", i));
    n.mark_output(sum);
  }
  n.mark_output(carry);
  n.validate();
  return n;
}

Netlist magnitude_comparator(unsigned width) {
  CFPM_REQUIRE(width >= 1);
  Netlist n("cmp" + std::to_string(width));
  std::vector<SignalId> a(width), b(width);
  // Interleaved operands: see ripple_carry_adder.
  for (unsigned i = 0; i < width; ++i) {
    a[i] = n.add_input(idx_name("a", i));
    b[i] = n.add_input(idx_name("b", i));
  }

  // Ripple from MSB: eq/gt accumulate down the bits.
  SignalId eq_acc = kInvalidSignal;
  SignalId gt_acc = kInvalidSignal;
  for (unsigned k = 0; k < width; ++k) {
    const unsigned i = width - 1 - k;  // MSB first
    const SignalId eq_i =
        n.add_gate(GateType::kXnor, {a[i], b[i]}, idx_name("eq", i));
    const SignalId nb =
        n.add_gate(GateType::kNot, {b[i]}, idx_name("nb", i));
    const SignalId gt_i =
        n.add_gate(GateType::kAnd, {a[i], nb}, idx_name("gtb", i));
    if (k == 0) {
      eq_acc = eq_i;
      gt_acc = gt_i;
    } else {
      const SignalId g2 = n.add_gate(GateType::kAnd, {eq_acc, gt_i},
                                     idx_name("gtp", i));
      gt_acc = n.add_gate(GateType::kOr, {gt_acc, g2}, idx_name("gta", i));
      eq_acc = n.add_gate(GateType::kAnd, {eq_acc, eq_i}, idx_name("eqa", i));
    }
  }
  const SignalId lt = n.add_gate(GateType::kNor, {eq_acc, gt_acc}, "lt");
  n.mark_output(eq_acc);
  n.mark_output(gt_acc);
  n.mark_output(lt);
  n.validate();
  return n;
}

Netlist mux_flat(unsigned sel_bits) {
  CFPM_REQUIRE(sel_bits >= 1 && sel_bits <= 5);
  const unsigned d = 1u << sel_bits;
  Netlist n("muxf" + std::to_string(d));
  std::vector<SignalId> data(d), sel(sel_bits), nsel(sel_bits);
  // Select lines are declared before data: with the builder's in-order
  // variable placement this keeps the mux's decision diagrams linear
  // instead of exponential in the data-input count.
  for (unsigned i = 0; i < sel_bits; ++i) sel[i] = n.add_input(idx_name("s", i));
  const SignalId en = n.add_input("en");
  for (unsigned i = 0; i < d; ++i) data[i] = n.add_input(idx_name("d", i));
  for (unsigned i = 0; i < sel_bits; ++i) {
    nsel[i] = n.add_gate(GateType::kNot, {sel[i]}, idx_name("ns", i));
  }
  std::vector<SignalId> terms(d);
  for (unsigned i = 0; i < d; ++i) {
    std::vector<SignalId> fanins{data[i], en};
    for (unsigned bpos = 0; bpos < sel_bits; ++bpos) {
      fanins.push_back(((i >> bpos) & 1u) ? sel[bpos] : nsel[bpos]);
    }
    terms[i] = n.add_gate(GateType::kAnd, fanins, idx_name("t", i));
  }
  // Balanced OR tree of the minterms.
  unsigned counter = 0;
  while (terms.size() > 1) {
    std::vector<SignalId> next;
    for (std::size_t i = 0; i + 1 < terms.size(); i += 2) {
      next.push_back(n.add_gate(GateType::kOr, {terms[i], terms[i + 1]},
                                idx_name("o", counter++)));
    }
    if (terms.size() % 2 == 1) next.push_back(terms.back());
    terms = std::move(next);
  }
  const SignalId out = n.add_gate(GateType::kBuf, {terms[0]}, "y");
  n.mark_output(out);
  n.validate();
  return n;
}

namespace {

/// 4:1 mux subcircuit; shares the caller's select lines (already inverted).
SignalId mux4(Netlist& n, std::span<const SignalId> d, SignalId s0, SignalId ns0,
              SignalId s1, SignalId ns1, std::string_view prefix) {
  CFPM_ASSERT(d.size() == 4);
  const SignalId t0 =
      n.add_gate(GateType::kAnd, {d[0], ns1, ns0}, std::string(prefix) + "t0");
  const SignalId t1 =
      n.add_gate(GateType::kAnd, {d[1], ns1, s0}, std::string(prefix) + "t1");
  const SignalId t2 =
      n.add_gate(GateType::kAnd, {d[2], s1, ns0}, std::string(prefix) + "t2");
  const SignalId t3 =
      n.add_gate(GateType::kAnd, {d[3], s1, s0}, std::string(prefix) + "t3");
  const SignalId o01 =
      n.add_gate(GateType::kOr, {t0, t1}, std::string(prefix) + "o01");
  const SignalId o23 =
      n.add_gate(GateType::kOr, {t2, t3}, std::string(prefix) + "o23");
  return n.add_gate(GateType::kOr, {o01, o23}, std::string(prefix) + "y");
}

}  // namespace

Netlist mux_two_level() {
  Netlist n("mux16x2");
  std::vector<SignalId> data(16), sel(4);
  // Selects first: see mux_flat on diagram-friendly input ordering.
  for (unsigned i = 0; i < 4; ++i) sel[i] = n.add_input(idx_name("s", i));
  const SignalId en = n.add_input("en");
  for (unsigned i = 0; i < 16; ++i) data[i] = n.add_input(idx_name("d", i));
  std::vector<SignalId> nsel(4);
  for (unsigned i = 0; i < 4; ++i) {
    nsel[i] = n.add_gate(GateType::kNot, {sel[i]}, idx_name("ns", i));
  }
  std::vector<SignalId> group(4);
  for (unsigned g = 0; g < 4; ++g) {
    const std::array<SignalId, 4> d{data[4 * g], data[4 * g + 1],
                                    data[4 * g + 2], data[4 * g + 3]};
    group[g] = mux4(n, d, sel[0], nsel[0], sel[1], nsel[1],
                    idx_name("g", g) + "_");
  }
  const SignalId inner =
      mux4(n, group, sel[2], nsel[2], sel[3], nsel[3], "top_");
  const SignalId out = n.add_gate(GateType::kAnd, {inner, en}, "y");
  n.mark_output(out);
  n.validate();
  return n;
}

Netlist decoder(unsigned bits) {
  CFPM_REQUIRE(bits >= 1 && bits <= 6);
  Netlist n("dec" + std::to_string(bits));
  std::vector<SignalId> a(bits), na(bits);
  for (unsigned i = 0; i < bits; ++i) a[i] = n.add_input(idx_name("a", i));
  const SignalId en = n.add_input("en");
  for (unsigned i = 0; i < bits; ++i) {
    na[i] = n.add_gate(GateType::kNot, {a[i]}, idx_name("na", i));
  }
  for (unsigned m = 0; m < (1u << bits); ++m) {
    std::vector<SignalId> fanins{en};
    for (unsigned bpos = 0; bpos < bits; ++bpos) {
      fanins.push_back(((m >> bpos) & 1u) ? a[bpos] : na[bpos]);
    }
    const SignalId y = n.add_gate(GateType::kAnd, fanins, idx_name("y", m));
    n.mark_output(y);
  }
  n.validate();
  return n;
}

Netlist parity_tree(unsigned width, unsigned native_xor_levels) {
  CFPM_REQUIRE(width >= 2);
  Netlist n("par" + std::to_string(width));
  std::vector<SignalId> level(width);
  for (unsigned i = 0; i < width; ++i) level[i] = n.add_input(idx_name("x", i));

  unsigned depth = 0;
  unsigned counter = 0;
  while (level.size() > 1) {
    std::vector<SignalId> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      const SignalId a = level[i];
      const SignalId b = level[i + 1];
      SignalId y;
      if (depth < native_xor_levels) {
        y = n.add_gate(GateType::kXor, {a, b}, idx_name("px", counter++));
      } else {
        // Discrete xor: (a | b) & ~(a & b).
        const SignalId o =
            n.add_gate(GateType::kOr, {a, b}, idx_name("po", counter));
        const SignalId an =
            n.add_gate(GateType::kNand, {a, b}, idx_name("pn", counter));
        y = n.add_gate(GateType::kAnd, {o, an}, idx_name("px", counter));
        ++counter;
      }
      next.push_back(y);
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
    ++depth;
  }
  n.mark_output(level[0]);
  n.validate();
  return n;
}

Netlist alu(unsigned width) {
  CFPM_REQUIRE(width >= 1);
  Netlist n("alu" + std::to_string(width));
  std::vector<SignalId> a(width), b(width);
  // Interleaved operands: see ripple_carry_adder.
  for (unsigned i = 0; i < width; ++i) {
    a[i] = n.add_input(idx_name("a", i));
    b[i] = n.add_input(idx_name("b", i));
  }
  const SignalId f0 = n.add_input("f0");  // 0: arithmetic, 1: logic
  const SignalId f1 = n.add_input("f1");  // arith: 0 add / 1 sub; logic: 0 and / 1 or
  const SignalId nf0 = n.add_gate(GateType::kNot, {f0}, "nf0");
  const SignalId nf1 = n.add_gate(GateType::kNot, {f1}, "nf1");

  // Operand conditioning for subtraction: b ^ f1 with carry-in f1 (two's
  // complement), active only in arithmetic mode.
  const SignalId cin = n.add_gate(GateType::kAnd, {f1, nf0}, "cin");
  SignalId carry = cin;
  std::vector<SignalId> arith(width), logic(width);
  for (unsigned i = 0; i < width; ++i) {
    const SignalId bx =
        n.add_gate(GateType::kXor, {b[i], cin}, idx_name("bx", i));
    const SignalId axb =
        n.add_gate(GateType::kXor, {a[i], bx}, idx_name("axb", i));
    arith[i] = n.add_gate(GateType::kXor, {axb, carry}, idx_name("sum", i));
    const SignalId c1 =
        n.add_gate(GateType::kAnd, {a[i], bx}, idx_name("cg", i));
    const SignalId c2 =
        n.add_gate(GateType::kAnd, {axb, carry}, idx_name("cp", i));
    carry = n.add_gate(GateType::kOr, {c1, c2}, idx_name("cy", i));

    const SignalId land =
        n.add_gate(GateType::kAnd, {a[i], b[i]}, idx_name("ln", i));
    const SignalId lor =
        n.add_gate(GateType::kOr, {a[i], b[i]}, idx_name("lo", i));
    const SignalId land_sel =
        n.add_gate(GateType::kAnd, {land, nf1}, idx_name("lns", i));
    const SignalId lor_sel =
        n.add_gate(GateType::kAnd, {lor, f1}, idx_name("los", i));
    logic[i] = n.add_gate(GateType::kOr, {land_sel, lor_sel}, idx_name("lg", i));
  }
  for (unsigned i = 0; i < width; ++i) {
    const SignalId asel =
        n.add_gate(GateType::kAnd, {arith[i], nf0}, idx_name("as", i));
    const SignalId lsel =
        n.add_gate(GateType::kAnd, {logic[i], f0}, idx_name("ls", i));
    const SignalId y = n.add_gate(GateType::kOr, {asel, lsel}, idx_name("y", i));
    n.mark_output(y);
  }
  const SignalId cout = n.add_gate(GateType::kAnd, {carry, nf0}, "cout");
  n.mark_output(cout);
  n.validate();
  return n;
}

Netlist random_logic(const RandomLogicSpec& spec) {
  CFPM_REQUIRE(spec.num_inputs >= 2);
  CFPM_REQUIRE(spec.num_outputs >= 1);
  CFPM_REQUIRE(spec.window >= 2);
  Netlist n(spec.name);
  Xoshiro256 rng(spec.seed);

  std::vector<SignalId> pins(spec.num_inputs);
  for (unsigned i = 0; i < spec.num_inputs; ++i) {
    pins[i] = n.add_input(idx_name("x", i));
  }

  // Each internal signal is tagged with the window of primary inputs it
  // (transitively) depends on; gates only combine signals from overlapping
  // or adjacent windows so that every function has bounded support.
  struct Tagged {
    SignalId id;
    unsigned lo;  // window [lo, hi] over primary-input indices
    unsigned hi;
  };
  std::vector<Tagged> pool;
  pool.reserve(spec.num_inputs + spec.target_gates);
  for (unsigned i = 0; i < spec.num_inputs; ++i) {
    pool.push_back({pins[i], i, i});
  }

  const GateType and_family[] = {GateType::kAnd, GateType::kOr,
                                 GateType::kNand, GateType::kNor};
  const GateType xor_family[] = {GateType::kXor, GateType::kXnor};
  std::vector<std::uint32_t> fanout_count(spec.num_inputs + spec.target_gates,
                                          0);
  unsigned made = 0;
  unsigned attempts = 0;
  while (made < spec.target_gates && attempts < spec.target_gates * 50) {
    ++attempts;
    GateType type;
    const double kind = rng.next_double();
    if (kind < spec.not_fraction) {
      type = GateType::kNot;
    } else if (kind <
               spec.not_fraction + (1.0 - spec.not_fraction) * spec.xor_fraction) {
      type = xor_family[rng.next_below(std::size(xor_family))];
    } else {
      type = and_family[rng.next_below(std::size(and_family))];
    }
    // Bias operand choice toward signals without fan-out yet (trees).
    auto pick = [&]() -> const Tagged& {
      if (rng.next_bool(spec.tree_bias)) {
        for (unsigned tries = 0; tries < 12; ++tries) {
          const Tagged& c = pool[rng.next_below(pool.size())];
          if (fanout_count[c.id] == 0) return c;
        }
      }
      return pool[rng.next_below(pool.size())];
    };
    if (type == GateType::kNot) {
      const Tagged& src = pick();
      ++fanout_count[src.id];
      const SignalId y =
          n.add_gate(GateType::kNot, {src.id}, idx_name("g", made));
      pool.push_back({y, src.lo, src.hi});
      ++made;
      continue;
    }
    // Pick a window anchor, then 2-3 operands whose combined support fits.
    const Tagged& first = pick();
    const unsigned arity = 2 + static_cast<unsigned>(rng.next_below(2));
    std::vector<SignalId> fanins{first.id};
    unsigned lo = first.lo, hi = first.hi;
    for (unsigned k = 1; k < arity; ++k) {
      // Rejection-sample an operand keeping the union window small.
      for (unsigned tries = 0; tries < 16; ++tries) {
        const Tagged& cand = pick();
        const unsigned nlo = std::min(lo, cand.lo);
        const unsigned nhi = std::max(hi, cand.hi);
        if (nhi - nlo + 1 <= spec.window && cand.id != fanins.back()) {
          fanins.push_back(cand.id);
          lo = nlo;
          hi = nhi;
          break;
        }
      }
    }
    if (fanins.size() < 2) continue;
    for (SignalId f : fanins) ++fanout_count[f];
    const SignalId y = n.add_gate(type, fanins, idx_name("g", made));
    pool.push_back({y, lo, hi});
    ++made;
  }

  // Outputs: the most recently created gates (deepest logic), spread out.
  CFPM_REQUIRE(made >= spec.num_outputs);
  for (unsigned i = 0; i < spec.num_outputs; ++i) {
    const std::size_t idx = pool.size() - 1 - i * 2;
    n.mark_output(pool[std::min(idx, pool.size() - 1)].id);
  }
  n.validate();
  return n;
}

std::vector<std::string> mcnc_names() {
  return {"alu2", "alu4", "cmb",    "cm150", "cm85", "comp", "decod",
          "k2",   "mux",  "parity", "pcle",  "x1",   "x2"};
}

namespace {

/// Windowed-logic specification of a Table-1 stand-in (see DESIGN.md:
/// the MCNC netlists are not redistributable; these deterministic circuits
/// match the benchmarks' input counts, approximate their mapped gate
/// counts, and are tuned so that the exact switching-capacitance ADD is
/// comparable to the paper's per-circuit MAX budget -- the paper's own
/// criterion for choosing MAX).
struct McncSpec {
  const char* name;
  unsigned inputs;
  unsigned outputs;
  unsigned func_gates;
  unsigned window;
  double xor_fraction;
  double tree_bias;
  double not_fraction;
  std::uint64_t seed;
  bool decompose;
};

constexpr McncSpec kMcncSpecs[] = {
    //  name   n  out  fg  win  xor  tree  not   seed  map
    {"alu2", 10, 6, 95, 4, 0.03, 0.4, 0.70, 3, true},
    {"alu4", 14, 8, 170, 3, 0.03, 0.4, 0.70, 3, true},
    {"cmb", 16, 4, 34, 3, 0.03, 0.4, 0.12, 3, false},
    {"cm85", 11, 3, 31, 5, 0.03, 0.4, 0.12, 1, false},
    {"comp", 32, 3, 93, 4, 0.03, 0.4, 0.12, 2, false},
    {"k2", 45, 45, 400, 3, 0.03, 0.4, 0.60, 2, true},
    {"x1", 49, 35, 120, 3, 0.03, 0.4, 0.75, 2, true},
    {"x2", 10, 7, 12, 3, 0.20, 0.8, 0.12, 3, true},
};

Netlist from_spec(const McncSpec& spec) {
  RandomLogicSpec rs;
  rs.name = spec.name;
  rs.num_inputs = spec.inputs;
  rs.num_outputs = spec.outputs;
  rs.target_gates = spec.func_gates;
  rs.window = spec.window;
  rs.xor_fraction = spec.xor_fraction;
  rs.tree_bias = spec.tree_bias;
  rs.not_fraction = spec.not_fraction;
  rs.seed = spec.seed;
  Netlist n = random_logic(rs);
  if (spec.decompose) {
    Netlist mapped = decompose_to_2input(n);
    mapped.set_name(spec.name);
    return mapped;
  }
  return n;
}

}  // namespace

Netlist mcnc_like(std::string_view name) {
  for (const McncSpec& spec : kMcncSpecs) {
    if (name == spec.name) return from_spec(spec);
  }
  if (name == "cm150") {
    Netlist f = mux_flat(4);  // 21 inputs, flat one-hot 16:1 multiplexer
    f.set_name("cm150");
    return f;
  }
  if (name == "decod") {
    Netlist f = decoder(4);  // 5 inputs, 16 outputs
    f.set_name("decod");
    return f;
  }
  if (name == "mux") {
    Netlist f = mux_two_level();  // 21 inputs, clustered 16:1 multiplexer
    f.set_name("mux");
    return f;
  }
  if (name == "parity") {
    Netlist f = parity_tree(16, 1);
    f.set_name("parity");
    return f;
  }
  if (name == "pcle") {
    // Parity-check logic with enables: 16 data + 3 control.
    Netlist n("pcle");
    std::vector<SignalId> d(16);
    for (unsigned i = 0; i < 16; ++i) d[i] = n.add_input(idx_name("d", i));
    const SignalId en0 = n.add_input("en0");
    const SignalId en1 = n.add_input("en1");
    const SignalId pol = n.add_input("pol");
    auto tree = [&](unsigned base, std::string_view pfx) {
      std::vector<SignalId> lvl(d.begin() + base, d.begin() + base + 8);
      unsigned c = 0;
      while (lvl.size() > 1) {
        std::vector<SignalId> nxt;
        for (std::size_t i = 0; i + 1 < lvl.size(); i += 2) {
          nxt.push_back(n.add_gate(GateType::kXor, {lvl[i], lvl[i + 1]},
                                   std::string(pfx) + std::to_string(c++)));
        }
        if (lvl.size() % 2 == 1) nxt.push_back(lvl.back());
        lvl = std::move(nxt);
      }
      return lvl[0];
    };
    const SignalId p0 = tree(0, "p0_");
    const SignalId p1 = tree(8, "p1_");
    const SignalId p0g = n.add_gate(GateType::kAnd, {p0, en0}, "p0g");
    const SignalId p1g = n.add_gate(GateType::kAnd, {p1, en1}, "p1g");
    const SignalId both = n.add_gate(GateType::kXor, {p0g, p1g}, "both");
    const SignalId out = n.add_gate(GateType::kXor, {both, pol}, "y");
    const SignalId err0 = n.add_gate(GateType::kAnd, {p0g, pol}, "e0");
    const SignalId err1 = n.add_gate(GateType::kAnd, {p1g, pol}, "e1");
    const SignalId anyv = n.add_gate(GateType::kOr, {err0, err1}, "any");
    n.mark_output(out);
    n.mark_output(anyv);
    n.validate();
    return n;
  }
  throw Error("unknown mcnc_like circuit: " + std::string(name));
}

}  // namespace cfpm::netlist::gen
