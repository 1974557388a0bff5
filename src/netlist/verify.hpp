// Formal equivalence checking of combinational netlists via BDDs.
//
// Complements the simulation-based spot checks used in the test suite:
// builds canonical BDDs for every primary output of both circuits (inputs
// matched by name) and compares them structurally. Exact, and fast for
// every circuit this library works with -- the same symbolic machinery
// that powers the models does the proving.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dd/manager.hpp"
#include "netlist/netlist.hpp"

namespace cfpm::netlist {

/// The BDD of gate `s` of `n` from its fan-ins' BDDs in `env` (indexed by
/// signal): AND/OR/XOR fold left over the fan-ins in order, NAND/NOR/XNOR
/// negate that fold. `s` must not be a primary input.
dd::Bdd gate_bdd(dd::DdManager& mgr, const Netlist& n, SignalId s,
                 const std::vector<dd::Bdd>& env);

struct EquivalenceResult {
  bool equivalent = false;
  /// When not equivalent: name of the first differing output pair and a
  /// witness input assignment (by the common input order of `golden`).
  std::string differing_output;
  std::vector<std::uint8_t> counterexample;
};

/// Checks that `candidate` computes the same function as `golden` on every
/// primary output (paired positionally; both circuits must have the same
/// input names, matched by name, and equally many outputs).
/// Throws cfpm::ContractError when the interfaces are incompatible.
EquivalenceResult check_equivalence(const Netlist& golden,
                                    const Netlist& candidate);

}  // namespace cfpm::netlist
