#include "netlist/verify.hpp"

#include <unordered_map>

#include "dd/stats.hpp"
#include "support/assert.hpp"

namespace cfpm::netlist {

namespace {

/// Builds the BDD of every signal of `n`, with primary input `name` mapped
/// to the manager variable given by `var_of`.
std::vector<dd::Bdd> build_functions(
    dd::DdManager& mgr, const Netlist& n,
    const std::unordered_map<std::string, std::uint32_t>& var_of) {
  std::vector<dd::Bdd> f(n.num_signals());
  for (SignalId s = 0; s < n.num_signals(); ++s) {
    const auto& sig = n.signal(s);
    if (sig.is_input) {
      f[s] = mgr.bdd_var(var_of.at(sig.name));
      continue;
    }
    f[s] = gate_bdd(mgr, n, s, f);
  }
  return f;
}

}  // namespace

dd::Bdd gate_bdd(dd::DdManager& mgr, const Netlist& n, SignalId s,
                 const std::vector<dd::Bdd>& env) {
  const GateType type = n.signal(s).type;
  const auto fanins = n.fanins(s);
  switch (type) {
    case GateType::kConst0:
      return mgr.bdd_zero();
    case GateType::kConst1:
      return mgr.bdd_one();
    case GateType::kBuf:
      return env[fanins[0]];
    case GateType::kNot:
      return !env[fanins[0]];
    default:
      break;
  }
  dd::Bdd acc = env[fanins[0]];
  for (std::size_t k = 1; k < fanins.size(); ++k) {
    const dd::Bdd& next = env[fanins[k]];
    switch (type) {
      case GateType::kAnd:
      case GateType::kNand:
        acc = acc & next;
        break;
      case GateType::kOr:
      case GateType::kNor:
        acc = acc | next;
        break;
      case GateType::kXor:
      case GateType::kXnor:
        acc = acc ^ next;
        break;
      default:
        CFPM_UNREACHABLE("gate type");
    }
  }
  if (type == GateType::kNand || type == GateType::kNor ||
      type == GateType::kXnor) {
    acc = !acc;
  }
  return acc;
}

EquivalenceResult check_equivalence(const Netlist& golden,
                                    const Netlist& candidate) {
  CFPM_REQUIRE(golden.num_inputs() == candidate.num_inputs());
  CFPM_REQUIRE(golden.outputs().size() == candidate.outputs().size());

  // Shared variable per input name.
  dd::DdManager mgr(golden.num_inputs());
  std::unordered_map<std::string, std::uint32_t> var_of;
  std::uint32_t next = 0;
  for (SignalId s : golden.inputs()) {
    var_of.emplace(golden.signal(s).name, next++);
  }
  for (SignalId s : candidate.inputs()) {
    CFPM_REQUIRE(var_of.contains(candidate.signal(s).name));
  }

  const auto fg = build_functions(mgr, golden, var_of);
  const auto fc = build_functions(mgr, candidate, var_of);

  EquivalenceResult result;
  for (std::size_t o = 0; o < golden.outputs().size(); ++o) {
    const dd::Bdd& a = fg[golden.outputs()[o]];
    const dd::Bdd& b = fc[candidate.outputs()[o]];
    if (a == b) continue;  // canonical: pointer equality decides
    result.equivalent = false;
    result.differing_output = golden.signal(golden.outputs()[o]).name;
    // Witness: any satisfying assignment of a XOR b.
    const dd::Bdd diff = a ^ b;
    const auto assignment = dd::argmax_assignment(dd::Add(diff));
    result.counterexample.assign(assignment.begin(), assignment.end());
    return result;
  }
  result.equivalent = true;
  return result;
}

}  // namespace cfpm::netlist
