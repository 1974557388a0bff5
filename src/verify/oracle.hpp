// Differential verification oracles.
//
// The paper's central claims are *invariants*, not tunable accuracies: the
// ADD-built C(x^i, x^f) is exact by construction (Eq. 4), avg-collapse
// preserves the uniform average (Eq. 7), max-collapse is a pointwise upper
// bound (Eq. 8), and the engineering layers on top (compiled evaluation,
// serialization, reordering, threaded trace estimation) all promise
// function preservation or bit-identity. Each oracle here cross-checks one
// of those claims against an independent implementation — the gate-level
// simulator, the interpreted Add evaluator, or the pre-transformation
// function itself — on inputs derived deterministically from a single seed.
//
// Checks are pure: (netlist, seed) fully determines every sampled knob
// (variable order, node budget, thread count, pattern set), which is what
// makes corpus replay and minimization sound — shrinking the netlist while
// holding the seed re-derives the same scenario on the smaller circuit.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "netlist/netlist.hpp"
#include "support/deadline.hpp"

namespace cfpm::verify {

struct CheckResult {
  bool ok = true;
  std::string detail;  ///< human-readable mismatch description; empty when ok
  /// The failure is a converted exception, not a value mismatch. The fault
  /// campaign (`cfpm fuzz --faults`) keys its classification on this:
  /// checks build with degrade=false, so an injected fault can only surface
  /// as a typed throw — a failing comparison with `threw == false` under
  /// fault injection therefore means silent corruption, the one thing
  /// recovery must never produce.
  bool threw = false;
};

struct CheckContext {
  /// Drives every sampled knob and pattern of the check.
  std::uint64_t seed = 1;
  /// Number of sampled transitions/assignments per comparison loop.
  std::size_t patterns = 128;
  /// Optional build bound: handed to symbolic constructions so a runaway
  /// build throws DeadlineExceeded instead of running unbounded. May be
  /// unset (unbounded). DeadlineExceeded propagates out of the check; it
  /// is a stop signal, not a verdict.
  Deadline deadline;
};

using CheckFn = CheckResult (*)(const netlist::Netlist&, const CheckContext&);

struct Check {
  std::string_view name;       ///< stable id ("collapse-max", ...)
  std::string_view invariant;  ///< one-line statement of what must hold
  CheckFn fn;
};

/// Every registered differential check, in a stable order.
std::span<const Check> all_checks();

/// Lookup by name; nullptr when unknown.
const Check* find_check(std::string_view name);

/// Runs one check, bumping its `verify.check.<name>.{run,fail}` metrics.
/// Any exception other than DeadlineExceeded is converted into a failing
/// result (an oracle must never throw on a valid netlist, so a throw is
/// itself a finding); DeadlineExceeded propagates.
CheckResult run_check(const Check& check, const netlist::Netlist& n,
                      const CheckContext& ctx);

}  // namespace cfpm::verify
