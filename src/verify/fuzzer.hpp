// Differential fuzzing driver.
//
// Each iteration derives everything — circuit family, generator knobs,
// and every check's sampled scenario — from one 64-bit iteration seed, so
// `run_fuzz` with the same options is fully reproducible and any failure
// can be replayed from (check, seed, netlist) alone. Failures are shrunk
// by the structural minimizer and persisted into the corpus directory as
// `.repro` files (see corpus.hpp), which the regression suite replays.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "support/deadline.hpp"

namespace cfpm::verify {

struct FuzzOptions {
  std::uint64_t seed = 1;
  std::size_t runs = 100;
  /// Upper bound on the gate count of sampled circuits. Small by default:
  /// the invariants under test are structural, so defects surface on small
  /// circuits too, and a 200-iteration campaign has to fit a CI smoke job.
  std::size_t max_gates = 64;
  /// Sampled transitions/assignments per comparison loop inside a check.
  std::size_t patterns = 128;
  /// Check names to run each iteration; empty means all registered checks.
  std::vector<std::string> checks;
  /// Directory for minimized `.repro` files; empty disables persistence.
  std::string corpus_dir = "fuzz/corpus";
  /// Optional wall-clock bound. Expiry stops the campaign cleanly
  /// (deadline_hit in the report) — it is not a failure.
  Deadline deadline;
  /// Predicate-call budget of the per-failure minimizer.
  std::size_t minimize_attempts = 250;
  /// Progress/failure log (nullptr silences).
  std::ostream* log = nullptr;
  /// Fault-injection campaign mode: each check runs with a failpoint spec
  /// sampled from the iteration seed armed (allocation faults, worker
  /// faults, serializer faults, delays). The contract under test is
  /// *deterministic recovery*: a fault may surface as a typed failure, but
  /// then the identical check re-run with faults disarmed must pass; a
  /// value mismatch that is NOT a typed throw while faults are armed is
  /// silent corruption and is reported (and minimized with the same spec
  /// re-armed).
  bool faults = false;
};

struct FuzzFailure {
  std::string check;
  std::uint64_t seed = 0;         ///< iteration seed that reproduces it
  std::string detail;             ///< oracle's mismatch description
  std::string repro_path;         ///< written corpus file ("" if disabled)
  std::size_t original_gates = 0;
  std::size_t minimized_gates = 0;
  /// Failpoint spec that was armed when this failure surfaced ("" when the
  /// failure reproduces without fault injection).
  std::string faults;
};

struct FuzzReport {
  std::size_t iterations = 0;  ///< fully completed iterations
  std::size_t checks_run = 0;
  bool deadline_hit = false;
  std::vector<FuzzFailure> failures;
  // Fault-campaign statistics (faults mode only).
  std::size_t faults_fired = 0;      ///< failpoint actions actually taken
  std::size_t fault_recoveries = 0;  ///< typed failure, then clean rerun ok
};

/// Samples one random circuit for iteration seed `seed`. Exposed so tests
/// and the CLI can reproduce the exact circuit of a reported failure.
netlist::Netlist sample_netlist(std::uint64_t seed, std::size_t max_gates);

/// Runs the campaign. Throws only on environment errors (e.g. unknown
/// check name in `checks`, unwritable corpus dir); oracle failures are
/// reported, not thrown.
FuzzReport run_fuzz(const FuzzOptions& opt);

}  // namespace cfpm::verify
