#include "verify/fuzzer.hpp"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <ostream>
#include <sstream>
#include <utility>

#include "netlist/generators.hpp"
#include "netlist/transform.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/governor.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "verify/corpus.hpp"
#include "verify/minimize.hpp"
#include "verify/oracle.hpp"

namespace cfpm::verify {

namespace {

std::string hex_seed(std::uint64_t seed) {
  static const char* kDigits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = kDigits[seed & 0xf];
    seed >>= 4;
  }
  return s;
}

/// Failure surfaces the fault campaign arms. Some fire in every scenario
/// (dd.allocate_node is on the path of every symbolic build); others only
/// when the sampled scenario takes that path (serve.* need the daemon
/// round-trip check). Both are useful — a spec that never fires is a free
/// control run.
constexpr const char* kFaultSites[] = {
    "dd.allocate_node",   "threadpool.task", "threadpool.spawn",
    "dd.serialize.write", "dd.serialize.read", "serve.accept",
    "serve.build",        "serve.persist",
};

/// Deterministic per-iteration fault plan: 1-2 sites, a random action, a
/// small fire budget. A function of the iteration seed alone, like every
/// other sampled knob, so fault-campaign failures replay exactly.
std::string sample_fault_spec(std::uint64_t iter_seed) {
  Xoshiro256 rng(SplitMix64(iter_seed ^ 0xfa110001u).next());
  const std::size_t entries = 1 + rng.next_below(2);
  std::string spec;
  for (std::size_t i = 0; i < entries; ++i) {
    const char* site =
        kFaultSites[rng.next_below(std::size(kFaultSites))];
    std::string action;
    switch (rng.next_below(5)) {
      case 0:
        action = "throw_bad_alloc";
        break;
      case 1:
        action = "throw_resource";
        break;
      case 2:
        action = "throw_deadline";
        break;
      case 3:
        action = "fail_io";
        break;
      default:
        action = "delay_ms(" + std::to_string(1 + rng.next_below(3)) + ")";
    }
    const std::uint64_t fires = 1 + rng.next_below(3);
    if (!spec.empty()) spec += ",";
    spec += std::string(site) + "=" + action + ":" + std::to_string(fires);
  }
  return spec;
}

}  // namespace

netlist::Netlist sample_netlist(std::uint64_t seed, std::size_t max_gates) {
  // A salt distinct from every check salt keeps the circuit sample stream
  // independent of the scenario streams that reuse the same seed.
  Xoshiro256 rng(SplitMix64(seed ^ 0x5eed0001u).next());
  // Input counts stay small (<= 9, i.e. <= 18 model variables) so exact
  // reference models are cheap; the interesting failures are structural,
  // not wide.
  switch (rng.next_below(8)) {
    case 0:
      return netlist::gen::c17();
    case 1:
      return netlist::gen::ripple_carry_adder(
          1 + static_cast<unsigned>(rng.next_below(3)));
    case 2:
      return netlist::gen::magnitude_comparator(
          1 + static_cast<unsigned>(rng.next_below(3)));
    case 3:
      return netlist::gen::parity_tree(
          3 + static_cast<unsigned>(rng.next_below(6)),
          static_cast<unsigned>(rng.next_below(3)));
    case 4:
      return netlist::gen::mux_flat(2);
    case 5:
      return netlist::gen::decoder(2);
    default: {
      netlist::gen::RandomLogicSpec spec;
      spec.name = "fuzz";
      spec.num_inputs = 4 + static_cast<unsigned>(rng.next_below(6));
      spec.num_outputs = 1 + static_cast<unsigned>(rng.next_below(4));
      spec.target_gates = static_cast<unsigned>(
          8 + rng.next_below(std::max<std::size_t>(9, max_gates - 7)));
      spec.window =
          2 + static_cast<unsigned>(rng.next_below(
                  std::min<std::uint64_t>(5, spec.num_inputs - 1)));
      spec.xor_fraction = 0.6 * rng.next_double();
      spec.tree_bias = rng.next_double();
      spec.not_fraction = 0.25 * rng.next_double();
      spec.seed = rng.next();
      netlist::Netlist n = netlist::gen::random_logic(spec);
      if (rng.next_bool(0.35)) n = netlist::decompose_to_2input(n);
      return n;
    }
  }
}

FuzzReport run_fuzz(const FuzzOptions& opt) {
  if (opt.faults && !failpoint::compiled_in()) {
    throw Error(
        "fuzz: faults mode needs failpoint hooks, but this binary was built "
        "with CFPM_NO_FAILPOINTS");
  }
  std::vector<const Check*> selected;
  if (opt.checks.empty()) {
    for (const Check& c : all_checks()) selected.push_back(&c);
  } else {
    for (const std::string& name : opt.checks) {
      const Check* c = find_check(name);
      if (c == nullptr) throw Error("fuzz: unknown check '" + name + "'");
      selected.push_back(c);
    }
  }
  if (!opt.corpus_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opt.corpus_dir, ec);
    if (ec) {
      throw Error("fuzz: cannot create corpus dir '" + opt.corpus_dir +
                  "': " + ec.message());
    }
  }

  static const metrics::Counter c_iterations("verify.fuzz.iterations");
  static const metrics::Counter c_failures("verify.fuzz.failures");
  static const metrics::Counter c_minimize_attempts(
      "verify.fuzz.minimize_attempts");

  FuzzReport report;
  SplitMix64 seeds(opt.seed);
  // Whatever happens mid-campaign (throws included), a faults run never
  // leaks armed failpoints into the caller's process.
  struct DisarmGuard {
    bool active;
    ~DisarmGuard() {
      if (active) failpoint::disarm_all();
    }
  } fault_guard{opt.faults};
  for (std::size_t it = 0; it < opt.runs; ++it) {
    if (opt.governor && opt.governor->deadline_expired()) {
      report.deadline_hit = true;
      break;
    }
    const std::uint64_t iter_seed = seeds.next();
    const netlist::Netlist n = sample_netlist(iter_seed, opt.max_gates);
    const std::string fault_spec =
        opt.faults ? sample_fault_spec(iter_seed) : std::string();

    CheckContext ctx;
    ctx.seed = iter_seed;
    ctx.patterns = opt.patterns;
    ctx.governor = opt.governor;

    bool stopped = false;
    for (const Check* check : selected) {
      std::uint64_t fires_before = 0;
      if (opt.faults) {
        // Fresh fault budget per check: drop whatever the previous check
        // left behind, arm this iteration's plan.
        failpoint::disarm_all();
        failpoint::arm_from_spec(fault_spec);
        fires_before = failpoint::total_fires();
      }
      CheckResult result;
      try {
        result = run_check(*check, n, ctx);
      } catch (const DeadlineExceeded& e) {
        if (opt.faults && failpoint::total_fires() > fires_before) {
          // An armed throw_deadline fault propagated (run_check treats
          // deadlines as a stop signal, so it cannot convert them). In a
          // fault campaign it is a typed finding like any injected throw.
          result.ok = false;
          result.detail = std::string("injected deadline: ") + e.what();
          result.threw = true;
        } else {
          report.deadline_hit = true;
          stopped = true;
          break;
        }
      } catch (const CancelledError&) {
        stopped = true;
        break;
      }
      bool fired = false;
      if (opt.faults) {
        const std::uint64_t delta = failpoint::total_fires() - fires_before;
        report.faults_fired += delta;
        fired = delta > 0;
        failpoint::disarm_all();
      }
      ++report.checks_run;
      if (result.ok) continue;

      std::string failure_faults;  // spec to record with the repro
      if (opt.faults && result.threw) {
        // Deterministic-recovery contract: the identical scenario with
        // faults disarmed must pass. When it does, the injected fault was
        // surfaced as a typed error and fully recovered from — the
        // behavior the campaign exists to confirm, not a finding.
        CheckResult clean;
        try {
          clean = run_check(*check, n, ctx);
        } catch (const DeadlineExceeded&) {
          report.deadline_hit = true;
          stopped = true;
          break;
        } catch (const CancelledError&) {
          stopped = true;
          break;
        }
        if (clean.ok) {
          ++report.fault_recoveries;
          continue;
        }
        // Fails clean too: a fault-independent finding; report the clean
        // result so the repro needs no faults line.
        result = clean;
      } else if (opt.faults && fired) {
        // A value mismatch while faults were armed, with no throw anywhere:
        // recovery machinery silently corrupted a result. The spec is part
        // of the finding and rides along into the repro.
        failure_faults = fault_spec;
        result.detail =
            "silent corruption under fault injection [" + fault_spec +
            "]: " + result.detail;
      }

      c_failures.add();
      // Shrink with the governor detached: minimization must be
      // deterministic, and a deadline mid-shrink would corrupt it.
      CheckContext replay_ctx;
      replay_ctx.seed = iter_seed;
      replay_ctx.patterns = opt.patterns;
      const MinimizeResult shrunk = minimize(
          n,
          [&](const netlist::Netlist& cand) {
            if (failure_faults.empty()) {
              return !run_check(*check, cand, replay_ctx).ok;
            }
            // Hold the *silent* failure mode under the same fault plan: a
            // candidate that merely throws has shrunk past the bug.
            failpoint::disarm_all();
            failpoint::arm_from_spec(failure_faults);
            bool still_fails = false;
            try {
              const CheckResult r = run_check(*check, cand, replay_ctx);
              still_fails = !r.ok && !r.threw;
            } catch (const DeadlineExceeded&) {
              still_fails = false;  // injected deadline: typed, not silent
            }
            failpoint::disarm_all();
            return still_fails;
          },
          opt.minimize_attempts);
      c_minimize_attempts.add(shrunk.attempts);

      FuzzFailure failure;
      failure.check = std::string(check->name);
      failure.seed = iter_seed;
      failure.detail = result.detail;
      failure.original_gates = n.num_gates();
      failure.minimized_gates = shrunk.netlist.num_gates();
      failure.faults = failure_faults;
      if (!opt.corpus_dir.empty()) {
        Repro repro;
        repro.check = failure.check;
        repro.seed = iter_seed;
        repro.patterns = opt.patterns;
        repro.netlist = shrunk.netlist;
        repro.faults = failure_faults;
        repro.note = result.detail;
        const std::string path = opt.corpus_dir + "/" + failure.check +
                                 "-seed" + hex_seed(iter_seed) + ".repro";
        write_repro_file(path, repro);
        failure.repro_path = path;
      }
      if (opt.log != nullptr) {
        *opt.log << "FAIL " << failure.check << " seed=" << failure.seed
                 << " (" << failure.original_gates << " -> "
                 << failure.minimized_gates << " gates)";
        if (!failure.faults.empty()) {
          *opt.log << " faults=" << failure.faults;
        }
        if (!failure.repro_path.empty()) {
          *opt.log << " repro=" << failure.repro_path;
        }
        *opt.log << "\n  " << failure.detail << "\n";
      }
      report.failures.push_back(std::move(failure));
    }
    if (stopped) break;
    ++report.iterations;
    c_iterations.add();
  }
  return report;
}

}  // namespace cfpm::verify
