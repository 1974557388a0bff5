// cfpm — command-line front end for the characterization-free power
// modeling library.
//
//   cfpm info <circuit>                         netlist statistics
//   cfpm build <circuit> [-m MAX] [--bound] -o model.cfpm
//   cfpm estimate <model.cfpm> [--sp P] [--st P] [--vectors N] [--vdd V]
//   cfpm worst <model.cfpm>                     worst case + witness
//   cfpm accuracy <circuit> [-m MAX] [--vectors N]
//   cfpm trace <circuit> -o out.vcd [--sp P] [--st P] [--vectors N]
//   cfpm rtl <design.rtl> [--sp P] [--st P] [--vectors N] [--vdd V]
//   cfpm sensitivity <model.cfpm>               per-input power attribution
//   cfpm equiv <golden> <candidate>             formal equivalence check
//   cfpm fuzz [--runs N] [--seed S] [--checks a,b] [--faults]
//             [--replay f.repro]
//
// <circuit> is a .bench file, a .blif file, or "gen:<name>" for a built-in
// generator (any Table-1 name, or c17).
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "eval/experiment.hpp"
#include "eval/table.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/blif_io.hpp"
#include "netlist/generators.hpp"
#include "netlist/transform.hpp"
#include "netlist/verify.hpp"
#include "power/add_model.hpp"
#include "power/baselines.hpp"
#include "power/factory.hpp"
#include "power/rtl_io.hpp"
#include "chip/chip.hpp"
#include "chip/evaluator.hpp"
#include "chip/trace_text.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sim/simulator.hpp"
#include "sim/trace_io.hpp"
#include "stats/markov.hpp"
#include "support/deadline.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/io.hpp"
#include "support/metrics.hpp"
#include "support/parse.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"
#include "verify/corpus.hpp"
#include "verify/fuzzer.hpp"
#include "verify/oracle.hpp"

namespace {

using namespace cfpm;

// Exit codes: distinguishable failure classes for scripts and CI. The
// numeric taxonomy is defined once, by service::StatusCode (the same codes
// travel in daemon error payloads); these aliases keep command code
// readable. 6 (Server::kExitSignal) is the daemon's signal-initiated clean
// drain.
//  0 clean, 1 runtime error (cfpm::Error), 2 usage, 3 completed but
//  degraded (the deadline expired and a constant model was built), 4 out
//  of memory, 5 internal error (unexpected std::exception), 6 daemon
//  stopped by SIGINT/SIGTERM after a clean drain.
constexpr int kExitOk = service::exit_code(service::StatusCode::kOk);
constexpr int kExitError = service::exit_code(service::StatusCode::kError);
constexpr int kExitUsage = service::exit_code(service::StatusCode::kUsage);
constexpr int kExitDegraded =
    service::exit_code(service::StatusCode::kDegraded);

/// Largest --threads value accepted.
constexpr std::size_t kMaxThreads = 256;

int usage() {
  std::cerr <<
      "usage:\n"
      "  cfpm info <circuit>\n"
      "  cfpm build <circuit> [-m MAX] [--bound] [-o model.cfpm]\n"
      "             [--deadline-ms N] [--no-degrade]\n"
      "  cfpm estimate <model.cfpm> [--sp P] [--st P] [--vectors N] [--vdd V]\n"
      "                [--threads N] [--compiled]\n"
      "  cfpm worst <model.cfpm>\n"
      "  cfpm accuracy <circuit> [-m MAX] [--vectors N] [--deadline-ms N]\n"
      "  cfpm trace <circuit> -o out.vcd [--sp P] [--st P] [--vectors N]\n"
      "  cfpm rtl <design.rtl> [--sp P] [--st P] [--vectors N] [--vdd V]\n"
      "  cfpm chip --spec CxBxM [--trace FILE] [--threads N] [--sp P] [--st P]\n"
      "            [--vectors N] [-m MAX] [--deadline-ms N] [--no-degrade]\n"
      "            [--vdd V]\n"
      "  cfpm sensitivity <model.cfpm>\n"
      "  cfpm equiv <golden> <candidate>\n"
      "  cfpm fuzz [--runs N] [--seed S] [--max-gates N] [--patterns N]\n"
      "            [--checks a,b|list] [--corpus-dir DIR] [--deadline-ms N]\n"
      "            [--faults]\n"
      "  cfpm fuzz --replay <file.repro>\n"
      "  cfpm serve --socket PATH [--persist DIR] [--threads N]\n"
      "             [--deadline-ms N]\n"
      "  cfpm query <verb> --socket PATH [args]   with <verb> one of:\n"
      "             build <circuit> [-m MAX] [--bound] [--deadline-ms N]\n"
      "             eval <circuit|model-id> [--sp P] [--st P] [--vectors N]\n"
      "             trace <circuit> [--sp P] [--st P] [--vectors N]\n"
      "             chip [--spec CxBxM] [--sp P] [--st P] [--vectors N]\n"
      "             stats | ping | shutdown\n"
      "\n"
      "<circuit>: path to a .bench or .blif file, or gen:<name> with <name>\n"
      "one of c17, alu2, alu4, cmb, cm150, cm85, comp, decod, k2, mux,\n"
      "parity, pcle, x1, x2.\n"
      "\n"
      "--threads N shards trace evaluation (estimate, chip, serve) over a\n"
      "pool of N threads (0 = all hardware threads; at most 256); results\n"
      "are bit-identical for any N.\n"
      "chip builds a composed chip: --spec CxBxM instantiates C blocks of B\n"
      "macros from a generated library over M bus bits per block; sibling\n"
      "macros share bus bits. --trace FILE evaluates a text bit-matrix\n"
      "trace instead of the seeded workload.\n"
      "--compiled prints compiled-evaluator diagnostics and throughput.\n"
      "--deadline-ms N bounds model construction by wall clock; on expiry\n"
      "the build falls back to a constant bound instead of running\n"
      "unbounded. --no-degrade fails fast instead.\n"
      "--failpoints SPEC arms fault-injection points for this run:\n"
      "  name=action[:count][,name=action[:count]...]\n"
      "with action one of throw_bad_alloc, throw_deadline, delay_ms(N),\n"
      "fail_io (count 0 = fire forever; default once).\n"
      "--metrics-json PATH writes the pipeline metrics snapshot (counters,\n"
      "gauges, histograms) as JSON on exit, whatever the outcome.\n"
      "--trace-json PATH records phase spans and writes Chrome trace_event\n"
      "JSON on exit (load in chrome://tracing or ui.perfetto.dev).\n"
      "fuzz cross-checks the symbolic engines against independent oracles\n"
      "on random circuits; failures are minimized into --corpus-dir as\n"
      ".repro files (--checks list prints the registered invariants).\n"
      "fuzz --faults additionally arms a seed-derived failpoint spec per\n"
      "check and asserts deterministic recovery: injected faults may fail\n"
      "typed, but a clean rerun must pass and values must never corrupt.\n"
      "serve runs the long-lived model server: cached build replies perform\n"
      "zero construction work, a cache miss builds on the requesting\n"
      "connection's thread, and eval replies are bit-identical to the\n"
      "one-shot CLI.\n"
      "query talks to a running daemon; eval/trace accept the circuit spec\n"
      "(the content id is computed locally) or the 32-hex model id a build\n"
      "printed.\n"
      "exit codes: 0 ok, 1 error, 2 usage, 3 degraded result, 4 out of\n"
      "memory, 5 internal error, 6 daemon stopped by SIGINT/SIGTERM after\n"
      "a clean drain.\n";
  return kExitUsage;
}

netlist::Netlist load_circuit(const std::string& spec) {
  if (spec.rfind("gen:", 0) == 0) {
    const std::string name = spec.substr(4);
    if (name == "c17") return netlist::gen::c17();
    return netlist::gen::mcnc_like(name);
  }
  if (spec.size() > 6 && spec.substr(spec.size() - 6) == ".bench") {
    return netlist::read_bench_file(spec);
  }
  if (spec.size() > 5 && spec.substr(spec.size() - 5) == ".blif") {
    return netlist::read_blif_file(spec);
  }
  throw Error("cannot infer circuit format of '" + spec +
              "' (expect .bench, .blif or gen:<name>)");
}

struct Args {
  std::vector<std::string> positional;
  std::size_t max_nodes = 1000;
  bool bound = false;
  std::string output;
  double sp = 0.5;
  double st = 0.5;
  std::size_t vectors = 10000;
  double vdd = 3.3;
  std::size_t threads = 1;        // 0 = hardware concurrency
  bool compiled = false;
  bool max_nodes_explicit = false;  // -m was given (chip defaults differ)

  // chip subcommand
  std::string chip_spec = "2x3x12";  // CxBxM topology
  std::string chip_trace;            // explicit trace file (text bit matrix)
  std::optional<std::size_t> deadline_ms;  // wall-clock build budget
  bool degrade = true;
  std::string metrics_json;  // write metrics snapshot here on exit
  std::string trace_json;    // record spans; write Chrome trace here on exit

  // serve / query subcommands
  std::string socket;       // Unix-domain socket path of the daemon
  std::string persist_dir;  // registry warm-start directory (serve)

  // fuzz subcommand
  std::uint64_t seed = 1;
  std::size_t runs = 100;
  std::size_t fuzz_max_gates = 64;
  std::size_t patterns = 128;
  std::string checks;                    // comma-separated, or "list"
  std::string corpus_dir = "fuzz/corpus";
  std::string replay;                    // .repro file to re-run
  bool fuzz_faults = false;              // fault-injection campaign mode

  /// The build knobs in the facade's wire-shape form — what `build`,
  /// `query build` and `query eval` send through cfpm::service, so the
  /// one-shot and daemon paths compute identical content ids and models.
  service::BuildOptions service_options() const {
    service::BuildOptions o;
    o.kind = bound ? power::ModelKind::kAddUpperBound
                   : power::ModelKind::kAddAverage;
    o.max_nodes = max_nodes;
    o.degrade = degrade;
    o.deadline_ms = deadline_ms;
    return o;
  }

  /// The chip request both `cfpm chip` and `cfpm query chip` send, so the
  /// one-shot and daemon paths are bit-identical. Without an explicit -m
  /// the per-macro budget stays at the ChipRequest default (exact for the
  /// generated library) rather than the build commands' 1000.
  service::ChipRequest chip_request() const {
    service::ChipRequest r;
    r.spec = chip_spec;
    if (max_nodes_explicit) r.max_nodes = max_nodes;
    r.degrade = degrade;
    r.deadline_ms = deadline_ms;
    r.statistics = {sp, st};
    r.vectors = vectors;
    return r;
  }
};

/// Parses the command line. Accepts both `--flag value` and `--flag=value`.
/// Every numeric value goes through parse_number (std::from_chars: full
/// match, range-checked, locale-free), so `--threads abc`, `--vectors -1`
/// and `--sp 0.5x` are reported as usage errors naming the flag — the old
/// std::stoul/std::stod calls threw out of parse() (aborting the process,
/// since parse runs before main's try block) or silently wrapped -1 to
/// 2^64-1 and accepted trailing garbage.
std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    std::optional<std::string> attached;
    if (flag.rfind("--", 0) == 0) {
      if (const auto eq = flag.find('='); eq != std::string::npos) {
        attached = flag.substr(eq + 1);
        flag.resize(eq);
      }
    }

    auto value = [&]() -> std::optional<std::string> {
      if (attached) return attached;
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << flag << "\n";
        return std::nullopt;
      }
      return std::string(argv[++i]);
    };
    // Reads a numeric value into `out`; false (after reporting the flag
    // and the offending text) on anything but a clean full-token parse.
    auto number = [&](auto& out) -> bool {
      const auto v = value();
      if (!v) return false;
      const auto parsed = parse_number<std::decay_t<decltype(out)>>(*v);
      if (!parsed) {
        std::cerr << "invalid value for " << flag << ": '" << *v << "'\n";
        return false;
      }
      out = *parsed;
      return true;
    };
    auto probability = [&](double& out) -> bool {
      if (!number(out)) return false;
      if (!(out >= 0.0 && out <= 1.0)) {
        std::cerr << "value of " << flag << " must be in [0, 1], got " << out
                  << "\n";
        return false;
      }
      return true;
    };
    auto text = [&](std::string& out) -> bool {
      const auto v = value();
      if (!v) return false;
      out = *v;
      return true;
    };
    // Boolean flags take no value; "--bound=yes" is a usage error, not a
    // silently ignored suffix.
    auto boolean = [&](bool& out, bool v) -> bool {
      if (attached) {
        std::cerr << flag << " does not take a value\n";
        return false;
      }
      out = v;
      return true;
    };

    bool ok = true;
    if (flag == "-m" || flag == "--max-nodes") {
      ok = number(a.max_nodes);
      a.max_nodes_explicit = ok;
    } else if (flag == "--spec") {
      ok = text(a.chip_spec);
    } else if (flag == "--trace") {
      ok = text(a.chip_trace);
    } else if (flag == "--bound") {
      ok = boolean(a.bound, true);
    } else if (flag == "-o" || flag == "--output") {
      ok = text(a.output);
    } else if (flag == "--sp") {
      ok = probability(a.sp);
    } else if (flag == "--st") {
      ok = probability(a.st);
    } else if (flag == "--vectors") {
      // Two vectors make the first transition; fewer leave nothing to
      // average.
      ok = number(a.vectors) && [&] {
        if (a.vectors >= 2) return true;
        std::cerr << "value of --vectors must be at least 2, got " << a.vectors
                  << "\n";
        return false;
      }();
    } else if (flag == "--vdd") {
      ok = number(a.vdd) && [&] {
        if (a.vdd > 0.0 && a.vdd < 1e3) return true;
        std::cerr << "value of --vdd must be in (0, 1000) volts, got " << a.vdd
                  << "\n";
        return false;
      }();
    } else if (flag == "--threads") {
      // Checked here, before any pool exists: a pool spawns every thread
      // it is asked for.
      ok = number(a.threads) && [&] {
        if (a.threads <= kMaxThreads) return true;
        std::cerr << "value of --threads must be at most " << kMaxThreads
                  << ", got " << a.threads << "\n";
        return false;
      }();
    } else if (flag == "--compiled") {
      ok = boolean(a.compiled, true);
    } else if (flag == "--deadline-ms") {
      std::size_t ms = 0;
      ok = number(ms);
      if (ok) a.deadline_ms = ms;
    } else if (flag == "--no-degrade") {
      ok = boolean(a.degrade, false);
    } else if (flag == "--failpoints") {
      // Applied immediately: the registry is process-global state, and
      // arm_from_spec doubles as the validator.
      std::string spec;
      ok = text(spec) && [&] {
        try {
          failpoint::arm_from_spec(spec);
        } catch (const cfpm::Error& e) {
          std::cerr << "invalid value for --failpoints: " << e.what() << "\n";
          return false;
        }
        return true;
      }();
    } else if (flag == "--socket") {
      ok = text(a.socket);
    } else if (flag == "--persist") {
      ok = text(a.persist_dir);
    } else if (flag == "--metrics-json") {
      ok = text(a.metrics_json);
    } else if (flag == "--trace-json") {
      ok = text(a.trace_json);
    } else if (flag == "--seed") {
      ok = number(a.seed);
    } else if (flag == "--runs") {
      ok = number(a.runs);
    } else if (flag == "--max-gates") {
      ok = number(a.fuzz_max_gates);
    } else if (flag == "--patterns") {
      ok = number(a.patterns);
    } else if (flag == "--checks") {
      ok = text(a.checks);
    } else if (flag == "--corpus-dir") {
      ok = text(a.corpus_dir);
    } else if (flag == "--replay") {
      ok = text(a.replay);
    } else if (flag == "--faults") {
      ok = boolean(a.fuzz_faults, true);
    } else if (!flag.empty() && flag[0] == '-') {
      std::cerr << "unknown option: " << flag << "\n";
      ok = false;
    } else {
      a.positional.push_back(std::string(argv[i]));
    }
    if (!ok) return std::nullopt;
  }
  return a;
}

const netlist::GateLibrary kLib = netlist::GateLibrary::standard();

int cmd_info(const Args& a) {
  if (a.positional.size() != 1) return usage();
  const netlist::Netlist n = load_circuit(a.positional[0]);
  std::cout << "circuit : " << n.name() << "\n";
  std::cout << "inputs  : " << n.num_inputs() << "\n";
  std::cout << "outputs : " << n.outputs().size() << "\n";
  std::cout << "gates   : " << n.num_gates() << "\n";
  const auto hist = netlist::gate_histogram(n);
  std::cout << "by type :";
  for (std::size_t i = 0; i < netlist::kNumGateTypes; ++i) {
    if (hist[i] == 0) continue;
    std::cout << " " << netlist::gate_type_name(static_cast<netlist::GateType>(i))
              << "=" << hist[i];
  }
  std::cout << "\n";
  const auto loads = n.annotate_loads(kLib);
  double total = 0.0;
  for (netlist::SignalId s = 0; s < n.num_signals(); ++s) {
    if (!n.signal(s).is_input) total += loads[s];
  }
  std::cout << "total gate load: " << total << " fF (standard library)\n";
  return 0;
}

/// Prints why a build fell back (if it did) and maps the outcome to an
/// exit code: a fallback model is usable but must be distinguishable from a
/// clean one by scripts.
int report_build_outcome(const power::AddModelBuildInfo& info) {
  if (info.outcome == power::BuildOutcome::kClean) return kExitOk;
  std::cout << "DEGRADED: constant fallback estimator\n"
            << "  rung  : fallback-constant after: " << info.fallback_reason
            << "\n";
  const metrics::Snapshot snap = metrics::snapshot();
  std::cout << "  spent : " << snap.counter("dd.node.alloc")
            << " node allocs, " << snap.counter("deadline.check.run")
            << " deadline checks, " << snap.counter("dd.gc.reclaimed")
            << " nodes reclaimed\n";
  return kExitDegraded;
}

int cmd_build(const Args& a) {
  if (a.positional.size() != 1) return usage();
  const netlist::Netlist n = load_circuit(a.positional[0]);
  // Through the service facade: the same BuildRequest path the daemon
  // executes, so the printed content id addresses the identical model in a
  // daemon's registry.
  const service::BuildReply reply = service::build({n, a.service_options()});
  std::cout << "model   : " << reply.model_nodes << " nodes ("
            << (a.bound ? "upper bound" : "average") << " mode, MAX "
            << a.max_nodes << ")\n";
  std::cout << "id      : " << reply.id.to_hex() << "\n";
  std::cout << "built in " << reply.build_info.build_seconds << " s, "
            << reply.build_info.approximations << " approximations, "
            << reply.build_info.reorder_runs << " reorder runs\n";
  const int outcome = report_build_outcome(reply.build_info);
  if (!a.output.empty()) {
    const auto* model =
        dynamic_cast<const power::AddPowerModel*>(reply.model.get());
    if (model == nullptr) throw Error("build produced a non-serializable model");
    // Crash-safe: the model appears complete or not at all; a failure
    // mid-save never leaves a truncated file where a previous good model
    // used to be.
    atomic_write_file(a.output, [&](std::ostream& os) { model->save(os); });
    std::cout << "saved   : " << a.output << "\n";
  }
  return outcome;
}

power::AddPowerModel load_model(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open model file: " + path);
  return power::AddPowerModel::load(in);
}

int cmd_estimate(const Args& a) {
  if (a.positional.size() != 1) return usage();
  const auto model = load_model(a.positional[0]);

  // Through the service facade: one seeded Markov workload + one batched
  // estimate_trace pass, sharded over a pool when --threads asks for one.
  // Results are bit-identical for every thread count — and to a daemon
  // eval query with the same parameters, since the daemon runs this exact
  // entry point.
  service::EvalRequest request;
  request.statistics = {a.sp, a.st};
  request.vectors = a.vectors;
  cfpm::ThreadPool pool(a.threads);
  cfpm::Timer timer;
  const service::EvalReply est = service::evaluate(model, request, &pool);
  const double eval_seconds = timer.seconds();
  const double avg = est.average_ff;
  const double peak = est.peak_ff;
  const power::SupplyConfig supply{a.vdd};
  std::cout << "workload: sp=" << a.sp << " st=" << a.st << " (" << a.vectors
            << " vectors)\n";
  if (a.compiled) {
    const dd::CompiledDd& c = model.compiled();
    std::cout << "engine  : compiled ADD (" << c.num_internal_nodes()
              << " internal + " << c.num_terminals() << " terminal records, "
              << "depth " << c.depth() << "), " << pool.num_threads()
              << " thread(s)\n";
    std::cout << "eval    : " << est.transitions << " patterns in "
              << 1e3 * eval_seconds << " ms ("
              << (eval_seconds > 0.0
                      ? static_cast<double>(est.transitions) / eval_seconds
                      : 0.0)
              << " patterns/s)\n";
  }
  std::cout << "average : " << avg << " fF/cycle = "
            << supply.energy_fj(avg) << " fJ/cycle @ " << a.vdd << " V\n";
  std::cout << "peak    : " << peak << " fF ("
            << (model.is_upper_bound() ? "conservative bound" : "estimate")
            << ")\n";
  // Shortest-round-trip doubles: lets scripts diff this line against a
  // daemon eval reply bit-for-bit (the serve-smoke CI job does).
  std::cout << "exact   : total=" << format_double(est.total_ff)
            << " average=" << format_double(avg)
            << " peak=" << format_double(peak) << "\n";
  return 0;
}

int cmd_worst(const Args& a) {
  if (a.positional.size() != 1) return usage();
  const auto model = load_model(a.positional[0]);
  const auto t = model.worst_case_transition();
  std::cout << "worst case: " << model.worst_case_ff() << " fF\n";
  auto bits = [](const std::vector<std::uint8_t>& v) {
    std::string s;
    for (auto b : v) s += b ? '1' : '0';
    return s;
  };
  std::cout << "witness   : x_i=" << bits(t.xi) << " -> x_f=" << bits(t.xf)
            << "\n";
  return 0;
}

int cmd_accuracy(const Args& a) {
  if (a.positional.size() != 1) return usage();
  const netlist::Netlist n = load_circuit(a.positional[0]);
  const sim::GateLevelSimulator golden(n, kLib);

  // One deadline for the three builds, so they spend one --deadline-ms
  // budget.
  power::ModelOptions options =
      service::to_model_options(a.service_options(), kLib);
  options.characterization_vectors = a.vectors;
  options.characterization_seed = service::kWorkloadSeed;
  // Through the service facade (rich in-process overload): same factory
  // path as before, with the degradation report delivered in the reply
  // instead of via dynamic_cast.
  const auto con = service::build(n, power::ModelKind::kConstant, options);
  const auto lin = service::build(n, power::ModelKind::kLinear, options);
  const auto add = service::build(
      n,
      a.bound ? power::ModelKind::kAddUpperBound : power::ModelKind::kAddAverage,
      options);

  eval::EvalOptions eval_options;
  eval_options.run.vectors_per_run = a.vectors;
  const auto grid = stats::evaluation_grid();
  const power::PowerModel* models[] = {con.model.get(), lin.model.get(),
                                       add.model.get()};
  const auto reports = eval::evaluate(models, golden, grid, eval_options);
  eval::TextTable table({"model", "ARE(%)"});
  table.add_row({"Con (characterized)", eval::TextTable::num(100 * reports[0].are, 1)});
  table.add_row({"Lin (characterized)", eval::TextTable::num(100 * reports[1].are, 1)});
  table.add_row({"ADD (analytical)", eval::TextTable::num(100 * reports[2].are, 1)});
  table.print(std::cout);
  return report_build_outcome(add.build_info);
}

int cmd_trace(const Args& a) {
  if (a.positional.size() != 1 || a.output.empty()) return usage();
  const netlist::Netlist n = load_circuit(a.positional[0]);
  const auto seq =
      service::generate_workload({a.sp, a.st}, n.num_inputs(), a.vectors);
  const sim::GateLevelSimulator simulator(n, kLib);
  atomic_write_file(a.output, [&](std::ostream& os) {
    sim::write_vcd(os, n, seq, &simulator);
  });
  const auto energy = simulator.simulate(seq);
  std::cout << "wrote " << a.output << " (" << a.vectors << " vectors, "
            << n.num_signals() << " signals)\n";
  std::cout << "average " << energy.average_ff() << " fF/cycle, peak "
            << energy.peak_ff << " fF\n";
  return 0;
}

int cmd_sensitivity(const Args& a) {
  if (a.positional.size() != 1) return usage();
  const auto model = load_model(a.positional[0]);
  const auto s = model.input_sensitivity_ff();
  eval::TextTable table({"input", "sensitivity (fF)", ""});
  double max_s = 0.0;
  for (double v : s) max_s = std::max(max_s, std::abs(v));
  for (std::size_t k = 0; k < s.size(); ++k) {
    const auto width =
        max_s > 0.0 ? static_cast<std::size_t>(20.0 * std::abs(s[k]) / max_s)
                    : 0;
    std::string input = "x";
    input += std::to_string(k);
    table.add_row({std::move(input), eval::TextTable::num(s[k], 2),
                   std::string(width, '#')});
  }
  table.print(std::cout);
  std::cout << "\nsensitivity[k] = E[C | input k toggles] - E[C | stable],\n"
            << "computed symbolically from the model (no simulation).\n";
  return 0;
}

int cmd_equiv(const Args& a) {
  if (a.positional.size() != 2) return usage();
  const netlist::Netlist golden = load_circuit(a.positional[0]);
  const netlist::Netlist candidate = load_circuit(a.positional[1]);
  const auto r = netlist::check_equivalence(golden, candidate);
  if (r.equivalent) {
    std::cout << "EQUIVALENT: all " << golden.outputs().size()
              << " outputs proven equal (BDD comparison)\n";
    return 0;
  }
  std::cout << "NOT EQUIVALENT: output '" << r.differing_output
            << "' differs.\ncounterexample:";
  for (std::size_t i = 0; i < r.counterexample.size(); ++i) {
    std::cout << " " << golden.signal(golden.inputs()[i]).name << "="
              << int{r.counterexample[i]};
  }
  std::cout << "\n";
  return 1;
}

int cmd_rtl(const Args& a) {
  if (a.positional.size() != 1) return usage();
  const power::RtlDescription d =
      power::read_rtl_design_file(a.positional[0], kLib);
  const auto trace = service::generate_workload(
      {a.sp, a.st}, d.design.bus_width(), a.vectors);

  const cfpm::chip::ChipTraceResult r =
      cfpm::chip::evaluate_trace(d.design, trace);
  const std::vector<double>& per_instance = r.per_instance_ff;
  const double total = r.total_ff;
  const double cycles = static_cast<double>(r.transitions);
  const power::SupplyConfig supply{a.vdd};

  std::cout << "design  : " << d.name << " (" << d.design.num_instances()
            << " instances, " << d.design.bus_width() << "-bit bus)\n";
  std::cout << "workload: sp=" << a.sp << " st=" << a.st << " ("
            << a.vectors << " vectors)\n";
  std::cout << "average : " << total / cycles << " fF/cycle = "
            << supply.power_uw(total / cycles, 10.0) << " uW @ 100 MHz, "
            << a.vdd << " V\n";
  std::cout << "peak    : " << r.peak_ff << " fF"
            << (d.design.is_upper_bound() ? " (conservative bound)" : "")
            << "\n";
  eval::TextTable table({"instance", "macro", "fF/cycle", "share(%)"});
  for (std::size_t i = 0; i < per_instance.size(); ++i) {
    table.add_row({d.design.instance_name(i), d.instance_macros[i],
                   eval::TextTable::num(per_instance[i] / cycles, 2),
                   eval::TextTable::num(
                       total > 0.0 ? 100.0 * per_instance[i] / total : 0.0,
                       1)});
  }
  table.print(std::cout);
  return 0;
}

const char* outcome_name(power::BuildOutcome outcome) {
  switch (outcome) {
    case power::BuildOutcome::kClean:
      return "clean";
    case power::BuildOutcome::kFallback:
      return "fallback";
  }
  return "?";
}

/// Prints a chip reply: library table, per-block and per-instance
/// breakdowns, composed bound vs sum-of-worst-cases tightness, and a
/// machine-diffable `exact` line (shortest-round-trip doubles — the
/// chip-smoke CI job diffs whole outputs across --threads, and the exact
/// line across the one-shot/daemon boundary). Deliberately prints no
/// wall-clock numbers so outputs are byte-stable. Returns the exit code.
int print_chip_reply(const Args& a, const service::ChipReply& r,
                     const std::string& workload_line, bool show_cache) {
  const power::SupplyConfig supply{a.vdd};
  std::cout << "chip    : " << r.spec << " (" << r.macros << " macros in "
            << r.blocks.size() << " blocks, " << r.bus_bits << "-bit bus, "
            << r.components << " composite nodes)\n";
  eval::TextTable lib({"macro", "inst", "inputs", "avg-nodes", "bound-nodes",
                       "build"});
  for (const service::ChipMacroSummary& m : r.library) {
    std::string build = outcome_name(m.avg_outcome);
    if (m.bound_outcome != m.avg_outcome) {
      build += std::string("/") + outcome_name(m.bound_outcome);
    }
    if (m.cache_hit) build += " (cached)";
    lib.add_row({m.name, std::to_string(m.instances), std::to_string(m.inputs),
                 std::to_string(m.avg_nodes), std::to_string(m.bound_nodes),
                 build});
  }
  lib.print(std::cout);
  std::cout << workload_line;
  const double cycles =
      r.transitions > 0 ? static_cast<double>(r.transitions) : 1.0;
  std::cout << "average : " << r.average_ff << " fF/cycle = "
            << supply.energy_fj(r.average_ff) << " fJ/cycle @ " << a.vdd
            << " V\n";
  std::cout << "peak    : " << r.peak_ff << " fF (observed)\n";
  std::cout << "bound   : " << r.bound_peak_ff
            << " fF (composed per-cycle bound)\n";
  std::cout << "worst   : " << r.worst_case_sum_ff
            << " fF (sum of leaf worst cases)\n";
  if (r.worst_case_sum_ff > 0.0) {
    std::cout << "tightness: composed bound is "
              << format_double(r.bound_peak_ff / r.worst_case_sum_ff)
              << " of the worst-case sum\n";
  }
  eval::TextTable blocks({"block", "fF/cycle", "share(%)"});
  for (const service::ChipComponentTotal& b : r.blocks) {
    blocks.add_row({b.name, eval::TextTable::num(b.total_ff / cycles, 2),
                    eval::TextTable::num(
                        r.total_ff > 0.0 ? 100.0 * b.total_ff / r.total_ff
                                         : 0.0,
                        1)});
  }
  blocks.print(std::cout);
  eval::TextTable inst({"instance", "fF/cycle", "share(%)"});
  for (const service::ChipComponentTotal& i : r.instances) {
    inst.add_row({i.name, eval::TextTable::num(i.total_ff / cycles, 2),
                  eval::TextTable::num(
                      r.total_ff > 0.0 ? 100.0 * i.total_ff / r.total_ff : 0.0,
                      1)});
  }
  inst.print(std::cout);
  std::cout << "exact   : total=" << format_double(r.total_ff)
            << " average=" << format_double(r.average_ff)
            << " peak=" << format_double(r.peak_ff)
            << " bound-peak=" << format_double(r.bound_peak_ff)
            << " worst-sum=" << format_double(r.worst_case_sum_ff) << "\n";
  if (show_cache) {
    std::cout << "cache   : " << r.cache_hits << " of "
              << 2 * r.library.size() << " macro models from registry\n";
  }
  if (r.status == service::StatusCode::kDegraded) {
    // Worded before the constant fallback became the only degradation;
    // kept as is so chip output stays byte-stable across versions.
    std::cout << "DEGRADED: at least one macro built via the degradation "
                 "ladder (see build column)\n";
    return kExitDegraded;
  }
  return kExitOk;
}

int cmd_chip(const Args& a) {
  if (!a.positional.empty()) return usage();
  const service::ChipRequest request = a.chip_request();
  cfpm::ThreadPool pool(a.threads);
  if (!a.chip_trace.empty()) {
    // Explicit trace: width is validated against the spec by the facade.
    const sim::InputSequence trace =
        cfpm::chip::read_trace_text(a.chip_trace, /*min_width=*/1);
    const service::ChipReply reply =
        service::evaluate_chip_trace(request, trace, &pool);
    std::ostringstream workload;
    workload << "trace   : " << a.chip_trace << " (" << trace.length()
             << " vectors)\n";
    return print_chip_reply(a, reply, workload.str(), /*show_cache=*/false);
  }
  const service::ChipReply reply = service::evaluate_chip(request, &pool);
  std::ostringstream workload;
  workload << "workload: sp=" << a.sp << " st=" << a.st << " (" << a.vectors
           << " vectors)\n";
  return print_chip_reply(a, reply, workload.str(), /*show_cache=*/false);
}

int cmd_fuzz(const Args& a) {
  if (!a.positional.empty()) return usage();

  if (a.checks == "list") {
    for (const verify::Check& c : verify::all_checks()) {
      std::cout << c.name << "\n    " << c.invariant << "\n";
    }
    return 0;
  }

  if (!a.replay.empty()) {
    const verify::Repro repro = verify::read_repro_file(a.replay);
    std::cout << "replay  : " << a.replay << " (check " << repro.check
              << ", seed " << repro.seed << ", "
              << repro.netlist.num_gates() << " gates)\n";
    if (!repro.note.empty()) std::cout << "note    : " << repro.note << "\n";
    const verify::CheckResult r = verify::replay(repro);
    if (r.ok) {
      std::cout << "PASS: the failure no longer reproduces\n";
      return 0;
    }
    std::cout << "FAIL: " << r.detail << "\n";
    return kExitError;
  }

  if (a.patterns == 0) throw Error("fuzz: --patterns must be >= 1");
  verify::FuzzOptions opt;
  opt.seed = a.seed;
  opt.runs = a.runs;
  opt.max_gates = a.fuzz_max_gates;
  opt.patterns = a.patterns;
  opt.corpus_dir = a.corpus_dir;
  opt.faults = a.fuzz_faults;
  opt.log = &std::cout;
  for (std::size_t pos = 0; pos < a.checks.size();) {
    const auto comma = a.checks.find(',', pos);
    const auto end = comma == std::string::npos ? a.checks.size() : comma;
    if (end > pos) opt.checks.push_back(a.checks.substr(pos, end - pos));
    pos = end + 1;
  }
  opt.deadline = deadline_after(a.deadline_ms);

  const verify::FuzzReport report = verify::run_fuzz(opt);
  std::cout << "fuzz    : " << report.iterations << " iteration(s), "
            << report.checks_run << " check run(s), " << report.failures.size()
            << " failure(s)"
            << (report.deadline_hit ? " [stopped: deadline]" : "") << "\n";
  if (a.fuzz_faults) {
    std::cout << "faults  : " << report.faults_fired << " fired, "
              << report.fault_recoveries << " typed-failure recover(ies)\n";
  }
  if (!report.failures.empty()) {
    std::cout << "replay with: cfpm fuzz --replay <file.repro>\n";
    return kExitError;
  }
  return kExitOk;
}

int cmd_serve(const Args& a) {
  if (!a.positional.empty() || a.socket.empty()) return usage();
  serve::ServerOptions options;
  options.socket_path = a.socket;
  options.persist_dir = a.persist_dir;
  options.eval_threads = a.threads;
  options.default_deadline_ms = a.deadline_ms.value_or(0);
  options.log = &std::cerr;
  serve::Server server(std::move(options));
  return serve::run_with_signal_handling(server);
}

/// `query eval`/`query trace` address a model either by the 32-hex content
/// id a build printed, or by circuit spec — in which case the id is
/// computed locally from the netlist and the current option flags, exactly
/// as the daemon computes it.
service::ModelId query_model_id(const Args& a, const std::string& target) {
  if (const auto id = service::ModelId::from_hex(target)) return *id;
  return service::model_id(load_circuit(target), a.service_options());
}

void print_eval_reply(const Args& a, const service::EvalReply& r) {
  const power::SupplyConfig supply{a.vdd};
  std::cout << "workload: sp=" << a.sp << " st=" << a.st << " (" << a.vectors
            << " vectors)\n";
  std::cout << "average : " << r.average_ff << " fF/cycle = "
            << supply.energy_fj(r.average_ff) << " fJ/cycle @ " << a.vdd
            << " V\n";
  std::cout << "peak    : " << r.peak_ff << " fF\n";
  // Identical spelling to `cfpm estimate`'s exact line on purpose: the
  // serve-smoke job diffs the two byte-for-byte.
  std::cout << "exact   : total=" << format_double(r.total_ff)
            << " average=" << format_double(r.average_ff)
            << " peak=" << format_double(r.peak_ff) << "\n";
  std::cout << "cache   : " << (r.cache_hit ? "hit" : "miss") << "\n";
}

int cmd_query(const Args& a) {
  if (a.positional.empty() || a.socket.empty()) return usage();
  const std::string& verb = a.positional[0];
  serve::Client client(a.socket);

  if (verb == "ping") {
    if (a.positional.size() != 1) return usage();
    std::cout << client.ping();
    return kExitOk;
  }
  if (verb == "shutdown") {
    if (a.positional.size() != 1) return usage();
    client.shutdown_server();
    std::cout << "server draining\n";
    return kExitOk;
  }
  if (verb == "stats") {
    if (a.positional.size() != 1) return usage();
    const serve::wire::StatsReply s = client.stats();
    std::cout << "models  : " << s.models << "\n"
              << "hits    : " << s.hits << "\n"
              << "misses  : " << s.misses << "\n"
              << "builds  : " << s.builds << "\n";
    for (const std::string& line : s.model_lines) {
      std::cout << "  " << line << "\n";
    }
    return kExitOk;
  }
  if (verb == "build") {
    if (a.positional.size() != 2) return usage();
    const netlist::Netlist n = load_circuit(a.positional[1]);
    const service::BuildReply reply = client.build({n, a.service_options()});
    std::cout << "id      : " << reply.id.to_hex() << "\n"
              << "model   : " << reply.model_nodes << " nodes\n"
              << "cache   : " << (reply.cache_hit ? "hit" : "miss") << "\n";
    return reply.status == service::StatusCode::kDegraded ? kExitDegraded
                                                          : kExitOk;
  }
  if (verb == "eval") {
    if (a.positional.size() != 2) return usage();
    service::EvalRequest request;
    request.statistics = {a.sp, a.st};
    request.vectors = a.vectors;
    print_eval_reply(a, client.evaluate(query_model_id(a, a.positional[1]),
                                        request));
    return kExitOk;
  }
  if (verb == "chip") {
    // Remote chip query: the daemon builds the macro library through its
    // registry (second identical query: all cache hits, zero construction)
    // and evaluates on its eval pool. The exact line matches `cfpm chip`
    // with the same parameters byte-for-byte.
    if (a.positional.size() != 1) return usage();
    std::ostringstream workload;
    workload << "workload: sp=" << a.sp << " st=" << a.st << " (" << a.vectors
             << " vectors)\n";
    return print_chip_reply(a, client.chip(a.chip_request()), workload.str(),
                            /*show_cache=*/true);
  }
  if (verb == "trace") {
    // Explicit-trace query: the vectors are generated client-side (same
    // seeded Markov recipe) and shipped over the wire, exercising the
    // daemon's batched trace path. Needs the circuit spec for the input
    // count; results match an eval query with the same parameters exactly.
    if (a.positional.size() != 2) return usage();
    const netlist::Netlist n = load_circuit(a.positional[1]);
    const auto seq =
        service::generate_workload({a.sp, a.st}, n.num_inputs(), a.vectors);
    print_eval_reply(
        a, client.evaluate_trace(
               service::model_id(n, a.service_options()), seq));
    return kExitOk;
  }
  std::cerr << "unknown query verb: " << verb << "\n";
  return usage();
}

// Sentinel for "not a known command" (distinct from every exit code).
constexpr int kCmdUnknown = -1;

int dispatch(const std::string& cmd, const Args& args) {
  if (cmd == "info") return cmd_info(args);
  if (cmd == "build") return cmd_build(args);
  if (cmd == "estimate") return cmd_estimate(args);
  if (cmd == "worst") return cmd_worst(args);
  if (cmd == "accuracy") return cmd_accuracy(args);
  if (cmd == "trace") return cmd_trace(args);
  if (cmd == "rtl") return cmd_rtl(args);
  if (cmd == "sensitivity") return cmd_sensitivity(args);
  if (cmd == "equiv") return cmd_equiv(args);
  if (cmd == "chip") return cmd_chip(args);
  if (cmd == "fuzz") return cmd_fuzz(args);
  if (cmd == "serve") return cmd_serve(args);
  if (cmd == "query") return cmd_query(args);
  return kCmdUnknown;
}

/// Writes the metrics snapshot and/or Chrome trace wherever --metrics-json /
/// --trace-json asked for them. Runs on every exit path — a degraded or
/// failed run is exactly when the numbers matter most — and never changes
/// the command's exit code (an unwritable path only warns).
void write_observability(const Args& args) {
  if (!args.metrics_json.empty()) {
    try {
      atomic_write_file(args.metrics_json, [](std::ostream& os) {
        metrics::snapshot().write_json(os);
      });
    } catch (const std::exception& e) {
      std::cerr << "warning: cannot write metrics to " << args.metrics_json
                << ": " << e.what() << "\n";
    }
  }
  if (!args.trace_json.empty()) {
    try {
      atomic_write_file(args.trace_json, [](std::ostream& os) {
        trace::write_chrome_json(os);
      });
    } catch (const std::exception& e) {
      std::cerr << "warning: cannot write trace to " << args.trace_json
                << ": " << e.what() << "\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const auto args = parse(argc, argv);
  if (!args) return usage();
  if (!args->trace_json.empty()) trace::set_enabled(true);
  int code;
  try {
    CFPM_TRACE_SPAN("cli");
    code = dispatch(cmd, *args);
  } catch (...) {
    // One classifier defines the whole exit-code taxonomy (service layer);
    // daemon error payloads and local exceptions take the same path. An
    // out-of-memory failure stays distinct so callers can react (retry
    // with a smaller budget, reschedule on a bigger host, ...).
    const service::ErrorPayload err =
        service::classify(std::current_exception());
    std::cerr << (err.code == service::StatusCode::kInternal ? "internal error: "
                                                             : "error: ")
              << err.message << "\n";
    code = service::exit_code(err.code);
  }
  if (code == kCmdUnknown) {
    std::cerr << "unknown command: " << cmd << "\n";
    return usage();
  }
  write_observability(*args);
  return code;
}
