// Micro-benchmarks of the decision-diagram kernel.
//
// Two modes:
//   micro_dd [google-benchmark flags]   -- the usual benchmark suite
//   micro_dd --dd-core [--smoke]        -- representation recorder: builds
//       the full signal BDD set of gen:cmb and gen:cm150, measures apply
//       throughput and sift wall time, self-checks every output BDD
//       against the gate-level simulator, and (outside --smoke) writes
//       BENCH_dd_core.json. --smoke runs one quick pass and exits nonzero
//       on any mismatch, which is what the CI Release job runs to catch
//       representation regressions.
#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "dd/approx.hpp"
#include "dd/compiled.hpp"
#include "dd/manager.hpp"
#include "dd/stats.hpp"
#include "netlist/generators.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verify.hpp"
#include "sim/simulator.hpp"
#include "support/io.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace {

using namespace cfpm::dd;

/// n-variable parity: the classic linear-size BDD stress case.
Bdd parity(DdManager& mgr, std::uint32_t n) {
  Bdd f = mgr.bdd_zero();
  for (std::uint32_t v = 0; v < n; ++v) f = f ^ mgr.bdd_var(v);
  return f;
}

void BM_BddAndChain(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    DdManager mgr(n);
    Bdd f = mgr.bdd_one();
    for (std::uint32_t v = 0; v < n; ++v) f = f & mgr.bdd_var(v);
    benchmark::DoNotOptimize(f.size());
  }
}
BENCHMARK(BM_BddAndChain)->Arg(16)->Arg(64)->Arg(256);

void BM_BddParity(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  double hit_rate = 0.0, occupancy = 0.0;
  for (auto _ : state) {
    DdManager mgr(n);
    Bdd f = parity(mgr, n);
    benchmark::DoNotOptimize(f.size());
    hit_rate = mgr.cache_hit_rate();
    occupancy = mgr.unique_table_occupancy();
  }
  state.counters["cache_hit_rate"] = hit_rate;
  state.counters["unique_occupancy"] = occupancy;
}
BENCHMARK(BM_BddParity)->Arg(16)->Arg(64)->Arg(128);

void BM_AddWeightedSum(benchmark::State& state) {
  // Mimics the Fig. 6 inner loop: sum of weighted 0/1 functions.
  const auto terms = static_cast<std::uint32_t>(state.range(0));
  double hit_rate = 0.0, occupancy = 0.0;
  for (auto _ : state) {
    DdManager mgr(16);
    Add total = mgr.constant(0.0);
    for (std::uint32_t i = 0; i < terms; ++i) {
      Bdd prod = mgr.bdd_var(i % 16) & !mgr.bdd_var((i + 5) % 16);
      total = total + Add(prod).times(1.0 + i);
    }
    benchmark::DoNotOptimize(total.size());
    hit_rate = mgr.cache_hit_rate();
    occupancy = mgr.unique_table_occupancy();
  }
  // Kernel-tuning observability: computed-cache effectiveness and
  // unique-table pressure of the construction workload.
  state.counters["cache_hit_rate"] = hit_rate;
  state.counters["unique_occupancy"] = occupancy;
}
BENCHMARK(BM_AddWeightedSum)->Arg(32)->Arg(128);

/// Eval-benchmark workload. Weights cycle through a small set (i % 7) so
/// the sum's value diversity -- and hence the ADD's terminal count -- stays
/// bounded; with 64 distinct weights the diagram grows combinatorially.
Add eval_workload(DdManager& mgr) {
  Add f = mgr.constant(0.0);
  for (std::uint32_t i = 0; i < 96; ++i) {
    Bdd prod = mgr.bdd_var(i % 24) & !mgr.bdd_var((i * 5 + 1) % 24);
    f = f + Add(prod).times(1.0 + (i % 7));
  }
  return f;
}

void BM_AddEval(benchmark::State& state) {
  DdManager mgr(24);
  Add f = eval_workload(mgr);
  std::vector<std::uint8_t> assignment(24);
  std::uint64_t counter = 0;
  for (auto _ : state) {
    for (std::size_t v = 0; v < 24; ++v) {
      assignment[v] = static_cast<std::uint8_t>((counter >> v) & 1u);
    }
    ++counter;
    benchmark::DoNotOptimize(f.eval(assignment));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["nodes"] = static_cast<double>(f.size());
}
BENCHMARK(BM_AddEval);

void BM_CompiledAddEval(benchmark::State& state) {
  // Same diagram as BM_AddEval, evaluated on the flat-array snapshot.
  DdManager mgr(24);
  const CompiledDd compiled = CompiledDd::compile(eval_workload(mgr));
  std::vector<std::uint8_t> assignment(24);
  std::uint64_t counter = 0;
  for (auto _ : state) {
    for (std::size_t v = 0; v < 24; ++v) {
      assignment[v] = static_cast<std::uint8_t>((counter >> v) & 1u);
    }
    ++counter;
    benchmark::DoNotOptimize(compiled.eval(assignment));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["nodes"] = static_cast<double>(compiled.num_nodes());
}
BENCHMARK(BM_CompiledAddEval);

void BM_NodeStatsTraversal(benchmark::State& state) {
  DdManager mgr(24);
  Add f = mgr.constant(0.0);
  for (std::uint32_t i = 0; i < 96; ++i) {
    Bdd prod = mgr.bdd_var(i % 24) & !mgr.bdd_var((i * 5 + 1) % 24);
    f = f + Add(prod).times(1.0 + (i % 7));
  }
  for (auto _ : state) {
    NodeStats stats(f);
    benchmark::DoNotOptimize(stats.root().var);
  }
  state.counters["nodes"] = static_cast<double>(f.size());
}
BENCHMARK(BM_NodeStatsTraversal);

void BM_Approximate(benchmark::State& state) {
  const auto budget = static_cast<std::size_t>(state.range(0));
  DdManager mgr(24);
  Add f = mgr.constant(0.0);
  for (std::uint32_t i = 0; i < 96; ++i) {
    Bdd prod = mgr.bdd_var(i % 24) & !mgr.bdd_var((i * 5 + 1) % 24);
    f = f + Add(prod).times(1.0 + (i % 7));
  }
  for (auto _ : state) {
    Add g = approximate_to(f, budget, ApproxMode::kAverage);
    benchmark::DoNotOptimize(g.size());
  }
}
BENCHMARK(BM_Approximate)->Arg(100)->Arg(10)->Arg(1);

void BM_GarbageCollection(benchmark::State& state) {
  for (auto _ : state) {
    DdManager mgr(20);
    for (int round = 0; round < 10; ++round) {
      Bdd f = parity(mgr, 20);  // becomes garbage each round
      benchmark::DoNotOptimize(f.size());
    }
    benchmark::DoNotOptimize(mgr.collect_garbage());
  }
}
BENCHMARK(BM_GarbageCollection);

// ---------------------------------------------------------------------------
// --dd-core recorder: apply throughput + sift wall time on real circuits.
// ---------------------------------------------------------------------------

/// Builds every signal's BDD of `n` in topological order; counts binary
/// apply operations (NOTs excluded: they are representation-dependent in
/// cost and free on a complement-edge kernel).
std::vector<Bdd> build_signal_bdds(DdManager& mgr, const cfpm::netlist::Netlist& n,
                                   std::size_t* binary_ops) {
  using cfpm::netlist::SignalId;
  std::vector<Bdd> g(n.num_signals());
  for (SignalId s = 0; s < n.num_signals(); ++s) {
    const auto& sig = n.signal(s);
    if (sig.is_input) {
      g[s] = mgr.bdd_var(n.input_index(s));
      continue;
    }
    g[s] = cfpm::netlist::gate_bdd(mgr, n, s, g);
    // A k-input AND/OR/XOR-family gate folds k - 1 binary applies.
    if (const std::size_t k = n.fanins(s).size(); k > 1) *binary_ops += k - 1;
  }
  return g;
}

struct CoreCircuitResult {
  std::string name;
  std::size_t inputs = 0;
  std::size_t binary_ops = 0;       ///< binary apply calls per build pass
  double build_seconds = 0.0;       ///< best pass
  double apply_ops_per_sec = 0.0;
  std::size_t live_nodes = 0;       ///< after one build pass
  double sift_seconds = 0.0;
  std::size_t nodes_after_sift = 0;
  bool check_ok = false;
};

/// Evaluates every output BDD against the gate-level simulator on random
/// vectors; any disagreement is a representation bug.
bool self_check(const cfpm::netlist::Netlist& n, const std::vector<Bdd>& g,
                std::size_t vectors) {
  cfpm::sim::GateLevelSimulator sim(
      n, std::vector<double>(n.num_signals(), 1.0));
  cfpm::Xoshiro256 rng(0xddc0de);
  std::vector<std::uint8_t> inputs(n.num_inputs());
  for (std::size_t t = 0; t < vectors; ++t) {
    for (auto& b : inputs) b = rng.next_bool(0.5) ? 1 : 0;
    const std::vector<std::uint8_t> signals = sim.eval(inputs);
    for (cfpm::netlist::SignalId s : n.outputs()) {
      if (g[s].is_null()) continue;
      if (g[s].eval(inputs) != (signals[s] != 0)) {
        std::cerr << "dd-core self-check FAILED: circuit " << n.name()
                  << " output signal " << s << " vector " << t << "\n";
        return false;
      }
    }
  }
  return true;
}

CoreCircuitResult run_core_circuit(const std::string& name, bool smoke) {
  const cfpm::netlist::Netlist n = cfpm::netlist::gen::mcnc_like(name);
  CoreCircuitResult r;
  r.name = name;
  r.inputs = n.num_inputs();

  const int max_passes = smoke ? 1 : 200;
  const double min_elapsed = smoke ? 0.0 : 1.0;
  double elapsed = 0.0;
  double best = 1e300;
  for (int pass = 0; pass < max_passes && (pass == 0 || elapsed < min_elapsed);
       ++pass) {
    DdManager mgr(n.num_inputs());
    std::size_t ops = 0;
    cfpm::Timer timer;
    std::vector<Bdd> g = build_signal_bdds(mgr, n, &ops);
    const double t = timer.seconds();
    best = std::min(best, t);
    elapsed += t;
    r.binary_ops = ops;
    if (pass == 0) {
      r.live_nodes = mgr.live_nodes();
      r.check_ok = self_check(n, g, smoke ? 64 : 256);
      cfpm::Timer sift_timer;
      mgr.sift();
      r.sift_seconds = sift_timer.seconds();
      r.nodes_after_sift = mgr.live_nodes();
    }
  }
  r.build_seconds = best;
  r.apply_ops_per_sec = static_cast<double>(r.binary_ops) / best;
  return r;
}

int run_dd_core(bool smoke) {
  const std::size_t node_bytes = DdManager::node_footprint_bytes();
  std::vector<CoreCircuitResult> results;
  bool ok = true;
  for (const char* name : {"cmb", "cm150"}) {
    CoreCircuitResult r = run_core_circuit(name, smoke);
    ok = ok && r.check_ok;
    std::cout << r.name << ": inputs=" << r.inputs << " binary_ops="
              << r.binary_ops << " build=" << r.build_seconds * 1e3
              << " ms apply_ops/s=" << r.apply_ops_per_sec
              << " nodes=" << r.live_nodes << " sift=" << r.sift_seconds * 1e3
              << " ms nodes_after_sift=" << r.nodes_after_sift
              << (r.check_ok ? " check=ok" : " check=FAILED") << "\n";
    results.push_back(std::move(r));
  }
  std::cout << "node_footprint_bytes=" << node_bytes << "\n";
  if (!ok) return 1;
  if (smoke) {
    std::cout << "dd-core smoke: ok\n";
    return 0;
  }
  // Atomic write: a crashed or interrupted run never leaves a truncated
  // JSON where the dashboard expects a complete one.
  cfpm::atomic_write_file("BENCH_dd_core.json", [&](std::ostream& out) {
    out << "{\n  \"node_footprint_bytes\": " << node_bytes << ",\n";
    out << "  \"circuits\": [\n";
    out.precision(6);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const CoreCircuitResult& r = results[i];
      out << "    {\"name\": \"" << r.name << "\", \"inputs\": " << r.inputs
          << ", \"binary_apply_ops\": " << r.binary_ops
          << ", \"build_seconds\": " << r.build_seconds
          << ", \"apply_ops_per_sec\": " << r.apply_ops_per_sec
          << ", \"live_nodes\": " << r.live_nodes
          << ", \"sift_seconds\": " << r.sift_seconds
          << ", \"nodes_after_sift\": " << r.nodes_after_sift << "}"
          << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  });
  std::cout << "wrote BENCH_dd_core.json\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool dd_core = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dd-core") == 0) dd_core = true;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (dd_core) return run_dd_core(smoke);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
