// Micro-benchmarks of the bit-parallel zero-delay simulator and of the
// Markov stimulus generator that feeds it.
#include <benchmark/benchmark.h>

#include "netlist/generators.hpp"
#include "sim/simulator.hpp"
#include "stats/markov.hpp"

namespace {

using namespace cfpm;

void bench_circuit(benchmark::State& state, const netlist::Netlist& n) {
  const netlist::GateLibrary lib = netlist::GateLibrary::standard();
  const sim::GateLevelSimulator simulator(n, lib);
  stats::MarkovSequenceGenerator gen({0.5, 0.5}, 1);
  const sim::InputSequence seq = gen.generate(n.num_inputs(), 4096);
  for (auto _ : state) {
    const auto energy = simulator.simulate(seq);
    benchmark::DoNotOptimize(energy.total_ff);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(seq.num_transitions()));
  state.counters["gates"] = static_cast<double>(n.num_gates());
}

void BM_SimulateAdder16(benchmark::State& state) {
  bench_circuit(state, netlist::gen::ripple_carry_adder(16));
}
BENCHMARK(BM_SimulateAdder16);

void BM_SimulateComp(benchmark::State& state) {
  bench_circuit(state, netlist::gen::mcnc_like("comp"));
}
BENCHMARK(BM_SimulateComp);

void BM_SimulateK2(benchmark::State& state) {
  bench_circuit(state, netlist::gen::mcnc_like("k2"));
}
BENCHMARK(BM_SimulateK2);

void BM_ScalarVsParallel(benchmark::State& state) {
  // Scalar path: one pair at a time (the ablation baseline for the
  // 64-lane kernel; compare items/s against BM_SimulateAdder16).
  const netlist::Netlist n = netlist::gen::ripple_carry_adder(16);
  const netlist::GateLibrary lib = netlist::GateLibrary::standard();
  const sim::GateLevelSimulator simulator(n, lib);
  stats::MarkovSequenceGenerator gen({0.5, 0.5}, 1);
  const sim::InputSequence seq = gen.generate(n.num_inputs(), 257);
  std::vector<std::uint8_t> xi(n.num_inputs()), xf(n.num_inputs());
  for (auto _ : state) {
    double total = 0.0;
    for (std::size_t t = 0; t + 1 < seq.length(); ++t) {
      seq.vector_at(t, xi);
      seq.vector_at(t + 1, xf);
      total += simulator.switching_capacitance_ff(xi, xf);
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(seq.num_transitions()));
}
BENCHMARK(BM_ScalarVsParallel);

void BM_GenerateMarkov(benchmark::State& state, double sp, double st) {
  // 16 inputs x 16384 vectors per call. The per_bit counter is the time per
  // generated bit (one Xoshiro draw each), printed in ns.
  constexpr std::size_t kInputs = 16;
  constexpr std::size_t kLength = 16384;
  stats::MarkovSequenceGenerator gen({sp, st}, 1);
  for (auto _ : state) {
    const sim::InputSequence seq = gen.generate(kInputs, kLength);
    benchmark::DoNotOptimize(seq.word(0, 0));
  }
  state.counters["per_bit"] = benchmark::Counter(
      static_cast<double>(kInputs * kLength),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_GenerateMarkov, sp0.5_st0.05, 0.5, 0.05);
BENCHMARK_CAPTURE(BM_GenerateMarkov, sp0.5_st0.5, 0.5, 0.5);
BENCHMARK_CAPTURE(BM_GenerateMarkov, sp0.35_st0.6, 0.35, 0.6);

}  // namespace

BENCHMARK_MAIN();
