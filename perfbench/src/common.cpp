#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>

#include "support/trace.hpp"

namespace perfbench {

using namespace cfpm;

void Result::op(bool ok, const std::string& why) {
  ++attempted;
  if (!ok) fail(why);
}

void Result::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose,
                          std::uint64_t index) {
  // splitmix64 over the three inputs.
  std::uint64_t x = seed ^ (purpose * 0x9e3779b97f4a7c15ULL) ^
                    (index * 0xd1b54a32d192ed03ULL);
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

const stats::InputStatistics& spread_cell(std::size_t k, std::size_t count) {
  static const std::vector<stats::InputStatistics> grid =
      stats::evaluation_grid();
  return grid[(k % count) * grid.size() / count];
}

netlist::GateLibrary experiment_library() {
  return netlist::GateLibrary::uniform(5.0, 10.0);
}

const std::vector<Circuit>& table1_circuits() {
  // Table 1 of the paper without k2 (a single k2 build outlasts the rest).
  static const std::vector<Circuit> circuits = {
      {"alu2", 1000, 5000},  {"alu4", 2000, 15000}, {"cmb", 200, 1000},
      {"cm150", 1000, 2000}, {"cm85", 500, 500},    {"comp", 5000, 10000},
      {"decod", 200, 200},   {"mux", 1000, 5000},   {"parity", 3000, 500},
      {"pcle", 5000, 10000}, {"x1", 1000, 50000},   {"x2", 200, 2500},
  };
  return circuits;
}

Golden::Golden(netlist::Netlist n, const netlist::GateLibrary& lib)
    : netlist(std::move(n)), sim(netlist, lib) {}

void Golden::generate(const std::vector<stats::InputStatistics>& grid,
                      std::size_t vectors, std::uint64_t seed) {
  traces.clear();
  energy.clear();
  for (std::size_t k = 0; k < grid.size(); ++k) {
    {
      trace::Span span("stats.gen");
      stats::MarkovSequenceGenerator gen(grid[k], derive_seed(seed, 1, k));
      traces.push_back(gen.generate(netlist.num_inputs(), vectors));
    }
    energy.push_back(sim.simulate(traces.back()));
  }
}

void Accuracy::add_average(const power::PowerModel& model, const Golden& g) {
  double sum = 0.0;
  for (std::size_t k = 0; k < g.traces.size(); ++k) {
    const double golden = g.energy[k].average_ff();
    const double est = model.estimate_trace(g.traces[k]).average_ff();
    sum += std::abs(est - golden) / golden;
  }
  model_are_.push_back(sum / static_cast<double>(g.traces.size()));
}

void Accuracy::add_bound(const power::PowerModel& model, const Golden& g) {
  const double worst = model.worst_case_ff();
  for (std::size_t k = 0; k < g.traces.size(); ++k) {
    const power::TraceEstimate est = model.estimate_trace(g.traces[k]);
    slack_sum_ += est.total_ff / g.energy[k].total_ff;
    tight_sum_ += est.peak_ff / worst;
    ++bound_cells_;
  }
}

void Accuracy::write(std::map<std::string, double>& out) const {
  double mean = 0.0;
  double worst = 0.0;
  for (double are : model_are_) {
    mean += are;
    worst = std::max(worst, are);
  }
  if (!model_are_.empty()) mean /= static_cast<double>(model_are_.size());
  out["are_mean_pct"] = 100.0 * mean;
  out["are_max_pct"] = 100.0 * worst;
  const double cells = static_cast<double>(std::max<std::size_t>(1, bound_cells_));
  out["bound_slack"] = slack_sum_ / cells;
  out["bound_tightness"] =
      tightness_override_ >= 0.0 ? tightness_override_ : tight_sum_ / cells;
}

std::size_t bound_violations(const power::PowerModel& model, const Golden& g) {
  const std::size_t n = model.num_inputs();
  std::vector<std::uint8_t> xi(n);
  std::vector<std::uint8_t> xf(n);
  std::size_t violations = 0;
  for (std::size_t k = 0; k < g.traces.size(); ++k) {
    const sim::InputSequence& seq = g.traces[k];
    const std::vector<double>& golden = g.energy[k].per_transition_ff;
    seq.vector_at(0, xf);
    for (std::size_t t = 0; t + 1 < seq.length(); ++t) {
      xi.swap(xf);
      seq.vector_at(t + 1, xf);
      if (model.estimate_ff(xi, xf) < golden[t]) ++violations;
    }
  }
  return violations;
}

void add_model_counts(
    const std::vector<std::shared_ptr<const power::PowerModel>>& models,
    Result& r) {
  double lookups = 0.0;
  double hits = 0.0;
  for (const auto& m : models) {
    const auto* add = dynamic_cast<const power::AddPowerModel*>(m.get());
    if (add == nullptr) continue;
    const dd::DdManager& mgr = *add->function().manager();
    const power::AddModelBuildInfo& info = add->build_info();
    lookups += static_cast<double>(mgr.cache_lookups());
    hits += static_cast<double>(mgr.cache_hits());
    r.counts["dd.gc_runs"] += static_cast<double>(mgr.gc_runs());
    r.counts["dd.peak_live_nodes"] =
        std::max(r.counts["dd.peak_live_nodes"],
                 static_cast<double>(info.peak_live_nodes));
    r.counts["power.reorder_runs"] += static_cast<double>(info.reorder_runs);
    r.counts["power.approximations"] +=
        static_cast<double>(info.approximations);
    r.counts["power.model_nodes"] += static_cast<double>(add->size());
    if (info.outcome != power::BuildOutcome::kClean) {
      r.counts["power.degraded_builds"] += 1.0;
    }
  }
  r.counts["dd.cache_lookups"] += lookups;
  r.counts["dd.cache_hits"] += hits;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
