#include "eval/experiment.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <thread>

#include "serve/service.hpp"
#include "support/assert.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace cfpm::eval {

RunConfig RunConfig::from_env() {
  RunConfig config;
  if (const char* v = std::getenv("CFPM_VECTORS")) {
    char* end = nullptr;
    errno = 0;
    const long parsed = std::strtol(v, &end, 10);
    if (end == v || *end != '\0' || errno == ERANGE || parsed < 2) {
      throw Error(std::string("CFPM_VECTORS='") + v +
                  "': expected an integer >= 2 (a sequence needs at least "
                  "one transition)");
    }
    config.vectors_per_run = static_cast<std::size_t>(parsed);
  }
  return config;
}

std::vector<AccuracyReport> evaluate(
    std::span<const power::PowerModel* const> models, const Reference& golden,
    std::span<const stats::InputStatistics> grid, const EvalOptions& options) {
  CFPM_REQUIRE(!models.empty());
  CFPM_REQUIRE(!grid.empty());
  CFPM_TRACE_SPAN("eval.grid");
  static const metrics::Counter c_run("eval.grid.run");
  static const metrics::Counter c_cell("eval.grid.cell");
  static const metrics::Counter c_failed("eval.grid.cell.failed");
  static const metrics::Histogram h_cell_us("eval.grid.cell_us");
  c_run.add();

  const std::size_t n = golden.num_inputs();
  const RunConfig& config = options.run;
  std::vector<AccuracyReport> reports(models.size());
  for (std::size_t m = 0; m < models.size(); ++m) {
    CFPM_REQUIRE(models[m]->num_inputs() == n);
    reports[m].model_name = models[m]->name();
    reports[m].points.reserve(grid.size());
  }

  // Grid points are independent (deterministic per-point seeds), so they
  // evaluate in parallel. Models and the golden reference are only read.
  // A cell that throws (a blown circuit/config, an OOM in one model) is
  // recorded as failed and the rest of the grid continues; exceptions must
  // never escape evaluate_point, which may run on a pool worker.
  std::vector<std::vector<AccuracyPoint>> points(
      grid.size(), std::vector<AccuracyPoint>(models.size()));
  auto evaluate_point = [&](std::size_t gi) {
    CFPM_TRACE_SPAN("eval.cell");
    const metrics::ScopedTimer cell_timer(h_cell_us);
    c_cell.add();
    const stats::InputStatistics& s = grid[gi];
    auto fail_cell = [&](std::size_t m, const char* what) {
      AccuracyPoint p;
      p.statistics = s;
      p.failed = true;
      p.error = what;
      points[gi][m] = p;
    };
    stats::MarkovSequenceGenerator gen(s, config.seed + gi);
    const sim::InputSequence seq = gen.generate(n, config.vectors_per_run);
    double golden_value = 0.0;
    try {
      const sim::SequenceEnergy energy = golden.fn()(seq);
      golden_value = options.metric == Metric::kAverage ? energy.average_ff()
                                                        : energy.peak_ff;
    } catch (const std::exception& e) {
      // No reference for this grid point: every model's cell fails.
      for (std::size_t m = 0; m < models.size(); ++m) fail_cell(m, e.what());
      return;
    }
    for (std::size_t m = 0; m < models.size(); ++m) {
      AccuracyPoint p;
      p.statistics = s;
      p.golden = golden_value;
      try {
        // One batched pass over the trace yields average and peak together
        // (one packed sweep per 512 transitions for ADD models, the
        // estimate_ff default of estimate_block otherwise).
        // Routed through the service facade so the harness scores exactly
        // the evaluation path the CLI and the daemon serve.
        const service::EvalReply est =
            service::evaluate_trace(*models[m], seq);
        p.model = options.metric == Metric::kAverage ? est.average_ff
                                                     : est.peak_ff;
      } catch (const std::exception& e) {
        fail_cell(m, e.what());
        continue;
      }
      if (golden_value > 0.0) {
        const double diff = options.metric == Metric::kAverage
                                ? std::abs(p.model - golden_value)
                                : (p.model - golden_value);
        p.re = diff / golden_value;
      } else {
        p.re = (p.model == 0.0) ? 0.0 : std::numeric_limits<double>::infinity();
      }
      points[gi][m] = p;
    }
  };

  // One lane per cell up to the core count; a one-lane pool runs inline.
  ThreadPool pool(std::min<std::size_t>(
      grid.size(), std::max(1u, std::thread::hardware_concurrency())));
  pool.run_indexed(grid.size(), evaluate_point);
  for (std::size_t gi = 0; gi < grid.size(); ++gi) {
    for (std::size_t m = 0; m < models.size(); ++m) {
      reports[m].points.push_back(points[gi][m]);
    }
  }

  for (AccuracyReport& r : reports) {
    double sum = 0.0;
    for (const AccuracyPoint& p : r.points) {
      if (p.failed) {
        ++r.failed_points;
        continue;
      }
      sum += std::abs(p.re);
      ++r.evaluated_points;
    }
    r.are = r.evaluated_points == 0
                ? 0.0
                : sum / static_cast<double>(r.evaluated_points);
  }
  std::size_t failed = 0;
  for (const AccuracyReport& r : reports) failed += r.failed_points;
  if (failed != 0) c_failed.add(failed);
  return reports;
}

}  // namespace cfpm::eval
