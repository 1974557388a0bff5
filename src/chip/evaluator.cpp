#include "chip/evaluator.hpp"

#include <utility>
#include <vector>

#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace cfpm::chip {

ChipTraceResult evaluate_trace(const power::RtlDesign& design,
                               const sim::InputSequence& trace,
                               ThreadPool* pool) {
  CFPM_TRACE_SPAN("chip.eval");
  CFPM_REQUIRE(trace.num_inputs() >= design.bus_width());
  static const metrics::Counter c_eval("chip.eval.count");
  static const metrics::Counter c_transitions("chip.eval.transitions");
  static const metrics::Histogram h_latency("chip.eval.latency_us");
  const metrics::ScopedTimer timer(h_latency);
  c_eval.add();

  const std::size_t transitions = trace.num_transitions();
  c_transitions.add(transitions);
  std::vector<power::TraceInstance> instances;
  instances.reserve(design.num_instances());
  for (std::size_t i = 0; i < design.num_instances(); ++i) {
    instances.push_back(
        {&design.instance_model(i), design.instance_input_map(i)});
  }
  power::TraceTotals totals =
      power::stream_trace(instances, trace, kTraceChunk, pool);

  ChipTraceResult result;
  result.transitions = transitions;
  result.peak_ff = totals.peak_ff;
  result.per_instance_ff = std::move(totals.per_instance_ff);
  for (const double v : result.per_instance_ff) result.total_ff += v;
  return result;
}

}  // namespace cfpm::chip
