#include "chip/evaluator.hpp"

#include <algorithm>
#include <utility>

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
  ChipTraceResult result;
  result.transitions = transitions;
  result.per_instance_ff.assign(design.num_instances(), 0.0);
  if (transitions == 0 || design.num_instances() == 0) return result;

  using power::PowerModel;
  constexpr std::size_t kBlock = PowerModel::kBlockTransitions;
  static_assert(kTraceChunk % kBlock == 0,
                "chunk boundaries must not split a block");
  std::size_t max_inputs = 0;
  for (std::size_t i = 0; i < design.num_instances(); ++i) {
    max_inputs = std::max(max_inputs, design.instance_input_map(i).size());
  }

  const std::size_t chunks = (transitions + kTraceChunk - 1) / kTraceChunk;
  struct Slot {
    std::vector<double> per_instance;
    double peak = 0.0;
  };
  std::vector<Slot> slots(chunks);
  const auto run_chunk = [&](std::size_t c) {
    const std::size_t begin = c * kTraceChunk;
    const std::size_t end = std::min(begin + kTraceChunk, transitions);
    Slot& slot = slots[c];
    slot.per_instance.assign(design.num_instances(), 0.0);
    // cycle[t - begin] is transition t's composed estimate.
    std::vector<double> cycle(end - begin, 0.0);
    std::vector<std::uint64_t> xi(PowerModel::kBlockGroups * max_inputs);
    std::vector<std::uint64_t> xf(PowerModel::kBlockGroups * max_inputs);
    power::BlockScratch scratch;
    double values[kBlock];
    // Instance-major: instance i's slot sums its values in transition
    // order, and each cycle total folds 0.0 + v_0 + v_1 + ... in instance
    // order — the association of the per-transition estimate_ff.
    for (std::size_t i = 0; i < design.num_instances(); ++i) {
      const PowerModel& model = design.instance_model(i);
      const std::vector<std::size_t>& input_map = design.instance_input_map(i);
      double& sum = slot.per_instance[i];
      for (std::size_t base = begin; base < end; base += kBlock) {
        const std::size_t m = std::min(kBlock, end - base);
        power::pack_block(trace, input_map, base, m, xi, xf);
        model.estimate_block(xi, xf, m, {values, m}, scratch);
        double* cycle_block = cycle.data() + (base - begin);
        for (std::size_t t = 0; t < m; ++t) {
          sum += values[t];
          cycle_block[t] += values[t];
        }
      }
    }
    for (const double v : cycle) slot.peak = std::max(slot.peak, v);
  };
  if (pool != nullptr) {
    pool->run_indexed(chunks, run_chunk);
  } else {
    for (std::size_t c = 0; c < chunks; ++c) run_chunk(c);
  }

  // Ordered reduction: chunk order per instance, then instance order for
  // the total. Peak is a max, so reduction order cannot change it.
  for (const Slot& slot : slots) {
    for (std::size_t i = 0; i < result.per_instance_ff.size(); ++i) {
      result.per_instance_ff[i] += slot.per_instance[i];
    }
    result.peak_ff = std::max(result.peak_ff, slot.peak);
  }
  for (const double v : result.per_instance_ff) result.total_ff += v;
  return result;
}

}  // namespace cfpm::chip
