#include "power/power_model.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace cfpm::power {

void PowerModel::estimate_block(std::span<const std::uint64_t> xi_words,
                                std::span<const std::uint64_t> xf_words,
                                std::size_t count, std::span<double> out,
                                BlockScratch& scratch) const {
  const std::size_t n = num_inputs();
  CFPM_REQUIRE(count >= 1 && count <= kBlockTransitions &&
               out.size() >= count);
  CFPM_REQUIRE(xi_words.size() >= kBlockGroups * n &&
               xf_words.size() >= kBlockGroups * n);
  if (scratch.xi.size() < n) {
    scratch.xi.resize(n);
    scratch.xf.resize(n);
  }
  const std::span<std::uint8_t> xi(scratch.xi.data(), n);
  const std::span<std::uint8_t> xf(scratch.xf.data(), n);
  for (std::size_t t = 0; t < count; ++t) {
    const std::size_t w = t / 64;
    const std::size_t s = t % 64;
    for (std::size_t k = 0; k < n; ++k) {
      xi[k] = (xi_words[kBlockGroups * k + w] >> s) & 1u;
      xf[k] = (xf_words[kBlockGroups * k + w] >> s) & 1u;
    }
    out[t] = estimate_ff(xi, xf);
  }
}

void pack_block(const sim::InputSequence& seq,
                std::span<const std::size_t> inputs, std::size_t base,
                std::size_t count, std::span<std::uint64_t> xi_words,
                std::span<std::uint64_t> xf_words) {
  constexpr std::size_t W = PowerModel::kBlockGroups;
  CFPM_REQUIRE(count <= PowerModel::kBlockTransitions &&
               base + count <= seq.num_transitions());
  CFPM_REQUIRE(xi_words.size() >= W * inputs.size() &&
               xf_words.size() >= W * inputs.size());
  // Transition t's initial state of an input is bit t of its stream and its
  // final state is bit t+1, so each operand word is one window64 read.
  const std::size_t groups = (count + 63) / 64;
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    for (std::size_t w = 0; w < groups; ++w) {
      xi_words[W * k + w] = seq.window64(inputs[k], base + 64 * w);
      xf_words[W * k + w] = seq.window64(inputs[k], base + 64 * w + 1);
    }
  }
}

TraceTotals stream_trace(std::span<const TraceInstance> instances,
                         const sim::InputSequence& seq, std::size_t chunk,
                         ThreadPool* pool) {
  constexpr std::size_t kBlock = PowerModel::kBlockTransitions;
  CFPM_REQUIRE(chunk > 0 && chunk % kBlock == 0);
  const std::size_t transitions = seq.num_transitions();
  const std::size_t n = instances.size();
  TraceTotals result;
  result.per_instance_ff.assign(n, 0.0);
  if (transitions == 0 || n == 0) return result;

  std::size_t max_inputs = 0;
  for (const TraceInstance& inst : instances) {
    max_inputs = std::max(max_inputs, inst.inputs.size());
  }
  const std::size_t chunks = (transitions + chunk - 1) / chunk;
  // Chunk c's partials: sums[c * n + i] for instance i, and peaks[c].
  std::vector<double> sums(chunks * n);
  std::vector<double> peaks(chunks);
  const auto run_chunk = [&](std::size_t c) {
    const std::size_t begin = c * chunk;
    const std::size_t end = std::min(begin + chunk, transitions);
    // cycle[t - begin] is transition t's composed estimate.
    std::vector<double> cycle(end - begin, 0.0);
    std::vector<std::uint64_t> xi(PowerModel::kBlockGroups * max_inputs);
    std::vector<std::uint64_t> xf(PowerModel::kBlockGroups * max_inputs);
    BlockScratch scratch;
    double values[kBlock];
    // Instance-major: instance i's slot sums its values in transition
    // order, and each cycle total folds 0.0 + v_0 + v_1 + ... in instance
    // order, the association of a per-transition loop.
    for (std::size_t i = 0; i < n; ++i) {
      const TraceInstance& inst = instances[i];
      double sum = 0.0;
      for (std::size_t base = begin; base < end; base += kBlock) {
        const std::size_t m = std::min(kBlock, end - base);
        pack_block(seq, inst.inputs, base, m, xi, xf);
        inst.model->estimate_block(xi, xf, m, {values, m}, scratch);
        double* cycle_block = cycle.data() + (base - begin);
        for (std::size_t t = 0; t < m; ++t) {
          sum += values[t];
          cycle_block[t] += values[t];
        }
      }
      sums[c * n + i] = sum;
    }
    double peak = 0.0;
    for (const double v : cycle) peak = std::max(peak, v);
    peaks[c] = peak;
  };
  if (pool != nullptr) {
    pool->run_indexed(chunks, run_chunk);
  } else {
    for (std::size_t c = 0; c < chunks; ++c) run_chunk(c);
  }

  // Ordered reduction: chunk order per instance. Peak is a max, so the
  // reduction order cannot change it.
  for (std::size_t c = 0; c < chunks; ++c) {
    for (std::size_t i = 0; i < n; ++i) {
      result.per_instance_ff[i] += sums[c * n + i];
    }
    result.peak_ff = std::max(result.peak_ff, peaks[c]);
  }
  return result;
}

TraceEstimate PowerModel::estimate_trace(const sim::InputSequence& seq,
                                         ThreadPool* pool) const {
  CFPM_REQUIRE(seq.num_inputs() == num_inputs());
  TraceEstimate est;
  est.transitions = seq.num_transitions();
  if (est.transitions == 0) return est;

  // Metered per call, not per chunk: the per-chunk work must stay
  // metric-free to keep the packed-eval throughput contract (< 2%
  // overhead).
  CFPM_TRACE_SPAN("power.trace");
  static const metrics::Counter c_call("power.trace.call");
  static const metrics::Counter c_chunk("power.trace.chunk");
  static const metrics::Counter c_pattern("power.trace.pattern");
  static const metrics::Histogram h_us("power.trace.us");
  const metrics::ScopedTimer timer(h_us);
  c_call.add();
  c_chunk.add((est.transitions + kTraceChunk - 1) / kTraceChunk);
  c_pattern.add(est.transitions);

  std::vector<std::size_t> inputs(num_inputs());
  std::iota(inputs.begin(), inputs.end(), std::size_t{0});
  const TraceInstance self{this, inputs};
  const TraceTotals totals = stream_trace({&self, 1}, seq, kTraceChunk, pool);
  est.total_ff = totals.per_instance_ff[0];
  est.peak_ff = totals.peak_ff;
  return est;
}

}  // namespace cfpm::power
