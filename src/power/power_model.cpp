#include "power/power_model.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace cfpm::power {

TraceEstimate PowerModel::reduce_trace(
    std::size_t transitions, ThreadPool* pool,
    const std::function<void(std::size_t, std::size_t, double&, double&)>&
        chunk_fn) const {
  TraceEstimate est;
  est.transitions = transitions;
  if (transitions == 0) return est;

  // Metered per call, not per chunk: every model's estimate_trace funnels
  // through here, and the per-chunk work must stay metric-free to keep the
  // packed-eval throughput contract (< 2% overhead).
  CFPM_TRACE_SPAN("power.trace");
  static const metrics::Counter c_call("power.trace.call");
  static const metrics::Counter c_chunk("power.trace.chunk");
  static const metrics::Counter c_pattern("power.trace.pattern");
  static const metrics::Histogram h_us("power.trace.us");
  const metrics::ScopedTimer timer(h_us);

  const std::size_t chunks = (transitions + kTraceChunk - 1) / kTraceChunk;
  c_call.add();
  c_chunk.add(chunks);
  c_pattern.add(transitions);
  if (pool == nullptr || pool->num_workers() == 0 || chunks == 1) {
    // Inline fast path: no queue, no mutex, and no per-chunk slot vectors.
    // Chunks still run in chunk order with per-chunk zero-initialized
    // partials folded immediately, which is the same association as the
    // ordered reduction below — bit-identical to the pooled path.
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t begin = c * kTraceChunk;
      const std::size_t end = std::min(begin + kTraceChunk, transitions);
      double total = 0.0;
      double peak = 0.0;
      chunk_fn(begin, end, total, peak);
      est.total_ff += total;
      est.peak_ff = std::max(est.peak_ff, peak);
    }
    return est;
  }
  std::vector<double> totals(chunks, 0.0);
  std::vector<double> peaks(chunks, 0.0);
  pool->run_indexed(chunks, [&](std::size_t c) {
    const std::size_t begin = c * kTraceChunk;
    const std::size_t end = std::min(begin + kTraceChunk, transitions);
    chunk_fn(begin, end, totals[c], peaks[c]);
  });
  // Ordered reduction: identical association regardless of thread count.
  for (std::size_t c = 0; c < chunks; ++c) {
    est.total_ff += totals[c];
    est.peak_ff = std::max(est.peak_ff, peaks[c]);
  }
  return est;
}

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

TraceEstimate PowerModel::estimate_trace(const sim::InputSequence& seq,
                                         ThreadPool* pool) const {
  CFPM_REQUIRE(seq.num_inputs() == num_inputs());
  static_assert(kTraceChunk % kBlockTransitions == 0,
                "chunk boundaries must not split a block");
  std::vector<std::size_t> inputs(num_inputs());
  std::iota(inputs.begin(), inputs.end(), std::size_t{0});
  return reduce_trace(
      seq.num_transitions(), pool,
      [&](std::size_t begin, std::size_t end, double& total, double& peak) {
        std::vector<std::uint64_t> xi(kBlockGroups * inputs.size());
        std::vector<std::uint64_t> xf(kBlockGroups * inputs.size());
        BlockScratch scratch;
        double values[kBlockTransitions];
        for (std::size_t base = begin; base < end; base += kBlockTransitions) {
          const std::size_t m = std::min(kBlockTransitions, end - base);
          pack_block(seq, inputs, base, m, xi, xf);
          estimate_block(xi, xf, m, {values, m}, scratch);
          for (std::size_t t = 0; t < m; ++t) {
            total += values[t];
            peak = std::max(peak, values[t]);
          }
        }
      });
}

}  // namespace cfpm::power
