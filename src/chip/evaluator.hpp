// Streaming sharded trace evaluation for composed designs.
//
// A design is a list of (model, bus window) instances, and the evaluator
// hands that list to power::stream_trace, the one chunked trace loop that
// PowerModel::estimate_trace uses too. The transition stream is split into
// fixed kTraceChunk-wide chunks whose boundaries do not depend on the
// shard count; within a chunk every instance is evaluated 512 transitions
// at a time (pack_block + PowerModel::estimate_block, one packed sweep of
// the compiled diagram for ADD models). Instance i's values are summed in
// transition order, and into a per-chunk cycle array in instance order;
// chunk partials are reduced in chunk order. Totals and peaks are
// therefore bit-identical for any pool size and equal a per-transition
// loop's.
//
// The chip total is defined as the left-fold of the per-leaf totals in
// leaf (DFS) order — the same association Chip::subtree_total uses — so
// composed node totals equal the evaluator's totals bitwise.
#pragma once

#include <cstdint>
#include <vector>

#include "power/rtl.hpp"
#include "sim/sequence.hpp"
#include "support/thread_pool.hpp"

namespace cfpm::chip {

/// Transitions per chunk; fixed so shard boundaries never depend on the
/// pool size. A multiple of PowerModel::kBlockTransitions, so no block
/// straddles two chunks.
inline constexpr std::size_t kTraceChunk = 1024;
static_assert(kTraceChunk % power::PowerModel::kBlockTransitions == 0,
              "chunk boundaries must not split a block");

struct ChipTraceResult {
  /// Left-fold over leaves (in instance order) of per_instance_ff.
  double total_ff = 0.0;
  /// Largest per-transition composed estimate seen on the trace.
  double peak_ff = 0.0;
  std::size_t transitions = 0;
  std::vector<double> per_instance_ff;

  double average_ff() const noexcept {
    return transitions == 0 ? 0.0
                            : total_ff / static_cast<double>(transitions);
  }
};

/// Evaluates `design` over every transition of `trace` (whose width must be
/// >= design.bus_width()), sharded over `pool` (nullptr = serial). The
/// result is bit-identical for any pool size.
ChipTraceResult evaluate_trace(const power::RtlDesign& design,
                               const sim::InputSequence& trace,
                               ThreadPool* pool = nullptr);

}  // namespace cfpm::chip
