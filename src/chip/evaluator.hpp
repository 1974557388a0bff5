// Streaming sharded trace evaluation for composed designs.
//
// The transition stream is split into fixed-width chunks whose boundaries
// do not depend on the shard count; each chunk accumulates into its own
// slot (per-instance partial totals + chunk peak), and slots are reduced in
// chunk order afterwards. Totals are therefore bit-identical for any pool
// size.
//
// Within a chunk every instance is evaluated 512 transitions at a time:
// its bus window is gathered straight off the packed trace (pack_block) and
// handed to PowerModel::estimate_block, which for ADD models is one packed
// sweep of the compiled diagram. Instance i's values are summed into its
// slot in transition order, and into a per-chunk cycle array in instance
// order, so every sum has the association of a per-transition loop.
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
