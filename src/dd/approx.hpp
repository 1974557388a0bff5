// ADD approximation by node collapsing (Section 3 of the paper).
//
// A sub-ADD is "collapsed" when it is replaced by a single constant leaf.
// Two strategies are provided:
//
//  * kAverage   - collapse nodes of minimum variance, replacing each by its
//                 average value. Preserves the global average exactly and
//                 minimizes mean-square error for a given collapse set.
//  * kUpperBound- collapse nodes of minimum mse (Eq. 8), replacing each by
//                 its maximum value. The result dominates the original
//                 function pointwise (conservative bound).
//
// Both strategies commute with addition in the sense exploited by the
// paper's process flow (Fig. 6): avg(a)+avg(b) == avg(a+b) and
// max(a)+max(b) >= max(a+b), so local approximation of partial sums keeps
// the global guarantee.
//
// Each collapse round tabulates the current ADD once (NodeStats, stats.hpp)
// and keeps every per-node fact -- ranking keys, live-parent counts,
// gone/marked flags, reach, the rebuild memo -- in arrays indexed by that
// table's slots. Ranking ties break on arena index and the rebuild visits
// then-children first, so results are deterministic.
#pragma once

#include <cstddef>

#include "dd/manager.hpp"

namespace cfpm::dd {

enum class ApproxMode {
  kAverage,     ///< collapse to avg; minimizes mse, preserves mean
  kUpperBound,  ///< collapse to max; conservative pointwise bound
};

/// Criterion used to pick which sub-ADDs to collapse first.
enum class CollapseMetric {
  /// var(n)/avg(n)^2 (default): quantizes clusters of similar values, so
  /// the induced error stays proportional to the predicted magnitude and
  /// the model's relative accuracy survives at every input statistic.
  kRelativeSpread,
  /// The paper's literal criterion: smallest var(n) (Eq. 5) first.
  kVariance,
  /// reach(n) * var(n): the exact contribution of the collapse to the
  /// model's global mean-square error under uniform inputs.
  kReachWeightedVariance,
};

struct ApproxResult {
  Add function;             ///< the simplified ADD
  std::size_t final_size;   ///< node count of `function` (incl. terminals)
  std::size_t collapsed;    ///< number of collapse operations applied
  std::size_t rounds;       ///< rebuild rounds needed
};

/// Reduces `f` to at most `max_size` nodes (terminals included).
/// `max_size` must be >= 1; with max_size == 1 the result degenerates to a
/// constant estimator (avg or max of f depending on the mode).
ApproxResult approximate(const Add& f, std::size_t max_size, ApproxMode mode,
                         CollapseMetric metric = CollapseMetric::kRelativeSpread);

/// Convenience wrapper returning only the simplified function.
Add approximate_to(const Add& f, std::size_t max_size, ApproxMode mode,
                   CollapseMetric metric = CollapseMetric::kRelativeSpread);

/// Leaf quantization: reduces the number of *distinct terminal values* to
/// at most `max_leaves` by repeatedly merging the two closest values
/// (mass-weighted average in kAverage mode; upward to the larger value in
/// kUpperBound mode, which keeps the result a pointwise upper bound).
/// Merging equal leaves also merges the structure above them, so this is a
/// natural companion to node collapsing for value-rich functions such as
/// switching-capacitance sums, whose node counts are often dominated by
/// the diversity of partial-sum values rather than by Boolean structure.
Add quantize_leaves(const Add& f, std::size_t max_leaves, ApproxMode mode);

}  // namespace cfpm::dd
