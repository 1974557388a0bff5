// Per-node statistics of a discrete function represented as an ADD.
//
// For every node n, computes over all assignments of the variables below
// n's level (Eq. 5-8 of the paper):
//   avg(n)  - average value of the sub-function
//   var(n)  - variance of the sub-function
//   max(n)  - maximum value
//   min(n)  - minimum value
//   mse(n)  - var(n) + (max(n) - avg(n))^2, the mean square error of
//             replacing the sub-function by its maximum (Eq. 8)
// The statistics live in one dense node table. Each reachable node gets a
// *slot*: the internal nodes in level order (root first, so every parent
// precedes its children), then the terminals. Entries are filled bottom-up
// in one loop over the slots in reverse, and the collapse engine keeps all
// its per-node state in arrays indexed by the same slots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dd/manager.hpp"

namespace cfpm::dd {

/// Returns an input assignment (indexed by variable, entries 0/1) on which
/// `f` attains its maximum terminal value. Variables outside the support
/// are left 0. Complements max_value() by exhibiting a witness -- e.g. the
/// worst-case input transition of a switching-capacitance model (the
/// search that is exponential on the netlist [8, 9] is linear on the ADD).
std::vector<std::uint8_t> argmax_assignment(const Add& f);

class NodeStats {
 public:
  struct Entry {
    double avg = 0.0;
    double var = 0.0;
    double max = 0.0;
    double min = 0.0;

    double mse_of_max() const noexcept {
      return var + (max - avg) * (max - avg);
    }
  };
  struct Children {
    std::uint32_t then_slot;
    std::uint32_t else_slot;
  };

  /// Tabulates every node reachable from `f`; the root is slot 0.
  explicit NodeStats(const Add& f);

  /// Slots [0, internal_count()) hold internal nodes, the rest terminals.
  std::size_t size() const noexcept { return nodes_.size(); }
  std::size_t internal_count() const noexcept { return children_.size(); }
  /// Arena index of the node in `slot`.
  std::uint32_t node(std::uint32_t slot) const { return nodes_[slot]; }
  /// Child slots of an internal slot; both are larger than `slot`.
  const Children& children(std::uint32_t slot) const { return children_[slot]; }
  const Entry& entry(std::uint32_t slot) const { return entries_[slot]; }
  const Entry& root() const { return entries_.front(); }

  /// Probability that a uniformly random assignment reaches each slot,
  /// accumulated parent by parent in slot order.
  std::vector<double> uniform_reach() const;

 private:
  std::vector<std::uint32_t> nodes_;  // slot -> arena index
  std::vector<Children> children_;    // internal slot -> child slots
  std::vector<Entry> entries_;        // slot -> statistics
};

}  // namespace cfpm::dd
