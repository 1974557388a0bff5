// Compiled (flattened) decision diagrams for high-throughput evaluation.
//
// A CompiledDd is an immutable snapshot of a frozen Add/Bdd: every node
// reachable from the root is copied into one contiguous array of POD
// records with 32-bit child indices, sorted by manager level so a
// root-to-terminal walk moves strictly forward through the array. Terminal
// values live in a separate table; terminals are materialized as
// self-looping "sink" records so the batch evaluator's inner loop is
// completely branch-free (every lane takes exactly depth() steps).
//
// The snapshot shares nothing with the originating DdManager: manager
// garbage collection, reordering, or destruction cannot invalidate it, and
// a CompiledDd may be evaluated concurrently from any number of threads.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dd/manager.hpp"
#include "support/assert.hpp"

namespace cfpm::dd {

class CompiledDd {
 public:
  /// One flattened node: 12 bytes, no pointers. `hi`/`lo` index back into
  /// the same array (indices >= num_internal_nodes() are terminal sinks).
  /// Bit 31 of `hi`/`lo` (kFirstEdge) marks the child's first incoming
  /// edge in sweep order; the packed sweep overwrites the child's reach
  /// mask there instead of OR-merging, which removes the need to zero the
  /// mask array between batches. Walkers mask it off with
  /// kIndexMask before using a successor as an index.
  struct Node {
    std::uint32_t var;  ///< variable tested (sinks repeat a valid index)
    std::uint32_t hi;   ///< successor when assignment[var] != 0
    std::uint32_t lo;   ///< successor when assignment[var] == 0
  };
  static constexpr std::uint32_t kFirstEdge = 0x80000000u;
  static constexpr std::uint32_t kIndexMask = 0x7fffffffu;

  CompiledDd() = default;

  /// Flattens the DAG rooted at `f`. The result is deterministic: nodes are
  /// ordered by (level, creation id) and terminal values ascending.
  static CompiledDd compile(const Add& f);
  /// A BDD compiles to a 0.0/1.0-valued evaluator.
  static CompiledDd compile(const Bdd& f);

  /// Evaluates one assignment (indexed by manager variable). Bit-identical
  /// to Add::eval on the source diagram. `assignment` must cover
  /// [0, min_assignment_size()).
  double eval(std::span<const std::uint8_t> assignment) const {
    CFPM_REQUIRE(assignment.size() >= min_assignment_size());
    std::uint32_t idx = root_;
    while (idx < first_terminal_) {
      const Node& n = nodes_[idx];
      idx = (assignment[n.var] ? n.hi : n.lo) & kIndexMask;
    }
    return values_[idx - first_terminal_];
  }

  /// Bit-parallel batch evaluation: up to 64 * kPackedGroups assignments
  /// per call. `bits[kPackedGroups * v + w]` packs group w's values of
  /// variable v (bit k = assignment 64*w + k; the stride is kPackedGroups
  /// regardless of count), and assignment 64*w + k's value lands in
  /// out[64*w + k], bit-identical to eval(). Because the array is
  /// topologically sorted, a single forward pass propagates reach masks
  /// (which assignments' paths visit each node) from the root to the sinks,
  /// so the cost scales with num_nodes() per 64 assignments instead of
  /// depth() per assignment. Internally the groups are processed
  /// sweep_groups() at a time through the widest SIMD kernel the active
  /// dispatch tier supports (dd/simd.hpp); every tier is bit-identical.
  /// `scratch` is caller-owned mask storage, reused across calls so hot
  /// loops stay allocation-free.
  void eval_packed_wide(const std::uint64_t* bits, std::size_t count,
                        double* out, std::vector<std::uint64_t>& scratch) const;

  /// Number of 64-assignment groups eval_packed_wide accepts per call (the
  /// fixed stride of the caller's `bits` layout). 8 words are two AVX2
  /// registers per node row.
  static constexpr std::size_t kPackedGroups = 8;

  /// Scratch budget for one sub-sweep (see sweep_groups()): sized so the
  /// reach rows of a sweep stay resident in a typical 256 KiB-class L2
  /// instead of streaming through it every node pass.
  static constexpr std::size_t kSweepScratchBudget = 256 * 1024;

  /// Cache-block width chosen at compile(): the largest power of two
  /// <= kPackedGroups for which `num_nodes() * groups * 8` bytes of reach
  /// scratch fit kSweepScratchBudget (floor 1). eval_packed_wide sweeps the
  /// node array once per this many groups, trading sweeps for locality on
  /// large diagrams.
  std::size_t sweep_groups() const noexcept { return sweep_groups_; }

  std::size_t num_internal_nodes() const noexcept { return first_terminal_; }
  std::size_t num_terminals() const noexcept { return values_.size(); }
  std::size_t num_nodes() const noexcept { return nodes_.size(); }
  /// Worst-case walk length (number of distinct levels in the diagram).
  std::uint32_t depth() const noexcept { return depth_; }
  /// 1 + largest variable index tested anywhere in the diagram.
  std::uint32_t min_assignment_size() const noexcept { return num_vars_needed_; }
  std::span<const double> values() const noexcept { return values_; }

  /// Read-only view of the flattened records (layout tests, kernels).
  std::span<const Node> nodes() const noexcept { return nodes_; }
  std::uint32_t root() const noexcept { return root_; }
  /// Level boundaries of the breadth-first-packed layout: the nodes of
  /// distinct level d (0 = root's level) occupy indices
  /// [level_offsets()[d], level_offsets()[d + 1]); the final entry equals
  /// num_internal_nodes(). Within a level, nodes are ordered by
  /// breadth-first discovery rank from the root, so the sweep's stores
  /// from one level land in one forward linear stream in the next.
  std::span<const std::uint32_t> level_offsets() const noexcept {
    return level_offsets_;
  }

 private:
  std::vector<Node> nodes_;    // internal nodes (level-sorted), then sinks
  std::vector<double> values_; // value of sink node first_terminal_ + i
  std::vector<std::uint32_t> level_offsets_;  // depth_ + 1 entries
  std::uint32_t root_ = 0;
  std::uint32_t first_terminal_ = 0;
  std::uint32_t depth_ = 0;
  std::uint32_t num_vars_needed_ = 0;
  std::uint32_t sweep_groups_ = kPackedGroups;
};

}  // namespace cfpm::dd
