#include "dd/compiled.hpp"

#include <algorithm>
#include <bit>
#include <unordered_map>
#include <unordered_set>

#include "dd/dd_internal.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"

namespace cfpm::dd {

namespace {

// Scatters the reach rows of the terminal sinks into out[64 * w + k].
// Terminals are few, so the cost is dominated by the sweep.
void gather_terminals(const std::uint64_t* reach, const double* values,
                      std::uint32_t first_terminal, std::size_t num_nodes,
                      double* out, std::size_t W) {
  for (std::size_t i = first_terminal; i < num_nodes; ++i) {
    const std::uint64_t* const m = reach + W * i;
    std::uint64_t any = 0;
    for (std::size_t w = 0; w < W; ++w) any |= m[w];
    if (any == 0) continue;
    const double v = values[i - first_terminal];
    for (std::size_t w = 0; w < W; ++w) {
      std::uint64_t mm = m[w];
      while (mm != 0) {
        out[64 * w + static_cast<std::size_t>(std::countr_zero(mm))] = v;
        mm &= mm - 1;
      }
    }
  }
}

// Pushes parent row m through one node: the lanes of m whose input bit bv
// is set go to child row hi, the rest to child row lo. A keep mask of 0
// (first incoming edge) overwrites the child row, all-ones ORs into it.
// The rows never alias (see sweep()); __restrict on the parameters, not
// on locals, is what lets the compiler vectorize without an overlap test.
inline void push_row(const std::uint64_t* __restrict m,
                     const std::uint64_t* __restrict bv,
                     std::uint64_t* __restrict hi, std::uint64_t* __restrict lo,
                     std::uint64_t keep_hi, std::uint64_t keep_lo,
                     std::size_t W) {
  for (std::size_t w = 0; w < W; ++w) {
    const std::uint64_t mw = m[w];
    const std::uint64_t bw = bv[w];
    hi[w] = (hi[w] & keep_hi) | (mw & bw);
    lo[w] = (lo[w] & keep_lo) | (mw & ~bw);
  }
}

// One packed sweep of W 64-assignment groups: seed the root's reach row
// with the valid-lane masks `all`, then push every internal node's row to
// its children's rows in level order. `bits[bits_stride * var + w]` holds
// group w's packed values of `var`.
//
// Children always sit at strictly higher indices, so row i is final when
// the sweep arrives at i and the child stores never touch it; canonical
// make_node guarantees hi != lo for internal nodes, so the two child rows
// are distinct as well, and `bits` is a separate array. Every node is
// updated unconditionally (no skip of unreached rows): reach masks are
// unpredictable, and data-dependent skips would mispredict far more than
// the saved ORs are worth. First-edge stores reinitialize every child, so
// stale masks from the previous batch never survive and `reach` is never
// cleared.
void sweep(const CompiledDd::Node* nodes, std::uint32_t root,
           std::uint32_t first_terminal, const std::uint64_t* bits,
           std::size_t bits_stride, const std::uint64_t* all,
           std::uint64_t* reach, std::size_t W) {
  for (std::size_t w = 0; w < W; ++w) reach[W * root + w] = all[w];
  for (std::uint32_t i = 0; i < first_terminal; ++i) {
    const CompiledDd::Node& n = nodes[i];
    push_row(reach + W * i, bits + bits_stride * n.var,
             reach + W * (n.hi & CompiledDd::kIndexMask),
             reach + W * (n.lo & CompiledDd::kIndexMask),
             static_cast<std::uint64_t>(n.hi >> 31) - 1,
             static_cast<std::uint64_t>(n.lo >> 31) - 1, W);
  }
}

}  // namespace

CompiledDd CompiledDd::compile(const Add& f) {
  CFPM_REQUIRE(!f.is_null());
  const DdManager* mgr = f.manager();
  // ADD edges are always plain, so the walk can drop straight from edges
  // to bare arena indices.
  const std::uint32_t root = edge_index(DdInternal::edge(f));

  // Collect the reachable DAG breadth-first. The discovery rank is the
  // within-level packing key below: parents enqueue children hi-then-lo,
  // so a level's nodes end up ordered the way the level above reaches
  // them and the sweep's child-row stores walk each level as one forward
  // linear stream (breadth-first-packed layout).
  std::vector<std::uint32_t> bfs{root};
  std::unordered_set<std::uint32_t> seen{root};
  std::unordered_map<std::uint32_t, std::uint32_t> rank;
  std::vector<std::uint32_t> internals;
  std::vector<std::uint32_t> terminals;
  for (std::size_t head = 0; head < bfs.size(); ++head) {
    const std::uint32_t i = bfs[head];
    rank.emplace(i, static_cast<std::uint32_t>(head));
    const DdNode& n = DdInternal::node(*mgr, i);
    if (n.is_terminal()) {
      terminals.push_back(i);
      continue;
    }
    internals.push_back(i);
    for (const std::uint32_t child :
         {edge_index(n.then_edge), edge_index(n.else_edge)}) {
      if (seen.insert(child).second) bfs.push_back(child);
    }
  }

  // Deterministic layout: internal nodes by (level, breadth-first rank),
  // terminal values ascending. A child is always at a strictly deeper
  // level than its parent, so every walk moves forward through the array.
  std::sort(internals.begin(), internals.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const std::uint32_t la =
                  mgr->level_of_var(DdInternal::node(*mgr, a).var);
              const std::uint32_t lb =
                  mgr->level_of_var(DdInternal::node(*mgr, b).var);
              return la != lb ? la < lb : rank.at(a) < rank.at(b);
            });
  std::sort(terminals.begin(), terminals.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return DdInternal::value(*mgr, a) < DdInternal::value(*mgr, b);
            });

  static const metrics::Counter c_compile("dd.compile.run");
  static const metrics::Counter c_compiled_nodes("dd.compile.node");
  c_compile.add();
  c_compiled_nodes.add(internals.size() + terminals.size());

  CompiledDd c;
  c.first_terminal_ = static_cast<std::uint32_t>(internals.size());

  std::unordered_map<std::uint32_t, std::uint32_t> index;
  index.reserve(internals.size() + terminals.size());
  for (std::uint32_t i = 0; i < internals.size(); ++i) index[internals[i]] = i;
  for (std::uint32_t i = 0; i < terminals.size(); ++i) {
    index[terminals[i]] = c.first_terminal_ + i;
    c.values_.push_back(DdInternal::value(*mgr, terminals[i]));
  }

  c.nodes_.reserve(internals.size() + terminals.size());
  std::uint32_t distinct_levels = 0;
  std::uint32_t prev_level = DdNode::kTerminalVar;
  for (const std::uint32_t i : internals) {
    const DdNode& n = DdInternal::node(*mgr, i);
    const std::uint32_t level = mgr->level_of_var(n.var);
    if (level != prev_level) {
      c.level_offsets_.push_back(static_cast<std::uint32_t>(c.nodes_.size()));
      ++distinct_levels;
      prev_level = level;
    }
    c.nodes_.push_back(Node{n.var, index.at(edge_index(n.then_edge)),
                            index.at(edge_index(n.else_edge))});
    c.num_vars_needed_ = std::max(c.num_vars_needed_, n.var + 1);
  }
  c.level_offsets_.push_back(c.first_terminal_);
  // Terminal sinks self-loop on a variable every caller must provide anyway
  // (var 0 is always < min_assignment_size() when internal nodes exist; for
  // a constant diagram depth_ is 0 and the sink is never stepped).
  for (std::uint32_t i = 0; i < terminals.size(); ++i) {
    const std::uint32_t self = c.first_terminal_ + i;
    c.nodes_.push_back(Node{0, self, self});
  }
  c.depth_ = distinct_levels;
  c.root_ = index.at(root);

  // Cache-block width for eval_packed_wide: widest power-of-two group
  // count whose reach scratch still fits the L2 budget, floor 1 (a sweep
  // must make progress no matter how large the diagram is).
  std::uint32_t groups = kPackedGroups;
  while (groups > 1 &&
         c.nodes_.size() * groups * sizeof(std::uint64_t) >
             kSweepScratchBudget) {
    groups >>= 1;
  }
  c.sweep_groups_ = groups;

  // Mark each node's first incoming edge in sweep order (ascending parent
  // index, hi before lo). The packed evaluators assign through these edges
  // and OR through the rest; since the branchless sweep traverses every
  // static edge, every non-root mask is (re)initialized each batch and the
  // mask array never has to be cleared. kIndexMask must leave room.
  CFPM_REQUIRE(c.nodes_.size() <= kIndexMask);
  std::vector<bool> edge_seen(c.nodes_.size(), false);
  for (std::uint32_t i = 0; i < c.first_terminal_; ++i) {
    for (std::uint32_t* child : {&c.nodes_[i].hi, &c.nodes_[i].lo}) {
      if (!edge_seen[*child]) {
        edge_seen[*child] = true;
        *child |= kFirstEdge;
      }
    }
  }
  return c;
}

CompiledDd CompiledDd::compile(const Bdd& f) { return compile(Add(f)); }

void CompiledDd::eval_packed_wide(const std::uint64_t* bits, std::size_t count,
                                  double* out,
                                  std::vector<std::uint64_t>& scratch) const {
  constexpr std::size_t W = kPackedGroups;
  CFPM_REQUIRE(count >= 1 && count <= 64 * W);
  if (root_ >= first_terminal_) {
    const double v = values_[root_ - first_terminal_];
    for (std::size_t k = 0; k < count; ++k) out[k] = v;
    return;
  }
  const std::size_t block = sweep_groups_;
  if (scratch.size() < block * nodes_.size()) {
    scratch.assign(block * nodes_.size(), 0);
  }
  const std::size_t groups = (count + 63) / 64;
  // Sub-sweep `block` groups at a time so the reach scratch of one sweep
  // stays within kSweepScratchBudget; the tail block sweeps only its live
  // groups.
  for (std::size_t g = 0; g < groups; g += block) {
    const std::size_t live = std::min(block, groups - g);
    std::uint64_t all[W];
    for (std::size_t w = 0; w < live; ++w) {
      const std::size_t base = 64 * (g + w);
      all[w] = count >= base + 64 ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << (count - base)) - 1;
    }
    sweep(nodes_.data(), root_, first_terminal_, bits + g, W, all,
          scratch.data(), live);
    gather_terminals(scratch.data(), values_.data(), first_terminal_,
                     nodes_.size(), out + 64 * g, live);
  }
}

}  // namespace cfpm::dd
