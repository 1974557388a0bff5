#include "dd/compiled.hpp"

#include <algorithm>
#include <bit>
#include <unordered_map>
#include <unordered_set>

#include "dd/dd_internal.hpp"
#include "dd/simd_kernels.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"

namespace cfpm::dd {

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
  const simd::SweepCtx ctx{nodes_.data(), values_.data(), first_terminal_,
                           static_cast<std::uint32_t>(nodes_.size()), root_};
  const std::size_t groups = (count + 63) / 64;
  // Sub-sweep `block` groups at a time so the reach scratch of one sweep
  // stays within kSweepScratchBudget. A partial tail block is padded up to
  // a power of two with zero valid-lane masks (`bits` always has full
  // kPackedGroups stride, so the padded loads stay in bounds) — that keeps
  // the wide kernels eligible instead of falling back to scalar on odd
  // tails; zero root masks propagate zeros and write nothing.
  for (std::size_t g = 0; g < groups; g += block) {
    const std::size_t live = std::min(block, groups - g);
    const std::size_t width = std::bit_ceil(live);
    std::uint64_t all[W];
    for (std::size_t w = 0; w < width; ++w) {
      const std::size_t base = 64 * (g + w);
      all[w] = count >= base + 64 ? ~std::uint64_t{0}
               : count > base     ? (std::uint64_t{1} << (count - base)) - 1
                                  : 0;
    }
    simd::select_sweep(width)(ctx, bits + g, W, all, out + 64 * g,
                              scratch.data(), width);
  }
}

}  // namespace cfpm::dd
