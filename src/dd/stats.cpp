#include "dd/stats.hpp"

#include <algorithm>
#include <cmath>

#include "dd/dd_internal.hpp"
#include "support/assert.hpp"

namespace cfpm::dd {

NodeStats::NodeStats(const Add& f) {
  CFPM_REQUIRE(!f.is_null());
  mgr_ = f.manager();
  root_ = edge_index(DdInternal::edge(f));  // ADD edges are plain
  compute(root_);
}

const NodeStats::Entry& NodeStats::at(std::uint32_t node_index) const {
  auto it = entries_.find(node_index);
  CFPM_REQUIRE(it != entries_.end());
  return it->second;
}

const NodeStats::Entry& NodeStats::root() const { return at(root_); }

const NodeStats::Entry& NodeStats::compute(std::uint32_t node_index) {
  auto it = entries_.find(node_index);
  if (it != entries_.end()) return it->second;

  Entry e;
  const DdNode& n = DdInternal::node(*mgr_, node_index);
  if (n.is_terminal()) {
    e.avg = e.max = e.min = DdInternal::value(*mgr_, node_index);
    e.var = 0.0;
  } else {
    // Children may skip levels; the recursions of Eq. 7 remain valid on
    // reduced diagrams because a sub-function is constant in any skipped
    // variable.
    const Entry l = compute(edge_index(n.else_edge));  // copy: map may rehash
    const Entry r = compute(edge_index(n.then_edge));
    e.avg = 0.5 * (l.avg + r.avg);
    e.var = 0.5 * (l.var + (l.avg - e.avg) * (l.avg - e.avg) +
                   r.var + (r.avg - e.avg) * (r.avg - e.avg));
    e.max = std::max(l.max, r.max);
    e.min = std::min(l.min, r.min);
  }
  return entries_.emplace(node_index, e).first->second;
}

// ---------------------------------------------------------------------------
// Handle-level queries built on traversals. Traversals walk bare node
// indices: with complement edges, a function and its negation share the
// same physical nodes, so size/support are complement-invariant.
// ---------------------------------------------------------------------------

std::size_t DdHandle::size() const {
  CFPM_REQUIRE(edge_ != kNilEdge);
  std::size_t count = 0;
  DdInternal::for_each_node(*mgr_, edge_index(edge_),
                            [&](std::uint32_t, const DdNode&) { ++count; });
  return count;
}

std::vector<std::uint32_t> DdHandle::support() const {
  CFPM_REQUIRE(edge_ != kNilEdge);
  std::vector<std::uint8_t> used(mgr_->num_vars(), 0);
  DdInternal::for_each_node(*mgr_, edge_index(edge_),
                            [&](std::uint32_t, const DdNode& n) {
                              if (!n.is_terminal()) used[n.var] = 1;
                            });
  std::vector<std::uint32_t> result;
  for (std::uint32_t v = 0; v < used.size(); ++v) {
    if (used[v] != 0) result.push_back(v);
  }
  return result;
}

double Add::average() const {
  NodeStats stats(*this);
  return stats.root().avg;
}

double Add::variance() const {
  NodeStats stats(*this);
  return stats.root().var;
}

double Add::max_value() const {
  NodeStats stats(*this);
  return stats.root().max;
}

double Add::min_value() const {
  NodeStats stats(*this);
  return stats.root().min;
}

std::vector<double> Add::leaf_values() const {
  CFPM_REQUIRE(!is_null());
  // Terminals are hash-consed by value, so distinct leaves hold distinct
  // values.
  std::vector<double> result;
  DdInternal::for_each_node(*mgr_, edge_index(edge_),
                            [&](std::uint32_t i, const DdNode& n) {
                              if (n.is_terminal()) {
                                result.push_back(DdInternal::value(*mgr_, i));
                              }
                            });
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<std::uint8_t> argmax_assignment(const Add& f) {
  CFPM_REQUIRE(!f.is_null());
  NodeStats stats(f);
  const DdManager& mgr = *f.manager();
  std::vector<std::uint8_t> assignment(mgr.num_vars(), 0);
  std::uint32_t i = edge_index(DdInternal::edge(f));
  while (!DdInternal::node(mgr, i).is_terminal()) {
    const DdNode& n = DdInternal::node(mgr, i);
    const std::uint32_t then_i = edge_index(n.then_edge);
    const std::uint32_t else_i = edge_index(n.else_edge);
    const bool take_then = stats.at(then_i).max >= stats.at(else_i).max;
    assignment[n.var] = take_then ? 1 : 0;
    i = take_then ? then_i : else_i;
  }
  return assignment;
}

double Bdd::sat_count(std::size_t num_vars) const {
  // The satisfying fraction of a 0/1 function equals its average value.
  Add as_add(*this);
  return as_add.average() * std::ldexp(1.0, static_cast<int>(num_vars));
}

}  // namespace cfpm::dd
