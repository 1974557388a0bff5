#include "dd/stats.hpp"

#include <algorithm>
#include <cmath>

#include "dd/dd_internal.hpp"
#include "support/assert.hpp"

namespace cfpm::dd {

NodeStats::NodeStats(const Add& f) {
  CFPM_REQUIRE(!f.is_null());
  const DdManager& mgr = *f.manager();
  std::vector<std::uint32_t> terminals;
  std::uint32_t top = 0;  // highest reachable arena index
  DdInternal::for_each_node(
      mgr, edge_index(DdInternal::edge(f)),
      [&](std::uint32_t i, const DdNode& n) {
        (n.is_terminal() ? terminals : nodes_).push_back(i);
        top = std::max(top, i);
      });
  // Children sit at deeper levels, so level order puts every parent before
  // its children (and the root first).
  std::sort(nodes_.begin(), nodes_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return mgr.level_of_var(DdInternal::node(mgr, a).var) <
                     mgr.level_of_var(DdInternal::node(mgr, b).var);
            });
  children_.resize(nodes_.size());
  nodes_.insert(nodes_.end(), terminals.begin(), terminals.end());
  std::vector<std::uint32_t> slot_of(std::size_t{top} + 1);
  for (std::uint32_t s = 0; s < nodes_.size(); ++s) slot_of[nodes_[s]] = s;

  entries_.resize(nodes_.size());
  for (std::size_t s = nodes_.size(); s-- > 0;) {
    const DdNode& n = DdInternal::node(mgr, nodes_[s]);
    Entry& e = entries_[s];
    if (n.is_terminal()) {
      e.avg = e.max = e.min = DdInternal::value(mgr, nodes_[s]);
      continue;
    }
    // Children may skip levels; the recursions of Eq. 7 remain valid on
    // reduced diagrams because a sub-function is constant in any skipped
    // variable.
    children_[s] = {slot_of[edge_index(n.then_edge)],
                    slot_of[edge_index(n.else_edge)]};
    const Entry& l = entries_[children_[s].else_slot];
    const Entry& r = entries_[children_[s].then_slot];
    e.avg = 0.5 * (l.avg + r.avg);
    e.var = 0.5 * (l.var + (l.avg - e.avg) * (l.avg - e.avg) +
                   r.var + (r.avg - e.avg) * (r.avg - e.avg));
    e.max = std::max(l.max, r.max);
    e.min = std::min(l.min, r.min);
  }
}

std::vector<double> NodeStats::uniform_reach() const {
  std::vector<double> reach(size(), 0.0);
  reach[0] = 1.0;
  for (std::size_t s = 0; s < internal_count(); ++s) {
    reach[children_[s].then_slot] += 0.5 * reach[s];
    reach[children_[s].else_slot] += 0.5 * reach[s];
  }
  return reach;
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
  const NodeStats stats(f);
  const DdManager& mgr = *f.manager();
  std::vector<std::uint8_t> assignment(mgr.num_vars(), 0);
  for (std::uint32_t s = 0; s < stats.internal_count();) {
    const auto [then_s, else_s] = stats.children(s);
    const bool take_then = stats.entry(then_s).max >= stats.entry(else_s).max;
    assignment[DdInternal::node(mgr, stats.node(s)).var] = take_then ? 1 : 0;
    s = take_then ? then_s : else_s;
  }
  return assignment;
}

double Bdd::sat_count(std::size_t num_vars) const {
  // The satisfying fraction of a 0/1 function equals its average value.
  Add as_add(*this);
  return as_add.average() * std::ldexp(1.0, static_cast<int>(num_vars));
}

}  // namespace cfpm::dd
