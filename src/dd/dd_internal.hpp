// Private bridge giving dd implementation files access to handle internals.
// Not installed; include only from src/dd/*.cpp, the src/power model builder
// and white-box tests.
#pragma once

#include <cstdint>
#include <vector>

#include "dd/manager.hpp"

namespace cfpm::dd {

struct DdInternal {
  static Edge edge(const DdHandle& h) { return h.edge_; }
  /// Wraps an already-referenced edge into a handle (takes ownership).
  static Add make_add(DdManager* m, Edge e) { return Add(m, e); }

  // Reference and record plumbing for implementation files outside the
  // manager. Everything speaks Edge / arena index, never pointers.
  static void ref(DdManager& m, Edge e) { m.ref_edge(e); }
  static void deref(DdManager& m, Edge e) { m.deref_edge(e); }
  static Edge terminal(DdManager& m, double v) { return m.terminal(v); }
  static Edge make_node(DdManager& m, std::uint32_t var, Edge t, Edge e) {
    return m.make_node(var, t, e);
  }
  static const DdNode& node(const DdManager& m, std::uint32_t index) {
    return m.node_at(index);
  }
  static double value(const DdManager& m, std::uint32_t index) {
    return m.value_of(index);
  }

  /// Calls visit(index, node) once for every node reachable from arena
  /// index `root`, terminals included, in depth-first order (else-child
  /// subtree first). Visited nodes are marked in a flat array sized to the
  /// arena and local to the call, so concurrent read-only walks of one
  /// manager never share state. `visit` must not allocate nodes.
  template <class Visit>
  static void for_each_node(const DdManager& m, std::uint32_t root,
                            Visit&& visit) {
    std::vector<std::uint8_t> seen(m.nodes_.size(), 0);
    std::vector<std::uint32_t> stack{root};
    while (!stack.empty()) {
      const std::uint32_t i = stack.back();
      stack.pop_back();
      if (seen[i] != 0) continue;
      seen[i] = 1;
      const DdNode& n = m.nodes_[i];
      visit(i, n);
      if (!n.is_terminal()) {
        stack.push_back(edge_index(n.then_edge));
        stack.push_back(edge_index(n.else_edge));
      }
    }
  }
};

}  // namespace cfpm::dd
