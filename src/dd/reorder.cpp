// Dynamic variable reordering: in-place adjacent-level swap and sifting
// (Rudell's algorithm), the mechanism the paper relies on (via CUDD) to
// keep switching-capacitance ADDs small before node collapsing.
//
// The swap relabels nodes in place, so node indices keep denoting the
// same functions and all external handles (including complemented edges
// held by parents) stay valid.
#include <algorithm>
#include <vector>

#include "dd/manager.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace cfpm::dd {

namespace {

/// Suspends the deadline check and the allocation failpoint for the
/// duration of an in-place swap: a throw from allocate_node mid-swap would
/// leave the level half-relabeled with no way to unwind. The deadline is
/// instead checked between whole swaps (sift loops below), so a stuck sift still
/// stops within one swap's worth of work.
class ReorderScope {
 public:
  explicit ReorderScope(bool& flag) : flag_(flag) { flag_ = true; }
  ~ReorderScope() { flag_ = false; }
  ReorderScope(const ReorderScope&) = delete;
  ReorderScope& operator=(const ReorderScope&) = delete;

 private:
  bool& flag_;
};

}  // namespace

std::size_t DdManager::swap_adjacent_levels(std::uint32_t level) {
  CFPM_REQUIRE(level + 1 < num_vars());
  static const metrics::Counter c_swap("dd.reorder.swap");
  c_swap.add();
  ReorderScope scope(in_reorder_);
  const std::uint32_t u = var_at_level_[level];      // moves down
  const std::uint32_t v = var_at_level_[level + 1];  // moves up

  // Update the order first so every make_node below sees the new levels.
  var_at_level_[level] = v;
  var_at_level_[level + 1] = u;
  level_of_var_[u] = level + 1;
  level_of_var_[v] = level;

  // Collect u's live nodes and empty its table. Dead u-nodes are freed on
  // the spot (their children were dereferenced when they died); the cache
  // is cleared when that happens because it may still point at them. Swaps
  // never insert, so within one sift only the first such clear wipes.
  UniqueTable& table_u = unique_[u];
  std::vector<std::uint32_t> pending;
  pending.reserve(table_u.count);
  bool freed_any = false;
  for (std::uint32_t& bucket : table_u.buckets) {
    std::uint32_t p = bucket;
    while (p != kNilIndex) {
      const std::uint32_t next = nodes_[p].next;
      if (refs_[p] == 0) {
        nodes_[p].then_edge = kNilEdge;
        nodes_[p].else_edge = kNilEdge;
        nodes_[p].next = free_list_;
        free_list_ = p;
        --dead_;
        freed_any = true;
      } else {
        pending.push_back(p);
      }
      p = next;
    }
    bucket = kNilIndex;
  }
  table_u.count = 0;
  if (freed_any) cache_clear();

  auto insert_into = [&](std::uint32_t var, std::uint32_t idx) {
    maybe_resize_table(var);
    UniqueTable& table = unique_[var];
    const std::size_t slot = child_slot(
        nodes_[idx].then_edge, nodes_[idx].else_edge, table.buckets.size() - 1);
    nodes_[idx].next = table.buckets[slot];
    table.buckets[slot] = idx;
    ++table.count;
  };
  auto tests_v = [&](Edge e) {
    const DdNode& n = nodes_[edge_index(e)];
    return !n.is_terminal() && n.var == v;
  };

  // Pass 1: nodes independent of v stay u-nodes (one level lower). They
  // must be back in the table before pass 2, whose make_node lookups may
  // need to find them.
  auto depends_on_v = [&](std::uint32_t idx) {
    return tests_v(nodes_[idx].then_edge) || tests_v(nodes_[idx].else_edge);
  };
  for (const std::uint32_t idx : pending) {
    if (!depends_on_v(idx)) insert_into(u, idx);
  }

  // Pass 2: relabel v-dependent nodes in place. Cofactoring through a
  // complemented else-edge pushes the complement onto the grandchildren
  // (e ^ (parent & 1)); then-edges are plain by the canonicity invariant,
  // so t1 below is always plain and the rebuilt then-edge nt of the
  // relabeled node is plain again — the invariant survives the swap.
  for (const std::uint32_t idx : pending) {
    if (!depends_on_v(idx)) continue;
    const Edge t = nodes_[idx].then_edge;  // plain
    const Edge e = nodes_[idx].else_edge;  // possibly complemented
    const bool t_tests_v = tests_v(t);
    const bool e_tests_v = tests_v(e);
    const DdNode& tn = nodes_[edge_index(t)];
    const DdNode& en = nodes_[edge_index(e)];
    const Edge t1 = t_tests_v ? tn.then_edge : t;  // plain either way
    const Edge t0 = t_tests_v ? tn.else_edge : t;
    const Edge e1 = e_tests_v ? (en.then_edge ^ (e & 1u)) : e;
    const Edge e0 = e_tests_v ? (en.else_edge ^ (e & 1u)) : e;

    // New v-cofactors of the node (u-nodes one level down). Copy the edges
    // first (above) — make_node may relocate the arena.
    ref_edge(t1);
    ref_edge(e1);
    const Edge nt = make_node(u, t1, e1);
    CFPM_ASSERT(!edge_complemented(nt));  // t1 plain => nt plain
    ref_edge(t0);
    ref_edge(e0);
    const Edge ne = make_node(u, t0, e0);
    // The node depends on v (via t or e), so its two v-cofactors differ.
    CFPM_ASSERT(nt != ne);

    // Relabel in place; parents (plain or complemented) keep denoting the
    // same function because the node index still computes it.
    nodes_[idx].var = v;
    nodes_[idx].then_edge = nt;  // adopts the references from make_node
    nodes_[idx].else_edge = ne;
    insert_into(v, idx);
    deref_edge(t);
    deref_edge(e);
  }
  return live_;
}

std::size_t DdManager::sift_variable(std::uint32_t var, double max_growth) {
  CFPM_REQUIRE(var < num_vars());
  CFPM_REQUIRE(max_growth >= 1.0);
  static const metrics::Counter c_sifted("dd.reorder.var.sifted");
  static const metrics::Histogram h_before("dd.reorder.size.before");
  static const metrics::Histogram h_after("dd.reorder.size.after");
  c_sifted.add();
  h_before.observe(live_);
  const auto levels = static_cast<std::uint32_t>(num_vars());
  std::uint32_t pos = level_of_var_[var];
  std::size_t best_size = live_;
  std::uint32_t best_pos = pos;
  const std::size_t limit =
      static_cast<std::size_t>(static_cast<double>(live_) * max_growth);
  // Between swaps the diagram is structurally consistent, so the deadline
  // may fire here; the exploratory phases simply stop where they are
  // (every intermediate position denotes the same functions).

  // Phase 1: sift down to the bottom (abort on excessive growth).
  while (pos + 1 < levels) {
    check_deadline(deadline_);
    const std::size_t size = swap_adjacent_levels(pos);
    ++pos;
    if (size < best_size) {
      best_size = size;
      best_pos = pos;
    }
    if (size > limit) break;
  }
  // Phase 2: sift up to the top.
  while (pos > 0) {
    check_deadline(deadline_);
    const std::size_t size = swap_adjacent_levels(pos - 1);
    --pos;
    if (size < best_size) {
      best_size = size;
      best_pos = pos;
    }
    if (size > limit) break;
  }
  // Phase 3: settle at the best position seen.
  while (pos < best_pos) {
    swap_adjacent_levels(pos);
    ++pos;
  }
  while (pos > best_pos) {
    swap_adjacent_levels(pos - 1);
    --pos;
  }
  h_after.observe(live_);
  return live_;
}

std::size_t DdManager::sift(double max_growth) {
  CFPM_TRACE_SPAN("dd.sift");
  collect_garbage();
  const std::size_t before = live_;

  // Sift variables in decreasing order of table population (Rudell).
  std::vector<std::uint32_t> order(num_vars());
  for (std::uint32_t vr = 0; vr < num_vars(); ++vr) order[vr] = vr;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return unique_[a].count > unique_[b].count;
  });
  for (std::uint32_t vr : order) {
    sift_variable(vr, max_growth);
  }
  collect_garbage();
  return before - std::min(before, live_);
}

}  // namespace cfpm::dd
