#include "dd/approx.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dd/dd_internal.hpp"
#include "dd/stats.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace cfpm::dd {

namespace {

// ADDs carry no complement edges, so nodes are identified throughout this
// file by bare arena index (the deterministic tie-break the old creation
// id used to provide).

/// Rebuilds the DAG under `root` with every node in `subst` replaced by the
/// constant given for it; unmapped terminals stay themselves. Memoised, and
/// rebuilds the then child before the else child, so arena indices (and
/// with them every later tie-break) are deterministic. Returns a referenced
/// plain edge.
class Substitution {
 public:
  Substitution(DdManager* mgr,
               const std::unordered_map<std::uint32_t, double>& subst)
      : mgr_(mgr), subst_(subst) {}

  Edge rebuild(std::uint32_t index) {
    if (auto it = subst_.find(index); it != subst_.end()) {
      return DdInternal::terminal(*mgr_, it->second);
    }
    if (DdInternal::is_terminal(*mgr_, index)) {
      const Edge e = make_edge(index);
      DdInternal::ref(*mgr_, e);
      return e;
    }
    if (auto it = memo_.find(index); it != memo_.end()) {
      DdInternal::ref(*mgr_, it->second);
      return it->second;
    }
    // Copy the record before recursing: rebuilding allocates, and an
    // allocation may relocate the arena.
    const DdNode n = DdInternal::node(*mgr_, index);
    Edge t = rebuild(edge_index(n.then_edge));
    Edge e;
    try {
      e = rebuild(edge_index(n.else_edge));
    } catch (...) {
      DdInternal::deref(*mgr_, t);
      throw;
    }
    const Edge r = DdInternal::make_node(*mgr_, n.var, t, e);  // consumes t, e
    memo_.emplace(index, r);
    return r;
  }

 private:
  DdManager* mgr_;
  const std::unordered_map<std::uint32_t, double>& subst_;
  std::unordered_map<std::uint32_t, Edge> memo_;
};

/// All internal nodes reachable from root, in depth-first order.
std::vector<std::uint32_t> internal_nodes(const DdManager& mgr,
                                          std::uint32_t root) {
  std::vector<std::uint32_t> result;
  DdInternal::for_each_node(mgr, root, [&](std::uint32_t i, const DdNode& n) {
    if (!n.is_terminal()) result.push_back(i);
  });
  return result;
}

/// Probability that a uniformly random assignment reaches each node under
/// `root` (terminals included), in one pass over the internal nodes in
/// level order: every parent is settled before its children.
std::unordered_map<std::uint32_t, double> uniform_reach(
    const DdManager& mgr, std::uint32_t root,
    std::vector<std::uint32_t> internal) {
  std::sort(internal.begin(), internal.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return mgr.level_of_var(DdInternal::node(mgr, a).var) <
                     mgr.level_of_var(DdInternal::node(mgr, b).var);
            });
  std::unordered_map<std::uint32_t, double> reach;
  reach.reserve(internal.size());
  reach[root] = 1.0;
  for (const std::uint32_t n : internal) {
    const double p = reach[n];
    const DdNode& rec = DdInternal::node(mgr, n);
    reach[edge_index(rec.then_edge)] += 0.5 * p;
    reach[edge_index(rec.else_edge)] += 0.5 * p;
  }
  return reach;
}

}  // namespace

ApproxResult approximate(const Add& f, std::size_t max_size, ApproxMode mode,
                         CollapseMetric metric_kind) {
  CFPM_REQUIRE(!f.is_null());
  CFPM_REQUIRE(max_size >= 1);
  CFPM_TRACE_SPAN("dd.approx");
  static const metrics::Counter c_run("dd.approx.run");
  static const metrics::Counter c_round("dd.approx.round");
  static const metrics::Counter c_collapse_avg("dd.approx.collapse.avg");
  static const metrics::Counter c_collapse_max("dd.approx.collapse.max");
  static const metrics::Counter c_leaf_avg("dd.approx.leaf.avg");
  static const metrics::Counter c_leaf_max("dd.approx.leaf.max");
  c_run.add();
  DdManager* mgr = f.manager();

  Add current = f;
  std::size_t size = f.size();
  if (size <= max_size) {
    return ApproxResult{std::move(current), size, 0, 0};
  }

  std::size_t total_marks = 0;
  std::size_t rounds = 0;
  std::size_t stagnant = 0;  // rounds without progress (forces extra marks)

  // Each round: order internal nodes by the strategy's error metric
  // (variance for avg-collapse, Eq. 8 mse for max-collapse) and greedily
  // mark them for collapsing. The number of nodes a mark actually removes
  // is tracked exactly with parent-count cascades over the reachability
  // DAG: a node disappears when its last live parent is marked or removed.
  // A mark whose cascade would overshoot the remaining deficit is rolled
  // back and skipped, so the final size lands on the budget instead of
  // falling off a "sharing cliff". Each round ends with a single rebuild;
  // isomorphic merging after replacement can only shrink the result
  // further, so a couple of rounds usually suffice.
  while (size > max_size) {
    ++rounds;
    NodeStats stats(current);
    const std::uint32_t root = edge_index(DdInternal::edge(current));
    std::vector<std::uint32_t> candidates = internal_nodes(*mgr, root);
    CFPM_ASSERT(!candidates.empty());
    auto children_of = [&](std::uint32_t i) {
      const DdNode& n = DdInternal::node(*mgr, i);
      return std::pair<std::uint32_t, std::uint32_t>{
          edge_index(n.then_edge), edge_index(n.else_edge)};
    };

    // Reach probabilities are only needed for the reach-weighted metric.
    const std::unordered_map<std::uint32_t, double> reach =
        metric_kind == CollapseMetric::kReachWeightedVariance
            ? uniform_reach(*mgr, root, candidates)
            : std::unordered_map<std::uint32_t, double>{};

    // Default selection metric: the *relative* spread of the sub-function,
    // var(n)/avg(n)^2 (Eq. 7 statistics). Collapsing such a node merely
    // quantizes a cluster of similar values, so the induced error stays
    // proportional to the predicted magnitude -- which keeps the *relative*
    // error bounded under every input statistic, including the low-activity
    // corner where absolute-MSE criteria (plain or reach-weighted variance)
    // destroy the model's near-zero diagonal. Switching-capacitance
    // functions are non-negative, so avg(n) > 0 for every internal node.
    // The alternatives exist for the DESIGN.md ablation.
    auto metric = [&](std::uint32_t n) {
      const NodeStats::Entry& e = stats.at(n);
      const double local =
          mode == ApproxMode::kAverage ? e.var : e.mse_of_max();
      switch (metric_kind) {
        case CollapseMetric::kVariance:
          return local;
        case CollapseMetric::kReachWeightedVariance:
          return reach.at(n) * local;
        case CollapseMetric::kRelativeSpread:
          break;
      }
      return local / (e.avg * e.avg + 1e-12);
    };
    {
      // Rank on (metric, arena index) pairs: each key is computed once. The
      // scope frees the pairs before the parent-count maps below are built,
      // which keeps them out of the collapse's peak memory.
      std::vector<std::pair<double, std::uint32_t>> ranked;
      ranked.reserve(candidates.size());
      for (const std::uint32_t n : candidates) ranked.emplace_back(metric(n), n);
      std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first < b.first;
        return a.second < b.second;  // deterministic (arena index)
      });
      for (std::size_t k = 0; k < ranked.size(); ++k) {
        candidates[k] = ranked[k].second;
      }
    }

    // Live-parent counts over the reachable DAG (the root is pinned).
    std::unordered_map<std::uint32_t, std::size_t> parents;
    parents.reserve(size);
    for (const std::uint32_t n : candidates) {
      const auto [t, e] = children_of(n);
      ++parents[t];
      ++parents[e];
    }

    std::unordered_set<std::uint32_t> gone;
    std::unordered_map<std::uint32_t, double> marked;
    std::size_t removed = 0;
    const std::size_t deficit = size - max_size;

    std::vector<std::uint32_t> undo;       // nodes decremented this mark
    std::vector<std::uint32_t> undo_gone;  // nodes marked gone this mark
    std::vector<std::uint32_t> cascade;
    // Accept a small relative overshoot so the loop terminates crisply.
    const std::size_t grace = std::max<std::size_t>(2, max_size / 8);
    bool have_fallback = false;            // smallest rejected cascade
    std::uint32_t fallback = 0;
    std::size_t fallback_delta = 0;

    auto run_cascade = [&](std::uint32_t n) {
      undo.clear();
      undo_gone.clear();
      cascade.clear();
      std::size_t delta = 1;  // n itself is replaced by a leaf
      gone.insert(n);
      undo_gone.push_back(n);
      cascade.push_back(n);
      while (!cascade.empty()) {
        const std::uint32_t dead = cascade.back();
        cascade.pop_back();
        if (DdInternal::is_terminal(*mgr, dead)) continue;
        const auto [tc, ec] = children_of(dead);
        for (const std::uint32_t child : {tc, ec}) {
          auto it = parents.find(child);
          CFPM_ASSERT(it != parents.end() && it->second > 0);
          --it->second;
          undo.push_back(child);
          if (it->second == 0 && !gone.contains(child)) {
            gone.insert(child);
            undo_gone.push_back(child);
            ++delta;
            cascade.push_back(child);
          }
        }
      }
      return delta;
    };
    auto roll_back = [&]() {
      for (const std::uint32_t c : undo) ++parents[c];
      for (const std::uint32_t g : undo_gone) gone.erase(g);
    };

    for (const std::uint32_t n : candidates) {
      if (removed >= deficit) break;
      if (gone.contains(n)) continue;  // already unreachable
      const std::size_t delta = run_cascade(n);
      if (removed + delta > deficit + grace) {
        roll_back();
        if (!have_fallback || delta < fallback_delta) {
          have_fallback = true;
          fallback = n;
          fallback_delta = delta;
        }
        continue;
      }
      const NodeStats::Entry& e = stats.at(n);
      marked.emplace(n, mode == ApproxMode::kAverage ? e.avg : e.max);
      removed += delta;
    }
    if (marked.empty() || stagnant > 0) {
      // Either every candidate overshoots on its own, or the previous
      // round made no net progress (a mark's removal can be offset by a
      // freshly created leaf). Force the least damaging unmarked candidate
      // in regardless of the overshoot bound; repeat-stagnation forces one
      // more each round, so the loop always converges (in the limit to a
      // single leaf).
      std::size_t forced = std::max<std::size_t>(1, stagnant);
      if (have_fallback && !marked.contains(fallback)) {
        run_cascade(fallback);
        const NodeStats::Entry& e = stats.at(fallback);
        marked.emplace(fallback,
                       mode == ApproxMode::kAverage ? e.avg : e.max);
        --forced;
      }
      for (const std::uint32_t n : candidates) {
        if (forced == 0) break;
        if (marked.contains(n) || gone.contains(n)) continue;
        run_cascade(n);
        const NodeStats::Entry& e = stats.at(n);
        marked.emplace(n, mode == ApproxMode::kAverage ? e.avg : e.max);
        --forced;
      }
    }
    CFPM_ASSERT(!marked.empty());

    Substitution subst(mgr, marked);
    Add next = DdInternal::make_add(mgr, subst.rebuild(root));
    const std::size_t next_size = next.size();
    total_marks += marked.size();
    stagnant = next_size < size ? 0 : stagnant + 1;
    current = std::move(next);
    size = next_size;
    if ((rounds & 7u) == 0) mgr->collect_garbage();
  }

  CFPM_ASSERT(size <= max_size);
  mgr->collect_garbage();
  c_round.add(rounds);
  const std::size_t collapsed = f.size() - size;  // net nodes removed
  if (mode == ApproxMode::kAverage) {
    c_collapse_avg.add(collapsed);
    c_leaf_avg.add(total_marks);
  } else {
    c_collapse_max.add(collapsed);
    c_leaf_max.add(total_marks);
  }
  return ApproxResult{std::move(current), size, total_marks, rounds};
}

Add approximate_to(const Add& f, std::size_t max_size, ApproxMode mode,
                   CollapseMetric metric) {
  return approximate(f, max_size, mode, metric).function;
}

Add quantize_leaves(const Add& f, std::size_t max_leaves, ApproxMode mode) {
  CFPM_REQUIRE(!f.is_null());
  CFPM_REQUIRE(max_leaves >= 1);
  static const metrics::Counter c_quantize("dd.approx.quantize.run");
  c_quantize.add();
  DdManager* mgr = f.manager();
  const std::uint32_t root = edge_index(DdInternal::edge(f));

  // Probability mass reaching each terminal under uniform inputs.
  const std::unordered_map<std::uint32_t, double> reach =
      uniform_reach(*mgr, root, internal_nodes(*mgr, root));

  // Greedy closest-pair merging on the sorted value axis.
  struct Cluster {
    double value;
    double mass;
    std::vector<std::uint32_t> members;
  };
  std::vector<Cluster> clusters;
  for (const auto& [node, mass] : reach) {
    if (DdInternal::is_terminal(*mgr, node)) {
      clusters.push_back({DdInternal::value(*mgr, node), mass, {node}});
    }
  }
  // Terminals hold distinct values; the index tie-break only keeps the
  // order independent of the map's iteration order.
  std::sort(clusters.begin(), clusters.end(),
            [](const Cluster& a, const Cluster& b) {
              if (a.value != b.value) return a.value < b.value;
              return a.members[0] < b.members[0];
            });
  while (clusters.size() > max_leaves) {
    std::size_t best = 0;
    double best_gap = clusters[1].value - clusters[0].value;
    for (std::size_t i = 1; i + 1 < clusters.size(); ++i) {
      const double gap = clusters[i + 1].value - clusters[i].value;
      if (gap < best_gap) {
        best_gap = gap;
        best = i;
      }
    }
    Cluster& a = clusters[best];
    Cluster& b = clusters[best + 1];
    const double mass = a.mass + b.mass;
    a.value = mode == ApproxMode::kAverage
                  ? (mass > 0.0
                         ? (a.value * a.mass + b.value * b.mass) / mass
                         : 0.5 * (a.value + b.value))
                  : b.value;  // upper bound: merge upward
    a.mass = mass;
    a.members.insert(a.members.end(), b.members.begin(), b.members.end());
    clusters.erase(clusters.begin() + static_cast<long>(best) + 1);
  }

  std::unordered_map<std::uint32_t, double> value_map;
  for (const Cluster& c : clusters) {
    for (const std::uint32_t leaf : c.members) value_map.emplace(leaf, c.value);
  }
  Substitution remap(mgr, value_map);
  Add result = DdInternal::make_add(mgr, remap.rebuild(root));
  mgr->collect_garbage();
  return result;
}

}  // namespace cfpm::dd
