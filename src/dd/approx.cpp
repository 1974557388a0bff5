#include "dd/approx.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "dd/dd_internal.hpp"
#include "dd/stats.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace cfpm::dd {

namespace {

/// Rebuilds the DAG tabulated in `table` with every slot that holds a value
/// in `subst` replaced by that constant; other terminals stay themselves.
/// Memoised per slot, and rebuilds the then child before the else child,
/// so arena indices (and with them every later tie-break) are
/// deterministic. Returns a referenced plain edge.
class Substitution {
 public:
  Substitution(DdManager* mgr, const NodeStats& table,
               const std::vector<std::optional<double>>& subst)
      : mgr_(mgr), table_(table), subst_(subst),
        memo_(table.internal_count(), kNilEdge) {}

  Edge rebuild(std::uint32_t slot) {
    if (subst_[slot]) return DdInternal::terminal(*mgr_, *subst_[slot]);
    if (slot >= table_.internal_count()) {
      const Edge e = make_edge(table_.node(slot));
      DdInternal::ref(*mgr_, e);
      return e;
    }
    if (memo_[slot] != kNilEdge) {
      DdInternal::ref(*mgr_, memo_[slot]);
      return memo_[slot];
    }
    // Read the variable before recursing: rebuilding allocates, and an
    // allocation may relocate the arena.
    const std::uint32_t var = DdInternal::node(*mgr_, table_.node(slot)).var;
    const NodeStats::Children kids = table_.children(slot);
    Edge t = rebuild(kids.then_slot);
    Edge e;
    try {
      e = rebuild(kids.else_slot);
    } catch (...) {
      DdInternal::deref(*mgr_, t);
      throw;
    }
    memo_[slot] = DdInternal::make_node(*mgr_, var, t, e);  // consumes t, e
    return memo_[slot];
  }

 private:
  DdManager* mgr_;
  const NodeStats& table_;
  const std::vector<std::optional<double>>& subst_;
  std::vector<Edge> memo_;
};

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
    // Every per-node fact of the round lives in an array indexed by the
    // table's slots.
    const NodeStats stats(current);
    const std::size_t slots = stats.size();
    const auto internal = static_cast<std::uint32_t>(stats.internal_count());
    CFPM_ASSERT(internal > 0);

    // Reach probabilities are only needed for the reach-weighted metric.
    const std::vector<double> reach =
        metric_kind == CollapseMetric::kReachWeightedVariance
            ? stats.uniform_reach()
            : std::vector<double>{};

    // Default selection metric: the *relative* spread of the sub-function,
    // var(n)/avg(n)^2 (Eq. 7 statistics). Collapsing such a node merely
    // quantizes a cluster of similar values, so the induced error stays
    // proportional to the predicted magnitude -- which keeps the *relative*
    // error bounded under every input statistic, including the low-activity
    // corner where absolute-MSE criteria (plain or reach-weighted variance)
    // destroy the model's near-zero diagonal. Switching-capacitance
    // functions are non-negative, so avg(n) > 0 for every internal node.
    // The alternatives exist for the DESIGN.md ablation.
    auto metric = [&](std::uint32_t s) {
      const NodeStats::Entry& e = stats.entry(s);
      const double local =
          mode == ApproxMode::kAverage ? e.var : e.mse_of_max();
      switch (metric_kind) {
        case CollapseMetric::kVariance:
          return local;
        case CollapseMetric::kReachWeightedVariance:
          return reach[s] * local;
        case CollapseMetric::kRelativeSpread:
          break;
      }
      return local / (e.avg * e.avg + 1e-12);
    };
    auto value_of = [&](std::uint32_t s) {
      const NodeStats::Entry& e = stats.entry(s);
      return mode == ApproxMode::kAverage ? e.avg : e.max;
    };
    std::vector<std::uint32_t> candidates(internal);
    {
      // Rank on (metric, arena index) keys, each computed once. The scope
      // frees them before the per-slot arrays below are built, which keeps
      // them out of the collapse's peak memory.
      struct Ranked {
        double key;
        std::uint32_t index;
        std::uint32_t slot;
      };
      std::vector<Ranked> ranked(internal);
      for (std::uint32_t s = 0; s < internal; ++s) {
        ranked[s] = {metric(s), stats.node(s), s};
      }
      std::sort(ranked.begin(), ranked.end(),
                [](const Ranked& a, const Ranked& b) {
                  if (a.key != b.key) return a.key < b.key;
                  return a.index < b.index;  // deterministic (arena index)
                });
      for (std::uint32_t k = 0; k < internal; ++k) {
        candidates[k] = ranked[k].slot;
      }
    }

    // Live-parent counts over the reachable DAG (the root is pinned).
    std::vector<std::uint32_t> parents(slots, 0);
    for (std::uint32_t s = 0; s < internal; ++s) {
      ++parents[stats.children(s).then_slot];
      ++parents[stats.children(s).else_slot];
    }

    std::vector<std::uint8_t> gone(slots, 0);
    std::vector<std::optional<double>> marked(slots);
    std::size_t marks = 0;
    std::size_t removed = 0;
    const std::size_t deficit = size - max_size;

    std::vector<std::uint32_t> undo;       // slots decremented this mark
    std::vector<std::uint32_t> undo_gone;  // slots marked gone this mark
    std::vector<std::uint32_t> cascade;
    // Accept a small relative overshoot so the loop terminates crisply.
    const std::size_t grace = std::max<std::size_t>(2, max_size / 8);
    bool have_fallback = false;            // smallest rejected cascade
    std::uint32_t fallback = 0;
    std::size_t fallback_delta = 0;

    auto run_cascade = [&](std::uint32_t s) {
      undo.clear();
      undo_gone.clear();
      cascade.clear();
      std::size_t delta = 1;  // s itself is replaced by a leaf
      gone[s] = 1;
      undo_gone.push_back(s);
      cascade.push_back(s);
      while (!cascade.empty()) {
        const std::uint32_t dead = cascade.back();
        cascade.pop_back();
        if (dead >= internal) continue;  // a terminal
        const NodeStats::Children kids = stats.children(dead);
        for (const std::uint32_t child : {kids.then_slot, kids.else_slot}) {
          CFPM_ASSERT(parents[child] > 0);
          if (--parents[child] == 0 && gone[child] == 0) {
            gone[child] = 1;
            undo_gone.push_back(child);
            ++delta;
            cascade.push_back(child);
          }
          undo.push_back(child);
        }
      }
      return delta;
    };
    auto roll_back = [&]() {
      for (const std::uint32_t c : undo) ++parents[c];
      for (const std::uint32_t g : undo_gone) gone[g] = 0;
    };
    auto mark = [&](std::uint32_t s) {
      marked[s] = value_of(s);
      ++marks;
    };

    for (const std::uint32_t s : candidates) {
      if (removed >= deficit) break;
      if (gone[s] != 0) continue;  // already unreachable
      const std::size_t delta = run_cascade(s);
      if (removed + delta > deficit + grace) {
        roll_back();
        if (!have_fallback || delta < fallback_delta) {
          have_fallback = true;
          fallback = s;
          fallback_delta = delta;
        }
        continue;
      }
      mark(s);
      removed += delta;
    }
    if (marks == 0 || stagnant > 0) {
      // Either every candidate overshoots on its own, or the previous
      // round made no net progress (a mark's removal can be offset by a
      // freshly created leaf). Force the least damaging unmarked candidate
      // in regardless of the overshoot bound; repeat-stagnation forces one
      // more each round, so the loop always converges (in the limit to a
      // single leaf).
      std::size_t forced = std::max<std::size_t>(1, stagnant);
      if (have_fallback && !marked[fallback]) {
        run_cascade(fallback);
        mark(fallback);
        --forced;
      }
      for (const std::uint32_t s : candidates) {
        if (forced == 0) break;
        if (marked[s] || gone[s] != 0) continue;
        run_cascade(s);
        mark(s);
        --forced;
      }
    }
    CFPM_ASSERT(marks > 0);

    Substitution subst(mgr, stats, marked);
    Add next = DdInternal::make_add(mgr, subst.rebuild(0));
    const std::size_t next_size = next.size();
    total_marks += marks;
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

  // Probability mass reaching each terminal under uniform inputs.
  const NodeStats stats(f);
  const std::vector<double> reach = stats.uniform_reach();

  // Greedy closest-pair merging on the sorted value axis.
  struct Cluster {
    double value;
    double mass;
    std::vector<std::uint32_t> members;  // terminal slots
  };
  std::vector<Cluster> clusters;
  for (auto s = static_cast<std::uint32_t>(stats.internal_count());
       s < stats.size(); ++s) {
    clusters.push_back(
        {DdInternal::value(*mgr, stats.node(s)), reach[s], {s}});
  }
  // Terminals hold distinct finite values, so the order is total.
  std::sort(clusters.begin(), clusters.end(),
            [](const Cluster& a, const Cluster& b) {
              return a.value < b.value;
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

  std::vector<std::optional<double>> values(stats.size());
  for (const Cluster& c : clusters) {
    for (const std::uint32_t leaf : c.members) values[leaf] = c.value;
  }
  Substitution remap(mgr, stats, values);
  Add result = DdInternal::make_add(mgr, remap.rebuild(0));
  mgr->collect_garbage();
  return result;
}

}  // namespace cfpm::dd
