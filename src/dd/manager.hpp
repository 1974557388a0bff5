// Decision-diagram manager: hash-consed BDDs/ADDs with reference-counting
// garbage collection and a unified op-tagged computed cache.
//
// This is the symbolic kernel of the library (the role CUDD plays in the
// paper). Public access goes through the RAII handles `Bdd` and `Add`
// declared at the bottom; raw Edge values never escape this module.
//
// Conventions:
//  * Nodes live in a contiguous arena addressed by 32-bit `Edge` values
//    (index + complement tag, see dd_node.hpp). Complement edges exist only
//    in the BDD fragment; ADD edges are always plain.
//  * A BDD's only terminal is the 1.0 leaf: logical zero is the
//    complemented edge to it. ADDs use plain edges to real-valued leaves
//    (including a genuine 0.0 terminal), so converting a Bdd to an Add is a
//    memoized rebuild, not a cast.
//  * Variables are identified by index; the evaluation/traversal order is a
//    permutation maintained by the manager (level_of_var / var_at_level).
//  * All internal routines that return an Edge return it with one
//    caller-owned reference already applied ("referenced-return").
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "dd/dd_node.hpp"

namespace cfpm {
class Governor;
}  // namespace cfpm

namespace cfpm::dd {

class Bdd;
class Add;

/// Arithmetic (ADD-realm) operations usable with DdManager::apply; each
/// value doubles as the computed-cache tag. Logical operations are not
/// here: they go through complement-edge ITE (see apply.cpp).
enum class Op : std::uint8_t {
  kPlus,   ///< arithmetic sum
  kMinus,  ///< arithmetic difference
  kTimes,  ///< arithmetic product (== AND on 0/1 diagrams)
  kMax,    ///< pointwise maximum (== OR on 0/1 diagrams)
  kMin,    ///< pointwise minimum
};

/// Tuning knobs for a DdManager.
struct DdConfig {
  /// GC is considered when the number of dead nodes exceeds
  /// max(gc_min_dead, live nodes * gc_dead_fraction).
  std::size_t gc_min_dead = 4096;
  double gc_dead_fraction = 0.25;
  /// log2 of the computed-cache slot count.
  unsigned cache_log2_slots = 18;
  /// Hard ceiling on allocated nodes; 0 means unlimited. Exceeding it
  /// throws cfpm::ResourceError (after attempting a GC).
  std::size_t max_nodes = 0;
  /// Optional build governor polled once per node allocation (outside
  /// in-place reordering) and at every adjacent-level swap; may throw
  /// DeadlineExceeded / CancelledError from those points. Shared, not
  /// owned: several managers (e.g. successive degradation-ladder attempts)
  /// may answer to one governor and its single deadline.
  std::shared_ptr<Governor> governor;
};

class DdManager {
 public:
  explicit DdManager(std::size_t num_vars = 0, DdConfig config = {});
  ~DdManager();

  DdManager(const DdManager&) = delete;
  DdManager& operator=(const DdManager&) = delete;

  // ----- variables and ordering ------------------------------------------

  /// Appends a new variable (placed at the bottom of the order); returns its index.
  std::uint32_t new_var();
  std::size_t num_vars() const noexcept { return level_of_var_.size(); }

  /// Declares a custom order: order[l] is the variable at level l.
  /// Must be a permutation of all current variables; only allowed while no
  /// internal nodes exist yet.
  void set_order(std::span<const std::uint32_t> order);

  std::uint32_t level_of_var(std::uint32_t var) const;
  std::uint32_t var_at_level(std::uint32_t level) const;

  // ----- leaf/variable constructors ---------------------------------------

  Add constant(double value);
  Bdd bdd_zero();
  Bdd bdd_one();
  /// Projection function of a variable (as a BDD).
  Bdd bdd_var(std::uint32_t var);

  // ----- statistics --------------------------------------------------------

  /// Bytes of manager storage one node record costs (the 16-byte arena
  /// record plus its slot in the reference-count side array); the
  /// denominator of memory-per-node metrics.
  static constexpr std::size_t node_footprint_bytes() noexcept {
    return sizeof(DdNode) + sizeof(std::uint32_t);
  }

  std::size_t live_nodes() const noexcept { return live_; }
  std::size_t dead_nodes() const noexcept { return dead_; }
  std::size_t allocated_nodes() const noexcept { return allocated_; }
  std::uint64_t cache_hits() const noexcept { return cache_hits_; }
  std::uint64_t cache_lookups() const noexcept { return cache_lookups_; }
  std::uint64_t gc_runs() const noexcept { return gc_runs_; }

  /// Fraction of computed-cache lookups (apply and ite share one cache)
  /// answered from the cache; 0 when no lookup has happened yet.
  double cache_hit_rate() const noexcept {
    return cache_lookups_ == 0 ? 0.0
                               : static_cast<double>(cache_hits_) /
                                     static_cast<double>(cache_lookups_);
  }
  /// Buckets across all unique tables (per-variable tables + terminals).
  std::size_t unique_table_buckets() const noexcept;
  /// Nodes chained in the unique tables, live and dead alike.
  std::size_t unique_table_nodes() const noexcept;
  /// Average unique-table load factor (nodes per bucket).
  double unique_table_occupancy() const noexcept {
    const std::size_t buckets = unique_table_buckets();
    return buckets == 0 ? 0.0
                        : static_cast<double>(unique_table_nodes()) /
                              static_cast<double>(buckets);
  }

  /// Forces a garbage collection; returns the number of nodes reclaimed.
  std::size_t collect_garbage();

  // ----- dynamic reordering (reorder.cpp) ----------------------------------

  /// Swaps the variables at `level` and `level + 1` in place. Node indices
  /// keep representing the same functions, so all handles stay valid.
  /// Returns the live node count after the swap.
  std::size_t swap_adjacent_levels(std::uint32_t level);

  /// Sifts one variable to its locally optimal level (Rudell), allowing at
  /// most `max_growth`x intermediate growth. Returns the live node count.
  std::size_t sift_variable(std::uint32_t var, double max_growth = 1.2);

  /// One sifting pass over all variables, most populated first. Returns
  /// the number of live nodes saved.
  std::size_t sift(double max_growth = 1.2);

 private:
  friend class DdHandle;
  friend class Bdd;
  friend class Add;
  friend class NodeStats;   // stats.cpp traversals
  friend struct DdInternal; // private bridge for dd implementation files

  /// One slot of the unified computed cache: binary apply entries store
  /// h == kNilEdge and op == the Op value; ITE entries store all three
  /// operands under kOpIte. Direct-mapped and lossy.
  struct CacheEntry {
    Edge f = kNilEdge;
    Edge g = kNilEdge;
    Edge h = kNilEdge;
    std::uint32_t op = kNoOp;
    Edge result = kNilEdge;
  };
  static constexpr std::uint32_t kNoOp = 0xffffffffu;
  static constexpr std::uint32_t kOpIte = 0x100u;  // above every Op value

  // --- node/edge accessors -------------------------------------------------
  const DdNode& node_at(std::uint32_t index) const noexcept {
    return nodes_[index];
  }
  bool is_terminal_index(std::uint32_t index) const noexcept {
    return nodes_[index].is_terminal();
  }
  double value_of(std::uint32_t index) const noexcept {
    return terminal_values_[nodes_[index].then_edge];
  }

  // --- reference management (see dd_node.hpp invariants) -----------------
  void ref_edge(Edge e) noexcept;
  void deref_edge(Edge e) noexcept;

  // --- node construction ---------------------------------------------------
  Edge terminal(double value);                    // referenced-return
  /// Consumes one reference each from t and e; referenced-return. The
  /// then-edge canonicity invariant is restored here: a complemented t is
  /// normalized by flipping both children and complementing the result
  /// edge. On an exception (node budget, governor fault) both references
  /// are released before the throw propagates, so callers never leak them.
  Edge make_node(std::uint32_t var, Edge t, Edge e);
  std::uint32_t allocate_node();
  void maybe_gc();
  void maybe_resize_table(std::uint32_t var);
  static std::size_t child_slot(Edge t, Edge e, std::size_t mask) noexcept;

  // --- operations (apply.cpp) ----------------------------------------------
  Edge apply(Op op, Edge f, Edge g);              // referenced-return
  Edge apply_rec(Op op, Edge f, Edge g);
  Edge ite(Edge f, Edge g, Edge h);               // referenced-return
  Edge ite_rec(Edge f, Edge g, Edge h);
  Edge cofactor_rec(Edge f, std::uint32_t var, bool phase);
  /// Memoized rebuild of a BDD as a plain-edged 0.0/1.0 ADD.
  Edge bdd_to_add(Edge f);
  Edge bdd_to_add_rec(Edge f, std::unordered_map<Edge, Edge>& memo);
  static double apply_terminal(Op op, double a, double b);
  /// Operand-level simplification; kNilEdge when no shortcut applies,
  /// otherwise the (unreferenced) result edge.
  Edge apply_shortcut(Op op, Edge f, Edge g) const noexcept;

  // --- unified computed cache ----------------------------------------------
  Edge cache_lookup(std::uint32_t op, Edge f, Edge g, Edge h) noexcept;
  void cache_insert(std::uint32_t op, Edge f, Edge g, Edge h, Edge r) noexcept;
  void cache_clear() noexcept;

  std::uint32_t level_of_index(std::uint32_t index) const noexcept {
    const DdNode& n = nodes_[index];
    return n.is_terminal() ? kTerminalLevel : level_of_var_[n.var];
  }
  std::uint32_t level_of(Edge e) const noexcept {
    return level_of_index(edge_index(e));
  }
  static constexpr std::uint32_t kTerminalLevel = DdNode::kTerminalVar;

  // --- storage --------------------------------------------------------------
  DdConfig config_;
  /// Set for the duration of an in-place adjacent-level swap: the node cap
  /// and governor polling are suspended there because a half-relabeled
  /// level cannot be unwound (swaps only ever shrink-or-hold the diagram
  /// modulo transient nodes, so the suspension is bounded). The governor is
  /// instead checkpointed between swaps.
  bool in_reorder_ = false;
  /// The arena. Indices are stable (vector growth relocates storage but
  /// never renumbers), so recursions hold Edge values, never references
  /// across an allocation.
  std::vector<DdNode> nodes_;
  std::vector<std::uint32_t> refs_;       // parallel to nodes_
  std::vector<double> terminal_values_;   // terminal side table
  std::vector<std::uint32_t> value_free_; // recycled terminal_values_ slots
  std::uint32_t free_list_ = kNilIndex;
  std::size_t live_ = 0;
  std::size_t dead_ = 0;
  std::size_t allocated_ = 0;

  // per-variable unique tables (buckets chain node indices through `next`)
  struct UniqueTable {
    std::vector<std::uint32_t> buckets;
    std::size_t count = 0;  // nodes in table (live + dead)
  };
  std::vector<UniqueTable> unique_;
  UniqueTable terminals_;

  std::vector<std::uint32_t> level_of_var_;
  std::vector<std::uint32_t> var_at_level_;

  std::vector<CacheEntry> cache_;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_lookups_ = 0;
  std::uint64_t gc_runs_ = 0;

  Edge one_ = kNilEdge;       // plain edge to the 1.0 terminal (BDD true)
  Edge add_zero_ = kNilEdge;  // plain edge to the 0.0 terminal (ADD zero)
};

/// RAII handle to a decision diagram. Copyable (ref-counted).
/// Base of Bdd and Add; not used directly.
class DdHandle {
 public:
  DdHandle() = default;
  DdHandle(const DdHandle& other);
  DdHandle(DdHandle&& other) noexcept;
  DdHandle& operator=(const DdHandle& other);
  DdHandle& operator=(DdHandle&& other) noexcept;
  ~DdHandle();

  bool is_null() const noexcept { return edge_ == kNilEdge; }
  DdManager* manager() const noexcept { return mgr_; }

  /// Total node count of the DAG rooted here, terminals included. With
  /// complement edges a function and its negation share nodes, so a BDD
  /// and its complement report the same size.
  std::size_t size() const;
  /// Variables this function depends on, ascending by index.
  std::vector<std::uint32_t> support() const;
  bool is_terminal_node() const noexcept {
    return edge_ != kNilEdge && mgr_->is_terminal_index(edge_index(edge_));
  }

  /// Handles are equal when they designate the same function in the same
  /// manager. Arena indices are per-manager (two managers routinely hand
  /// out the same index for unrelated functions), so the owning manager is
  /// part of the identity.
  friend bool operator==(const DdHandle& a, const DdHandle& b) noexcept {
    return a.mgr_ == b.mgr_ && a.edge_ == b.edge_;
  }

 protected:
  DdHandle(DdManager* mgr, Edge edge) noexcept : mgr_(mgr), edge_(edge) {}
  void reset() noexcept;

  DdManager* mgr_ = nullptr;
  Edge edge_ = kNilEdge;  // owns one reference when != kNilEdge

  friend class DdManager;
  friend class NodeStats;
  friend struct DdInternal;
};

/// Boolean function handle (complement-edge BDD fragment).
class Bdd : public DdHandle {
 public:
  Bdd() = default;

  Bdd operator&(const Bdd& other) const;
  Bdd operator|(const Bdd& other) const;
  Bdd operator^(const Bdd& other) const;
  /// O(1): complement edges make negation a bit flip.
  Bdd operator!() const;

  /// if-then-else composition: (*this) ? t : e.
  Bdd ite(const Bdd& t, const Bdd& e) const;
  /// Restriction of the function with variable `var` fixed to `phase`.
  Bdd cofactor(std::uint32_t var, bool phase) const;

  bool is_zero() const noexcept;
  bool is_one() const noexcept;

  /// Evaluates the function under a full assignment (indexed by variable).
  bool eval(std::span<const std::uint8_t> assignment) const;

  /// Number of satisfying assignments over `num_vars` variables.
  double sat_count(std::size_t num_vars) const;

 private:
  using DdHandle::DdHandle;
  friend class DdManager;
  friend class Add;
  friend struct DdInternal;
};

/// Arithmetic (discrete-valued) function handle. Edges are always plain.
class Add : public DdHandle {
 public:
  Add() = default;
  /// Rebuilds the 0/1-valued ADD of a BDD (memoized linear traversal; the
  /// complement-edge form and the plain ADD form are distinct diagrams).
  explicit Add(const Bdd& b);

  Add operator+(const Add& other) const;
  Add operator-(const Add& other) const;
  Add operator*(const Add& other) const;
  Add times(double constant) const;
  Add max(const Add& other) const;
  Add min(const Add& other) const;

  /// Evaluates the function under a full assignment (indexed by variable).
  double eval(std::span<const std::uint8_t> assignment) const;

  /// Restriction with variable `var` fixed to `phase`.
  Add cofactor(std::uint32_t var, bool phase) const;

  /// Distinct terminal values reachable from this root, ascending.
  std::vector<double> leaf_values() const;

  /// Exact average of the function over all input assignments (Eq. 6 of the
  /// paper; independent of how many variables the manager holds, since the
  /// function is constant in variables outside its support).
  double average() const;
  /// Exact variance over all input assignments (Eq. 5).
  double variance() const;
  /// Maximum (resp. minimum) terminal value reachable from the root.
  double max_value() const;
  double min_value() const;

  double terminal_value() const;  ///< requires is_terminal_node()

 private:
  using DdHandle::DdHandle;
  friend class DdManager;
  friend struct DdInternal;
};

}  // namespace cfpm::dd
