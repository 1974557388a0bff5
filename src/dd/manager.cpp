#include "dd/manager.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "support/assert.hpp"
#include "support/failpoint.hpp"
#include "support/metrics.hpp"

namespace cfpm::dd {

namespace {

// 64-bit mix for hashing edge tuples (Fibonacci hashing on a mixed word).
inline std::uint64_t mix(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

inline std::size_t hash_value(double v, std::size_t mask) noexcept {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return static_cast<std::size_t>(mix(bits)) & mask;
}

constexpr std::size_t kInitialBuckets = 256;  // power of two

/// GC runs at a safe point once the dead nodes exceed
/// max(kGcMinDead, live nodes * kGcDeadFraction).
constexpr std::size_t kGcMinDead = 4096;
constexpr double kGcDeadFraction = 0.25;
/// log2 of the computed-cache slot count.
constexpr unsigned kCacheLog2Slots = 18;

}  // namespace

std::size_t DdManager::child_slot(Edge t, Edge e, std::size_t mask) noexcept {
  const auto a = static_cast<std::uint64_t>(t);
  const auto b = static_cast<std::uint64_t>(e);
  return static_cast<std::size_t>(mix(a * 0x9e3779b97f4a7c15ULL + b)) & mask;
}

DdManager::DdManager(std::size_t num_vars, Deadline deadline)
    : deadline_(deadline) {
  cache_.resize(std::size_t{1} << kCacheLog2Slots);
  terminals_.buckets.resize(kInitialBuckets, kNilIndex);
  // Pre-size the arena so early builds never pay a relocation; 4096 records
  // is 64 KiB, well under one unique table's worth of buckets.
  nodes_.reserve(4096);
  refs_.reserve(4096);
  for (std::size_t i = 0; i < num_vars; ++i) new_var();
  add_zero_ = terminal(0.0);
  one_ = terminal(1.0);
}

DdManager::~DdManager() = default;

std::uint32_t DdManager::new_var() {
  const auto var = static_cast<std::uint32_t>(level_of_var_.size());
  level_of_var_.push_back(var);
  var_at_level_.push_back(var);
  unique_.emplace_back();
  unique_.back().buckets.resize(kInitialBuckets, kNilIndex);
  return var;
}

void DdManager::set_order(std::span<const std::uint32_t> order) {
  CFPM_REQUIRE(order.size() == num_vars());
  CFPM_REQUIRE(live_ <= 2 && dead_ == 0);  // only the 0/1 terminals may exist
  std::vector<bool> seen(num_vars(), false);
  for (std::uint32_t v : order) {
    CFPM_REQUIRE(v < num_vars() && !seen[v]);
    seen[v] = true;
  }
  for (std::uint32_t l = 0; l < order.size(); ++l) {
    var_at_level_[l] = order[l];
    level_of_var_[order[l]] = l;
  }
}

std::uint32_t DdManager::level_of_var(std::uint32_t var) const {
  CFPM_REQUIRE(var < num_vars());
  return level_of_var_[var];
}

std::uint32_t DdManager::var_at_level(std::uint32_t level) const {
  CFPM_REQUIRE(level < num_vars());
  return var_at_level_[level];
}

// ---------------------------------------------------------------------------
// Reference management.
//
// Invariant: refs_[i] == (number of live parents of node i) + (number of
// external handles). Complemented and plain edges to a node contribute to
// the same count — the complement bit changes the denoted function, not the
// storage. A node with refs_[i] == 0 is "dead": it stays in its unique
// table (and may be resurrected by a cache hit or a unique-table hit) until
// the next garbage collection sweeps it.
// ---------------------------------------------------------------------------

void DdManager::ref_edge(Edge e) noexcept {
  CFPM_ASSERT(e != kNilEdge);
  const std::uint32_t i = edge_index(e);
  if (refs_[i] == 0) {
    // Resurrection: restore this node's parent-contribution to its children.
    --dead_;
    ++live_;
    const DdNode& n = nodes_[i];
    if (!n.is_terminal()) {
      ref_edge(n.then_edge);
      ref_edge(n.else_edge);
    }
  }
  ++refs_[i];
}

void DdManager::deref_edge(Edge e) noexcept {
  CFPM_ASSERT(e != kNilEdge);
  const std::uint32_t i = edge_index(e);
  CFPM_ASSERT(refs_[i] > 0);
  if (--refs_[i] == 0) {
    ++dead_;
    --live_;
    const DdNode& n = nodes_[i];
    if (!n.is_terminal()) {
      deref_edge(n.then_edge);
      deref_edge(n.else_edge);
    }
  }
}

// ---------------------------------------------------------------------------
// Node construction.
// ---------------------------------------------------------------------------

std::uint32_t DdManager::allocate_node() {
  ++counts_.node_allocs;
  // The deadline is checked here — the one point every growing operation
  // must pass through — except during in-place reordering, where an unwound
  // exception would leave a level half-relabeled (sifting checks between
  // whole swaps instead).
  if (deadline_ && !in_reorder_ &&
      ++allocs_since_check_ >= kDeadlineCheckInterval) {
    allocs_since_check_ = 0;
    check_deadline(deadline_);  // may throw
  }
  // Same exclusion zone as the deadline: an injected throw unwinds through
  // the strongly exception-safe apply/ite/make_node paths, but must never
  // fire inside an in-place reorder swap.
  if (!in_reorder_) CFPM_FAILPOINT("dd.allocate_node");
  if (free_list_ != kNilIndex) {
    const std::uint32_t i = free_list_;
    free_list_ = nodes_[i].next;
    return i;
  }
  CFPM_REQUIRE(allocated_ < kNilIndex);  // 31-bit index space
  const auto i = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
  refs_.push_back(0);
  ++allocated_;
  return i;
}

Edge DdManager::terminal(double value) {
  CFPM_REQUIRE(std::isfinite(value));
  if (value == 0.0) value = 0.0;  // normalize -0.0 to +0.0 for canonicity
  const std::size_t mask = terminals_.buckets.size() - 1;
  const std::size_t slot = hash_value(value, mask);
  for (std::uint32_t p = terminals_.buckets[slot]; p != kNilIndex;
       p = nodes_[p].next) {
    if (terminal_values_[nodes_[p].then_edge] == value) {
      ref_edge(make_edge(p));
      return make_edge(p);
    }
  }
  const std::uint32_t i = allocate_node();
  std::uint32_t value_slot;
  if (!value_free_.empty()) {
    value_slot = value_free_.back();
    value_free_.pop_back();
    terminal_values_[value_slot] = value;
  } else {
    value_slot = static_cast<std::uint32_t>(terminal_values_.size());
    terminal_values_.push_back(value);
  }
  DdNode& n = nodes_[i];
  n.var = DdNode::kTerminalVar;
  n.then_edge = value_slot;
  n.else_edge = kNilEdge;
  n.next = terminals_.buckets[slot];
  refs_[i] = 1;
  terminals_.buckets[slot] = i;
  ++terminals_.count;
  ++live_;
  return make_edge(i);
}

Edge DdManager::make_node(std::uint32_t var, Edge t, Edge e) {
  CFPM_ASSERT(var < num_vars());
  if (t == e) {
    // Reduction rule: redundant test. Transfer t's reference to the result,
    // release e's.
    deref_edge(e);
    return t;
  }
  CFPM_ASSERT(level_of(t) > level_of_var_[var]);
  CFPM_ASSERT(level_of(e) > level_of_var_[var]);

  // Canonicity: the then-edge is never complemented. ADD edges are plain,
  // so this only ever fires in the BDD fragment. Flipping both children
  // (deref/ref not needed — the complement bit is not part of the count)
  // and complementing the result edge preserves the denoted function:
  //   ite(v, !a, !b) == !ite(v, a, b).
  const bool complement_out = edge_complemented(t);
  if (complement_out) {
    t = edge_not(t);
    e = edge_not(e);
  }

  UniqueTable& table = unique_[var];
  std::size_t mask = table.buckets.size() - 1;
  std::size_t slot = child_slot(t, e, mask);
  for (std::uint32_t p = table.buckets[slot]; p != kNilIndex;
       p = nodes_[p].next) {
    if (nodes_[p].then_edge == t && nodes_[p].else_edge == e) {
      ref_edge(make_edge(p));
      deref_edge(t);
      deref_edge(e);
      return make_edge(p, complement_out);
    }
  }
  // Strong guarantee: a throw past this point (table growth, allocation,
  // deadline, failpoint) must not leak the child references this call
  // consumes.
  std::uint32_t i;
  try {
    maybe_resize_table(var);
    i = allocate_node();
  } catch (...) {
    deref_edge(t);
    deref_edge(e);
    throw;
  }
  mask = table.buckets.size() - 1;
  slot = child_slot(t, e, mask);
  DdNode& n = nodes_[i];
  n.var = var;
  n.then_edge = t;  // adopts the caller's references as parent references
  n.else_edge = e;
  n.next = table.buckets[slot];
  refs_[i] = 1;  // caller's reference
  table.buckets[slot] = i;
  ++table.count;
  ++live_;
  return make_edge(i, complement_out);
}

void DdManager::maybe_resize_table(std::uint32_t var) {
  UniqueTable& table = unique_[var];
  if (table.count < table.buckets.size()) return;
  std::vector<std::uint32_t> old = std::move(table.buckets);
  table.buckets.assign(old.size() * 2, kNilIndex);
  const std::size_t mask = table.buckets.size() - 1;
  for (std::uint32_t p : old) {
    while (p != kNilIndex) {
      const std::uint32_t next = nodes_[p].next;
      const std::size_t slot =
          child_slot(nodes_[p].then_edge, nodes_[p].else_edge, mask);
      nodes_[p].next = table.buckets[slot];
      table.buckets[slot] = p;
      p = next;
    }
  }
}

// ---------------------------------------------------------------------------
// Garbage collection. Called only from safe points (no apply recursion in
// flight), so every node still needed is protected by a reference.
// ---------------------------------------------------------------------------

void DdManager::maybe_gc() {
  counts_.publish();
  const std::size_t threshold = std::max(
      kGcMinDead,
      static_cast<std::size_t>(static_cast<double>(live_) * kGcDeadFraction));
  if (dead_ > threshold) collect_garbage();
}

std::size_t DdManager::unique_table_buckets() const noexcept {
  std::size_t buckets = terminals_.buckets.size();
  for (const UniqueTable& table : unique_) buckets += table.buckets.size();
  return buckets;
}

std::size_t DdManager::unique_table_nodes() const noexcept {
  std::size_t nodes = terminals_.count;
  for (const UniqueTable& table : unique_) nodes += table.count;
  return nodes;
}

void DdManager::OpCounts::publish() noexcept {
  // Each counter registers on its first non-zero delta, so a run that never
  // looks up the cache reports no dd.cache.* entries at all.
  if (node_allocs != published_allocs) {
    static const metrics::Counter c_alloc("dd.node.alloc");
    c_alloc.add(node_allocs - published_allocs);
    published_allocs = node_allocs;
  }
  if (cache_hits != published_hits) {
    static const metrics::Counter c_hit("dd.cache.hit");
    c_hit.add(cache_hits - published_hits);
    published_hits = cache_hits;
  }
  const std::uint64_t misses = cache_lookups - cache_hits;
  if (misses != published_misses) {
    static const metrics::Counter c_miss("dd.cache.miss");
    c_miss.add(misses - published_misses);
    published_misses = misses;
  }
}

std::size_t DdManager::collect_garbage() {
  counts_.publish();
  if (dead_ == 0) return 0;
  static const metrics::Counter c_gc("dd.gc.run");
  c_gc.add();
  ++gc_runs_;
  cache_clear();  // cache holds unreferenced edges; must not survive a sweep
  std::size_t reclaimed = 0;
  auto sweep = [&](UniqueTable& table, bool is_terminal_table) {
    for (std::uint32_t& bucket : table.buckets) {
      std::uint32_t* link = &bucket;
      while (*link != kNilIndex) {
        const std::uint32_t i = *link;
        DdNode& n = nodes_[i];
        if (refs_[i] == 0) {
          *link = n.next;
          if (is_terminal_table) value_free_.push_back(n.then_edge);
          n.then_edge = kNilEdge;
          n.else_edge = kNilEdge;
          n.next = free_list_;
          free_list_ = i;
          --table.count;
          ++reclaimed;
        } else {
          link = &n.next;
        }
      }
    }
  };
  for (UniqueTable& table : unique_) sweep(table, false);
  sweep(terminals_, true);
  CFPM_ASSERT(reclaimed == dead_);
  dead_ = 0;
  static const metrics::Counter c_reclaimed("dd.gc.reclaimed");
  static const metrics::Gauge g_live("dd.node.live");
  static const metrics::Gauge g_occupancy("dd.table.occupancy");
  c_reclaimed.add(reclaimed);
  g_live.set(static_cast<double>(live_));
  g_occupancy.set(unique_table_occupancy());
  return reclaimed;
}

// ---------------------------------------------------------------------------
// Unified computed cache: direct-mapped, lossy. One table serves binary
// apply (h == kNilEdge) and ITE (op == kOpIte) — the op tag is part of the
// key, so canonicalized ITE triples and arithmetic applies share capacity
// without colliding semantically.
// ---------------------------------------------------------------------------

Edge DdManager::cache_lookup(std::uint32_t op, Edge f, Edge g,
                             Edge h) noexcept {
  ++counts_.cache_lookups;
  const std::uint64_t lo = (static_cast<std::uint64_t>(f) << 32) | g;
  const std::uint64_t hi = (static_cast<std::uint64_t>(h) << 32) | op;
  const std::size_t slot =
      static_cast<std::size_t>(mix(lo * 0x9e3779b97f4a7c15ULL + hi)) &
      (cache_.size() - 1);
  const CacheEntry& e = cache_[slot];
  if (e.f == f && e.g == g && e.h == h && e.op == op) {
    ++counts_.cache_hits;
    return e.result;
  }
  return kNilEdge;
}

void DdManager::cache_insert(std::uint32_t op, Edge f, Edge g, Edge h,
                             Edge r) noexcept {
  const std::uint64_t lo = (static_cast<std::uint64_t>(f) << 32) | g;
  const std::uint64_t hi = (static_cast<std::uint64_t>(h) << 32) | op;
  const std::size_t slot =
      static_cast<std::size_t>(mix(lo * 0x9e3779b97f4a7c15ULL + hi)) &
      (cache_.size() - 1);
  cache_[slot] = CacheEntry{f, g, h, op, r};
  cache_dirty_ = true;
}

void DdManager::cache_clear() noexcept {
  if (!cache_dirty_) return;  // already empty: nothing can point at a freed node
  static const metrics::Counter c_clear("dd.cache.clear");
  c_clear.add();
  std::fill(cache_.begin(), cache_.end(), CacheEntry{});
  cache_dirty_ = false;
}

// ---------------------------------------------------------------------------
// Leaf / variable constructors.
// ---------------------------------------------------------------------------

Add DdManager::constant(double value) { return Add(this, terminal(value)); }

Bdd DdManager::bdd_zero() {
  ref_edge(one_);
  return Bdd(this, edge_not(one_));
}

Bdd DdManager::bdd_one() {
  ref_edge(one_);
  return Bdd(this, one_);
}

Bdd DdManager::bdd_var(std::uint32_t var) {
  CFPM_REQUIRE(var < num_vars());
  ref_edge(one_);
  ref_edge(one_);  // both children of the fresh node reference the 1-leaf
  return Bdd(this, make_node(var, one_, edge_not(one_)));
}

// ---------------------------------------------------------------------------
// Handle plumbing.
// ---------------------------------------------------------------------------

DdHandle::DdHandle(const DdHandle& other) : mgr_(other.mgr_), edge_(other.edge_) {
  if (edge_ != kNilEdge) mgr_->ref_edge(edge_);
}

DdHandle::DdHandle(DdHandle&& other) noexcept
    : mgr_(other.mgr_), edge_(other.edge_) {
  other.edge_ = kNilEdge;
}

DdHandle& DdHandle::operator=(const DdHandle& other) {
  if (this == &other) return *this;
  const Edge old = edge_;
  DdManager* old_mgr = mgr_;
  mgr_ = other.mgr_;
  edge_ = other.edge_;
  if (edge_ != kNilEdge) mgr_->ref_edge(edge_);
  if (old != kNilEdge) old_mgr->deref_edge(old);
  return *this;
}

DdHandle& DdHandle::operator=(DdHandle&& other) noexcept {
  if (this == &other) return *this;
  if (edge_ != kNilEdge) mgr_->deref_edge(edge_);
  mgr_ = other.mgr_;
  edge_ = other.edge_;
  other.edge_ = kNilEdge;
  return *this;
}

DdHandle::~DdHandle() { reset(); }

void DdHandle::reset() noexcept {
  if (edge_ != kNilEdge) {
    mgr_->deref_edge(edge_);
    edge_ = kNilEdge;
  }
}

}  // namespace cfpm::dd
