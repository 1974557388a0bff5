// Chip-scale hierarchical composition of macro power models.
//
// A Chip is a three-level component tree (macro -> block -> chip) whose
// leaves are PowerModels from a generated macro library. Per-cycle average
// estimates and conservative per-cycle maximum bounds compose additively up
// the tree (Section 1.2 of the paper): summing the leaves' *pattern-
// dependent* bounds gives a far tighter conservative chip bound than
// summing their global worst cases.
//
// Each block owns a contiguous segment of the chip bus; its macros bind
// their inputs to overlapping windows of that segment. Shared-input
// correlation is therefore handled at the block level by construction: a
// shared bus bit is one stream of the chip trace, sampled once, feeding
// every macro that maps it — it is never double-sampled per macro.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/library.hpp"
#include "netlist/netlist.hpp"
#include "power/add_model.hpp"
#include "power/factory.hpp"
#include "power/rtl.hpp"

namespace cfpm::chip {

/// Chip topology "CxBxM": C blocks, B macro instances per block, M bus bits
/// per block. Total bus width is C*M, total macro count C*B.
struct ChipSpec {
  std::size_t blocks = 2;
  std::size_t macros_per_block = 3;
  std::size_t block_bus_bits = 12;

  /// Parses "CxBxM" (e.g. "4x6x16"). Throws cfpm::Error on malformed
  /// text, zero counts, or M < 4 (the narrowest library macro needs 4 bits).
  static ChipSpec parse(std::string_view text);
  std::string to_string() const;

  std::size_t num_macros() const noexcept { return blocks * macros_per_block; }
  std::size_t bus_width() const noexcept { return blocks * block_bus_bits; }
};

/// Build record for one distinct library macro (shared by all its
/// instances): the §9 ladder outcome of both model variants is preserved so
/// a degraded macro is never silently mistaken for a clean one.
struct MacroBuildReport {
  std::string name;           ///< library macro name, e.g. "add4"
  std::size_t num_inputs = 0;
  std::size_t instances = 0;  ///< leaves backed by this macro
  std::size_t avg_nodes = 0;
  std::size_t bound_nodes = 0;
  bool avg_cache_hit = false;    ///< model came from a registry/cache
  bool bound_cache_hit = false;
  power::AddModelBuildInfo avg_info;
  power::AddModelBuildInfo bound_info;

  bool degraded() const noexcept {
    return avg_info.outcome != power::BuildOutcome::kClean ||
           bound_info.outcome != power::BuildOutcome::kClean;
  }
};

struct ChipBuildOptions {
  /// Per-macro node budget MAX (0 = exact). The default keeps the demo
  /// library exact.
  std::size_t max_nodes = 4000;
  /// Per-macro governor wall-clock deadline; each macro build gets a fresh
  /// governor so one slow macro cannot starve the rest of the library.
  std::optional<std::size_t> deadline_ms;
  bool degrade = true;  ///< walk the §9 degradation ladder per macro
  netlist::GateLibrary library = netlist::GateLibrary::standard();
};

/// One model as produced by a ModelSource: the model itself plus the
/// builder metadata a report needs (ladder outcome, node count, whether it
/// was served from a cache instead of built).
struct SourcedModel {
  std::shared_ptr<const power::PowerModel> model;
  power::AddModelBuildInfo build_info;
  std::size_t nodes = 0;
  bool cache_hit = false;
};

/// Supplies the model for one macro netlist. The default source builds via
/// power::make_model; the daemon substitutes a registry-backed source so
/// composed chips are served from (and admitted to) the model cache.
using ModelSource =
    std::function<SourcedModel(const netlist::Netlist&, power::ModelKind)>;

/// The default source for `options`: power::make_model under a fresh
/// per-macro governor deadline, with the §9 ladder per `options.degrade`.
ModelSource make_model_source(const ChipBuildOptions& options);

class Chip {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  /// One tree node. Leaves (empty `children`) wrap exactly one design
  /// instance; every node's leaves occupy the contiguous DFS range
  /// [first_leaf, first_leaf + num_leaves).
  struct Node {
    std::string name;
    std::size_t parent = kNoParent;
    std::vector<std::size_t> children;  ///< node indices
    std::size_t first_leaf = 0;
    std::size_t num_leaves = 0;
    std::size_t macro = 0;  ///< leaves only: index into library()
    bool is_leaf() const noexcept { return children.empty(); }
  };

  const ChipSpec& spec() const noexcept { return spec_; }
  /// Average-accuracy composition (leaf models in kAddAverage mode).
  const power::RtlDesign& avg_design() const noexcept { return avg_; }
  /// Conservative composition (leaf models in kAddUpperBound mode).
  const power::RtlDesign& bound_design() const noexcept { return bound_; }

  /// nodes()[0] is the chip root; blocks and leaves follow in DFS order,
  /// so leaf k of the tree is instance k of both designs.
  const std::vector<Node>& nodes() const noexcept { return nodes_; }
  const Node& root() const noexcept { return nodes_.front(); }
  const std::vector<MacroBuildReport>& library() const noexcept {
    return library_;
  }

  std::size_t num_macros() const noexcept { return avg_.num_instances(); }
  /// Nominal chip bus width (spec().bus_width()); traces are generated at
  /// this width. The designs may map fewer bits (windows need not cover
  /// every segment bit), never more.
  std::size_t bus_width() const noexcept { return spec_.bus_width(); }
  /// Composite (non-leaf) nodes: the chip root plus one per block.
  std::size_t num_components() const noexcept { return spec_.blocks + 1; }
  /// Tree levels including leaves (chip -> block -> macro).
  std::size_t depth() const noexcept { return 3; }

  /// True when any library macro took a §9 ladder rung.
  bool degraded() const;

  /// The loose bound the paper argues against: sum of the leaves' global
  /// worst cases.
  double sum_of_worst_cases_ff() const { return bound_.sum_of_worst_cases_ff(); }

  /// Left-fold of `per_leaf` over the node's contiguous leaf range. This
  /// associates exactly like the evaluator's chip total, so
  /// subtree_total(root(), r.per_instance_ff) == r.total_ff bitwise.
  double subtree_total(const Node& node,
                       std::span<const double> per_leaf) const;

 private:
  friend Chip build_chip(const ChipSpec&, const ModelSource&);
  ChipSpec spec_;
  power::RtlDesign avg_;
  power::RtlDesign bound_;
  std::vector<Node> nodes_;
  std::vector<MacroBuildReport> library_;
};

/// Builds the chip for `spec`: generates the macro library, builds each
/// distinct macro once through `source` (average and upper-bound variants),
/// and instantiates the tree with overlapping per-block bus windows.
Chip build_chip(const ChipSpec& spec, const ModelSource& source);
/// Convenience: the default power::make_model source for `options`.
Chip build_chip(const ChipSpec& spec, const ChipBuildOptions& options = {});

}  // namespace cfpm::chip
