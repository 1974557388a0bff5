#include "chip/chip.hpp"

#include <algorithm>

#include "netlist/generators.hpp"
#include "support/assert.hpp"
#include "support/deadline.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/parse.hpp"

namespace cfpm::chip {

namespace {

/// The generated macro palette for a block of `bus_bits` inputs: every
/// macro's arity is clamped to fit one block segment, so any macro can bind
/// anywhere in its block. Block slot j uses palette entry j mod size —
/// independent of the block index, which is what makes the library shared
/// chip-wide (each distinct macro is built once, instantiated everywhere).
struct PaletteEntry {
  std::string name;
  netlist::Netlist circuit;
};

std::vector<PaletteEntry> macro_palette(std::size_t bus_bits) {
  CFPM_REQUIRE(bus_bits >= 4);
  const auto clamp = [](std::size_t v, std::size_t hi) {
    return std::max<std::size_t>(1, std::min(v, hi));
  };
  std::vector<PaletteEntry> palette;
  const unsigned add_w =
      static_cast<unsigned>(clamp((bus_bits - 1) / 2, 4));  // arity 2w+1
  palette.push_back({"add" + std::to_string(add_w),
                     netlist::gen::ripple_carry_adder(add_w)});
  const unsigned cmp_w = static_cast<unsigned>(clamp(bus_bits / 2, 4));
  palette.push_back({"cmp" + std::to_string(cmp_w),
                     netlist::gen::magnitude_comparator(cmp_w)});
  const unsigned mux_sel = bus_bits >= 7 ? 2 : 1;  // arity 2^s + s + 1
  palette.push_back({"mux" + std::to_string(mux_sel),
                     netlist::gen::mux_flat(mux_sel)});
  const unsigned par_w = static_cast<unsigned>(clamp(bus_bits, 8));
  palette.push_back({"par" + std::to_string(par_w),
                     netlist::gen::parity_tree(par_w)});
  const unsigned alu_w =
      static_cast<unsigned>(clamp((bus_bits - 2) / 2, 3));  // arity 2w+2
  palette.push_back({"alu" + std::to_string(alu_w),
                     netlist::gen::alu(alu_w)});
  return palette;
}

}  // namespace

ChipSpec ChipSpec::parse(std::string_view text) {
  std::size_t parts[3];
  std::size_t begin = 0;
  for (int p = 0; p < 3; ++p) {
    const std::size_t end =
        p == 2 ? text.size() : text.find('x', begin);
    if (end == std::string_view::npos) {
      throw Error("bad chip spec '" + std::string(text) +
                       "' (expected CxBxM, e.g. 4x6x16)");
    }
    const auto v = parse_number<std::size_t>(text.substr(begin, end - begin));
    if (!v || *v == 0) {
      throw Error("bad chip spec '" + std::string(text) +
                       "' (counts must be positive integers)");
    }
    parts[p] = *v;
    begin = end + 1;
  }
  if (parts[2] < 4) {
    throw Error("bad chip spec '" + std::string(text) +
                     "' (need at least 4 bus bits per block)");
  }
  return ChipSpec{parts[0], parts[1], parts[2]};
}

std::string ChipSpec::to_string() const {
  return std::to_string(blocks) + "x" + std::to_string(macros_per_block) +
         "x" + std::to_string(block_bus_bits);
}

ModelSource make_model_source(const ChipBuildOptions& options) {
  return [options](const netlist::Netlist& n, power::ModelKind kind) {
    power::ModelOptions mo;
    mo.add.max_nodes = options.max_nodes;
    mo.add.degrade = options.degrade;
    // Fresh deadline per macro: each macro build runs on its own clock, so
    // one slow macro cannot starve the rest of the library.
    mo.add.deadline = deadline_after(options.deadline_ms);
    mo.library = options.library;
    SourcedModel out;
    std::shared_ptr<power::PowerModel> model = power::make_model(kind, n, mo);
    if (const auto* add =
            dynamic_cast<const power::AddPowerModel*>(model.get())) {
      out.build_info = add->build_info();
      out.nodes = add->size();
    }
    out.model = std::move(model);
    return out;
  };
}

bool Chip::degraded() const {
  return std::any_of(library_.begin(), library_.end(),
                     [](const MacroBuildReport& m) { return m.degraded(); });
}

double Chip::subtree_total(const Node& node,
                           std::span<const double> per_leaf) const {
  CFPM_REQUIRE(node.first_leaf + node.num_leaves <= per_leaf.size());
  double total = 0.0;
  for (std::size_t i = 0; i < node.num_leaves; ++i) {
    total += per_leaf[node.first_leaf + i];
  }
  return total;
}

Chip build_chip(const ChipSpec& spec, const ModelSource& source) {
  static const metrics::Counter c_build("chip.build.count");
  static const metrics::Counter c_macros("chip.build.macros");
  static const metrics::Counter c_degraded("chip.build.degraded");
  static const metrics::Histogram h_latency("chip.build.latency_us");
  const metrics::ScopedTimer timer(h_latency);
  c_build.add();

  const auto palette = macro_palette(spec.block_bus_bits);
  const std::size_t kinds = std::min(spec.macros_per_block, palette.size());

  Chip result;
  result.spec_ = spec;

  // Build each distinct macro once (average + bound variants); every block
  // instantiates from this shared library.
  struct BuiltMacro {
    std::shared_ptr<const power::PowerModel> avg;
    std::shared_ptr<const power::PowerModel> bound;
  };
  std::vector<BuiltMacro> built(kinds);
  for (std::size_t k = 0; k < kinds; ++k) {
    SourcedModel avg = source(palette[k].circuit, power::ModelKind::kAddAverage);
    SourcedModel bound =
        source(palette[k].circuit, power::ModelKind::kAddUpperBound);
    CFPM_REQUIRE(avg.model != nullptr && bound.model != nullptr);
    MacroBuildReport report;
    report.name = palette[k].name;
    report.num_inputs = avg.model->num_inputs();
    report.avg_nodes = avg.nodes;
    report.bound_nodes = bound.nodes;
    report.avg_cache_hit = avg.cache_hit;
    report.bound_cache_hit = bound.cache_hit;
    report.avg_info = avg.build_info;
    report.bound_info = bound.build_info;
    result.library_.push_back(std::move(report));
    built[k] = BuiltMacro{std::move(avg.model), std::move(bound.model)};
  }
  c_macros.add(kinds);

  // Tree + instances: DFS order, so leaf k of the tree is instance k of
  // both designs and every subtree's leaves are contiguous.
  result.nodes_.push_back(
      Chip::Node{spec.to_string(), Chip::kNoParent, {}, 0, 0, 0});
  const std::size_t M = spec.block_bus_bits;
  const std::size_t stride =
      std::max<std::size_t>(1, M / spec.macros_per_block);
  for (std::size_t b = 0; b < spec.blocks; ++b) {
    const std::size_t block_index = result.nodes_.size();
    std::string block_name = "b";
    block_name += std::to_string(b);
    result.nodes_.push_back(Chip::Node{std::move(block_name), 0, {},
                                       b * spec.macros_per_block, 0, 0});
    result.nodes_[0].children.push_back(block_index);
    for (std::size_t j = 0; j < spec.macros_per_block; ++j) {
      const std::size_t k = j % kinds;
      const std::size_t arity = result.library_[k].num_inputs;
      // Overlapping windows of the block's bus segment: consecutive slots
      // start `stride` bits apart and wrap within the segment, so sibling
      // macros share bus bits (the shared bit is one stream of the chip
      // trace — bound once at block level, never double-sampled).
      const std::size_t start = (j * stride) % M;
      std::vector<std::size_t> map(arity);
      for (std::size_t i = 0; i < arity; ++i) {
        map[i] = b * M + (start + i) % M;
      }
      const std::size_t leaf = b * spec.macros_per_block + j;
      std::string name = "b";
      name += std::to_string(b);
      name += ".m";
      name += std::to_string(j);
      name += '.';
      name += result.library_[k].name;
      result.avg_.add_instance(name, built[k].avg, map);
      result.bound_.add_instance(name, built[k].bound, std::move(map));
      result.library_[k].instances += 1;
      result.nodes_.push_back(
          Chip::Node{name, block_index, {}, leaf, 1, k});
      result.nodes_[block_index].children.push_back(result.nodes_.size() - 1);
      result.nodes_[block_index].num_leaves += 1;
    }
  }
  result.nodes_[0].num_leaves = spec.num_macros();
  if (result.degraded()) c_degraded.add();
  return result;
}

Chip build_chip(const ChipSpec& spec, const ChipBuildOptions& options) {
  return build_chip(spec, make_model_source(options));
}

}  // namespace cfpm::chip
