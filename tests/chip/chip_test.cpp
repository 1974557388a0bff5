// Chip composition tests: spec parsing, tree topology, sibling bus-bit
// sharing, bitwise agreement between composed node totals and the sharded
// evaluator, conservative-bound tightness, shard-count determinism, §9
// fallback surfacing, and the service facade's chip entry points.
#include "chip/chip.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "chip/evaluator.hpp"
#include "netlist/generators.hpp"
#include "power/add_model.hpp"
#include "power/baselines.hpp"
#include "serve/service.hpp"
#include "stats/markov.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace cfpm::chip {
namespace {

/// The shared demo chip (2 blocks x 3 macros x 8 bus bits): small enough
/// to build exactly in milliseconds, rich enough to exercise overlap,
/// aliasing and the full tree shape. Built once for the whole binary.
const Chip& demo_chip() {
  static const Chip c = build_chip(ChipSpec::parse("2x3x8"));
  return c;
}

sim::InputSequence demo_trace(std::size_t vectors = 512) {
  stats::MarkovSequenceGenerator gen({0.5, 0.5}, 0x1234);
  return gen.generate(demo_chip().bus_width(), vectors);
}

TEST(ChipSpec, ParsesAndRoundTrips) {
  const ChipSpec spec = ChipSpec::parse("4x6x16");
  EXPECT_EQ(spec.blocks, 4u);
  EXPECT_EQ(spec.macros_per_block, 6u);
  EXPECT_EQ(spec.block_bus_bits, 16u);
  EXPECT_EQ(spec.num_macros(), 24u);
  EXPECT_EQ(spec.bus_width(), 64u);
  EXPECT_EQ(spec.to_string(), "4x6x16");
  EXPECT_EQ(ChipSpec::parse(spec.to_string()).to_string(), spec.to_string());
}

TEST(ChipSpec, RejectsMalformedText) {
  EXPECT_THROW(ChipSpec::parse(""), Error);
  EXPECT_THROW(ChipSpec::parse("4x6"), Error);
  EXPECT_THROW(ChipSpec::parse("4x6x16x2"), Error);
  EXPECT_THROW(ChipSpec::parse("axbxc"), Error);
  EXPECT_THROW(ChipSpec::parse("0x6x16"), Error);
  EXPECT_THROW(ChipSpec::parse("4x0x16"), Error);
  EXPECT_THROW(ChipSpec::parse("4x6x0"), Error);
  // The narrowest library macro needs 4 bits per block.
  EXPECT_THROW(ChipSpec::parse("4x6x3"), Error);
}

TEST(ChipTree, TopologyMatchesSpec) {
  const Chip& c = demo_chip();
  EXPECT_EQ(c.num_macros(), 6u);
  EXPECT_EQ(c.bus_width(), 16u);
  EXPECT_EQ(c.num_components(), 3u);  // chip root + 2 blocks
  EXPECT_EQ(c.depth(), 3u);
  ASSERT_EQ(c.nodes().size(), 9u);  // 1 root + 2 blocks + 6 leaves

  const Chip::Node& root = c.root();
  EXPECT_EQ(root.parent, Chip::kNoParent);
  EXPECT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.num_leaves, 6u);
  EXPECT_FALSE(root.is_leaf());

  // Every block owns a contiguous leaf range; leaf k of the tree is
  // instance k of both designs (same name, DFS order).
  std::size_t next_leaf = 0;
  for (const std::size_t b : root.children) {
    const Chip::Node& block = c.nodes()[b];
    EXPECT_EQ(block.parent, 0u);
    EXPECT_EQ(block.first_leaf, next_leaf);
    EXPECT_EQ(block.num_leaves, 3u);
    for (const std::size_t l : block.children) {
      const Chip::Node& leaf = c.nodes()[l];
      EXPECT_TRUE(leaf.is_leaf());
      EXPECT_EQ(leaf.parent, b);
      EXPECT_EQ(leaf.num_leaves, 1u);
      EXPECT_EQ(leaf.first_leaf, next_leaf);
      EXPECT_EQ(leaf.name, c.avg_design().instance_name(next_leaf));
      EXPECT_EQ(leaf.name, c.bound_design().instance_name(next_leaf));
      ASSERT_LT(leaf.macro, c.library().size());
      ++next_leaf;
    }
  }
  EXPECT_EQ(next_leaf, 6u);

  // Library: each distinct macro built once, instance counts covering all
  // six leaves, everything clean under the exact default budget.
  std::size_t instances = 0;
  for (const MacroBuildReport& m : c.library()) {
    instances += m.instances;
    EXPECT_FALSE(m.degraded());
    EXPECT_GT(m.avg_nodes, 0u);
    EXPECT_GT(m.bound_nodes, 0u);
  }
  EXPECT_EQ(instances, 6u);
  EXPECT_FALSE(c.degraded());
}

TEST(ChipTree, SiblingMacrosShareBlockBusBits) {
  const Chip& c = demo_chip();
  const std::size_t M = c.spec().block_bus_bits;
  for (std::size_t b = 0; b < c.spec().blocks; ++b) {
    std::vector<std::set<std::size_t>> maps;
    for (std::size_t j = 0; j < c.spec().macros_per_block; ++j) {
      const auto& map =
          c.avg_design().instance_input_map(b * c.spec().macros_per_block + j);
      // Every bound bit lies inside this block's bus segment.
      for (const std::size_t bit : map) {
        EXPECT_GE(bit, b * M);
        EXPECT_LT(bit, (b + 1) * M);
      }
      maps.emplace_back(map.begin(), map.end());
    }
    // Overlapping windows: consecutive siblings share at least one bus
    // bit, which both sample from the same stream of the chip trace.
    for (std::size_t j = 1; j < maps.size(); ++j) {
      std::vector<std::size_t> shared;
      std::set_intersection(maps[j - 1].begin(), maps[j - 1].end(),
                            maps[j].begin(), maps[j].end(),
                            std::back_inserter(shared));
      EXPECT_FALSE(shared.empty())
          << "block " << b << " slots " << j - 1 << "," << j;
    }
  }
}

TEST(ChipEvaluator, ComposedNodeTotalsEqualEvaluatorBitwise) {
  const Chip& c = demo_chip();
  const sim::InputSequence trace = demo_trace();
  const ChipTraceResult r = evaluate_trace(c.avg_design(), trace);
  ASSERT_EQ(r.per_instance_ff.size(), c.num_macros());
  EXPECT_EQ(r.transitions, trace.num_transitions());

  // The chip total is defined as the left-fold of the per-leaf totals in
  // leaf order — exactly what subtree_total computes, so root composition
  // reproduces the evaluator's total bitwise, not approximately.
  EXPECT_EQ(c.subtree_total(c.root(), r.per_instance_ff), r.total_ff);

  // Each block's composed total is the same fold over its leaf range.
  for (const std::size_t b : c.root().children) {
    const Chip::Node& block = c.nodes()[b];
    double fold = 0.0;
    for (std::size_t i = 0; i < block.num_leaves; ++i) {
      fold += r.per_instance_ff[block.first_leaf + i];
    }
    EXPECT_EQ(c.subtree_total(block, r.per_instance_ff), fold);
  }
}

TEST(ChipEvaluator, BoundCompositionTighterThanWorstCaseSum) {
  const Chip& c = demo_chip();
  ASSERT_TRUE(c.bound_design().is_upper_bound());
  const sim::InputSequence trace = demo_trace();
  const ChipTraceResult avg = evaluate_trace(c.avg_design(), trace);
  const ChipTraceResult bound = evaluate_trace(c.bound_design(), trace);

  // Conservative per cycle: the composed bound dominates the average
  // composition on the same trace...
  EXPECT_GE(bound.total_ff, avg.total_ff);
  EXPECT_GE(bound.peak_ff, avg.peak_ff);
  // ...yet stays strictly below the loose sum-of-global-worst-cases bound
  // the paper argues against (Section 1.2).
  EXPECT_LT(bound.peak_ff, c.sum_of_worst_cases_ff());
}

TEST(ChipEvaluator, ShardCountNeverChangesTheBits) {
  const Chip& c = demo_chip();
  // Long enough to cross several kTraceChunk boundaries.
  const sim::InputSequence trace = demo_trace(3 * kTraceChunk + 17);
  const ChipTraceResult serial = evaluate_trace(c.avg_design(), trace);
  for (const std::size_t shards : {2u, 3u, 8u}) {
    ThreadPool pool(shards);
    const ChipTraceResult sharded =
        evaluate_trace(c.avg_design(), trace, &pool);
    EXPECT_EQ(sharded.total_ff, serial.total_ff) << shards << " shards";
    EXPECT_EQ(sharded.peak_ff, serial.peak_ff) << shards << " shards";
    EXPECT_EQ(sharded.transitions, serial.transitions);
    ASSERT_EQ(sharded.per_instance_ff.size(), serial.per_instance_ff.size());
    for (std::size_t i = 0; i < serial.per_instance_ff.size(); ++i) {
      EXPECT_EQ(sharded.per_instance_ff[i], serial.per_instance_ff[i]);
    }
  }
}

/// The evaluator's contract spelled out per transition: every instance's
/// estimate_ff on its gathered bus window, summed in transition order
/// within each kTraceChunk chunk and then chunk by chunk; the total folds
/// the per-instance sums in instance order; the peak is the largest cycle
/// total, each folded 0.0 + v_0 + v_1 + ... in instance order.
ChipTraceResult per_transition_reference(const power::RtlDesign& design,
                                         const sim::InputSequence& trace) {
  ChipTraceResult ref;
  ref.transitions = trace.num_transitions();
  ref.per_instance_ff.assign(design.num_instances(), 0.0);
  std::vector<double> chunk_sum(design.num_instances(), 0.0);
  std::vector<std::uint8_t> xi, xf;
  for (std::size_t t = 0; t < ref.transitions; ++t) {
    double cycle = 0.0;
    for (std::size_t i = 0; i < design.num_instances(); ++i) {
      xi.clear();
      xf.clear();
      for (const std::size_t bit : design.instance_input_map(i)) {
        xi.push_back(trace.bit(bit, t) ? 1 : 0);
        xf.push_back(trace.bit(bit, t + 1) ? 1 : 0);
      }
      const double v = design.instance_model(i).estimate_ff(xi, xf);
      chunk_sum[i] += v;
      cycle += v;
    }
    ref.peak_ff = std::max(ref.peak_ff, cycle);
    if ((t + 1) % kTraceChunk == 0 || t + 1 == ref.transitions) {
      for (std::size_t i = 0; i < chunk_sum.size(); ++i) {
        ref.per_instance_ff[i] += chunk_sum[i];
        chunk_sum[i] = 0.0;
      }
    }
  }
  for (const double v : ref.per_instance_ff) ref.total_ff += v;
  return ref;
}

/// A design over the demo bus mixing one ADD leaf with Lin and Con leaves,
/// so the evaluator runs both the packed override of estimate_block and
/// its default per-transition fallback in one chunk. The ADD terminals of
/// the standard library are dyadic, so their sums are exact in any order;
/// the decimal Lin and Con values round, which makes a changed association
/// visible in the totals.
const power::RtlDesign& mixed_design() {
  static const power::RtlDesign d = [] {
    power::AddModelOptions opt;
    opt.max_nodes = 0;
    auto add = std::make_shared<power::AddPowerModel>(
        power::AddPowerModel::build(netlist::gen::ripple_carry_adder(2),
                                    netlist::GateLibrary::standard(), opt));
    auto lin = std::make_shared<power::LinearModel>(
        std::vector<double>{1.1, 3.3, 0.7, 7.9, 2.3});
    auto con = std::make_shared<power::ConstantModel>(4.7, 3);
    power::RtlDesign design;
    design.add_instance("add", add, {0, 1, 2, 3, 4});
    design.add_instance("lin", lin, {3, 9, 4, 15});
    design.add_instance("con", con, {2, 7, 11});
    design.add_instance("add2", add, {10, 11, 12, 13, 14});
    return design;
  }();
  return d;
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(ChipEvaluator, MatchesPerTransitionReferenceBitwise) {
  const Chip& c = demo_chip();
  const std::pair<const char*, const power::RtlDesign*> designs[] = {
      {"avg", &c.avg_design()},
      {"bound", &c.bound_design()},
      {"mixed", &mixed_design()}};
  for (const std::size_t vectors :
       {2u, 64u, 65u, 513u, 1025u, 3u * 1024u + 17u}) {
    const sim::InputSequence trace = demo_trace(vectors);
    for (const auto& [name, design] : designs) {
      const ChipTraceResult ref = per_transition_reference(*design, trace);
      for (const std::size_t shards : {1u, 2u, 3u}) {
        ThreadPool pool(shards);
        const ChipTraceResult r = evaluate_trace(*design, trace, &pool);
        const std::string where = std::string(name) + " vectors " +
                                  std::to_string(vectors) + " shards " +
                                  std::to_string(shards);
        EXPECT_EQ(r.transitions, vectors - 1) << where;
        EXPECT_EQ(bits_of(r.total_ff), bits_of(ref.total_ff)) << where;
        EXPECT_EQ(bits_of(r.peak_ff), bits_of(ref.peak_ff)) << where;
        ASSERT_EQ(r.per_instance_ff.size(), ref.per_instance_ff.size());
        for (std::size_t i = 0; i < ref.per_instance_ff.size(); ++i) {
          EXPECT_EQ(bits_of(r.per_instance_ff[i]),
                    bits_of(ref.per_instance_ff[i]))
              << where << " instance " << i;
        }
      }
    }
  }
}

// A single model over a trace is a one-instance design: with an identity
// input map, and inside one chunk of both loops (so the chunk widths agree),
// chip::evaluate_trace and PowerModel::estimate_trace are the same stream.
TEST(ChipEvaluator, OneInstanceDesignEqualsEstimateTraceBitwise) {
  power::AddModelOptions opt;
  opt.max_nodes = 0;
  const auto add = std::make_shared<power::AddPowerModel>(
      power::AddPowerModel::build(netlist::gen::ripple_carry_adder(2),
                                  netlist::GateLibrary::standard(), opt));
  const std::size_t n = add->num_inputs();
  std::vector<double> coeffs(n + 1);
  for (std::size_t j = 0; j <= n; ++j) {
    coeffs[j] = 0.3 + 1.7 * static_cast<double>(j);
  }
  const auto lin = std::make_shared<power::LinearModel>(coeffs);
  const auto con = std::make_shared<power::ConstantModel>(4.7, n);
  std::vector<std::size_t> identity(n);
  for (std::size_t k = 0; k < n; ++k) identity[k] = k;

  stats::MarkovSequenceGenerator gen({0.5, 0.4}, 0x1e57);
  const sim::InputSequence trace = gen.generate(n, kTraceChunk + 1);
  ASSERT_LE(trace.num_transitions(), kTraceChunk);
  const std::pair<const char*, std::shared_ptr<const power::PowerModel>>
      models[] = {{"add", add}, {"lin", lin}, {"con", con}};
  for (const auto& [name, model] : models) {
    power::RtlDesign design;
    design.add_instance(name, model, identity);
    const power::TraceEstimate single = model->estimate_trace(trace);
    for (const std::size_t shards : {1u, 2u}) {
      ThreadPool pool(shards);
      const ChipTraceResult r = evaluate_trace(design, trace, &pool);
      EXPECT_EQ(r.transitions, single.transitions) << name;
      EXPECT_EQ(bits_of(r.total_ff), bits_of(single.total_ff)) << name;
      EXPECT_EQ(bits_of(r.peak_ff), bits_of(single.peak_ff)) << name;
      ASSERT_EQ(r.per_instance_ff.size(), 1u);
      EXPECT_EQ(bits_of(r.per_instance_ff[0]), bits_of(single.total_ff))
          << name;
    }
  }
}

TEST(ChipBuild, ExpiredDeadlineSurfacesLadderDegradation) {
  ChipBuildOptions options;
  options.deadline_ms = 0;  // already expired: every macro falls back
  const Chip c = build_chip(ChipSpec::parse("2x2x8"), options);
  EXPECT_TRUE(c.degraded());
  for (const MacroBuildReport& m : c.library()) {
    EXPECT_TRUE(m.degraded()) << m.name;
    EXPECT_NE(m.avg_info.outcome, power::BuildOutcome::kClean) << m.name;
  }
  // The degraded chip still evaluates (fallback models are models too).
  stats::MarkovSequenceGenerator gen({0.5, 0.5}, 0x9);
  const sim::InputSequence trace = gen.generate(c.bus_width(), 64);
  const ChipTraceResult r = evaluate_trace(c.avg_design(), trace);
  EXPECT_EQ(r.transitions, 63u);
}

// ---------------------------------------------------------------------------
// Service facade
// ---------------------------------------------------------------------------

service::ChipRequest demo_request() {
  service::ChipRequest request;
  request.spec = "2x3x8";
  request.vectors = 512;
  return request;
}

TEST(ChipService, ReplyMatchesDirectEvaluationBitwise) {
  const service::ChipRequest request = demo_request();
  const service::ChipReply reply = service::evaluate_chip(request);
  EXPECT_EQ(reply.status, service::StatusCode::kOk);
  EXPECT_EQ(reply.spec, "2x3x8");
  EXPECT_EQ(reply.macros, 6u);
  EXPECT_EQ(reply.components, 3u);
  EXPECT_EQ(reply.bus_bits, 16u);
  EXPECT_EQ(reply.transitions, 511u);
  EXPECT_EQ(reply.cache_hits, 0u);
  ASSERT_EQ(reply.blocks.size(), 2u);
  ASSERT_EQ(reply.instances.size(), 6u);

  // The facade is the same recipe as doing it by hand: build the chip,
  // generate the seeded workload at bus width, evaluate both compositions.
  const Chip c = build_chip(ChipSpec::parse(request.spec),
                            service::to_chip_build_options(request));
  stats::MarkovSequenceGenerator gen(request.statistics, request.seed);
  const sim::InputSequence trace = gen.generate(c.bus_width(), request.vectors);
  const ChipTraceResult avg = evaluate_trace(c.avg_design(), trace);
  const ChipTraceResult bound = evaluate_trace(c.bound_design(), trace);
  EXPECT_EQ(reply.total_ff, avg.total_ff);
  EXPECT_EQ(reply.peak_ff, avg.peak_ff);
  EXPECT_EQ(reply.bound_total_ff, bound.total_ff);
  EXPECT_EQ(reply.bound_peak_ff, bound.peak_ff);
  EXPECT_EQ(reply.worst_case_sum_ff, c.sum_of_worst_cases_ff());
  EXPECT_LT(reply.bound_peak_ff, reply.worst_case_sum_ff);

  // Breakdown rows compose back to the totals bitwise (left-fold order).
  double fold = 0.0;
  for (const service::ChipComponentTotal& inst : reply.instances) {
    fold += inst.total_ff;
  }
  EXPECT_EQ(fold, reply.total_ff);
}

TEST(ChipService, ShardingNeverChangesReplyBits) {
  const service::ChipRequest request = demo_request();
  const service::ChipReply serial = service::evaluate_chip(request);
  ThreadPool pool(4);
  const service::ChipReply sharded = service::evaluate_chip(request, &pool);
  EXPECT_EQ(sharded.total_ff, serial.total_ff);
  EXPECT_EQ(sharded.peak_ff, serial.peak_ff);
  EXPECT_EQ(sharded.bound_total_ff, serial.bound_total_ff);
  EXPECT_EQ(sharded.bound_peak_ff, serial.bound_peak_ff);
  ASSERT_EQ(sharded.instances.size(), serial.instances.size());
  for (std::size_t i = 0; i < serial.instances.size(); ++i) {
    EXPECT_EQ(sharded.instances[i].total_ff, serial.instances[i].total_ff);
  }
}

TEST(ChipService, RejectsBadSpecAndWorkload) {
  service::ChipRequest bad_spec = demo_request();
  bad_spec.spec = "not-a-spec";
  EXPECT_THROW(service::evaluate_chip(bad_spec), service::UsageError);

  // Infeasible Markov statistics: same typed error as service::evaluate.
  service::ChipRequest bad_stats = demo_request();
  bad_stats.statistics = {0.1, 0.9};  // st > 2*min(sp, 1-sp)
  EXPECT_THROW(service::evaluate_chip(bad_stats), Error);
}

TEST(ChipService, ExplicitTraceMustSpanTheBus) {
  const service::ChipRequest request = demo_request();
  stats::MarkovSequenceGenerator gen({0.5, 0.5}, 0x5);
  const sim::InputSequence narrow = gen.generate(15, 32);  // bus is 16
  EXPECT_THROW(service::evaluate_chip_trace(request, narrow),
               service::UsageError);

  // One vector makes no transition: rejected before the library build.
  const sim::InputSequence single = gen.generate(16, 1);
  EXPECT_THROW(service::evaluate_chip_trace(request, single),
               service::UsageError);

  const sim::InputSequence wide = gen.generate(16, 32);
  const service::ChipReply reply =
      service::evaluate_chip_trace(request, wide);
  EXPECT_EQ(reply.status, service::StatusCode::kOk);
  EXPECT_EQ(reply.transitions, 31u);
}

TEST(ChipService, DegradedBuildReportsStatusDegraded) {
  service::ChipRequest request;
  request.spec = "2x2x8";
  request.vectors = 64;
  request.deadline_ms = 0;
  const service::ChipReply reply = service::evaluate_chip(request);
  EXPECT_EQ(reply.status, service::StatusCode::kDegraded);
  ASSERT_FALSE(reply.library.empty());
  for (const service::ChipMacroSummary& m : reply.library) {
    EXPECT_NE(m.avg_outcome, power::BuildOutcome::kClean) << m.name;
  }
}

}  // namespace
}  // namespace cfpm::chip
