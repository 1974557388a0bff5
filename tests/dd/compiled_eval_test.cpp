// Compiled flat-array evaluation: randomized equivalence against the
// ref-counted node walk, snapshot independence from the manager, and
// bit-exact determinism of estimate_trace across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dd/compiled.hpp"
#include "dd/manager.hpp"
#include "netlist/generators.hpp"
#include "netlist/library.hpp"
#include "power/add_model.hpp"
#include "power/baselines.hpp"
#include "stats/markov.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace cfpm {
namespace {

using dd::CompiledDd;

power::AddPowerModel random_model(int index) {
  netlist::gen::RandomLogicSpec spec;
  spec.name = "compiled_rt" + std::to_string(index);
  spec.num_inputs = 6 + index % 7;  // 6..12 inputs -> 12..24 variables
  spec.num_outputs = 2 + index % 3;
  spec.target_gates = 16 + 2 * index;
  spec.window = 6;
  spec.seed = 7000 + static_cast<std::uint64_t>(index);
  const netlist::Netlist n = netlist::gen::random_logic(spec);

  power::AddModelOptions opt;
  // Mix exact and approximated models, both collapse strategies.
  opt.max_nodes = (index % 2 == 0) ? 0 : 60;
  opt.mode = (index % 4 < 2) ? dd::ApproxMode::kAverage
                             : dd::ApproxMode::kUpperBound;
  return power::AddPowerModel::build(n, netlist::GateLibrary::standard(), opt);
}

TEST(CompiledEval, MatchesNodeWalkOnRandomNetlistAdds) {
  Xoshiro256 rng(0xc0317ed);
  for (int c = 0; c < 20; ++c) {
    const power::AddPowerModel model = random_model(c);
    const dd::Add& f = model.function();
    const CompiledDd& compiled = model.compiled();
    const std::size_t nv = 2 * model.num_inputs();

    constexpr std::size_t kPatterns = 10000;
    std::vector<std::uint8_t> assignments(kPatterns * nv);
    for (std::uint8_t& b : assignments) {
      b = static_cast<std::uint8_t>(rng.next() & 1u);
    }
    // Scalar walk equivalence, bit for bit.
    for (std::size_t p = 0; p < kPatterns; ++p) {
      std::span<const std::uint8_t> a(assignments.data() + p * nv, nv);
      ASSERT_EQ(compiled.eval(a), f.eval(a))
          << "circuit " << c << " pattern " << p;
    }
    // Bit-parallel (kPackedGroups x 64 assignments per call) equivalence,
    // including the ragged tail block (kPatterns % 512 == 272).
    constexpr std::size_t W = CompiledDd::kPackedGroups;
    std::vector<std::uint64_t> bits(W * nv);
    std::vector<std::uint64_t> scratch;
    double packed_out[64 * W];
    for (std::size_t base = 0; base < kPatterns; base += 64 * W) {
      const std::size_t m = std::min<std::size_t>(64 * W, kPatterns - base);
      std::fill(bits.begin(), bits.end(), 0);
      for (std::size_t v = 0; v < nv; ++v) {
        for (std::size_t k = 0; k < m; ++k) {
          bits[W * v + k / 64] |=
              static_cast<std::uint64_t>(assignments[(base + k) * nv + v])
              << (k % 64);
        }
      }
      compiled.eval_packed_wide(bits.data(), m, packed_out, scratch);
      for (std::size_t k = 0; k < m; ++k) {
        std::span<const std::uint8_t> a(assignments.data() + (base + k) * nv,
                                        nv);
        ASSERT_EQ(packed_out[k], f.eval(a))
            << "circuit " << c << " pattern " << base + k;
      }
    }
  }
}

// A diagram too large for one full-width sweep is swept sweep_groups()
// groups at a time; the last block of a call then holds fewer live groups
// than the block width. Exact pcle compiles to ~5.6k nodes, so blocks are
// 4 groups wide, and 7 groups leave a tail block of 3 (the last of them
// partially filled).
TEST(CompiledEval, BlockedSweepWithRaggedTailMatchesEval) {
  const netlist::Netlist n = netlist::gen::mcnc_like("pcle");
  power::AddModelOptions opt;
  opt.max_nodes = 0;
  const power::AddPowerModel model =
      power::AddPowerModel::build(n, netlist::GateLibrary::standard(), opt);
  const CompiledDd& compiled = model.compiled();
  ASSERT_GT(compiled.num_nodes(), 4096u);
  const std::size_t block = compiled.sweep_groups();
  ASSERT_EQ(block, 4u);

  constexpr std::size_t W = CompiledDd::kPackedGroups;
  const std::size_t nv = 2 * model.num_inputs();
  Xoshiro256 rng(0x7a11);
  std::vector<std::uint64_t> bits(W * nv);
  for (std::uint64_t& w : bits) w = rng.next();
  std::vector<std::uint64_t> scratch;
  std::vector<std::uint8_t> a(nv);
  // 7 groups (tail block 3 of 4), 8 (two full blocks), 5 (tail 1 of 4),
  // then 7 again through the same scratch after the wider calls.
  const std::size_t counts[] = {64 * 6 + 37, 64 * W, 64 * 4 + 1, 64 * 6 + 37};
  for (const std::size_t count : counts) {
    const std::size_t groups = (count + 63) / 64;
    SCOPED_TRACE("count " + std::to_string(count) + ", block " +
                 std::to_string(block) + ", tail block live groups " +
                 std::to_string((groups - 1) % block + 1));
    std::vector<double> out(64 * W, -1.0);
    compiled.eval_packed_wide(bits.data(), count, out.data(), scratch);
    for (std::size_t k = 0; k < count; ++k) {
      for (std::size_t v = 0; v < nv; ++v) {
        a[v] = static_cast<std::uint8_t>((bits[W * v + k / 64] >> (k % 64)) & 1);
      }
      ASSERT_EQ(out[k], compiled.eval(a)) << "lane " << k;
    }
    // Lanes past `count` are never written.
    for (std::size_t k = count; k < out.size(); ++k) {
      ASSERT_EQ(out[k], -1.0) << "lane " << k;
    }
  }
}

TEST(CompiledEval, HandlesConstantsAndBdds) {
  dd::DdManager mgr(4);
  const CompiledDd c = CompiledDd::compile(mgr.constant(2.5));
  EXPECT_EQ(c.num_internal_nodes(), 0u);
  EXPECT_EQ(c.depth(), 0u);
  const std::vector<std::uint8_t> empty;
  EXPECT_EQ(c.eval(empty), 2.5);

  const dd::Bdd f = (mgr.bdd_var(0) & mgr.bdd_var(1)) | mgr.bdd_var(3);
  const CompiledDd cb = CompiledDd::compile(f);
  std::vector<std::uint8_t> a(4);
  for (unsigned bits = 0; bits < 16; ++bits) {
    for (unsigned v = 0; v < 4; ++v) a[v] = (bits >> v) & 1u;
    EXPECT_EQ(cb.eval(a) != 0.0, f.eval(a)) << "bits " << bits;
  }
}

TEST(CompiledEval, SnapshotSurvivesManagerGcAndReordering) {
  dd::DdManager mgr(6);
  dd::Add f = mgr.constant(0.0);
  for (std::uint32_t i = 0; i < 6; ++i) {
    f = f + dd::Add(mgr.bdd_var(i)).times(1.0 + i);
  }
  std::vector<std::uint8_t> a(6, 1);
  const double expected = f.eval(a);

  const CompiledDd compiled = CompiledDd::compile(f);
  // Invalidate everything the snapshot could have pointed into: drop the
  // handle, churn the manager, sweep, and reorder.
  f = dd::Add();
  for (int round = 0; round < 3; ++round) {
    dd::Bdd junk = mgr.bdd_var(0) ^ mgr.bdd_var(5);
    (void)junk;
  }
  mgr.collect_garbage();
  mgr.sift();
  EXPECT_EQ(compiled.eval(a), expected);
}

/// The scalar estimate_ff loop with estimate_trace's association: values
/// summed in transition order within each kTraceChunk chunk, chunk sums
/// folded in chunk order, peak the largest value.
power::TraceEstimate scalar_trace_reference(const power::PowerModel& model,
                                            const sim::InputSequence& seq) {
  const std::size_t n = model.num_inputs();
  const std::size_t transitions = seq.num_transitions();
  power::TraceEstimate manual;
  manual.transitions = transitions;
  std::vector<std::uint8_t> xi(n), xf(n);
  for (std::size_t begin = 0; begin < transitions;
       begin += power::PowerModel::kTraceChunk) {
    const std::size_t end =
        std::min(begin + power::PowerModel::kTraceChunk, transitions);
    double total = 0.0, peak = 0.0;
    seq.vector_at(begin, xi);
    for (std::size_t t = begin; t < end; ++t) {
      seq.vector_at(t + 1, xf);
      const double v = model.estimate_ff(xi, xf);
      total += v;
      peak = std::max(peak, v);
      xi.swap(xf);
    }
    manual.total_ff += total;
    manual.peak_ff = std::max(manual.peak_ff, peak);
  }
  return manual;
}

TEST(CompiledEval, EstimateTraceBitIdenticalAcrossThreadCounts) {
  const power::AddPowerModel model = random_model(13);
  const std::size_t n = model.num_inputs();
  stats::MarkovSequenceGenerator gen({0.5, 0.5}, 0x7ace);
  // > 2 chunks so the ordered reduction actually reduces.
  const sim::InputSequence seq =
      gen.generate(n, 2 * power::PowerModel::kTraceChunk + 1000);

  const power::TraceEstimate serial = model.estimate_trace(seq);
  ThreadPool pool2(2), pool8(8);
  const power::TraceEstimate t2 = model.estimate_trace(seq, &pool2);
  const power::TraceEstimate t8 = model.estimate_trace(seq, &pool8);
  EXPECT_EQ(serial.total_ff, t2.total_ff);
  EXPECT_EQ(serial.total_ff, t8.total_ff);
  EXPECT_EQ(serial.peak_ff, t2.peak_ff);
  EXPECT_EQ(serial.peak_ff, t8.peak_ff);

  // The batched result must equal the scalar estimate_ff path exactly
  // (same chunk boundaries, same in-chunk order, same reduction).
  const power::TraceEstimate manual = scalar_trace_reference(model, seq);
  EXPECT_EQ(serial.total_ff, manual.total_ff);
  EXPECT_EQ(serial.peak_ff, manual.peak_ff);
}

// Con, ConBound and Lin have no batch override of their own: their traces
// run estimate_block's estimate_ff default inside the shared trace loop,
// and this is the contract that makes that exact.
TEST(CompiledEval, BaselineTracesBitIdenticalAcrossThreadCounts) {
  const std::size_t n = 9;
  stats::MarkovSequenceGenerator gen({0.4, 0.3}, 0xba5e);
  // Three full chunks plus a ragged tail.
  const sim::InputSequence seq =
      gen.generate(n, 3 * power::PowerModel::kTraceChunk + 78);

  std::vector<double> coeffs(n + 1);
  for (std::size_t j = 0; j <= n; ++j) {
    coeffs[j] = 0.37 * static_cast<double>(j + 1);
  }
  const power::LinearModel lin(coeffs);
  const power::ConstantModel con(4.125, n);
  const power::ConstantBoundModel con_bound(9.3, n);

  ThreadPool pool1(1), pool2(2), pool8(8);
  for (const power::PowerModel* m :
       {static_cast<const power::PowerModel*>(&lin),
        static_cast<const power::PowerModel*>(&con),
        static_cast<const power::PowerModel*>(&con_bound)}) {
    const power::TraceEstimate ref = scalar_trace_reference(*m, seq);
    const power::TraceEstimate serial = m->estimate_trace(seq);
    EXPECT_EQ(serial.transitions, ref.transitions) << m->name();
    EXPECT_EQ(serial.total_ff, ref.total_ff) << m->name();
    EXPECT_EQ(serial.peak_ff, ref.peak_ff) << m->name();
    for (ThreadPool* pool : {&pool1, &pool2, &pool8}) {
      const power::TraceEstimate est = m->estimate_trace(seq, pool);
      EXPECT_EQ(est.total_ff, ref.total_ff)
          << m->name() << " lanes " << pool->num_threads();
      EXPECT_EQ(est.peak_ff, ref.peak_ff)
          << m->name() << " lanes " << pool->num_threads();
    }
  }
}

// A model without a batch override exercises the default estimate_ff loop.
class ToyQuadraticModel final : public power::PowerModel {
 public:
  std::string name() const override { return "Toy"; }
  std::size_t num_inputs() const override { return 5; }
  double worst_case_ff() const override { return 25.0; }
  double estimate_ff(std::span<const std::uint8_t> xi,
                     std::span<const std::uint8_t> xf) const override {
    double toggles = 0.0;
    for (std::size_t j = 0; j < xi.size(); ++j) {
      if ((xi[j] != 0) != (xf[j] != 0)) toggles += 1.0;
    }
    return toggles * toggles;
  }
};

TEST(CompiledEval, DefaultEstimateTraceDeterministicAndMatchesAverageOver) {
  const ToyQuadraticModel model;
  stats::MarkovSequenceGenerator gen({0.5, 0.5}, 0x70facade);
  const sim::InputSequence seq =
      gen.generate(5, 2 * power::PowerModel::kTraceChunk + 17);

  const power::TraceEstimate serial = model.estimate_trace(seq);
  ThreadPool pool8(8);
  const power::TraceEstimate t8 = model.estimate_trace(seq, &pool8);
  EXPECT_EQ(serial.total_ff, t8.total_ff);
  EXPECT_EQ(serial.peak_ff, t8.peak_ff);
  EXPECT_EQ(model.average_over(seq), serial.average_ff());
  EXPECT_EQ(model.peak_over(seq), serial.peak_ff);
}

}  // namespace
}  // namespace cfpm
