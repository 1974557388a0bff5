// Workload `chip`: composed-chip trace evaluation on a 2-lane pool.
//
// Set-up builds a 4x6x16 chip (24 macro instances of a generated palette),
// generates the op list's bus traces, and evaluates each serially as the
// reference. One op evaluates the average design and then the bound design
// over one trace with chip::evaluate_trace on the pool; both totals must
// equal the serial ones bitwise.
#include <algorithm>
#include <memory>
#include <vector>

#include "chip/chip.hpp"
#include "chip/evaluator.hpp"
#include "common.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace perfbench {
namespace {

using namespace cfpm;

struct Macro {
  netlist::Netlist netlist;
  std::shared_ptr<const power::PowerModel> avg;
  std::shared_ptr<const power::PowerModel> bound;
};

struct Op {
  sim::InputSequence trace{1, 1};
  chip::ChipTraceResult avg;  ///< serial references
  chip::ChipTraceResult bound;
};

bool same_result(const chip::ChipTraceResult& a,
                 const chip::ChipTraceResult& b) {
  if (!same_bits(a.total_ff, b.total_ff) || !same_bits(a.peak_ff, b.peak_ff) ||
      a.per_instance_ff.size() != b.per_instance_ff.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.per_instance_ff.size(); ++i) {
    if (!same_bits(a.per_instance_ff[i], b.per_instance_ff[i])) return false;
  }
  return true;
}

constexpr std::size_t kTightnessTraces = 8;

class ChipWorkload final : public Workload {
 public:
  explicit ChipWorkload(const Config& c)
      : seed_(c.seed),
        spec_(chip::ChipSpec::parse(c.tiny ? "1x2x8" : "4x6x16")),
        transitions_(c.tiny ? 2048 : 8192),
        traces_(c.tiny ? 2 : 4),
        score_vectors_(c.tiny ? 256 : 10000),
        pool_(2) {}

  void setup() override {
    macros_.clear();
    ops_.clear();
    chip::ModelSource inner = chip::make_model_source(options_);
    // Keep each macro's netlist and models for accuracy and counts.
    chip::ModelSource source = [this, inner](const netlist::Netlist& n,
                                             power::ModelKind kind) {
      chip::SourcedModel sourced = inner(n, kind);
      auto it = std::find_if(macros_.begin(), macros_.end(), [&](const Macro& m) {
        return m.netlist.name() == n.name();
      });
      if (it == macros_.end()) {
        it = macros_.insert(macros_.end(), Macro{n, nullptr, nullptr});
      }
      (kind == power::ModelKind::kAddUpperBound ? it->bound : it->avg) =
          sourced.model;
      return sourced;
    };
    {
      trace::Span span("chip.build");
      chip_ = std::make_unique<chip::Chip>(chip::build_chip(spec_, source));
    }
    if (chip_->degraded()) throw Error("chip set-up: degraded macro library");
    for (std::size_t k = 0; k < traces_; ++k) {
      Op op;
      {
        trace::Span span("stats.gen");
        stats::MarkovSequenceGenerator gen(spread_cell(k, traces_),
                                           derive_seed(seed_, 41, k));
        op.trace = gen.generate(chip_->bus_width(), transitions_ + 1);
      }
      trace::Span span("chip.eval");
      op.avg = chip::evaluate_trace(chip_->avg_design(), op.trace, nullptr);
      op.bound = chip::evaluate_trace(chip_->bound_design(), op.trace, nullptr);
      ops_.push_back(std::move(op));
    }
  }

  std::uint64_t run_pass(Result& r, std::vector<double>* op_ms) override {
    std::uint64_t transitions = 0;
    for (const Op& op : ops_) {
      try {
        Timer t;
        chip::ChipTraceResult avg;
        chip::ChipTraceResult bound;
        {
          trace::Span span("chip.eval");
          avg = chip::evaluate_trace(chip_->avg_design(), op.trace, &pool_);
        }
        {
          trace::Span span("chip.eval");
          bound = chip::evaluate_trace(chip_->bound_design(), op.trace, &pool_);
        }
        if (op_ms != nullptr) op_ms->push_back(1e3 * t.seconds());
        transitions += avg.transitions + bound.transitions;
        r.op(same_result(avg, op.avg) && same_result(bound, op.bound),
             "2-lane chip totals differ from serial totals");
      } catch (const std::exception& e) {
        r.op(false, std::string("chip eval: ") + e.what());
      }
    }
    return transitions;
  }

  void finish(Result& r) override {
    // Accuracy of the macro library on held-out traces (untimed), and the
    // composed bound's peak against the sum of the macros' worst cases.
    const std::vector<stats::InputStatistics> grid = stats::evaluation_grid();
    Accuracy accuracy;
    for (std::size_t i = 0; i < macros_.size(); ++i) {
      Golden golden(macros_[i].netlist, options_.library);
      golden.generate(grid, score_vectors_, derive_seed(seed_, 42, i));
      accuracy.add_average(*macros_[i].avg, golden);
      accuracy.add_bound(*macros_[i].bound, golden);
    }
    // Tightness as `cfpm chip` reports it (10000 vectors at sp = st = 0.5),
    // averaged over several traces to steady the peak.
    double peak = 0.0;
    for (std::size_t k = 0; k < kTightnessTraces; ++k) {
      stats::MarkovSequenceGenerator gen({0.5, 0.5}, derive_seed(seed_, 43, k));
      const sim::InputSequence trace =
          gen.generate(chip_->bus_width(), score_vectors_);
      peak += chip::evaluate_trace(chip_->bound_design(), trace, &pool_).peak_ff;
    }
    accuracy.set_tightness(peak / static_cast<double>(kTightnessTraces) /
                           chip_->sum_of_worst_cases_ff());
    accuracy.write(r.accuracy);
  }

  void counts(Result& r) override {
    std::vector<std::shared_ptr<const power::PowerModel>> models;
    for (const Macro& m : macros_) {
      models.push_back(m.avg);
      models.push_back(m.bound);
    }
    add_model_counts(models, r);
    const double per_op = static_cast<double>(transitions_);
    const double designs = 2.0 * static_cast<double>(ops_.size());
    r.counts["stats.bits"] = static_cast<double>(
        chip_->bus_width() * (transitions_ + 1) * ops_.size());
    r.counts["chip.instance_evals"] =
        designs * per_op * static_cast<double>(chip_->num_macros());
    r.counts["chip.chunks"] =
        designs * static_cast<double>((transitions_ + chip::kTraceChunk - 1) /
                                      chip::kTraceChunk);
  }

 private:
  std::uint64_t seed_;
  chip::ChipSpec spec_;
  std::size_t transitions_;
  std::size_t traces_;
  std::size_t score_vectors_;
  chip::ChipBuildOptions options_;
  ThreadPool pool_;
  std::unique_ptr<chip::Chip> chip_;
  std::vector<Macro> macros_;
  std::vector<Op> ops_;
};

}  // namespace

std::unique_ptr<Workload> make_chip_workload(const Config& c) {
  return std::make_unique<ChipWorkload>(c);
}

}  // namespace perfbench
