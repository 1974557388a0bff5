// Workload `estimate`: in-process service::evaluate, serial, no pool.
//
// Set-up builds the cmb and alu4 average models and computes the reference
// result of every request of the op list: the same Markov trace generated
// directly and evaluated with estimate_trace. One op is one 100k-vector
// (sp, st) request; its total must equal the reference bitwise.
#include <memory>
#include <vector>

#include "common.hpp"
#include "netlist/generators.hpp"
#include "serve/service.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace perfbench {
namespace {

using namespace cfpm;

struct Target {
  Circuit circuit;
  netlist::Netlist netlist;
  std::shared_ptr<const power::PowerModel> avg;
};

struct Request {
  std::size_t target = 0;
  service::EvalRequest request;
  double reference_ff = 0.0;
};

class EstimateWorkload final : public Workload {
 public:
  explicit EstimateWorkload(const Config& c)
      : seed_(c.seed),
        vectors_(c.tiny ? 2000 : 100000),
        requests_(c.tiny ? 4 : 16),
        score_vectors_(c.tiny ? 256 : 2000) {}

  void setup() override {
    targets_.clear();
    requests_list_.clear();
    power::ModelOptions options;
    options.library = experiment_library();
    for (const Circuit& circuit : table1_circuits()) {
      const std::string name = circuit.name;
      if (name != "cmb" && name != "alu4") continue;
      Target t{circuit, {}, nullptr};
      {
        trace::Span span("netlist.gen");
        t.netlist = netlist::gen::mcnc_like(circuit.name);
      }
      options.add.max_nodes = circuit.avg_max;
      service::BuildReply reply;
      {
        trace::Span span("bench.service.build");
        reply = service::build(t.netlist, power::ModelKind::kAddAverage,
                               options);
      }
      t.avg = reply.model;
      targets_.push_back(std::move(t));
    }
    for (std::size_t k = 0; k < requests_; ++k) {
      Request q;
      q.target = k % targets_.size();
      q.request.statistics = spread_cell(k, requests_);
      q.request.vectors = vectors_;
      q.request.seed = derive_seed(seed_, 21, k);
      const power::PowerModel& model = *targets_[q.target].avg;
      sim::InputSequence seq(1, 1);
      {
        trace::Span span("stats.gen");
        stats::MarkovSequenceGenerator gen(q.request.statistics,
                                           q.request.seed);
        seq = gen.generate(model.num_inputs(), q.request.vectors);
      }
      q.reference_ff = model.estimate_trace(seq).total_ff;
      requests_list_.push_back(q);
    }
  }

  std::uint64_t run_pass(Result& r, std::vector<double>* op_ms) override {
    std::uint64_t transitions = 0;
    for (const Request& q : requests_list_) {
      const std::string what =
          "estimate " + targets_[q.target].netlist.name() + " seed " +
          std::to_string(q.request.seed);
      try {
        Timer t;
        service::EvalReply reply;
        {
          trace::Span span("bench.service.evaluate");
          reply = service::evaluate(*targets_[q.target].avg, q.request);
        }
        if (op_ms != nullptr) op_ms->push_back(1e3 * t.seconds());
        transitions += reply.transitions;
        r.op(reply.status == service::StatusCode::kOk &&
                 reply.transitions + 1 == q.request.vectors &&
                 same_bits(reply.total_ff, q.reference_ff),
             what + ": reply differs from direct estimate_trace");
      } catch (const std::exception& e) {
        r.op(false, what + ": " + e.what());
      }
    }
    return transitions;
  }

  void finish(Result& r) override {
    // Accuracy of the served models, and of upper-bound twins at the same
    // MAX, on held-out traces over the grid (untimed).
    const std::vector<stats::InputStatistics> grid = stats::evaluation_grid();
    const netlist::GateLibrary lib = experiment_library();
    power::ModelOptions options;
    options.library = lib;
    Accuracy accuracy;
    for (std::size_t i = 0; i < targets_.size(); ++i) {
      options.add.max_nodes = targets_[i].circuit.avg_max;
      Golden golden(targets_[i].netlist, lib);
      golden.generate(grid, score_vectors_, derive_seed(seed_, 22, i));
      accuracy.add_average(*targets_[i].avg, golden);
      const service::BuildReply bound = service::build(
          targets_[i].netlist, power::ModelKind::kAddUpperBound, options);
      accuracy.add_bound(*bound.model, golden);
    }
    accuracy.write(r.accuracy);
  }

  void counts(Result& r) override {
    std::vector<std::shared_ptr<const power::PowerModel>> models;
    double bits = 0.0;
    for (const Target& t : targets_) models.push_back(t.avg);
    for (const Request& q : requests_list_) {
      // Generated once for the reference and once by the op.
      bits += 2.0 * static_cast<double>(
                        targets_[q.target].netlist.num_inputs() * vectors_);
    }
    add_model_counts(models, r);
    r.counts["stats.bits"] = bits;
  }

 private:
  std::uint64_t seed_;
  std::size_t vectors_;
  std::size_t requests_;
  std::size_t score_vectors_;
  std::vector<Target> targets_;
  std::vector<Request> requests_list_;
};

}  // namespace

std::unique_ptr<Workload> make_estimate_workload(const Config& c) {
  return std::make_unique<EstimateWorkload>(c);
}

}  // namespace perfbench
