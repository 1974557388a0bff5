// Workload `build`: serial Fig. 6 builds of the Table-1 circuits.
//
// Set-up generates the netlists and, for every evaluation-grid cell, a
// held-out Markov trace per circuit with its golden gate-level energy. One
// op is one service::build (rich form, build_threads = 1) of a circuit at
// its average or its upper-bound MAX; the pass runs every op, then scores
// every model on the held-out traces. Untimed after the pass, every bound
// model is checked against the golden energy of every scored transition.
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

class BuildWorkload final : public Workload {
 public:
  explicit BuildWorkload(const Config& c)
      : seed_(c.seed),
        vectors_(c.tiny ? 256 : 2000),
        grid_(stats::evaluation_grid()) {
    for (const Circuit& circuit : table1_circuits()) {
      if (!c.tiny || circuit.name == std::string("cmb") ||
          circuit.name == std::string("decod")) {
        circuits_.push_back(circuit);
      }
    }
    if (c.tiny) grid_.resize(4);
  }

  void setup() override {
    golden_.clear();
    const netlist::GateLibrary lib = experiment_library();
    for (std::size_t i = 0; i < circuits_.size(); ++i) {
      netlist::Netlist n;
      {
        trace::Span span("netlist.gen");
        n = netlist::gen::mcnc_like(circuits_[i].name);
      }
      golden_.push_back(std::make_unique<Golden>(std::move(n), lib));
      golden_.back()->generate(grid_, vectors_, derive_seed(seed_, 10, i));
    }
  }

  std::uint64_t run_pass(Result& r, std::vector<double>* op_ms) override {
    avg_.assign(circuits_.size(), nullptr);
    bound_.assign(circuits_.size(), nullptr);
    power::ModelOptions options;
    options.library = experiment_library();
    options.add.build_threads = 1;
    for (std::size_t i = 0; i < circuits_.size(); ++i) {
      for (const bool bound : {false, true}) {
        options.add.max_nodes =
            bound ? circuits_[i].bound_max : circuits_[i].avg_max;
        const power::ModelKind kind = bound ? power::ModelKind::kAddUpperBound
                                            : power::ModelKind::kAddAverage;
        const std::string what = std::string(circuits_[i].name) +
                                 (bound ? " bound" : " avg") + " build";
        try {
          Timer t;
          service::BuildReply reply;
          {
            trace::Span span("bench.service.build");
            reply = service::build(golden_[i]->netlist, kind, options);
          }
          if (op_ms != nullptr) op_ms->push_back(1e3 * t.seconds());
          r.op(reply.status == service::StatusCode::kOk &&
                   reply.build_info.outcome == power::BuildOutcome::kClean,
               what + ": not clean");
          (bound ? bound_ : avg_)[i] = reply.model;
        } catch (const std::exception& e) {
          r.op(false, what + ": " + e.what());
        }
      }
    }
    // Score every model on the held-out traces.
    accuracy_ = Accuracy();
    std::uint64_t transitions = 0;
    for (std::size_t i = 0; i < circuits_.size(); ++i) {
      if (avg_[i]) accuracy_.add_average(*avg_[i], *golden_[i]);
      if (bound_[i]) accuracy_.add_bound(*bound_[i], *golden_[i]);
      transitions += 2 * grid_.size() * (vectors_ - 1);
    }
    return transitions;
  }

  void verify_pass(Result& r) override {
    for (std::size_t i = 0; i < circuits_.size(); ++i) {
      if (!bound_[i]) continue;
      const std::size_t bad = bound_violations(*bound_[i], *golden_[i]);
      if (bad != 0) {
        r.fail(std::string(circuits_[i].name) + " bound undercuts golden on " +
               std::to_string(bad) + " transitions");
      }
    }
  }

  void finish(Result& r) override { accuracy_.write(r.accuracy); }

  void counts(Result& r) override {
    std::vector<std::shared_ptr<const power::PowerModel>> models = avg_;
    models.insert(models.end(), bound_.begin(), bound_.end());
    add_model_counts(models, r);
    double bits = 0.0;
    for (const auto& g : golden_) {
      bits += static_cast<double>(g->netlist.num_inputs() * vectors_ *
                                  grid_.size());
    }
    r.counts["stats.bits"] = bits;
  }

 private:
  std::uint64_t seed_;
  std::size_t vectors_;
  std::vector<stats::InputStatistics> grid_;
  std::vector<Circuit> circuits_;
  std::vector<std::unique_ptr<Golden>> golden_;
  std::vector<std::shared_ptr<const power::PowerModel>> avg_;
  std::vector<std::shared_ptr<const power::PowerModel>> bound_;
  Accuracy accuracy_;
};

}  // namespace

std::unique_ptr<Workload> make_build_workload(const Config& c) {
  return std::make_unique<BuildWorkload>(c);
}

}  // namespace perfbench
