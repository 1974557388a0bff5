#include "power/add_model.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "dd/serialize.hpp"
#include "dd/stats.hpp"
#include "support/assert.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace cfpm::power {

using netlist::Netlist;
using netlist::SignalId;

namespace {

std::uint32_t map_var(VariableOrder order, std::uint32_t input, bool final_copy,
                      std::size_t num_inputs) {
  switch (order) {
    case VariableOrder::kInterleaved:
      return 2 * input + (final_copy ? 1u : 0u);
    case VariableOrder::kBlocked:
      return input + (final_copy ? static_cast<std::uint32_t>(num_inputs) : 0u);
  }
  CFPM_UNREACHABLE("bad VariableOrder");
}

}  // namespace

/// Implements the iterative construction loop of Fig. 6.
class SymbolicBuilder {
 public:
  SymbolicBuilder(const Netlist& n, std::span<const double> loads,
                  const AddModelOptions& options)
      : n_(n), loads_(loads), options_(options) {}

  AddPowerModel run() {
    Timer timer;
    const std::size_t num_inputs = n_.num_inputs();
    CFPM_REQUIRE(num_inputs >= 1);
    CFPM_REQUIRE(loads_.size() == n_.num_signals());

    auto mgr = std::make_shared<dd::DdManager>(2 * num_inputs,
                                               options_.dd_config);
    AddModelBuildInfo info;

    // Node functions of every signal, in both variable spaces, built in one
    // topological pass. BDDs of signals whose fan-outs have all been
    // consumed are released to bound memory.
    std::vector<dd::Bdd> g_i(n_.num_signals());
    std::vector<dd::Bdd> g_f(n_.num_signals());
    std::vector<std::uint32_t> pending_uses(n_.num_signals(), 0);
    for (SignalId s = 0; s < n_.num_signals(); ++s) {
      for (SignalId f : n_.fanins(s)) ++pending_uses[f];
    }

    dd::Add total = mgr->constant(0.0);

    // During construction the partial sum is kept under a slackened cap;
    // the tight budget is enforced only after reordering, so early
    // collapses (made under a possibly poor variable order) cannot lock in
    // large errors. When the cap is first exceeded we try sifting before
    // collapsing -- CUDD's automatic dynamic reordering plays the same
    // role in the paper's flow.
    const std::size_t inner_cap =
        options_.max_nodes == 0 ? 0 : options_.max_nodes * 64;
    std::size_t sift_trigger =
        options_.max_nodes == 0 ? 0 : options_.max_nodes * 32;

    auto release_if_done = [&](SignalId s) {
      if (pending_uses[s] == 0) {
        g_i[s] = dd::Bdd();
        g_f[s] = dd::Bdd();
      }
    };

    cfpm::Governor* governor = options_.dd_config.governor.get();
    for (SignalId s = 0; s < n_.num_signals(); ++s) {
      // Per-gate safe point: between gate contributions every handle is
      // consistent, so this is the cheapest place to stop a whole build.
      if (governor != nullptr) governor->checkpoint();
      const auto& sig = n_.signal(s);
      if (sig.is_input) {
        const std::uint32_t idx = n_.input_index(s);
        g_i[s] = mgr->bdd_var(
            map_var(options_.order, idx, false, num_inputs));
        g_f[s] = mgr->bdd_var(
            map_var(options_.order, idx, true, num_inputs));
        continue;
      }
      g_i[s] = build_gate(*mgr, sig.type, s, g_i);
      g_f[s] = build_gate(*mgr, sig.type, s, g_f);

      // deltaC = NOT(g(x^i)) AND g(x^f), weighted by the load (Fig. 6).
      dd::Bdd rising = (!g_i[s]) & g_f[s];
      dd::Add delta = dd::Add(rising).times(loads_[s]);
      rising = dd::Bdd();
      if (options_.delta_max_nodes != 0 &&
          delta.size() > options_.delta_max_nodes) {
        delta = dd::approximate_to(delta, options_.delta_max_nodes,
                                   options_.mode);
        ++info.approximations;
      }
      total = total + delta;
      if (options_.approximate_during_construction && inner_cap != 0) {
        if (options_.reorder_passes > 0 && total.size() > sift_trigger) {
          mgr->sift();
          ++info.reorder_runs;
          // Re-sift only once the diagram outgrows this result noticeably.
          sift_trigger = std::max(sift_trigger, 2 * total.size());
        }
        if (total.size() > inner_cap) {
          total = dd::approximate_to(total, inner_cap, options_.mode);
          ++info.approximations;
        }
      }
      // Per-gate ADD size trajectory: after each gate's deltaC is summed,
      // the manager's live-node count is the O(1) proxy for the partial
      // sum's growth over the construction.
      static const metrics::Counter c_gate("power.build.gate.summed");
      static const metrics::Histogram h_live("power.build.gate.live");
      c_gate.add();
      h_live.observe(mgr->live_nodes());
      info.peak_live_nodes = std::max(info.peak_live_nodes, mgr->live_nodes());

      // Fan-in BDDs may now be releasable.
      for (SignalId f : n_.fanins(s)) {
        CFPM_ASSERT(pending_uses[f] > 0);
        --pending_uses[f];
        release_if_done(f);
      }
      // A gate with no fan-outs (e.g. a primary output) is only needed for
      // its own deltaC, which we just added.
      release_if_done(s);
    }
    g_i.clear();
    g_f.clear();
    mgr->collect_garbage();

    // Reorder, then enforce the budget on the (often already small enough)
    // exact function.
    if (options_.max_nodes != 0 && total.size() > options_.max_nodes) {
      for (unsigned pass = 0; pass < options_.reorder_passes; ++pass) {
        if (mgr->sift() == 0) break;  // converged
      }
      ++info.reorder_runs;
    }
    if (options_.max_nodes != 0 && total.size() > options_.max_nodes) {
      total = dd::approximate_to(total, options_.max_nodes, options_.mode);
      ++info.approximations;
    }
    mgr->collect_garbage();

    info.build_seconds = timer.seconds();
    info.exact_if_zero = info.approximations;

    AddPowerModel model(std::move(mgr), std::move(total), num_inputs,
                        options_.order, options_.mode, n_.name());
    model.build_info_ = info;
    return model;
  }

 private:
  dd::Bdd build_gate(dd::DdManager& mgr, netlist::GateType type, SignalId s,
                     const std::vector<dd::Bdd>& env) {
    using netlist::GateType;
    const auto fanins = n_.fanins(s);
    switch (type) {
      case GateType::kConst0:
        return mgr.bdd_zero();
      case GateType::kConst1:
        return mgr.bdd_one();
      case GateType::kBuf:
        return env[fanins[0]];
      case GateType::kNot:
        return !env[fanins[0]];
      default:
        break;
    }
    dd::Bdd acc = env[fanins[0]];
    for (std::size_t k = 1; k < fanins.size(); ++k) {
      const dd::Bdd& next = env[fanins[k]];
      switch (type) {
        case GateType::kAnd:
        case GateType::kNand:
          acc = acc & next;
          break;
        case GateType::kOr:
        case GateType::kNor:
          acc = acc | next;
          break;
        case GateType::kXor:
        case GateType::kXnor:
          acc = acc ^ next;
          break;
        default:
          CFPM_UNREACHABLE("gate type");
      }
    }
    if (type == GateType::kNand || type == GateType::kNor ||
        type == GateType::kXnor) {
      acc = !acc;
    }
    return acc;
  }

  const Netlist& n_;
  std::span<const double> loads_;
  const AddModelOptions& options_;
};

// ---------------------------------------------------------------------------

AddPowerModel::AddPowerModel(std::shared_ptr<dd::DdManager> mgr,
                             dd::Add function, std::size_t num_inputs,
                             VariableOrder order, dd::ApproxMode mode,
                             std::string circuit_name)
    : mgr_(std::move(mgr)),
      function_(std::move(function)),
      compiled_(std::make_shared<const dd::CompiledDd>(
          dd::CompiledDd::compile(function_))),
      num_inputs_(num_inputs),
      order_(order),
      mode_(mode),
      circuit_name_(std::move(circuit_name)) {}

/// Last rung of the ladder: a constant (Con-style) estimator that can be
/// built with a handful of nodes and no budget pressure. In upper-bound
/// mode the constant is the total driven load — every transition can switch
/// at most every gate once, so the result stays a true conservative bound.
/// In average mode it is total_load / 4: under uniform independent inputs a
/// balanced gate output rises with probability 1/4, so this is the Eq. 6
/// average of the balanced-gate approximation of the circuit.
AddPowerModel AddPowerModel::constant_fallback(const Netlist& n,
                                               std::span<const double> loads,
                                               const AddModelOptions& options) {
  double total_load = 0.0;
  for (SignalId s = 0; s < n.num_signals(); ++s) {
    if (!n.signal(s).is_input) total_load += loads[s];
  }
  const double value = options.mode == dd::ApproxMode::kUpperBound
                           ? total_load
                           : 0.25 * total_load;
  // No governor and no cap: three nodes always fit, and an expired deadline
  // must not be able to stop the surrender rung.
  auto mgr = std::make_shared<dd::DdManager>(2 * n.num_inputs());
  dd::Add constant = mgr->constant(value);
  return AddPowerModel(std::move(mgr), std::move(constant), n.num_inputs(),
                       options.order, options.mode, n.name());
}

AddPowerModel AddPowerModel::build(const Netlist& n,
                                   std::span<const double> loads_ff,
                                   const AddModelOptions& options) {
  CFPM_TRACE_SPAN("power.build");
  static const metrics::Counter c_attempt("power.build.attempt");
  static const metrics::Counter c_rung("power.build.rung");
  static const metrics::Counter c_fallback("power.build.fallback");
  Timer ladder_timer;
  AddModelOptions effective = options;
  std::vector<BuildRung> rungs;
  std::size_t attempts = 0;
  const std::size_t floor = std::max<std::size_t>(options.degrade_floor, 1);

  auto finish = [&](AddPowerModel model, BuildOutcome outcome) {
    c_rung.add(rungs.size());
    model.build_info_.outcome = outcome;
    model.build_info_.rungs = std::move(rungs);
    model.build_info_.attempts = attempts;
    model.build_info_.build_seconds = ladder_timer.seconds();
    return model;
  };

  for (;;) {
    ++attempts;
    c_attempt.add();
    try {
      SymbolicBuilder builder(n, loads_ff, effective);
      return finish(builder.run(), rungs.empty() ? BuildOutcome::kClean
                                                 : BuildOutcome::kDegraded);
    } catch (const CancelledError&) {
      throw;  // cancellation means stop, not degrade
    } catch (const DeadlineExceeded& e) {
      if (!options.degrade) throw;
      // No time left for a retry of any size; surrender immediately.
      rungs.push_back({"fallback-constant", e.what(), 0});
      break;
    } catch (const ResourceError& e) {
      if (!options.degrade) throw;
      if (!effective.approximate_during_construction) {
        // Rung 1: the paper's own remedy — approximate while building.
        effective.approximate_during_construction = true;
        rungs.push_back({"force-approximate", e.what(), effective.max_nodes});
        continue;
      }
      if (effective.max_nodes == 0) {
        // An "exact" build blew the manager cap; adopt a finite MAX well
        // under the cap so in-construction collapsing has room to work.
        effective.max_nodes =
            std::max(floor, effective.dd_config.max_nodes / 64);
        effective.delta_max_nodes = effective.max_nodes;
        rungs.push_back({"bound-max-nodes", e.what(), effective.max_nodes});
        continue;
      }
      if (effective.max_nodes / 2 >= floor) {
        // Rung k: approximate twice as hard, and clamp each gate's deltaC
        // contribution too so no single gate can blow the sum.
        effective.max_nodes /= 2;
        if (effective.delta_max_nodes == 0 ||
            effective.delta_max_nodes > effective.max_nodes) {
          effective.delta_max_nodes = effective.max_nodes;
        }
        rungs.push_back({"halve-max-nodes", e.what(), effective.max_nodes});
        continue;
      }
      rungs.push_back({"fallback-constant", e.what(), 0});
      break;
    }
  }

  ++attempts;
  c_attempt.add();
  c_fallback.add();
  return finish(constant_fallback(n, loads_ff, options),
                BuildOutcome::kFallback);
}

AddPowerModel AddPowerModel::build(const Netlist& n,
                                   const netlist::GateLibrary& lib,
                                   const AddModelOptions& options) {
  const std::vector<double> loads = n.annotate_loads(lib);
  return build(n, loads, options);
}

std::string AddPowerModel::name() const {
  return "ADD(" + circuit_name_ + "," + std::to_string(size()) + ")";
}

std::uint32_t AddPowerModel::var_of_xi(std::uint32_t input) const {
  CFPM_REQUIRE(input < num_inputs_);
  return map_var(order_, input, false, num_inputs_);
}

std::uint32_t AddPowerModel::var_of_xf(std::uint32_t input) const {
  CFPM_REQUIRE(input < num_inputs_);
  return map_var(order_, input, true, num_inputs_);
}

double AddPowerModel::estimate_ff(std::span<const std::uint8_t> xi,
                                  std::span<const std::uint8_t> xf) const {
  CFPM_REQUIRE(xi.size() == num_inputs_ && xf.size() == num_inputs_);
  // Assignment indexed by manager variable.
  std::vector<std::uint8_t> assignment(2 * num_inputs_, 0);
  for (std::uint32_t k = 0; k < num_inputs_; ++k) {
    assignment[var_of_xi(k)] = xi[k];
    assignment[var_of_xf(k)] = xf[k];
  }
  return function_.eval(assignment);
}

TraceEstimate AddPowerModel::estimate_trace(const sim::InputSequence& seq,
                                            ThreadPool* pool) const {
  CFPM_REQUIRE(seq.num_inputs() == num_inputs_);
  const dd::CompiledDd& compiled = *compiled_;
  // Hoist the input -> diagram-variable mapping out of the hot loop.
  std::vector<std::uint32_t> vi(num_inputs_), vf(num_inputs_);
  for (std::uint32_t k = 0; k < num_inputs_; ++k) {
    vi[k] = var_of_xi(k);
    vf[k] = var_of_xf(k);
  }
  return reduce_trace(
      seq.num_transitions(), pool,
      [&](std::size_t begin, std::size_t end, double& total, double& peak) {
        // The sequence's bit-packed streams ARE the word-transposed
        // assignment blocks the packed evaluator consumes — transition t's
        // initial state of input k is bit t of stream k and its final
        // state is bit t+1 — so the whole gather is two window64 reads
        // per input per 64 transitions. Blocks of kPackedGroups groups are
        // fed to the packed wide sweep; per-value results and the
        // t-ascending accumulation below are bit-identical to the
        // one-group path (kTraceChunk is a multiple of 64*kPackedGroups,
        // so chunk boundaries never split a wide block unevenly between
        // runs of different width).
        constexpr std::size_t W = dd::CompiledDd::kPackedGroups;
        static_assert(kTraceChunk % (64 * W) == 0,
                      "chunk boundaries must not split a wide block");
        std::vector<std::uint64_t> bits(W * 2 * num_inputs_);
        std::vector<std::uint64_t> scratch;
        double values[64 * W];
        for (std::size_t base = begin; base < end; base += 64 * W) {
          const std::size_t m = std::min<std::size_t>(64 * W, end - base);
          const std::size_t groups = (m + 63) / 64;
          for (std::uint32_t k = 0; k < num_inputs_; ++k) {
            for (std::size_t w = 0; w < groups; ++w) {
              bits[W * vi[k] + w] = seq.window64(k, base + 64 * w);
              bits[W * vf[k] + w] = seq.window64(k, base + 64 * w + 1);
            }
          }
          compiled.eval_packed_wide(bits.data(), m, values, scratch);
          for (std::size_t t = 0; t < m; ++t) {
            total += values[t];
            peak = std::max(peak, values[t]);
          }
        }
      });
}

std::vector<double> AddPowerModel::input_sensitivity_ff() const {
  std::vector<double> sensitivity(num_inputs_, 0.0);
  for (std::uint32_t k = 0; k < num_inputs_; ++k) {
    const std::uint32_t vi = var_of_xi(k);
    const std::uint32_t vf = var_of_xf(k);
    const dd::Add f0 = function_.cofactor(vi, false);
    const dd::Add f1 = function_.cofactor(vi, true);
    const double toggle = 0.5 * (f0.cofactor(vf, true).average() +
                                 f1.cofactor(vf, false).average());
    const double stable = 0.5 * (f0.cofactor(vf, false).average() +
                                 f1.cofactor(vf, true).average());
    sensitivity[k] = toggle - stable;
  }
  return sensitivity;
}

AddPowerModel::Transition AddPowerModel::worst_case_transition() const {
  const std::vector<std::uint8_t> assignment = dd::argmax_assignment(function_);
  Transition t;
  t.xi.resize(num_inputs_);
  t.xf.resize(num_inputs_);
  for (std::uint32_t k = 0; k < num_inputs_; ++k) {
    t.xi[k] = assignment[var_of_xi(k)];
    t.xf[k] = assignment[var_of_xf(k)];
  }
  return t;
}

AddPowerModel AddPowerModel::compress(std::size_t max_nodes) const {
  return compress(max_nodes, mode_);
}

AddPowerModel AddPowerModel::compress(std::size_t max_nodes,
                                      dd::ApproxMode mode) const {
  Timer timer;
  dd::Add smaller = dd::approximate_to(function_, max_nodes, mode);
  AddPowerModel model(mgr_, std::move(smaller), num_inputs_, order_, mode,
                      circuit_name_);
  model.build_info_ = build_info_;
  model.build_info_.build_seconds += timer.seconds();
  model.build_info_.approximations += 1;
  return model;
}

void AddPowerModel::save(std::ostream& os) const {
  os << "cfpm-power-model 1\n";
  os << "circuit " << (circuit_name_.empty() ? "?" : circuit_name_) << "\n";
  os << "inputs " << num_inputs_ << "\n";
  os << "order "
     << (order_ == VariableOrder::kInterleaved ? "interleaved" : "blocked")
     << "\n";
  os << "mode "
     << (mode_ == dd::ApproxMode::kAverage ? "average" : "upper-bound") << "\n";
  dd::write_add(os, function_);
  if (!os) throw IoError("AddPowerModel::save: stream failure");
}

AddPowerModel AddPowerModel::load(std::istream& is) {
  std::string line;
  auto read_line = [&](const char* what) {
    if (!std::getline(is, line)) {
      throw ParseError(std::string("power model: missing ") + what);
    }
  };
  read_line("header");
  if (line != "cfpm-power-model 1") {
    throw ParseError("power model: bad header '" + line + "'");
  }
  std::string circuit, order_str, mode_str;
  std::size_t inputs = 0;
  read_line("circuit");
  {
    std::istringstream ss(line);
    std::string kw;
    if (!(ss >> kw >> circuit) || kw != "circuit") {
      throw ParseError("power model: expected 'circuit <name>'");
    }
  }
  read_line("inputs");
  {
    std::istringstream ss(line);
    std::string kw;
    if (!(ss >> kw >> inputs) || kw != "inputs" || inputs == 0) {
      throw ParseError("power model: expected 'inputs <n>'");
    }
  }
  read_line("order");
  {
    std::istringstream ss(line);
    std::string kw;
    if (!(ss >> kw >> order_str) || kw != "order") {
      throw ParseError("power model: expected 'order <o>'");
    }
  }
  read_line("mode");
  {
    std::istringstream ss(line);
    std::string kw;
    if (!(ss >> kw >> mode_str) || kw != "mode") {
      throw ParseError("power model: expected 'mode <m>'");
    }
  }
  VariableOrder order;
  if (order_str == "interleaved") {
    order = VariableOrder::kInterleaved;
  } else if (order_str == "blocked") {
    order = VariableOrder::kBlocked;
  } else {
    throw ParseError("power model: unknown order '" + order_str + "'");
  }
  dd::ApproxMode mode;
  if (mode_str == "average") {
    mode = dd::ApproxMode::kAverage;
  } else if (mode_str == "upper-bound") {
    mode = dd::ApproxMode::kUpperBound;
  } else {
    throw ParseError("power model: unknown mode '" + mode_str + "'");
  }

  auto mgr = std::make_shared<dd::DdManager>(2 * inputs);
  dd::Add function = dd::read_add(is, *mgr);
  return AddPowerModel(std::move(mgr), std::move(function), inputs, order,
                       mode, circuit);
}

}  // namespace cfpm::power
