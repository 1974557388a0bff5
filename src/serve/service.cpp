#include "serve/service.hpp"

#include <charconv>
#include <sstream>
#include <utility>

#include "chip/evaluator.hpp"
#include "netlist/bench_io.hpp"
#include "support/deadline.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace cfpm::service {

// ---------------------------------------------------------------------------
// Error classification
// ---------------------------------------------------------------------------

ErrorPayload classify(const std::exception_ptr& error) noexcept {
  ErrorPayload p;
  if (!error) {
    p.code = StatusCode::kInternal;
    p.kind = ErrorKind::kInternal;
    p.message = "classify: empty exception_ptr";
    return p;
  }
  try {
    std::rethrow_exception(error);
  } catch (const UsageError& e) {
    p = {StatusCode::kUsage, ErrorKind::kUsage, e.what()};
  } catch (const ParseError& e) {
    p = {StatusCode::kError, ErrorKind::kParse, e.what()};
  } catch (const IoError& e) {
    p = {StatusCode::kError, ErrorKind::kIo, e.what()};
  } catch (const DeadlineExceeded& e) {
    p = {StatusCode::kError, ErrorKind::kDeadline, e.what()};
  } catch (const Error& e) {
    // ContractError intentionally folds into kGeneric: it rethrows as
    // cfpm::Error, which every caller treats identically (exit code 1).
    p = {StatusCode::kError, ErrorKind::kGeneric, e.what()};
  } catch (const std::bad_alloc&) {
    p = {StatusCode::kOom, ErrorKind::kOom, "out of memory"};
  } catch (const std::exception& e) {
    p = {StatusCode::kInternal, ErrorKind::kInternal, e.what()};
  } catch (...) {
    p = {StatusCode::kInternal, ErrorKind::kInternal, "unknown exception"};
  }
  return p;
}

void rethrow(const ErrorPayload& payload) {
  switch (payload.kind) {
    case ErrorKind::kUsage:
      throw UsageError(payload.message);
    case ErrorKind::kParse:
      throw ParseError(payload.message);
    case ErrorKind::kIo:
      throw IoError(payload.message);
    case ErrorKind::kDeadline:
      throw DeadlineExceeded(payload.message);
    case ErrorKind::kOom:
      throw std::bad_alloc();
    case ErrorKind::kInternal:
      throw std::runtime_error(payload.message);
    case ErrorKind::kGeneric:
      break;
  }
  throw Error(payload.message);
}

// ---------------------------------------------------------------------------
// Model identity
// ---------------------------------------------------------------------------

std::string ModelId::to_hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s(32, '0');
  for (int i = 0; i < 16; ++i) {
    s[15 - i] = kDigits[(key >> (4 * i)) & 0xf];
    s[31 - i] = kDigits[(check >> (4 * i)) & 0xf];
  }
  return s;
}

std::optional<ModelId> ModelId::from_hex(std::string_view text) {
  if (text.size() != 32) return std::nullopt;
  auto half = [](std::string_view hex) -> std::optional<std::uint64_t> {
    std::uint64_t v = 0;
    const auto [ptr, ec] =
        std::from_chars(hex.data(), hex.data() + hex.size(), v, 16);
    if (ec != std::errc() || ptr != hex.data() + hex.size()) {
      return std::nullopt;
    }
    return v;
  };
  // from_chars accepts uppercase; to_hex emits lowercase only. Reject
  // anything to_hex could not have produced so ids round-trip exactly.
  for (const char c : text) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) {
      return std::nullopt;
    }
  }
  const auto key = half(text.substr(0, 16));
  const auto check = half(text.substr(16, 16));
  if (!key || !check) return std::nullopt;
  return ModelId{*key, *check};
}

ModelId model_id(const netlist::Netlist& n, const BuildOptions& o) {
  // Canonical content: the .bench serialization is a deterministic function
  // of the netlist (stable signal order, no timestamps), so equal circuits
  // hash equal regardless of how they were loaded (file, generator, wire).
  std::ostringstream text;
  netlist::write_bench(text, n);
  const std::string canon = text.str();

  // Retired slots, mixed as the constants every request now carries: the
  // variable order (0, interleaved), reorder passes (2), approximation
  // during construction (1), the serial/parallel construction bit (0) and
  // the Con/Lin characterization workload (10000 vectors, seed 0xc0ffee).
  // Mixing them keeps every ModelId (and every persisted registry) from
  // before valid.
  static constexpr std::uint64_t kRetired[] = {0, 2, 1, 0, 10000, 0xc0ffee};
  auto fingerprint = [&](std::uint64_t h) {
    h = fnv1a_64_mix(h, static_cast<std::uint64_t>(o.kind));
    h = fnv1a_64_mix(h, o.max_nodes);
    for (const std::uint64_t v : kRetired) h = fnv1a_64_mix(h, v);
    return h;
  };
  ModelId id;
  id.key = fingerprint(fnv1a_64(canon));
  id.check = fingerprint(fnv1a_64(canon, /*seed=*/0x9e3779b97f4a7c15ull));
  return id;
}

// ---------------------------------------------------------------------------
// Build
// ---------------------------------------------------------------------------

power::ModelOptions to_model_options(const BuildOptions& o,
                                     const netlist::GateLibrary& library) {
  power::ModelOptions mo;
  mo.add.max_nodes = o.max_nodes;
  mo.add.mode = o.kind == power::ModelKind::kAddUpperBound
                    ? dd::ApproxMode::kUpperBound
                    : dd::ApproxMode::kAverage;
  mo.add.degrade = o.degrade;
  mo.add.deadline = deadline_after(o.deadline_ms);
  mo.library = library;
  return mo;
}

BuildReply build(const netlist::Netlist& n, power::ModelKind kind,
                 const power::ModelOptions& options) {
  CFPM_TRACE_SPAN("service.build");
  static const metrics::Counter c_build("service.build.count");
  c_build.add();
  BuildReply reply;
  std::shared_ptr<power::PowerModel> model = power::make_model(kind, n, options);
  if (const auto* add = dynamic_cast<const power::AddPowerModel*>(model.get())) {
    reply.build_info = add->build_info();
    reply.model_nodes = add->size();
    if (reply.build_info.outcome != power::BuildOutcome::kClean) {
      reply.status = StatusCode::kDegraded;
    }
  }
  reply.model = std::move(model);
  return reply;
}

BuildReply build(const BuildRequest& request) {
  const power::ModelKind kind = request.options.kind;
  if (kind != power::ModelKind::kAddAverage &&
      kind != power::ModelKind::kAddUpperBound) {
    throw UsageError("build requests serve ADD models only, got kind " +
                     std::to_string(static_cast<unsigned>(kind)));
  }
  BuildReply reply =
      build(request.netlist, kind, to_model_options(request.options));
  reply.id = model_id(request.netlist, request.options);
  return reply;
}

// ---------------------------------------------------------------------------
// Evaluate
// ---------------------------------------------------------------------------

sim::InputSequence generate_workload(const stats::InputStatistics& statistics,
                                     std::size_t width, std::size_t vectors,
                                     std::uint64_t seed) {
  // Two vectors make the first transition; with fewer there is nothing to
  // average, so the request is malformed rather than the model at fault.
  if (vectors < 2) {
    throw UsageError("vectors must be at least 2, got " +
                     std::to_string(vectors));
  }
  if (!stats::feasible(statistics)) {
    // Deliberately cfpm::Error, not UsageError: this is the message (and
    // exit code 1) the one-shot CLI has always produced for an infeasible
    // workload, and scripts key on it.
    throw Error("infeasible statistics: st must be <= 2*min(sp, 1-sp)");
  }
  stats::MarkovSequenceGenerator gen(statistics, seed);
  return gen.generate(width, vectors);
}

EvalReply evaluate(const power::PowerModel& model, const EvalRequest& request,
                   ThreadPool* pool) {
  return evaluate_trace(model,
                        generate_workload(request.statistics,
                                          model.num_inputs(), request.vectors,
                                          request.seed),
                        pool);
}

EvalReply evaluate_trace(const power::PowerModel& model,
                         const sim::InputSequence& seq, ThreadPool* pool) {
  CFPM_TRACE_SPAN("service.evaluate");
  static const metrics::Counter c_eval("service.eval.count");
  c_eval.add();
  const power::TraceEstimate est = model.estimate_trace(seq, pool);
  EvalReply reply;
  reply.total_ff = est.total_ff;
  reply.average_ff = est.average_ff();
  reply.peak_ff = est.peak_ff;
  reply.transitions = est.transitions;
  return reply;
}

// ---------------------------------------------------------------------------
// Chip
// ---------------------------------------------------------------------------

cfpm::chip::ChipBuildOptions to_chip_build_options(const ChipRequest& r) {
  cfpm::chip::ChipBuildOptions co;
  co.max_nodes = r.max_nodes;
  co.deadline_ms = r.deadline_ms;
  co.degrade = r.degrade;
  return co;
}

namespace {

/// A malformed spec string is a request-shape violation: rewrap the chip
/// layer's cfpm::Error as the facade's typed kUsage error (exit code 2).
cfpm::chip::ChipSpec parse_chip_spec(const std::string& text) {
  try {
    return cfpm::chip::ChipSpec::parse(text);
  } catch (const Error& e) {
    throw UsageError(e.what());
  }
}

/// Evaluates both compositions of a built chip over `trace` and assembles
/// the reply — shared by the generated-workload and explicit-trace paths,
/// which is what keeps their breakdowns structurally identical.
ChipReply finish_chip_reply(const cfpm::chip::Chip& c,
                            const sim::InputSequence& trace, ThreadPool* pool) {
  CFPM_TRACE_SPAN("service.chip");
  static const metrics::Counter c_chip("service.chip.count");
  c_chip.add();
  const cfpm::chip::ChipTraceResult avg =
      cfpm::chip::evaluate_trace(c.avg_design(), trace, pool);
  const cfpm::chip::ChipTraceResult bound =
      cfpm::chip::evaluate_trace(c.bound_design(), trace, pool);

  ChipReply reply;
  reply.status = c.degraded() ? StatusCode::kDegraded : StatusCode::kOk;
  reply.spec = c.spec().to_string();
  reply.macros = c.num_macros();
  reply.components = c.num_components();
  reply.bus_bits = c.bus_width();
  reply.transitions = avg.transitions;
  reply.total_ff = avg.total_ff;
  reply.average_ff = avg.average_ff();
  reply.peak_ff = avg.peak_ff;
  reply.bound_total_ff = bound.total_ff;
  reply.bound_peak_ff = bound.peak_ff;
  reply.worst_case_sum_ff = c.sum_of_worst_cases_ff();
  for (const cfpm::chip::MacroBuildReport& m : c.library()) {
    ChipMacroSummary s;
    s.name = m.name;
    s.instances = m.instances;
    s.inputs = m.num_inputs;
    s.avg_nodes = m.avg_nodes;
    s.bound_nodes = m.bound_nodes;
    s.avg_outcome = m.avg_info.outcome;
    s.bound_outcome = m.bound_info.outcome;
    s.cache_hit = m.avg_cache_hit || m.bound_cache_hit;
    reply.cache_hits += (m.avg_cache_hit ? 1u : 0u) + (m.bound_cache_hit ? 1u : 0u);
    reply.library.push_back(std::move(s));
  }
  for (const cfpm::chip::Chip::Node& node : c.nodes()) {
    if (node.parent == cfpm::chip::Chip::kNoParent) continue;
    const double subtotal = c.subtree_total(node, avg.per_instance_ff);
    if (node.is_leaf()) {
      reply.instances.push_back({node.name, subtotal});
    } else {
      reply.blocks.push_back({node.name, subtotal});
    }
  }
  return reply;
}

}  // namespace

ChipReply evaluate_chip(const ChipRequest& request,
                        const cfpm::chip::ModelSource& source,
                        ThreadPool* pool) {
  const cfpm::chip::ChipSpec spec = parse_chip_spec(request.spec);
  // Generated before the build, so a bad workload costs no construction.
  const sim::InputSequence trace = generate_workload(
      request.statistics, spec.bus_width(), request.vectors, request.seed);
  const cfpm::chip::Chip c = cfpm::chip::build_chip(spec, source);
  return finish_chip_reply(c, trace, pool);
}

ChipReply evaluate_chip(const ChipRequest& request, ThreadPool* pool) {
  return evaluate_chip(
      request, cfpm::chip::make_model_source(to_chip_build_options(request)),
      pool);
}

ChipReply evaluate_chip_trace(const ChipRequest& request,
                              const sim::InputSequence& trace,
                              ThreadPool* pool) {
  const cfpm::chip::ChipSpec spec = parse_chip_spec(request.spec);
  // Same contract as generate_workload: a trace needs two vectors to make
  // its first transition, and is rejected before any library build.
  if (trace.length() < 2) {
    throw UsageError("trace must have at least 2 vectors, got " +
                     std::to_string(trace.length()));
  }
  if (trace.num_inputs() < spec.bus_width()) {
    throw UsageError("trace is " + std::to_string(trace.num_inputs()) +
                     " bits wide; chip " + spec.to_string() + " needs " +
                     std::to_string(spec.bus_width()));
  }
  const cfpm::chip::Chip c = cfpm::chip::build_chip(
      spec, cfpm::chip::make_model_source(to_chip_build_options(request)));
  return finish_chip_reply(c, trace, pool);
}

}  // namespace cfpm::service
