#include "verify/oracle.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <filesystem>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dd/approx.hpp"
#include "dd/compiled.hpp"
#include "dd/manager.hpp"
#include "dd/serialize.hpp"
#include "netlist/library.hpp"
#include "power/add_model.hpp"
#include "power/baselines.hpp"
#include "power/factory.hpp"
#include "serve/client.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sim/simulator.hpp"
#include "stats/markov.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/parse.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace cfpm::verify {

namespace {

using netlist::Netlist;

const netlist::GateLibrary& lib() {
  static const netlist::GateLibrary kLib = netlist::GateLibrary::standard();
  return kLib;
}

/// Per-check RNG stream: the salt decorrelates checks that share a seed, so
/// every oracle sees its own pattern set from the same repro seed.
Xoshiro256 check_rng(std::uint64_t seed, std::uint64_t salt) {
  return Xoshiro256(SplitMix64(seed ^ salt).next());
}

/// Relative closeness for quantities that are sums of the same doubles in a
/// possibly different order (symbolic vs simulated accumulation).
bool close(double a, double b, double rel) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= rel * scale;
}

CheckResult pass() { return {}; }

CheckResult fail(std::string detail) { return {false, std::move(detail)}; }

std::string bits_string(std::span<const std::uint8_t> v) {
  std::string s;
  s.reserve(v.size());
  for (const std::uint8_t b : v) s += b ? '1' : '0';
  return s;
}

void fill_random_bits(Xoshiro256& rng, std::span<std::uint8_t> out) {
  for (auto& b : out) b = rng.next_bool(0.5) ? 1 : 0;
}

/// Build options with the free knobs (variable order, reorder effort)
/// sampled from the check's RNG. `max_nodes == 0` builds the exact model.
power::AddModelOptions sampled_options(Xoshiro256& rng, std::size_t max_nodes,
                                       dd::ApproxMode mode,
                                       const CheckContext& ctx) {
  power::AddModelOptions opt;
  opt.max_nodes = max_nodes;
  opt.mode = mode;
  opt.order = rng.next_bool(0.5) ? power::VariableOrder::kInterleaved
                                 : power::VariableOrder::kBlocked;
  opt.reorder_passes = static_cast<unsigned>(rng.next_below(3));
  opt.approximate_during_construction = rng.next_bool(0.8);
  // Invariant checks must see the model the options ask for, not the
  // constant fallback; deadline errors propagate to the driver.
  opt.degrade = false;
  opt.deadline = ctx.deadline;
  return opt;
}

/// Every oracle build goes through the cfpm::service facade — the entry
/// point the CLI and the daemon share — so the differential checks exercise
/// the production construction path, not a parallel one. The sampled mode
/// selects the ModelKind (the factory forces add.mode back from it).
std::shared_ptr<const power::AddPowerModel> build_add(
    const Netlist& n, const power::AddModelOptions& opt) {
  power::ModelOptions options;
  options.add = opt;
  options.library = lib();
  const power::ModelKind kind = opt.mode == dd::ApproxMode::kUpperBound
                                    ? power::ModelKind::kAddUpperBound
                                    : power::ModelKind::kAddAverage;
  const service::BuildReply reply = service::build(n, kind, options);
  auto add =
      std::dynamic_pointer_cast<const power::AddPowerModel>(reply.model);
  if (add == nullptr) {
    throw Error("service::build returned a non-ADD model for an ADD kind");
  }
  return add;
}

// ---------------------------------------------------------------------------
// (a) Eq. 4 exactness: the exact ADD model against golden simulation.
// ---------------------------------------------------------------------------

CheckResult check_model_vs_sim(const Netlist& n, const CheckContext& ctx) {
  Xoshiro256 rng = check_rng(ctx.seed, 0xa001u);
  const auto opt =
      sampled_options(rng, /*max_nodes=*/0, dd::ApproxMode::kAverage, ctx);
  const auto model = build_add(n, opt);
  const sim::GateLevelSimulator golden(n, lib());

  const std::size_t inputs = n.num_inputs();
  std::vector<std::uint8_t> xi(inputs), xf(inputs);
  for (std::size_t p = 0; p < ctx.patterns; ++p) {
    fill_random_bits(rng, xi);
    if (p % 3 == 0) {
      // Sparse-toggle pairs: x^f differs from x^i in only a few bits, the
      // regime where per-gate rising-edge terms are hardest to get right.
      xf = xi;
      const std::size_t flips = 1 + rng.next_below(std::max<std::size_t>(
                                        1, std::min<std::size_t>(3, inputs)));
      for (std::size_t k = 0; k < flips; ++k) {
        const std::size_t bit = rng.next_below(inputs);
        xf[bit] = xf[bit] ? 0 : 1;
      }
    } else {
      fill_random_bits(rng, xf);
    }
    const double m = model->estimate_ff(xi, xf);
    const double g = golden.switching_capacitance_ff(xi, xf);
    if (!close(m, g, 1e-9)) {
      return fail("Eq.4 exactness violated: model=" + format_double(m) +
                  " sim=" + format_double(g) + " on x_i=" + bits_string(xi) +
                  " x_f=" + bits_string(xf));
    }
  }

  // The worst-case witness of an exact model must be attained by the
  // simulator — the ADD max and a real transition's capacitance agree.
  const auto w = model->worst_case_transition();
  const double wm = model->worst_case_ff();
  const double wg = golden.switching_capacitance_ff(w.xi, w.xf);
  if (!close(wm, wg, 1e-9)) {
    return fail("worst-case witness mismatch: model max=" + format_double(wm) +
                " sim=" + format_double(wg) + " on x_i=" + bits_string(w.xi) +
                " x_f=" + bits_string(w.xf));
  }
  return pass();
}

// ---------------------------------------------------------------------------
// (b) Compiled evaluators against the interpreted Add, bit for bit.
// ---------------------------------------------------------------------------

CheckResult check_compiled_vs_interp(const Netlist& n,
                                     const CheckContext& ctx) {
  Xoshiro256 rng = check_rng(ctx.seed, 0xb002u);
  const std::size_t max_nodes = rng.next_bool(0.5) ? 0 : 16 + rng.next_below(256);
  const dd::ApproxMode mode = rng.next_bool(0.5) ? dd::ApproxMode::kAverage
                                                 : dd::ApproxMode::kUpperBound;
  const auto model = build_add(n, sampled_options(rng, max_nodes, mode, ctx));
  const dd::Add& f = model->function();
  const dd::CompiledDd c = dd::CompiledDd::compile(f);
  // A second, structurally different diagram compiled from the same
  // manager: interleaving evaluations of the two through ONE scratch
  // buffer checks that scratch reuse carries no state across diagrams.
  const dd::Add f2 =
      dd::approximate_to(f, 8 + rng.next_below(16), dd::ApproxMode::kAverage);
  const dd::CompiledDd c2 = dd::CompiledDd::compile(f2);

  const std::size_t nvars = 2 * n.num_inputs();
  constexpr std::size_t kWide = 64 * dd::CompiledDd::kPackedGroups;
  // Whole blocks, then a final block with a random partial count, so the
  // sweep's tail handling (partial groups, a short last cache block) is
  // checked on every run.
  const std::size_t count = ((std::max<std::size_t>(ctx.patterns, kWide) +
                              kWide - 1) / kWide) * kWide +
                            1 + rng.next_below(kWide - 1);
  std::vector<std::uint8_t> assignments(count * nvars);
  fill_random_bits(rng, assignments);
  std::vector<double> ref(count), ref2(count);
  for (std::size_t p = 0; p < count; ++p) {
    const std::span<const std::uint8_t> a(&assignments[p * nvars], nvars);
    ref[p] = f.eval(a);
    ref2[p] = f2.eval(a);
  }

  auto mismatch = [&](const char* engine, std::size_t p, double got,
                      double want) {
    const std::span<const std::uint8_t> a(&assignments[p * nvars], nvars);
    return fail(std::string(engine) + " diverges from Add::eval: got " +
                format_double(got) + " want " + format_double(want) +
                " on assignment " + bits_string(a));
  };

  for (std::size_t p = 0; p < count; ++p) {
    const std::span<const std::uint8_t> a(&assignments[p * nvars], nvars);
    const double got = c.eval(a);
    if (got != ref[p]) return mismatch("CompiledDd::eval", p, got, ref[p]);
  }

  // eval_packed_wide over kPackedGroups 64-lane groups per sweep. Each
  // block is swept by c, then c2, then c again through ONE scratch buffer:
  // the second and third sweeps check that scratch reuse carries no state
  // across diagrams.
  constexpr std::size_t kGroups = dd::CompiledDd::kPackedGroups;
  struct Sweep {
    const dd::CompiledDd& dd;
    const std::vector<double>& want;
    const char* engine;
  };
  const Sweep sweeps[] = {
      {c, ref, "eval_packed_wide"},
      {c2, ref2, "eval_packed_wide (scratch reuse across DDs)"},
      {c, ref, "eval_packed_wide (scratch round trip)"},
  };
  std::vector<std::uint64_t> scratch;
  std::vector<std::uint64_t> wide_bits(kGroups * nvars);
  std::vector<double> wide_out(kWide);
  for (std::size_t base = 0; base < count; base += kWide) {
    const std::size_t m = std::min<std::size_t>(kWide, count - base);
    std::fill(wide_bits.begin(), wide_bits.end(), 0);
    for (std::size_t v = 0; v < nvars; ++v) {
      for (std::size_t k = 0; k < m; ++k) {
        wide_bits[kGroups * v + k / 64] |=
            static_cast<std::uint64_t>(assignments[(base + k) * nvars + v])
            << (k % 64);
      }
    }
    for (const Sweep& sw : sweeps) {
      sw.dd.eval_packed_wide(wide_bits.data(), m, wide_out.data(), scratch);
      for (std::size_t k = 0; k < m; ++k) {
        if (wide_out[k] != sw.want[base + k]) {
          return mismatch(sw.engine, base + k, wide_out[k], sw.want[base + k]);
        }
      }
    }
  }
  return pass();
}

// ---------------------------------------------------------------------------
// (c) Collapse invariants: Eq. 7 (average preserved) and Eq. 8 (upper bound).
// ---------------------------------------------------------------------------

CheckResult check_collapse_avg(const Netlist& n, const CheckContext& ctx) {
  Xoshiro256 rng = check_rng(ctx.seed, 0xc003u);
  const auto model = build_add(
      n, sampled_options(rng, /*max_nodes=*/0, dd::ApproxMode::kAverage, ctx));
  const dd::Add& f = model->function();
  const double exact_avg = f.average();

  const std::size_t budgets[] = {1, 3 + rng.next_below(12),
                                 16 + rng.next_below(64)};
  for (const std::size_t budget : budgets) {
    const dd::Add g = dd::approximate_to(f, budget, dd::ApproxMode::kAverage);
    const double got = g.average();
    if (!close(got, exact_avg, 1e-7)) {
      return fail("Eq.7 violated: avg-collapse to " + std::to_string(budget) +
                  " nodes changed the average from " +
                  format_double(exact_avg) + " to " + format_double(got));
    }
  }
  // Leaf quantization in average mode merges mass-weighted, so it carries
  // the same invariant.
  const dd::Add q =
      dd::quantize_leaves(f, 2 + rng.next_below(6), dd::ApproxMode::kAverage);
  if (!close(q.average(), exact_avg, 1e-7)) {
    return fail("Eq.7 violated by quantize_leaves: average " +
                format_double(exact_avg) + " became " +
                format_double(q.average()));
  }
  return pass();
}

CheckResult check_collapse_max(const Netlist& n, const CheckContext& ctx) {
  Xoshiro256 rng = check_rng(ctx.seed, 0xd004u);
  const auto model = build_add(
      n, sampled_options(rng, /*max_nodes=*/0, dd::ApproxMode::kAverage, ctx));
  const dd::Add& f = model->function();
  const std::size_t nvars = 2 * n.num_inputs();

  const std::size_t budgets[] = {1, 3 + rng.next_below(12),
                                 16 + rng.next_below(64)};
  std::vector<std::uint8_t> a(nvars);
  for (const std::size_t budget : budgets) {
    const dd::Add g = dd::approximate_to(f, budget, dd::ApproxMode::kUpperBound);
    if (g.max_value() < f.max_value() - 1e-9 * std::max(1.0, f.max_value())) {
      return fail("Eq.8 violated: max-collapse to " + std::to_string(budget) +
                  " nodes lowered the maximum from " +
                  format_double(f.max_value()) + " to " +
                  format_double(g.max_value()));
    }
    for (std::size_t p = 0; p < ctx.patterns; ++p) {
      fill_random_bits(rng, a);
      const double bound = g.eval(a);
      const double exact = f.eval(a);
      if (bound < exact - 1e-9 * std::max(1.0, exact)) {
        return fail("Eq.8 violated: bound(" + std::to_string(budget) +
                    " nodes)=" + format_double(bound) + " < exact=" +
                    format_double(exact) + " on assignment " + bits_string(a));
      }
    }
  }
  // Upward leaf quantization must also dominate pointwise.
  const dd::Add q =
      dd::quantize_leaves(f, 2 + rng.next_below(6), dd::ApproxMode::kUpperBound);
  for (std::size_t p = 0; p < ctx.patterns; ++p) {
    fill_random_bits(rng, a);
    const double bound = q.eval(a);
    const double exact = f.eval(a);
    if (bound < exact - 1e-9 * std::max(1.0, exact)) {
      return fail("Eq.8 violated by quantize_leaves: bound=" +
                  format_double(bound) + " < exact=" + format_double(exact) +
                  " on assignment " + bits_string(a));
    }
  }
  return pass();
}

// ---------------------------------------------------------------------------
// (d) Serialization round-trip and reorder function-equivalence.
// ---------------------------------------------------------------------------

CheckResult check_serialize_roundtrip(const Netlist& n,
                                      const CheckContext& ctx) {
  Xoshiro256 rng = check_rng(ctx.seed, 0xe005u);
  const std::size_t max_nodes = rng.next_bool(0.5) ? 0 : 12 + rng.next_below(128);
  const dd::ApproxMode mode = rng.next_bool(0.5) ? dd::ApproxMode::kAverage
                                                 : dd::ApproxMode::kUpperBound;
  const auto model = build_add(n, sampled_options(rng, max_nodes, mode, ctx));
  const dd::Add& f = model->function();
  const std::size_t nvars = 2 * n.num_inputs();

  std::stringstream ss;
  dd::write_add(ss, f);
  dd::DdManager fresh(nvars);
  const dd::Add g = dd::read_add(ss, fresh);
  if (g.size() != f.size()) {
    return fail("ADD round-trip changed the node count from " +
                std::to_string(f.size()) + " to " + std::to_string(g.size()));
  }
  std::vector<std::uint8_t> a(nvars);
  for (std::size_t p = 0; p < ctx.patterns; ++p) {
    fill_random_bits(rng, a);
    const double want = f.eval(a);
    const double got = g.eval(a);
    if (got != want) {  // terminal doubles must survive bit-exactly
      return fail("ADD round-trip not bit-exact: " + format_double(got) +
                  " vs " + format_double(want) + " on assignment " +
                  bits_string(a));
    }
  }

  return pass();
}

CheckResult check_sift_equivalence(const Netlist& n, const CheckContext& ctx) {
  Xoshiro256 rng = check_rng(ctx.seed, 0xf006u);
  const std::size_t max_nodes = rng.next_bool(0.5) ? 0 : 12 + rng.next_below(128);
  // reorder_passes intentionally sampled inside sampled_options: sifting on
  // top of an already-sifted build is a valid (and stressful) scenario.
  const auto model = build_add(
      n, sampled_options(rng, max_nodes, dd::ApproxMode::kAverage, ctx));
  const dd::Add& f = model->function();
  const std::size_t nvars = 2 * n.num_inputs();

  // The compiled snapshot taken before the reorder must stay valid: it
  // shares nothing with the manager.
  const dd::CompiledDd before = dd::CompiledDd::compile(f);
  std::vector<std::vector<std::uint8_t>> samples(ctx.patterns);
  std::vector<double> want(ctx.patterns);
  for (std::size_t p = 0; p < ctx.patterns; ++p) {
    samples[p].resize(nvars);
    fill_random_bits(rng, samples[p]);
    want[p] = f.eval(samples[p]);
  }
  const double avg_before = f.average();

  f.manager()->sift(1.0 + rng.next_double());

  for (std::size_t p = 0; p < ctx.patterns; ++p) {
    const double got = f.eval(samples[p]);
    if (got != want[p]) {
      return fail("sift changed the function: " + format_double(got) +
                  " vs " + format_double(want[p]) + " on assignment " +
                  bits_string(samples[p]));
    }
    const double snap = before.eval(samples[p]);
    if (snap != want[p]) {
      return fail("pre-sift compiled snapshot invalidated by reorder: " +
                  format_double(snap) + " vs " + format_double(want[p]));
    }
  }
  if (!close(f.average(), avg_before, 1e-9)) {
    return fail("sift changed the average from " + format_double(avg_before) +
                " to " + format_double(f.average()));
  }
  return pass();
}

// ---------------------------------------------------------------------------
// (e) Threaded trace estimation: bit-identical for every pool size.
// ---------------------------------------------------------------------------

CheckResult check_trace_threads(const Netlist& n, const CheckContext& ctx) {
  Xoshiro256 rng = check_rng(ctx.seed, 0xa707u);
  const std::size_t max_nodes = rng.next_bool(0.5) ? 0 : 16 + rng.next_below(256);
  const auto model = build_add(
      n, sampled_options(rng, max_nodes, dd::ApproxMode::kAverage, ctx));

  const double sp = 0.15 + 0.7 * rng.next_double();
  const double st_max = 2.0 * std::min(sp, 1.0 - sp);
  const double st = st_max * (0.1 + 0.85 * rng.next_double());
  stats::MarkovSequenceGenerator gen({sp, st}, rng.next());
  // Kept inside one kTraceChunk so the scalar oracle below always applies
  // (and the check stays cheap enough to run hundreds of times).
  const std::size_t length = 200 + rng.next_below(1100);
  const sim::InputSequence seq = gen.generate(n.num_inputs(), length);

  const std::size_t thread_counts[] = {1, 2, 3 + rng.next_below(6)};
  // Lin and Con stream through the same loop (estimate_block's default), so
  // they face the same checks: a random-coefficient Lin whose decimal sums
  // round, and a Con. Drawn last, so a seed's ADD scenario is unchanged.
  std::vector<double> coeffs(n.num_inputs() + 1);
  for (double& c : coeffs) c = 8.0 * rng.next_double() - 1.0;
  const power::LinearModel lin(coeffs);
  const power::ConstantModel con(10.0 * rng.next_double(), n.num_inputs());

  const power::PowerModel* models[] = {model.get(), &lin, &con};
  for (const power::PowerModel* m : models) {
    const power::TraceEstimate base = m->estimate_trace(seq, nullptr);

    // Independent scalar oracle (single chunk, so accumulation order
    // matches).
    if (seq.num_transitions() <= power::PowerModel::kTraceChunk) {
      std::vector<std::uint8_t> xi(n.num_inputs()), xf(n.num_inputs());
      double total = 0.0, peak = 0.0;
      for (std::size_t t = 0; t + 1 < seq.length(); ++t) {
        seq.vector_at(t, xi);
        seq.vector_at(t + 1, xf);
        const double v = m->estimate_ff(xi, xf);
        total += v;
        peak = std::max(peak, v);
      }
      if (total != base.total_ff || peak != base.peak_ff) {
        return fail(m->name() +
                    " estimate_trace diverges from the scalar loop: total " +
                    format_double(base.total_ff) + " vs " +
                    format_double(total) + ", peak " +
                    format_double(base.peak_ff) + " vs " +
                    format_double(peak));
      }
    }

    for (const std::size_t t : thread_counts) {
      ThreadPool pool(t);
      const power::TraceEstimate est = m->estimate_trace(seq, &pool);
      if (est.total_ff != base.total_ff || est.peak_ff != base.peak_ff ||
          est.transitions != base.transitions) {
        return fail(m->name() + " estimate_trace not bit-identical with " +
                    std::to_string(t) + " thread(s): total " +
                    format_double(est.total_ff) + " vs " +
                    format_double(base.total_ff) + ", peak " +
                    format_double(est.peak_ff) + " vs " +
                    format_double(base.peak_ff));
      }
    }
  }
  return pass();
}

// ---------------------------------------------------------------------------
// (f) Daemon round-trip: `cfpm serve` replies are bit-identical to the
//     in-process service facade, and the registry persisted on shutdown
//     serves the same bits after a warm restart.
// ---------------------------------------------------------------------------

/// In-process daemon for one check run: a unique socket and persist
/// directory under the system temp dir, with the server thread joined and
/// the files removed on every exit path.
struct ScopedServer {
  std::string socket_path;
  std::string persist_dir;
  std::unique_ptr<serve::Server> server;
  std::thread thread;
  int exit_code = -1;

  explicit ScopedServer(std::uint64_t tag) {
    const std::string base =
        (std::filesystem::temp_directory_path() /
         ("cfpm-oracle-" + std::to_string(::getpid()) + "-" +
          std::to_string(tag)))
            .string();
    socket_path = base + ".sock";
    persist_dir = base + ".reg";
    serve::ServerOptions options;
    options.socket_path = socket_path;
    options.persist_dir = persist_dir;
    options.eval_threads = 1;
    server = std::make_unique<serve::Server>(std::move(options));
    thread = std::thread([this] { exit_code = server->run(); });
  }

  void join() {
    if (thread.joinable()) thread.join();
  }

  ~ScopedServer() {
    server->request_shutdown(false);
    join();
    std::error_code ec;
    std::filesystem::remove(socket_path, ec);
    std::filesystem::remove_all(persist_dir, ec);
  }
};

/// The server thread binds asynchronously; retry the connect briefly.
serve::Client connect_with_retry(const std::string& socket_path) {
  for (int attempt = 0;; ++attempt) {
    try {
      return serve::Client(socket_path);
    } catch (const IoError&) {
      if (attempt >= 400) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

CheckResult check_serve_roundtrip(const Netlist& n, const CheckContext& ctx) {
  Xoshiro256 rng = check_rng(ctx.seed, 0xda0b0au);

  // Sampled request over the model-shaping knobs a build request carries
  // (kind, max_nodes); degrade off so the daemon must serve exactly the
  // model the options ask for. The other builder knobs are sampled by the
  // in-process checks (sampled_options).
  service::BuildRequest request;
  request.netlist = n;
  service::BuildOptions& b = request.options;
  b.kind = rng.next_bool(0.5) ? power::ModelKind::kAddAverage
                              : power::ModelKind::kAddUpperBound;
  b.max_nodes = rng.next_bool(0.5) ? 0 : 16 + rng.next_below(256);
  b.degrade = false;

  service::EvalRequest eval;
  const double sp = 0.15 + 0.7 * rng.next_double();
  const double st_max = 2.0 * std::min(sp, 1.0 - sp);
  eval.statistics = {sp, st_max * (0.1 + 0.85 * rng.next_double())};
  eval.vectors = 100 + rng.next_below(400);
  eval.seed = rng.next();

  stats::MarkovSequenceGenerator gen(eval.statistics, rng.next());
  const sim::InputSequence trace =
      gen.generate(n.num_inputs(), 50 + rng.next_below(200));

  // In-process reference through the same facade the daemon executes.
  const service::BuildReply local_build = service::build(request);
  const service::EvalReply local = service::evaluate(*local_build.model, eval);
  const service::EvalReply local_trace =
      service::evaluate_trace(*local_build.model, trace);

  const std::uint64_t persist_failures_before =
      metrics::snapshot().counter("serve.persist.error") +
      metrics::snapshot().counter("serve.persist.rejected");

  static std::atomic<std::uint64_t> next_tag{0};
  ScopedServer daemon(next_tag.fetch_add(1));
  serve::Client client = connect_with_retry(daemon.socket_path);

  const service::BuildReply remote_build = client.build(request);
  if (remote_build.id != local_build.id) {
    return fail("daemon content id " + remote_build.id.to_hex() +
                " differs from the in-process id " + local_build.id.to_hex());
  }
  if (remote_build.status != local_build.status ||
      remote_build.model_nodes != local_build.model_nodes) {
    return fail("daemon build summary differs: status " +
                std::to_string(static_cast<unsigned>(remote_build.status)) +
                "/" + std::to_string(remote_build.model_nodes) +
                " nodes vs in-process " +
                std::to_string(static_cast<unsigned>(local_build.status)) +
                "/" + std::to_string(local_build.model_nodes));
  }

  const service::EvalReply remote = client.evaluate(remote_build.id, eval);
  if (remote.total_ff != local.total_ff ||
      remote.average_ff != local.average_ff ||
      remote.peak_ff != local.peak_ff ||
      remote.transitions != local.transitions) {
    return fail("daemon (sp,st) eval not bit-identical: total " +
                format_double(remote.total_ff) + " vs " +
                format_double(local.total_ff) + ", peak " +
                format_double(remote.peak_ff) + " vs " +
                format_double(local.peak_ff));
  }

  const service::EvalReply remote_trace =
      client.evaluate_trace(remote_build.id, trace);
  if (remote_trace.total_ff != local_trace.total_ff ||
      remote_trace.peak_ff != local_trace.peak_ff ||
      remote_trace.transitions != local_trace.transitions) {
    return fail("daemon trace eval not bit-identical: total " +
                format_double(remote_trace.total_ff) + " vs " +
                format_double(local_trace.total_ff) + ", peak " +
                format_double(remote_trace.peak_ff) + " vs " +
                format_double(local_trace.peak_ff));
  }

  // Clean client-requested drain persists the registry and exits 0.
  client.shutdown_server();
  daemon.join();
  if (daemon.exit_code != serve::Server::kExitOk) {
    return fail("daemon exited " + std::to_string(daemon.exit_code) +
                " after a client shutdown request (want 0)");
  }

  // Warm restart: a fresh registry loaded from the persisted snapshot must
  // serve the same bits. A clean non-degraded ADD build is always admitted
  // and persisted; a failed persist is by design non-fatal server-side
  // (counted, logged, cold restart) — tolerate it only when the metrics
  // prove the failure was observed (the fault campaign arms serve.persist).
  serve::Registry registry;
  const std::size_t loaded = registry.load(daemon.persist_dir);
  if (loaded == 0) {
    const std::uint64_t persist_failures =
        metrics::snapshot().counter("serve.persist.error") +
        metrics::snapshot().counter("serve.persist.rejected") -
        persist_failures_before;
    if (persist_failures > 0) return pass();
    return fail("persisted registry empty after a clean shutdown");
  }
  const auto reloaded = registry.lookup(local_build.id);
  if (reloaded == nullptr) {
    return fail("reloaded registry does not resolve id " +
                local_build.id.to_hex());
  }
  const service::EvalReply warm = service::evaluate(*reloaded, eval);
  if (warm.total_ff != local.total_ff || warm.peak_ff != local.peak_ff) {
    return fail("warm-restarted model not bit-identical: total " +
                format_double(warm.total_ff) + " vs " +
                format_double(local.total_ff) + ", peak " +
                format_double(warm.peak_ff) + " vs " +
                format_double(local.peak_ff));
  }
  return pass();
}

// ---------------------------------------------------------------------------

constexpr Check kChecks[] = {
    {"model-vs-sim",
     "exact ADD C(x_i,x_f) equals golden zero-delay simulation (Eq. 4)",
     check_model_vs_sim},
    {"compiled-vs-interp",
     "compiled eval/eval_packed_wide match interpreted Add::eval "
     "bit-for-bit, including a partial final block and scratch reuse "
     "across diagrams",
     check_compiled_vs_interp},
    {"collapse-avg",
     "avg-collapse and average-mode leaf quantization preserve the uniform "
     "average (Eq. 7)",
     check_collapse_avg},
    {"collapse-max",
     "max-collapse and upward leaf quantization dominate the exact function "
     "pointwise (Eq. 8)",
     check_collapse_max},
    {"serialize-roundtrip",
     "serialize v2 round-trips ADDs bit-exactly into a fresh manager",
     check_serialize_roundtrip},
    {"sift-equivalence",
     "sifting preserves the function and never invalidates a compiled "
     "snapshot",
     check_sift_equivalence},
    {"trace-threads",
     "estimate_trace of ADD, Lin and Con models is bit-identical to the "
     "scalar loop and across thread counts",
     check_trace_threads},
    {"serve-roundtrip",
     "cfpm serve build/eval/trace replies over the wire are bit-identical "
     "to the in-process service facade, and the registry persisted on "
     "shutdown serves the same bits after a warm restart",
     check_serve_roundtrip},
};

struct CheckCounters {
  metrics::Counter runs;
  metrics::Counter failures;
  CheckCounters(const std::string& run_name, const std::string& fail_name)
      : runs(run_name), failures(fail_name) {}
};

/// The metrics registry interns names into owned strings, so the composed
/// names may be temporaries; the handles themselves live for the process.
CheckCounters& counters_for(std::string_view check_name) {
  static std::mutex mu;
  static auto* table =
      new std::unordered_map<std::string, std::unique_ptr<CheckCounters>>();
  const std::lock_guard<std::mutex> lock(mu);
  const std::string key(check_name);
  auto it = table->find(key);
  if (it == table->end()) {
    it = table
             ->emplace(key, std::make_unique<CheckCounters>(
                                "verify.check." + key + ".run",
                                "verify.check." + key + ".fail"))
             .first;
  }
  return *it->second;
}

}  // namespace

std::span<const Check> all_checks() { return kChecks; }

const Check* find_check(std::string_view name) {
  for (const Check& c : kChecks) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

CheckResult run_check(const Check& check, const netlist::Netlist& n,
                      const CheckContext& ctx) {
  CheckCounters& counters = counters_for(check.name);
  counters.runs.add();
  CheckResult result;
  try {
    result = check.fn(n, ctx);
  } catch (const DeadlineExceeded&) {
    throw;  // a stop signal, not a verdict
  } catch (const std::exception& e) {
    result = fail(std::string("unexpected exception: ") + e.what());
    result.threw = true;
  }
  if (!result.ok) counters.failures.add();
  return result;
}

}  // namespace cfpm::verify
