// cfpm::service — the unified request/response facade over model
// construction and evaluation.
//
// Before this layer, every front end wired the pipeline by hand: the CLI
// called power::make_model / AddPowerModel::build with its own option
// plumbing, the experiment harness looped estimate_trace itself, and the
// fuzzer sampled AddModelOptions directly. The service facade makes one
// typed entry point out of that — BuildRequest/EvalRequest structs in,
// Reply structs or typed error payloads out — shared verbatim
// by the one-shot CLI, the `cfpm serve` daemon (src/serve/server), and the
// differential fuzzer. Sharing the entry point is what makes the daemon's
// "bit-identical to the CLI" guarantee checkable rather than aspirational:
// both sides execute literally the same code path behind the same structs.
//
// Error taxonomy: failures travel as ErrorPayload{code, kind, message}.
// `code` mirrors the CLI exit-code taxonomy (0 ok, 1 error, 2 usage,
// 3 degraded, 4 out of memory, 5 internal) — the CLI exits with exactly
// these numbers and the wire protocol ships them verbatim. `kind`
// preserves the exception *type* so a payload can be rethrown as the same
// typed exception on the far side of a socket (a remote DeadlineExceeded
// resurfaces as DeadlineExceeded, which is what lets the fault campaign
// treat daemon failures exactly like in-process ones).
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "chip/chip.hpp"
#include "netlist/library.hpp"
#include "netlist/netlist.hpp"
#include "power/add_model.hpp"
#include "power/factory.hpp"
#include "power/power_model.hpp"
#include "sim/sequence.hpp"
#include "stats/markov.hpp"
#include "support/thread_pool.hpp"

namespace cfpm::service {

/// The fixed seed of every (sp, st) workload the CLI generates; requests
/// default to it.
inline constexpr std::uint64_t kWorkloadSeed = 0xcf9e;

// ---------------------------------------------------------------------------
// Status / typed errors
// ---------------------------------------------------------------------------

/// Outcome classes, numerically identical to the CLI exit-code taxonomy.
enum class StatusCode : std::uint32_t {
  kOk = 0,
  kError = 1,     ///< typed runtime failure (parse, io, deadline, ...)
  kUsage = 2,     ///< malformed request (bad field)
  kDegraded = 3,  ///< the deadline expired; a constant fallback was built
  kOom = 4,       ///< out of memory
  kInternal = 5,  ///< unexpected std::exception
};

/// The exception type a payload was made from, so rethrow() can resurrect
/// it typed on the other side of a process or socket boundary.
enum class ErrorKind : std::uint32_t {
  kGeneric = 0,   ///< cfpm::Error (and subclasses without their own slot)
  kUsage = 1,     ///< malformed request (no exception type; kUsage code)
  kParse = 2,     ///< cfpm::ParseError
  kIo = 3,        ///< cfpm::IoError
  // 4 is retired (it carried a node-budget error that no longer exists).
  kDeadline = 5,  ///< cfpm::DeadlineExceeded
  // 6 is retired (it carried a cancellation error that no longer exists);
  // the explicit values keep every other wire code unchanged.
  kOom = 7,       ///< std::bad_alloc
  kInternal = 8,  ///< any other std::exception
};

/// A failure as data: safe to serialize, map to an exit code, or rethrow.
struct ErrorPayload {
  StatusCode code = StatusCode::kOk;
  ErrorKind kind = ErrorKind::kGeneric;
  std::string message;
};

/// Request-shape violations detected by the facade itself (too few
/// vectors, malformed chip spec, unknown enum value). Maps to exit code 2.
class UsageError : public Error {
 public:
  explicit UsageError(const std::string& what) : Error(what) {}
};

/// Converts any in-flight exception into its typed payload. Call from a
/// catch block with std::current_exception(), or pass a stored one.
ErrorPayload classify(const std::exception_ptr& error) noexcept;

/// Resurrects the typed exception a payload was classified from (the
/// inverse of classify up to the message; kOom loses its message because
/// std::bad_alloc cannot carry one).
[[noreturn]] void rethrow(const ErrorPayload& payload);

/// Process exit code for a status — the taxonomy is the numeric value.
constexpr int exit_code(StatusCode code) noexcept {
  return static_cast<int>(code);
}

// ---------------------------------------------------------------------------
// Content-addressed model identity
// ---------------------------------------------------------------------------

/// 128-bit content address of a compiled model: `key` indexes the
/// registry's hash map, `check` is an independent hash
/// verified on every hit so a 64-bit key collision is rejected (typed
/// error) instead of silently serving the wrong macro's model.
struct ModelId {
  std::uint64_t key = 0;
  std::uint64_t check = 0;

  bool operator==(const ModelId&) const = default;
  /// 32 lowercase hex digits (key then check); the wire/CLI spelling.
  std::string to_hex() const;
  /// Parses to_hex() output; nullopt on anything else.
  static std::optional<ModelId> from_hex(std::string_view text);
};

// ---------------------------------------------------------------------------
// Requests / replies
// ---------------------------------------------------------------------------

/// Build knobs a request may carry — the serializable subset of
/// power::ModelOptions (a time point cannot cross a socket; deadlines
/// travel as milliseconds and become a time point server-side). Two
/// requests with equal netlist content and equal *model-shaping* knobs
/// (kind, max_nodes, order, reorder_passes,
/// approximate_during_construction, characterization workload) share a
/// ModelId; resilience knobs (degrade, deadline_ms) do not shape a clean
/// model and are excluded from the id.
struct BuildOptions {
  power::ModelKind kind = power::ModelKind::kAddAverage;
  std::size_t max_nodes = 1000;
  power::VariableOrder order = power::VariableOrder::kInterleaved;
  unsigned reorder_passes = 2;
  bool approximate_during_construction = true;
  bool degrade = true;
  /// Unused: nothing reads it. Kept only because the benchmark sources
  /// assign it; the next change to the benchmark removes it.
  std::size_t build_threads = 1;
  std::optional<std::size_t> deadline_ms;
  /// Characterized baselines (Con/Lin) only.
  std::size_t characterization_vectors = 10000;
  std::uint64_t characterization_seed = 0xc0ffee;
};

struct BuildRequest {
  netlist::Netlist netlist;
  BuildOptions options;
};

struct BuildReply {
  ModelId id;  ///< content address (zero for the rich in-process overload)
  StatusCode status = StatusCode::kOk;  ///< kOk or kDegraded
  std::size_t model_nodes = 0;
  bool cache_hit = false;  ///< set by the registry-backed daemon path
  /// The built model (in-process callers; the daemon keeps it registry-side
  /// and ships only the id + summary over the wire).
  std::shared_ptr<const power::PowerModel> model;
  /// Degradation report for ADD kinds (default-constructed otherwise).
  power::AddModelBuildInfo build_info;
};

/// A (sp, st) workload evaluation: generate `vectors` Markov vectors from
/// `seed` and run one batched estimate_trace pass — the identical recipe
/// the one-shot CLI uses, so daemon and CLI results are bit-identical.
struct EvalRequest {
  stats::InputStatistics statistics{0.5, 0.5};
  std::size_t vectors = 10000;
  std::uint64_t seed = kWorkloadSeed;
};

struct EvalReply {
  double total_ff = 0.0;
  double average_ff = 0.0;
  double peak_ff = 0.0;
  std::size_t transitions = 0;
  bool cache_hit = false;  ///< daemon path: model came from the registry
  StatusCode status = StatusCode::kOk;
};

/// Build-and-evaluate a composed chip (src/chip) in one request: the
/// daemon's registry serves the macro library, so a repeated spec is all
/// cache hits. Workload is the same seeded Markov recipe as EvalRequest,
/// generated at the chip's full bus width.
struct ChipRequest {
  std::string spec = "2x3x12";  ///< "CxBxM" chip topology
  std::size_t max_nodes = 4000;  ///< per-macro node budget (0 = exact)
  bool degrade = true;           ///< §9 constant fallback per macro
  std::optional<std::size_t> deadline_ms;  ///< per-macro build deadline
  stats::InputStatistics statistics{0.5, 0.5};
  std::size_t vectors = 10000;
  std::uint64_t seed = kWorkloadSeed;
};

/// One distinct library macro in a chip reply (shared by its instances).
struct ChipMacroSummary {
  std::string name;
  std::size_t instances = 0;
  std::size_t inputs = 0;
  std::size_t avg_nodes = 0;
  std::size_t bound_nodes = 0;
  power::BuildOutcome avg_outcome = power::BuildOutcome::kClean;
  power::BuildOutcome bound_outcome = power::BuildOutcome::kClean;
  bool cache_hit = false;  ///< either variant came from the registry
};

/// A named component total (per-block and per-instance breakdown rows).
struct ChipComponentTotal {
  std::string name;
  double total_ff = 0.0;
};

struct ChipReply {
  StatusCode status = StatusCode::kOk;  ///< kOk, or kDegraded if any macro
                                        ///< fell back (§9)
  std::string spec;
  std::size_t macros = 0;      ///< leaf instances
  std::size_t components = 0;  ///< composite nodes (chip + blocks)
  std::size_t bus_bits = 0;
  std::size_t transitions = 0;
  double total_ff = 0.0;    ///< average-model chip total
  double average_ff = 0.0;  ///< total_ff / transitions
  double peak_ff = 0.0;     ///< average-model worst observed cycle
  double bound_total_ff = 0.0;  ///< conservative composition total
  double bound_peak_ff = 0.0;   ///< composed conservative per-cycle bound
  double worst_case_sum_ff = 0.0;  ///< sum of leaves' global worst cases
  std::size_t cache_hits = 0;  ///< macro model builds served from a cache
  std::vector<ChipMacroSummary> library;
  std::vector<ChipComponentTotal> blocks;     ///< per-block avg totals
  std::vector<ChipComponentTotal> instances;  ///< per-leaf avg totals
};

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Translates wire-shape options into the factory's rich form. A request
/// deadline becomes a time point `deadline_ms` from this call, shared by
/// every build made with the returned options.
power::ModelOptions to_model_options(
    const BuildOptions& options,
    const netlist::GateLibrary& library = netlist::GateLibrary::standard());

/// Content address of the model a request would build (canonical .bench
/// text of the netlist + the model-shaping option fingerprint).
ModelId model_id(const netlist::Netlist& n, const BuildOptions& options);

/// Builds the requested model. Sets a deadline when the request carries
/// one, and reports a build that fell back to the constant model as status
/// kDegraded. Throws typed errors.
BuildReply build(const BuildRequest& request);

/// Rich in-process form for callers that already hold ModelOptions (the
/// fuzzer's sampled scenarios): same construction path, no content id.
BuildReply build(const netlist::Netlist& n, power::ModelKind kind,
                 const power::ModelOptions& options);

/// The seeded (sp, st) workload every evaluation path runs: `vectors`
/// Markov vectors of `width` bits from `seed`. Throws UsageError for fewer
/// than 2 vectors and cfpm::Error ("infeasible statistics: ...", the
/// message scripts key on) for statistics no Markov source can produce.
sim::InputSequence generate_workload(const stats::InputStatistics& statistics,
                                     std::size_t width, std::size_t vectors,
                                     std::uint64_t seed = kWorkloadSeed);

/// Evaluates a (sp, st) workload on a model. Validates workload
/// feasibility (typed errors); sharding over `pool` never changes the bits
/// (PowerModel::estimate_trace contract).
EvalReply evaluate(const power::PowerModel& model, const EvalRequest& request,
                   ThreadPool* pool = nullptr);

/// Evaluates an explicit, caller-supplied trace (the daemon's trace-query
/// path and the experiment harness's per-cell evaluation).
EvalReply evaluate_trace(const power::PowerModel& model,
                         const sim::InputSequence& seq,
                         ThreadPool* pool = nullptr);

/// The request's serializable build knobs as chip-build options.
cfpm::chip::ChipBuildOptions to_chip_build_options(const ChipRequest& request);

/// Builds the chip for `request` through `source` (the daemon substitutes
/// its registry-backed source; make_model_source for in-process callers),
/// generates the seeded Markov workload at the chip bus width, and
/// evaluates both compositions. Sharding over `pool` never changes the
/// bits (chip::evaluate_trace contract). Throws typed errors; status is
/// kDegraded when any macro fell back to the §9 constant model.
ChipReply evaluate_chip(const ChipRequest& request,
                        const cfpm::chip::ModelSource& source,
                        ThreadPool* pool = nullptr);

/// In-process form: same path behind the default make_model_source, so the
/// one-shot CLI and the daemon produce bit-identical replies.
ChipReply evaluate_chip(const ChipRequest& request, ThreadPool* pool = nullptr);

/// Explicit-trace form (`cfpm chip --trace`): builds the chip from
/// `request` (its statistics/vectors/seed are ignored) and evaluates both
/// compositions over `trace`, which must span the chip bus.
ChipReply evaluate_chip_trace(const ChipRequest& request,
                              const sim::InputSequence& trace,
                              ThreadPool* pool = nullptr);

}  // namespace cfpm::service
