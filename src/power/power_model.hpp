// RTL power-model interface.
//
// A model maps an input transition (x^i -> x^f) of a combinational macro to
// an estimate of the switched capacitance in fF (energy = Vdd^2 * C, Eq. 1).
// Pattern-independent models simply ignore the patterns.
//
// Evaluation has one hook and one loop. A model customises batch
// evaluation only through estimate_block (512 packed transitions at a
// time; the default unpacks and calls estimate_ff). stream_trace is the
// single chunked trace loop over any number of models bound to a bus:
// PowerModel::estimate_trace is its one-instance case and
// chip::evaluate_trace its composed-design case.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/sequence.hpp"
#include "support/thread_pool.hpp"

namespace cfpm::power {

/// One-pass summary of a model evaluated over every transition of a
/// sequence (the per-cycle RTL simulation loop, batched).
struct TraceEstimate {
  double total_ff = 0.0;        ///< sum of per-transition estimates
  double peak_ff = 0.0;         ///< maximum estimate (0 for empty traces)
  std::size_t transitions = 0;  ///< transitions evaluated

  double average_ff() const {
    return transitions == 0 ? 0.0
                            : total_ff / static_cast<double>(transitions);
  }
};

/// Caller-owned buffers for PowerModel::estimate_block. Reusing one per
/// thread keeps a block loop allocation-free once it has grown to the
/// widest model it serves; models only ever touch the caller's scratch.
struct BlockScratch {
  std::vector<std::uint64_t> bits;   ///< operands in diagram-variable order
  std::vector<std::uint64_t> masks;  ///< packed-sweep reach masks
  std::vector<std::uint8_t> xi, xf;  ///< one unpacked transition
};

class PowerModel {
 public:
  virtual ~PowerModel() = default;

  virtual std::string name() const = 0;

  /// Estimated switching capacitance (fF) for one transition.
  virtual double estimate_ff(std::span<const std::uint8_t> xi,
                             std::span<const std::uint8_t> xf) const = 0;

  /// True when estimate_ff is guaranteed >= the golden model's value for
  /// every transition (conservative upper bound).
  virtual bool is_upper_bound() const { return false; }

  /// Number of macro inputs the model expects.
  virtual std::size_t num_inputs() const = 0;

  /// Largest estimate the model can produce over any transition (the
  /// pattern-independent worst case of this estimator).
  virtual double worst_case_ff() const = 0;

  // ----- block evaluation ---------------------------------------------------

  /// Words per input in an estimate_block operand; equals the group count
  /// of the compiled diagram's packed sweep (CompiledDd::kPackedGroups).
  static constexpr std::size_t kBlockGroups = 8;
  /// Most transitions one estimate_block call takes.
  static constexpr std::size_t kBlockTransitions = 64 * kBlockGroups;

  /// Estimates `count` (1..kBlockTransitions) transitions into
  /// out[0..count). Operands are packed per model input in the
  /// InputSequence::window64 layout: bit j of xi_words[kBlockGroups*k + w]
  /// is input k's initial value in transition 64w+j, and xf_words holds the
  /// final values likewise (see pack_block). Every out[t] is bit-identical
  /// to estimate_ff on the unpacked transition. The default unpacks and
  /// calls estimate_ff once per transition; the ADD model runs one packed
  /// sweep of its compiled diagram instead. This is the only evaluation
  /// hook besides estimate_ff: every trace, of one model or of a composed
  /// design, streams through it (stream_trace).
  virtual void estimate_block(std::span<const std::uint64_t> xi_words,
                              std::span<const std::uint64_t> xf_words,
                              std::size_t count, std::span<double> out,
                              BlockScratch& scratch) const;

  // ----- sequence-level evaluation (RTL simulation loop) -------------------

  /// Transitions per work chunk of estimate_trace (see stream_trace).
  static constexpr std::size_t kTraceChunk = 4096;
  static_assert(kTraceChunk % kBlockTransitions == 0,
                "chunk boundaries must not split a block");

  /// Evaluates every transition of `seq` in one pass: the one-instance
  /// case of stream_trace, reading the sequence's inputs in order, in
  /// kTraceChunk-sized chunks sharded across `pool` when one is given.
  /// Bit-identical for any pool size, including no pool at all. Models
  /// customise evaluation through estimate_block alone.
  TraceEstimate estimate_trace(const sim::InputSequence& seq,
                               ThreadPool* pool = nullptr) const;

  /// Average estimated capacitance per transition over a sequence.
  double average_over(const sim::InputSequence& seq) const {
    return estimate_trace(seq).average_ff();
  }

  /// Maximum estimated capacitance over the transitions of a sequence.
  double peak_over(const sim::InputSequence& seq) const {
    return estimate_trace(seq).peak_ff;
  }
};

/// One model bound to a window of a wider bus: operand input k of `model`
/// reads sequence input inputs[k].
struct TraceInstance {
  const PowerModel* model = nullptr;
  std::span<const std::size_t> inputs;
};

/// What stream_trace returns.
struct TraceTotals {
  /// Instance i's estimates summed in transition order within each chunk,
  /// then folded chunk by chunk in chunk order.
  std::vector<double> per_instance_ff;
  /// Largest per-transition cycle total, each folded 0.0 + v_0 + v_1 + ...
  /// in instance order (0 for empty traces).
  double peak_ff = 0.0;
};

/// The one trace loop: streams every transition of `seq` through every
/// instance. The trace is split into `chunk`-transition chunks (a positive
/// multiple of kBlockTransitions) whose boundaries depend only on the
/// sequence; within a chunk each instance packs 512 transitions at a time
/// (pack_block) and runs estimate_block on them. Chunk partials land in
/// per-chunk slots and are reduced in chunk order, so the result is
/// bit-identical for any pool size. Without a pool the chunks run serially
/// on the caller; with one they go through pool->run_indexed.
TraceTotals stream_trace(std::span<const TraceInstance> instances,
                         const sim::InputSequence& seq, std::size_t chunk,
                         ThreadPool* pool);

/// Packs transitions [base, base + count) of `seq` into estimate_block
/// operands: operand input k reads sequence input inputs[k], so a model
/// bound to a window of a wider bus gathers its own bits directly.
/// Requires count <= PowerModel::kBlockTransitions, base + count <=
/// seq.num_transitions(), and kBlockGroups * inputs.size() words in each
/// of xi_words and xf_words.
void pack_block(const sim::InputSequence& seq,
                std::span<const std::size_t> inputs, std::size_t base,
                std::size_t count, std::span<std::uint64_t> xi_words,
                std::span<std::uint64_t> xf_words);

/// Supply voltage context to convert capacitance to energy/power.
struct SupplyConfig {
  double vdd_volts = 3.3;
  /// Energy (fJ) for a switched capacitance in fF.
  double energy_fj(double cap_ff) const { return vdd_volts * vdd_volts * cap_ff; }
  /// Average power (uW) given fF per transition and a clock period in ns.
  double power_uw(double cap_ff_per_cycle, double period_ns) const {
    return energy_fj(cap_ff_per_cycle) / period_ns;  // fJ/ns == uW
  }
};

}  // namespace cfpm::power
