// Width-specialized sweep kernels behind the SIMD dispatch (private to
// src/dd; include only from dd implementation files, tests and benches).
//
// One "sweep" is the whole packed evaluation of W 64-assignment groups on a
// CompiledDd: seed the root's reach row, stream every internal node in
// level order pushing masks to its children's rows, then gather terminal
// rows into per-assignment doubles. The kernels differ only in how many
// mask words one instruction moves; given the same inputs they produce
// bit-identical outputs (mask algebra is exact, the gather copies terminal
// doubles verbatim).
//
// Layout contract shared by all kernels:
//  * `bits[bits_stride * var + w]` holds group w's packed values of `var`
//    (callers sweeping a sub-block pass `bits + first_group`, keeping the
//    full-layout stride).
//  * `reach` is ctx.num_nodes rows of W words, reused across calls without
//    clearing: the first-edge tag on child indices makes every non-root row
//    a store-before-load.
//  * `all[w]` masks the valid lanes of group w; `out[64 * w + k]` receives
//    lane k of group w (lanes outside `all` are never written).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "dd/compiled.hpp"

namespace cfpm::dd::simd {

struct SweepCtx {
  const CompiledDd::Node* nodes = nullptr;
  const double* values = nullptr;  ///< terminal values (num_terminals)
  std::uint32_t first_terminal = 0;
  std::uint32_t num_nodes = 0;
  std::uint32_t root = 0;  ///< must be an internal node (callers shortcut
                           ///< constant diagrams before dispatching)
};

using SweepFn = void (*)(const SweepCtx& ctx, const std::uint64_t* bits,
                         std::size_t bits_stride, const std::uint64_t* all,
                         double* out, std::uint64_t* reach, std::size_t W);

/// Portable uint64 loop; any W >= 1.
void sweep_scalar(const SweepCtx& ctx, const std::uint64_t* bits,
                  std::size_t bits_stride, const std::uint64_t* all,
                  double* out, std::uint64_t* reach, std::size_t W);

/// 256-bit AVX2 kernel; requires W % 4 == 0 and an AVX2 CPU.
void sweep_avx2(const SweepCtx& ctx, const std::uint64_t* bits,
                std::size_t bits_stride, const std::uint64_t* all, double* out,
                std::uint64_t* reach, std::size_t W);

/// Widest kernel the active tier supports whose width constraint divides W.
SweepFn select_sweep(std::size_t W) noexcept;

/// Shared terminal gather: scatters reach rows of the sink records into
/// out[64 * w + k]. Scalar on purpose — terminals are few and the cost is
/// dominated by the sweep.
inline void gather_terminals(const SweepCtx& ctx, const std::uint64_t* reach,
                             double* out, std::size_t W) {
  for (std::uint32_t i = ctx.first_terminal; i < ctx.num_nodes; ++i) {
    const std::uint64_t* const m = reach + W * i;
    std::uint64_t any = 0;
    for (std::size_t w = 0; w < W; ++w) any |= m[w];
    if (any == 0) continue;
    const double v = ctx.values[i - ctx.first_terminal];
    for (std::size_t w = 0; w < W; ++w) {
      std::uint64_t mm = m[w];
      while (mm != 0) {
        out[64 * w + static_cast<std::size_t>(std::countr_zero(mm))] = v;
        mm &= mm - 1;
      }
    }
  }
}

}  // namespace cfpm::dd::simd
