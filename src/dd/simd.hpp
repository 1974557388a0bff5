// Runtime SIMD dispatch for the compiled-evaluation kernels.
//
// The packed sweep of CompiledDd is pure 64-bit mask bandwidth: every node
// moves W words from its reach row to its children's rows. Widening W words
// per instruction is therefore a direct throughput multiplier, but the
// binary must keep running on machines without AVX, and CI must be able to
// pin the scalar path. This module owns that policy:
//
//  * detect_simd_tier()  — what the CPU can do (cpuid, cached).
//  * requested tier      — what the caller asked for: kAuto by default,
//    overridden by the CFPM_SIMD environment variable (auto|scalar|avx2)
//    or programmatically (CLI --simd).
//  * active_simd_tier()  — min(requested, detected): asking for a tier the
//    CPU lacks silently degrades to the best supported one, so a pinned
//    "avx2" config stays runnable on a pre-AVX2 host.
//
// Every kernel produces bit-identical results (the masks are exact and the
// terminal gather copies doubles verbatim), so the tier is a pure
// performance knob; the simd-dispatch fuzz oracle holds us to that.
#pragma once

#include <string_view>

namespace cfpm::dd::simd {

/// Widths the sweep kernels come in, ordered so that numeric comparison is
/// capability comparison.
enum class Tier : int {
  kScalar = 0,  ///< plain uint64 loop (always available)
  kAvx2 = 1,    ///< 256-bit: 4 mask words per instruction
};

/// Best tier this CPU supports (cpuid-derived, computed once).
Tier detect_simd_tier() noexcept;

/// Tier evaluation kernels actually run: min(requested, detected).
Tier active_simd_tier() noexcept;

/// Programmatic override (CLI --simd). kAuto semantics: pass
/// `request_simd_auto()`; anything above the detected tier is clamped by
/// active_simd_tier(), not here, so the request survives verbatim for
/// diagnostics.
void request_simd_tier(Tier tier) noexcept;
void request_simd_auto() noexcept;

/// Parses "auto", "scalar" or "avx2" and applies it as the
/// requested tier; false (state unchanged) on anything else.
bool request_simd_tier(std::string_view name) noexcept;

/// Re-reads the CFPM_SIMD environment variable (valid values as above;
/// unset or invalid resets to auto). Called once at static init; exposed so
/// tests can flip the override without a subprocess.
void refresh_simd_tier_from_env() noexcept;

/// "scalar" or "avx2" (never "auto": the active tier is resolved).
std::string_view simd_tier_name(Tier tier) noexcept;

}  // namespace cfpm::dd::simd
