// Kept only for the repository benchmark's report line, which prints
// simd_tier_name(active_simd_tier()). The packed sweep has one portable
// kernel (dd/compiled.cpp), so the tier is always "scalar".
#pragma once

#include <string_view>

namespace cfpm::dd::simd {

enum class Tier : int { kScalar = 0 };

inline Tier active_simd_tier() noexcept { return Tier::kScalar; }
inline std::string_view simd_tier_name(Tier) noexcept { return "scalar"; }

}  // namespace cfpm::dd::simd
