#include "dd/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <optional>

#include "dd/simd_kernels.hpp"

namespace cfpm::dd::simd {

namespace {

#if defined(__x86_64__) || defined(__i386__)
Tier detect_once() noexcept {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return Tier::kAvx2;
  return Tier::kScalar;
}
#else
Tier detect_once() noexcept { return Tier::kScalar; }
#endif

constexpr int kAuto = -1;

std::optional<int> parse_tier(std::string_view name) noexcept {
  if (name == "auto") return kAuto;
  if (name == "scalar") return static_cast<int>(Tier::kScalar);
  if (name == "avx2") return static_cast<int>(Tier::kAvx2);
  return std::nullopt;
}

int request_from_env() noexcept {
  const char* const env = std::getenv("CFPM_SIMD");
  if (env == nullptr) return kAuto;
  return parse_tier(std::string_view(env)).value_or(kAuto);
}

/// Requested tier as an int (kAuto or a Tier value), seeded from CFPM_SIMD
/// at first use so plain library users honor the env var with no init call.
/// Atomic so the CLI, a test, and concurrently evaluating pool workers
/// never race; relaxed is enough — the tier is a performance knob, every
/// kernel is bit-identical.
std::atomic<int>& requested() noexcept {
  static std::atomic<int> tier{request_from_env()};
  return tier;
}

}  // namespace

Tier detect_simd_tier() noexcept {
  static const Tier detected = detect_once();
  return detected;
}

Tier active_simd_tier() noexcept {
  const int req = requested().load(std::memory_order_relaxed);
  const Tier detected = detect_simd_tier();
  if (req == kAuto) return detected;
  return static_cast<int>(detected) < req ? detected : static_cast<Tier>(req);
}

void request_simd_tier(Tier tier) noexcept {
  requested().store(static_cast<int>(tier), std::memory_order_relaxed);
}

void request_simd_auto() noexcept {
  requested().store(kAuto, std::memory_order_relaxed);
}

bool request_simd_tier(std::string_view name) noexcept {
  const std::optional<int> parsed = parse_tier(name);
  if (!parsed) return false;
  requested().store(*parsed, std::memory_order_relaxed);
  return true;
}

void refresh_simd_tier_from_env() noexcept {
  requested().store(request_from_env(), std::memory_order_relaxed);
}

std::string_view simd_tier_name(Tier tier) noexcept {
  switch (tier) {
    case Tier::kScalar: return "scalar";
    case Tier::kAvx2: return "avx2";
  }
  return "scalar";
}

SweepFn select_sweep(std::size_t W) noexcept {
  const Tier tier = active_simd_tier();
  if (tier >= Tier::kAvx2 && W % 4 == 0) return &sweep_avx2;
  return &sweep_scalar;
}

}  // namespace cfpm::dd::simd
