// Dispatch-policy tests for dd/simd.hpp: requested-tier plumbing, the
// detected-tier clamp, name parsing, and the CFPM_SIMD environment
// override. Kernel output equivalence lives in the simd-dispatch fuzz
// oracle and compiled_eval_test; this file is only about tier selection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "dd/simd.hpp"

namespace cfpm {
namespace {

using dd::simd::Tier;

/// Leaves the process-global dispatch state (and CFPM_SIMD) as it found it,
/// so test order cannot matter.
class SimdDispatchTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("CFPM_SIMD");
    dd::simd::refresh_simd_tier_from_env();
  }
};

TEST_F(SimdDispatchTest, DetectionIsStableAndScalarAlwaysAvailable) {
  const Tier detected = dd::simd::detect_simd_tier();
  EXPECT_GE(static_cast<int>(detected), static_cast<int>(Tier::kScalar));
  EXPECT_EQ(dd::simd::detect_simd_tier(), detected) << "detection not cached";
}

TEST_F(SimdDispatchTest, ActiveTierIsRequestClampedToDetection) {
  const Tier detected = dd::simd::detect_simd_tier();
  for (const Tier requested : {Tier::kScalar, Tier::kAvx2}) {
    dd::simd::request_simd_tier(requested);
    const Tier active = dd::simd::active_simd_tier();
    EXPECT_EQ(static_cast<int>(active),
              std::min(static_cast<int>(requested),
                       static_cast<int>(detected)));
  }
  dd::simd::request_simd_auto();
  EXPECT_EQ(dd::simd::active_simd_tier(), detected);
}

TEST_F(SimdDispatchTest, ParsesTierNamesAndRejectsEverythingElse) {
  EXPECT_TRUE(dd::simd::request_simd_tier("scalar"));
  EXPECT_EQ(dd::simd::active_simd_tier(), Tier::kScalar);
  EXPECT_TRUE(dd::simd::request_simd_tier("avx2"));
  EXPECT_TRUE(dd::simd::request_simd_tier("auto"));
  EXPECT_EQ(dd::simd::active_simd_tier(), dd::simd::detect_simd_tier());

  dd::simd::request_simd_tier(Tier::kScalar);
  for (const char* bad : {"", "AVX2", "sse", "avx512", "avx-512", "scalar ",
                          "1"}) {
    EXPECT_FALSE(dd::simd::request_simd_tier(bad)) << "accepted '" << bad
                                                   << "'";
    EXPECT_EQ(dd::simd::active_simd_tier(), Tier::kScalar)
        << "rejected name '" << bad << "' changed the state";
  }
}

TEST_F(SimdDispatchTest, EnvironmentOverrideForcesScalar) {
  ASSERT_EQ(::setenv("CFPM_SIMD", "scalar", 1), 0);
  dd::simd::refresh_simd_tier_from_env();
  EXPECT_EQ(dd::simd::active_simd_tier(), Tier::kScalar);
}

TEST_F(SimdDispatchTest, UnsetOrInvalidEnvironmentResetsToAuto) {
  dd::simd::request_simd_tier(Tier::kScalar);
  ASSERT_EQ(::unsetenv("CFPM_SIMD"), 0);
  dd::simd::refresh_simd_tier_from_env();
  EXPECT_EQ(dd::simd::active_simd_tier(), dd::simd::detect_simd_tier());

  dd::simd::request_simd_tier(Tier::kScalar);
  ASSERT_EQ(::setenv("CFPM_SIMD", "turbo", 1), 0);
  dd::simd::refresh_simd_tier_from_env();
  EXPECT_EQ(dd::simd::active_simd_tier(), dd::simd::detect_simd_tier());
}

TEST_F(SimdDispatchTest, TierNamesRoundTrip) {
  for (const Tier t : {Tier::kScalar, Tier::kAvx2}) {
    const std::string_view name = dd::simd::simd_tier_name(t);
    ASSERT_TRUE(dd::simd::request_simd_tier(name)) << name;
    EXPECT_EQ(dd::simd::active_simd_tier(),
              std::min(t, dd::simd::detect_simd_tier()));
  }
}

}  // namespace
}  // namespace cfpm
