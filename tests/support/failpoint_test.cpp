// Failpoint registry: spec grammar, fire budgets and typed actions.
#include "support/failpoint.hpp"

#include <gtest/gtest.h>

#include <new>

#include "support/error.hpp"
#include "support/metrics.hpp"

namespace cfpm::failpoint {
namespace {

/// Every test leaves the process-global registry empty, whatever happens.
class Failpoint : public ::testing::Test {
 protected:
  void SetUp() override { disarm_all(); }
  void TearDown() override { disarm_all(); }
};

TEST_F(Failpoint, UnarmedHitIsANoOp) {
  EXPECT_NO_THROW(hit("never.armed"));
  EXPECT_TRUE(armed().empty());
}

TEST_F(Failpoint, ActionsThrowTheirTypedExceptions) {
  arm("fp.alloc", Action::kThrowBadAlloc);
  EXPECT_THROW(hit("fp.alloc"), std::bad_alloc);
  arm("fp.deadline", Action::kThrowDeadline);
  EXPECT_THROW(hit("fp.deadline"), DeadlineExceeded);
  arm("fp.io", Action::kFailIo);
  EXPECT_THROW(hit("fp.io"), IoError);
}

TEST_F(Failpoint, CountBudgetSpendsThenGoesInert) {
  arm("fp.twice", Action::kThrowBadAlloc, 2);
  EXPECT_THROW(hit("fp.twice"), std::bad_alloc);
  EXPECT_THROW(hit("fp.twice"), std::bad_alloc);
  // Budget spent: the entry is gone and the hook is free again.
  EXPECT_NO_THROW(hit("fp.twice"));
  EXPECT_TRUE(armed().empty());
}

TEST_F(Failpoint, ForeverCountNeverSpends) {
  arm("fp.forever", Action::kThrowBadAlloc, kForever);
  for (int i = 0; i < 5; ++i) {
    EXPECT_THROW(hit("fp.forever"), std::bad_alloc);
  }
  ASSERT_EQ(armed().size(), 1u);
  EXPECT_EQ(armed()[0].remaining, kForever);
  disarm("fp.forever");
  EXPECT_NO_THROW(hit("fp.forever"));
}

std::uint64_t fired_count() {
  return metrics::snapshot().counter("failpoint.fired");
}

TEST_F(Failpoint, TotalFiresCountsActionsNotHits) {
  const std::uint64_t before = fired_count();
  hit("fp.unarmed");  // no action, no fire
  arm("fp.count", Action::kThrowDeadline, 2);
  EXPECT_THROW(hit("fp.count"), DeadlineExceeded);
  EXPECT_THROW(hit("fp.count"), DeadlineExceeded);
  hit("fp.count");  // spent
  EXPECT_EQ(fired_count(), before + 2);
}

TEST_F(Failpoint, SpecGrammarArmsEverything) {
  arm_from_spec(
      "a.one=throw_bad_alloc,b.two=throw_deadline:3,c.three=delay_ms(7):0");
  const auto entries = armed();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, "a.one");
  EXPECT_EQ(entries[0].action, Action::kThrowBadAlloc);
  EXPECT_EQ(entries[0].remaining, 1u);  // count omitted = once
  EXPECT_EQ(entries[1].name, "b.two");
  EXPECT_EQ(entries[1].action, Action::kThrowDeadline);
  EXPECT_EQ(entries[1].remaining, 3u);
  EXPECT_EQ(entries[2].name, "c.three");
  EXPECT_EQ(entries[2].action, Action::kDelayMs);
  EXPECT_EQ(entries[2].delay_ms, 7u);
  EXPECT_EQ(entries[2].remaining, kForever);
}

TEST_F(Failpoint, DelayActionSleepsWithoutThrowing) {
  arm_from_spec("fp.slow=delay_ms(1):2");
  EXPECT_NO_THROW(hit("fp.slow"));
  EXPECT_NO_THROW(hit("fp.slow"));
  EXPECT_TRUE(armed().empty());
}

TEST_F(Failpoint, MalformedSpecsThrowAndArmNothing) {
  for (const char* bad : {
           "no_equals",                 // entry without '='
           "a=",                        // empty action
           "=throw_bad_alloc",          // empty name
           "a=throw_sigsegv",           // unknown action
           "a=throw_bad_alloc:xyz",     // non-numeric count
           "a=delay_ms()",              // missing delay value
           "a=delay_ms(12",             // unterminated parens
           "",                          // nothing to arm
           "a=fail_io,b=bogus",         // one bad entry poisons the spec
           "x=throw_resource",          // retired action
       }) {
    EXPECT_THROW(arm_from_spec(bad), Error) << bad;
    EXPECT_TRUE(armed().empty()) << "partial arm from '" << bad << "'";
    EXPECT_THROW(validate_spec(bad), Error) << bad;
  }
}

TEST_F(Failpoint, ValidateSpecDoesNotArm) {
  validate_spec("a=throw_bad_alloc:2,b=delay_ms(3)");
  EXPECT_TRUE(armed().empty());
}

TEST_F(Failpoint, RearmingReplacesTheEntry) {
  arm("fp.replace", Action::kThrowBadAlloc, 5);
  arm("fp.replace", Action::kFailIo, 1);
  const auto entries = armed();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].action, Action::kFailIo);
  EXPECT_EQ(entries[0].remaining, 1u);
}

}  // namespace
}  // namespace cfpm::failpoint
