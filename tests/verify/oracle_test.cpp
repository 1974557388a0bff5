// Tests of the differential oracle registry, the structural minimizer, and
// the fuzzing driver (clean engines: every check must pass).
#include "verify/oracle.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "netlist/generators.hpp"
#include "support/deadline.hpp"
#include "support/error.hpp"
#include "verify/fuzzer.hpp"
#include "verify/minimize.hpp"

namespace cfpm::verify {
namespace {

TEST(Oracle, RegistryIsConsistent) {
  const auto checks = all_checks();
  ASSERT_GE(checks.size(), 7u);
  std::set<std::string_view> names;
  for (const Check& c : checks) {
    EXPECT_TRUE(names.insert(c.name).second) << "duplicate: " << c.name;
    EXPECT_FALSE(c.invariant.empty());
    EXPECT_EQ(find_check(c.name), &c);
  }
  EXPECT_EQ(find_check("no-such-check"), nullptr);
}

TEST(Oracle, AllChecksPassOnC17) {
  const netlist::Netlist n = netlist::gen::c17();
  CheckContext ctx;
  ctx.seed = 7;
  ctx.patterns = 64;
  for (const Check& c : all_checks()) {
    const CheckResult r = run_check(c, n, ctx);
    EXPECT_TRUE(r.ok) << c.name << ": " << r.detail;
  }
}

TEST(Oracle, AllChecksPassOnSampledCircuits) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const netlist::Netlist n = sample_netlist(seed, /*max_gates=*/40);
    CheckContext ctx;
    ctx.seed = seed;
    ctx.patterns = 48;
    for (const Check& c : all_checks()) {
      const CheckResult r = run_check(c, n, ctx);
      EXPECT_TRUE(r.ok) << c.name << " on " << n.name() << " (seed " << seed
                        << "): " << r.detail;
    }
  }
}

TEST(Oracle, SampledCircuitIsDeterministicInTheSeed) {
  const netlist::Netlist a = sample_netlist(99, 40);
  const netlist::Netlist b = sample_netlist(99, 40);
  EXPECT_EQ(a.num_inputs(), b.num_inputs());
  EXPECT_EQ(a.num_gates(), b.num_gates());
  EXPECT_EQ(a.name(), b.name());
}

TEST(Oracle, RunCheckConvertsThrowsIntoFailures) {
  const Check boom{"boom", "never throws",
                   [](const netlist::Netlist&, const CheckContext&)
                       -> CheckResult { throw Error("kaboom"); }};
  const CheckResult r = run_check(boom, netlist::gen::c17(), CheckContext{});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.detail.find("kaboom"), std::string::npos);
}

TEST(Oracle, RunCheckPropagatesDeadlineAsStopSignal) {
  const Check slow{"slow", "deadline test",
                   [](const netlist::Netlist&, const CheckContext&)
                       -> CheckResult { throw DeadlineExceeded("late"); }};
  EXPECT_THROW(run_check(slow, netlist::gen::c17(), CheckContext{}),
               DeadlineExceeded);
}

// ---------------------------------------------------------------------------

netlist::SignalId count_of_type(const netlist::Netlist& n,
                                netlist::GateType t) {
  netlist::SignalId count = 0;
  for (netlist::SignalId s = 0; s < n.num_signals(); ++s) {
    if (!n.signal(s).is_input && n.signal(s).type == t) ++count;
  }
  return count;
}

TEST(Minimize, ShrinksAnXorWitnessToACoupleOfGates) {
  // Synthetic failure: "the circuit contains an XOR gate". The minimizer
  // should strip the parity tree down to (almost) a single XOR.
  const netlist::Netlist n = netlist::gen::parity_tree(8);
  ASSERT_GE(count_of_type(n, netlist::GateType::kXor), 1u);
  const auto r = minimize(n, [](const netlist::Netlist& cand) {
    return count_of_type(cand, netlist::GateType::kXor) >= 1;
  });
  EXPECT_GE(count_of_type(r.netlist, netlist::GateType::kXor), 1u);
  EXPECT_LE(r.netlist.num_gates(), 2u);
  EXPECT_GT(r.attempts, 0u);
  EXPECT_EQ(r.removed_gates, n.num_gates() - r.netlist.num_gates());
  r.netlist.validate();
}

TEST(Minimize, KeepsTheOriginalWhenNothingSmallerFails) {
  const netlist::Netlist n = netlist::gen::c17();
  const auto r = minimize(n, [&](const netlist::Netlist& cand) {
    return cand.num_gates() == n.num_gates();  // only full size "fails"
  });
  EXPECT_EQ(r.netlist.num_gates(), n.num_gates());
  EXPECT_EQ(r.removed_gates, 0u);
}

TEST(Minimize, RespectsTheAttemptBudget) {
  const netlist::Netlist n = netlist::gen::parity_tree(8);
  std::size_t calls = 0;
  const auto r = minimize(
      n,
      [&](const netlist::Netlist&) {
        ++calls;
        return true;  // everything fails: worst case for the budget
      },
      /*max_attempts=*/5);
  EXPECT_LE(calls, 5u);
  EXPECT_EQ(r.attempts, calls);
}

// ---------------------------------------------------------------------------

TEST(Fuzzer, CleanEnginesYieldAGreenCampaign) {
  FuzzOptions opt;
  opt.seed = 3;
  opt.runs = 2;
  opt.max_gates = 30;
  opt.patterns = 32;
  opt.corpus_dir.clear();  // no corpus writes from tests
  const FuzzReport report = run_fuzz(opt);
  EXPECT_EQ(report.iterations, 2u);
  EXPECT_EQ(report.checks_run, 2 * all_checks().size());
  EXPECT_TRUE(report.failures.empty());
  EXPECT_FALSE(report.deadline_hit);
}

TEST(Fuzzer, CheckSelectionIsHonoredAndValidated) {
  FuzzOptions opt;
  opt.seed = 3;
  opt.runs = 1;
  opt.max_gates = 20;
  opt.patterns = 16;
  opt.corpus_dir.clear();
  opt.checks = {"collapse-avg", "serialize-roundtrip"};
  const FuzzReport report = run_fuzz(opt);
  EXPECT_EQ(report.checks_run, 2u);

  opt.checks = {"definitely-not-a-check"};
  EXPECT_THROW(run_fuzz(opt), Error);
}

TEST(Fuzzer, ExpiredDeadlineStopsTheCampaignCleanly) {
  FuzzOptions opt;
  opt.seed = 3;
  opt.runs = 50;
  opt.corpus_dir.clear();
  opt.deadline = deadline_after(0);
  const FuzzReport report = run_fuzz(opt);
  EXPECT_TRUE(report.deadline_hit);
  EXPECT_LT(report.iterations, 50u);
  EXPECT_TRUE(report.failures.empty());
}

}  // namespace
}  // namespace cfpm::verify
