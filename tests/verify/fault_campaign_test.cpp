// Fault-injection campaign: `run_fuzz` with faults enabled arms sampled
// failpoint specs around every check and asserts the recovery contract —
// a fault may surface as a typed failure, but the identical check re-run
// clean must pass, and a value mismatch without a throw is reported as
// silent corruption. Plus the `faults` line of the repro format and
// replay()'s arm-for-the-duration semantics.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "netlist/generators.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "verify/corpus.hpp"
#include "verify/fuzzer.hpp"
#include "verify/oracle.hpp"

namespace cfpm::verify {
namespace {

class FaultCampaign : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::disarm_all(); }
  void TearDown() override { failpoint::disarm_all(); }
};

TEST_F(FaultCampaign, SmallCampaignRecoversFromEveryInjectedFault) {
  FuzzOptions opt;
  opt.seed = 77;
  opt.runs = 8;
  opt.max_gates = 24;
  opt.patterns = 32;
  opt.corpus_dir = "";  // nothing to persist: the campaign must stay green
  opt.faults = true;
  const FuzzReport report = run_fuzz(opt);
  EXPECT_EQ(report.iterations, 8u);
  EXPECT_TRUE(report.failures.empty())
      << "first failure: " << report.failures.front().check << " seed "
      << report.failures.front().seed << " faults '"
      << report.failures.front().faults << "': "
      << report.failures.front().detail;
  // With several checks per iteration and allocation faults in the spec
  // pool, a campaign this size always lands at least one hit.
  EXPECT_GT(report.faults_fired, 0u);
  // Every typed failure must have been followed by a passing clean rerun.
  EXPECT_GE(report.faults_fired, report.fault_recoveries);
  // The campaign may not leak armed entries into the rest of the process.
  EXPECT_TRUE(failpoint::armed().empty());
}

TEST_F(FaultCampaign, InjectedFaultSurfacesAsTypedFailureNeverWrongValues) {
  const Check* check = find_check("model-vs-sim");
  ASSERT_NE(check, nullptr);
  const netlist::Netlist n = netlist::gen::c17();
  CheckContext ctx;
  ctx.seed = 5;
  ctx.patterns = 32;

  failpoint::arm_from_spec("dd.allocate_node=throw_bad_alloc:1");
  const CheckResult faulted = run_check(*check, n, ctx);
  failpoint::disarm_all();
  EXPECT_FALSE(faulted.ok);
  EXPECT_TRUE(faulted.threw) << faulted.detail;

  // The recovery contract: the identical check, clean, passes.
  const CheckResult clean = run_check(*check, n, ctx);
  EXPECT_TRUE(clean.ok) << clean.detail;
  EXPECT_FALSE(clean.threw);
}

TEST_F(FaultCampaign, ReproFaultsLineRoundTrips) {
  Repro r;
  r.check = "model-vs-sim";
  r.seed = 123;
  r.patterns = 16;
  r.netlist = netlist::gen::c17();
  r.faults = "dd.allocate_node=throw_bad_alloc:2,dd.serialize.read=fail_io";
  std::stringstream ss;
  write_repro(ss, r);
  const Repro back = read_repro(ss);
  EXPECT_EQ(back.faults, r.faults);
  EXPECT_EQ(back.check, r.check);
  EXPECT_EQ(back.seed, r.seed);
}

TEST_F(FaultCampaign, ReproRejectsBadOrDuplicateFaultsLines) {
  auto parse = [](const std::string& header) {
    std::istringstream in("cfpm-fuzz-repro 1\n" + header +
                          "bench\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n");
    return read_repro(in);
  };
  // A malformed spec is rejected at parse time, not at replay time.
  EXPECT_THROW(
      parse("check model-vs-sim\nseed 1\npatterns 4\nfaults bogus-spec\n"),
      ParseError);
  EXPECT_THROW(parse("check model-vs-sim\nseed 1\npatterns 4\n"
                     "faults a=fail_io\nfaults b=fail_io\n"),
               ParseError);
  // A valid spec parses.
  const Repro ok =
      parse("check model-vs-sim\nseed 1\npatterns 4\nfaults a=fail_io:3\n");
  EXPECT_EQ(ok.faults, "a=fail_io:3");
}

TEST_F(FaultCampaign, ReplayArmsTheRecordedSpecAndDisarmsAfter) {
  Repro r;
  r.check = "model-vs-sim";
  r.seed = 5;
  r.patterns = 32;
  r.netlist = netlist::gen::c17();
  r.faults = "dd.allocate_node=throw_bad_alloc:1";

  const CheckResult faulted = replay(r);
  EXPECT_FALSE(faulted.ok);
  EXPECT_TRUE(faulted.threw) << faulted.detail;
  EXPECT_TRUE(failpoint::armed().empty()) << "replay leaked armed entries";

  // Without the faults line the same repro is green: the recorded fault is
  // the failure's whole cause, which is exactly what a recovered-fault
  // repro asserts after the underlying bug is fixed.
  r.faults.clear();
  const CheckResult clean = replay(r);
  EXPECT_TRUE(clean.ok) << clean.detail;
}

}  // namespace
}  // namespace cfpm::verify
