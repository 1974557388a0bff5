// The service facade: typed error payload round-trips, the exit-code
// taxonomy, content addressing, and request validation — the contracts the
// CLI, the daemon, and the fuzzer all build on.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <exception>
#include <new>
#include <stdexcept>

#include "netlist/generators.hpp"
#include "support/error.hpp"

namespace cfpm::service {
namespace {

ErrorPayload classify_thrown(const std::exception_ptr& e) {
  return classify(e);
}

template <typename E>
ErrorPayload classify_of(const E& error) {
  return classify_thrown(std::make_exception_ptr(error));
}

TEST(ServiceErrors, ClassifyMapsTypesToKindsAndCodes) {
  EXPECT_EQ(classify_of(Error("x")).kind, ErrorKind::kGeneric);
  EXPECT_EQ(classify_of(Error("x")).code, StatusCode::kError);
  EXPECT_EQ(classify_of(UsageError("x")).kind, ErrorKind::kUsage);
  EXPECT_EQ(classify_of(UsageError("x")).code, StatusCode::kUsage);
  EXPECT_EQ(classify_of(ParseError("x")).kind, ErrorKind::kParse);
  EXPECT_EQ(classify_of(IoError("x")).kind, ErrorKind::kIo);
  EXPECT_EQ(classify_of(DeadlineExceeded("x")).kind, ErrorKind::kDeadline);
  EXPECT_EQ(classify_of(std::bad_alloc()).kind, ErrorKind::kOom);
  EXPECT_EQ(classify_of(std::bad_alloc()).code, StatusCode::kOom);
  EXPECT_EQ(classify_of(std::runtime_error("x")).kind, ErrorKind::kInternal);
  EXPECT_EQ(classify_of(std::runtime_error("x")).code, StatusCode::kInternal);
}

TEST(ServiceErrors, RethrowResurrectsTheTypedException) {
  // The round trip that lets a remote DeadlineExceeded land typed locally.
  EXPECT_THROW(rethrow(classify_of(DeadlineExceeded("too slow"))),
               DeadlineExceeded);
  EXPECT_THROW(rethrow(classify_of(ParseError("bad"))), ParseError);
  EXPECT_THROW(rethrow(classify_of(IoError("io"))), IoError);
  EXPECT_THROW(rethrow(classify_of(UsageError("use"))), UsageError);
  EXPECT_THROW(rethrow(classify_of(std::bad_alloc())), std::bad_alloc);
  try {
    rethrow(classify_of(DeadlineExceeded("too slow")));
    FAIL() << "rethrow returned";
  } catch (const DeadlineExceeded& e) {
    EXPECT_STREQ(e.what(), "too slow");  // message survives
  }
}

TEST(ServiceErrors, ExitCodesAreTheTaxonomy) {
  EXPECT_EQ(exit_code(StatusCode::kOk), 0);
  EXPECT_EQ(exit_code(StatusCode::kError), 1);
  EXPECT_EQ(exit_code(StatusCode::kUsage), 2);
  EXPECT_EQ(exit_code(StatusCode::kDegraded), 3);
  EXPECT_EQ(exit_code(StatusCode::kOom), 4);
  EXPECT_EQ(exit_code(StatusCode::kInternal), 5);
}

TEST(ServiceModelId, HexRoundTrip) {
  const ModelId id{0x0123456789abcdefull, 0xfedcba9876543210ull};
  const std::string hex = id.to_hex();
  EXPECT_EQ(hex.size(), 32u);
  EXPECT_EQ(hex, "0123456789abcdeffedcba9876543210");
  const auto back = ModelId::from_hex(hex);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, id);
}

TEST(ServiceModelId, FromHexRejectsJunk) {
  EXPECT_FALSE(ModelId::from_hex("").has_value());
  EXPECT_FALSE(ModelId::from_hex("0123").has_value());
  EXPECT_FALSE(
      ModelId::from_hex("0123456789abcdeffedcba987654321g").has_value());
  EXPECT_FALSE(
      ModelId::from_hex("0123456789abcdeffedcba98765432100").has_value());
}

TEST(ServiceModelId, ContentAddressingSeparatesShapingKnobs) {
  const netlist::Netlist c17 = netlist::gen::c17();
  const netlist::Netlist other = netlist::gen::parity_tree(3, 0);
  BuildOptions base;

  const ModelId id = model_id(c17, base);
  EXPECT_EQ(id, model_id(c17, base)) << "id must be deterministic";
  EXPECT_NE(id, model_id(other, base)) << "different netlist, different id";

  // Model-shaping knobs change the id...
  BuildOptions shaped = base;
  shaped.max_nodes = base.max_nodes + 1;
  EXPECT_NE(id, model_id(c17, shaped));
  shaped = base;
  shaped.kind = power::ModelKind::kAddUpperBound;
  EXPECT_NE(id, model_id(c17, shaped));

  // ...resilience knobs do not (same clean model either way).
  BuildOptions resilience = base;
  resilience.degrade = !base.degrade;
  resilience.deadline_ms = 12345;
  EXPECT_EQ(id, model_id(c17, resilience));

  // Ids are persisted (registry manifests, scripts holding `cfpm build`
  // output), so they must never drift: these are the ids `cfpm build
  // gen:c17` and `cfpm build gen:cm85 -m 500` print.
  EXPECT_EQ(id.to_hex(), "e44ced9280f1ea8eba9ef07eb4d26367");
  BuildOptions m500 = base;
  m500.max_nodes = 500;
  EXPECT_EQ(model_id(netlist::gen::mcnc_like("cm85"), m500).to_hex(),
            "5bdd98c5dbd738055ea7637d96950c20");
}

TEST(ServiceBuild, BuildsAndEvaluates) {
  BuildRequest request;
  request.netlist = netlist::gen::c17();
  request.options.max_nodes = 0;
  const BuildReply built = build(request);
  EXPECT_EQ(built.status, StatusCode::kOk);
  ASSERT_NE(built.model, nullptr);
  EXPECT_GT(built.model_nodes, 0u);
  EXPECT_NE(built.id.key, 0u);

  EvalRequest eval;
  eval.vectors = 500;
  const EvalReply reply = evaluate(*built.model, eval);
  EXPECT_EQ(reply.status, StatusCode::kOk);
  EXPECT_EQ(reply.transitions, eval.vectors - 1);
  EXPECT_GT(reply.total_ff, 0.0);
  EXPECT_GE(reply.peak_ff, reply.average_ff);

  // Determinism: the facade's workload recipe is a pure function of the
  // request (this is what makes daemon replies comparable to CLI output).
  const EvalReply again = evaluate(*built.model, eval);
  EXPECT_EQ(reply.total_ff, again.total_ff);
  EXPECT_EQ(reply.peak_ff, again.peak_ff);
}

TEST(ServiceBuild, RequestsServeAddKindsOnlyTheRichFormAnyKind) {
  BuildRequest request;
  request.netlist = netlist::gen::c17();
  for (const power::ModelKind kind :
       {power::ModelKind::kConstant, power::ModelKind::kLinear}) {
    request.options.kind = kind;
    EXPECT_THROW((void)build(request), UsageError);
    // The characterized baselines stay available in-process.
    const BuildReply baseline =
        build(request.netlist, kind, to_model_options(request.options));
    ASSERT_NE(baseline.model, nullptr);
    EXPECT_EQ(baseline.model->num_inputs(), request.netlist.num_inputs());
  }
}

TEST(ServiceEvaluate, RejectsInfeasibleStatistics) {
  BuildRequest request;
  request.netlist = netlist::gen::c17();
  const BuildReply built = build(request);
  EvalRequest eval;
  eval.statistics = {0.9, 0.9};  // st > 2*min(sp, 1-sp)
  eval.vectors = 100;
  try {
    (void)evaluate(*built.model, eval);
    FAIL() << "evaluate accepted infeasible statistics";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("infeasible"), std::string::npos);
  }
}

}  // namespace
}  // namespace cfpm::service
