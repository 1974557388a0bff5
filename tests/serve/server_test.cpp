// End-to-end daemon contracts over a real Unix socket: wire replies are
// bit-identical to the in-process facade, repeated builds are cache hits
// that perform no construction, unknown ids fail typed, shutdown exit codes
// follow the taxonomy, and a restarted daemon serves from the persisted
// registry. Suite names start with "Serve" so the TSan CI job picks these
// up (connection threads + build pool + lock-free registry in one process).
#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "netlist/generators.hpp"
#include "serve/client.hpp"
#include "serve/service.hpp"
#include "stats/markov.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"

namespace cfpm::serve {
namespace {

/// A daemon on unique /tmp paths whose run() executes on a background
/// thread; the destructor drains it and removes socket + registry files.
struct ScopedServer {
  std::string socket_path;
  std::string persist_dir;
  std::unique_ptr<Server> server;
  std::thread thread;
  int exit_code = -1;

  explicit ScopedServer(const char* tag, std::string persist = {}) {
    static std::atomic<int> counter{0};
    const std::string base =
        (std::filesystem::temp_directory_path() /
         ("cfpm-server-test-" + std::to_string(::getpid()) + "-" + tag + "-" +
          std::to_string(counter.fetch_add(1))))
            .string();
    socket_path = base + ".sock";
    persist_dir = std::move(persist);
    ServerOptions options;
    options.socket_path = socket_path;
    options.persist_dir = persist_dir;
    options.eval_threads = 1;
    options.build_pool_threads = 1;
    server = std::make_unique<Server>(std::move(options));
    thread = std::thread([this] { exit_code = server->run(); });
  }

  void join() {
    if (thread.joinable()) thread.join();
  }

  ~ScopedServer() {
    server->request_shutdown(false);
    join();
    std::error_code ec;
    std::filesystem::remove(socket_path, ec);
  }
};

/// The server thread binds asynchronously; retry the connect briefly.
Client connect_with_retry(const std::string& socket_path) {
  for (int attempt = 0;; ++attempt) {
    try {
      return Client(socket_path);
    } catch (const IoError&) {
      if (attempt >= 400) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

service::BuildRequest c17_request() {
  service::BuildRequest request;
  request.netlist = netlist::gen::c17();
  request.options.max_nodes = 0;
  request.options.degrade = false;
  return request;
}

TEST(ServeEndToEnd, BuildEvalTraceMatchInProcessFacadeBitwise) {
  const service::BuildRequest request = c17_request();
  service::EvalRequest eval;
  eval.statistics = {0.3, 0.2};
  eval.vectors = 400;
  eval.seed = 0xabc;
  stats::MarkovSequenceGenerator gen(eval.statistics, 0x1234);
  const sim::InputSequence trace =
      gen.generate(request.netlist.num_inputs(), 177);

  const service::BuildReply local_build = service::build(request);
  const service::EvalReply local = service::evaluate(*local_build.model, eval);
  const service::EvalReply local_trace =
      service::evaluate_trace(*local_build.model, trace);

  ScopedServer daemon("roundtrip");
  Client client = connect_with_retry(daemon.socket_path);

  const service::BuildReply remote_build = client.build(request);
  EXPECT_EQ(remote_build.id, local_build.id);
  EXPECT_EQ(remote_build.status, service::StatusCode::kOk);
  EXPECT_EQ(remote_build.model_nodes, local_build.model_nodes);
  EXPECT_FALSE(remote_build.cache_hit);

  const service::EvalReply remote = client.evaluate(remote_build.id, eval);
  EXPECT_EQ(remote.total_ff, local.total_ff);
  EXPECT_EQ(remote.average_ff, local.average_ff);
  EXPECT_EQ(remote.peak_ff, local.peak_ff);
  EXPECT_EQ(remote.transitions, local.transitions);
  EXPECT_TRUE(remote.cache_hit);

  const service::EvalReply remote_trace =
      client.evaluate_trace(remote_build.id, trace);
  EXPECT_EQ(remote_trace.total_ff, local_trace.total_ff);
  EXPECT_EQ(remote_trace.peak_ff, local_trace.peak_ff);
  EXPECT_EQ(remote_trace.transitions, local_trace.transitions);
}

TEST(ServeCache, RepeatedBuildIsAHitWithZeroConstruction) {
  ScopedServer daemon("cache");
  Client client = connect_with_retry(daemon.socket_path);
  const service::BuildRequest request = c17_request();

  const service::BuildReply first = client.build(request);
  EXPECT_FALSE(first.cache_hit);
  const wire::StatsReply after_first = client.stats();

  const service::BuildReply second = client.build(request);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.id, first.id);
  EXPECT_EQ(second.model_nodes, first.model_nodes);

  // The acceptance bar: the repeated query performed no model construction.
  const wire::StatsReply after_second = client.stats();
  EXPECT_EQ(after_second.builds - after_first.builds, 0u);
  EXPECT_EQ(after_second.models, after_first.models);
  if (metrics::compiled_in()) {
    EXPECT_GT(after_second.hits, after_first.hits);
  }
}

TEST(ServeCache, ModelShapingKnobsAddressDistinctModels) {
  ScopedServer daemon("distinct");
  Client client = connect_with_retry(daemon.socket_path);
  service::BuildRequest request = c17_request();
  const service::BuildReply avg = client.build(request);
  request.options.kind = power::ModelKind::kAddUpperBound;
  const service::BuildReply ub = client.build(request);
  EXPECT_NE(avg.id, ub.id);
  EXPECT_FALSE(ub.cache_hit) << "different options must not hit the cache";
  EXPECT_EQ(client.stats().models, 2u);
}

TEST(ServeErrors, UnknownIdFailsTypedWithoutBuilding) {
  ScopedServer daemon("unknown");
  Client client = connect_with_retry(daemon.socket_path);
  service::EvalRequest eval;
  eval.vectors = 50;
  try {
    (void)client.evaluate({0xdead, 0xbeef}, eval);
    FAIL() << "eval of an unadmitted id succeeded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("not admitted"), std::string::npos);
  }
  EXPECT_EQ(client.stats().models, 0u);
}

TEST(ServeErrors, InfeasibleStatisticsCrossTheWireTyped) {
  ScopedServer daemon("infeasible");
  Client client = connect_with_retry(daemon.socket_path);
  const service::BuildReply built = client.build(c17_request());
  service::EvalRequest eval;
  eval.statistics = {0.9, 0.9};
  eval.vectors = 50;
  try {
    (void)client.evaluate(built.id, eval);
    FAIL() << "daemon accepted infeasible statistics";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("infeasible"), std::string::npos);
  }
}

TEST(ServeErrors, TooFewVectorsIsAUsageReplyAndTheConnectionSurvives) {
  ScopedServer daemon("vectors");
  Client client = connect_with_retry(daemon.socket_path);
  const service::BuildReply built = client.build(c17_request());
  service::EvalRequest eval;
  eval.vectors = 1;
  try {
    (void)client.evaluate(built.id, eval);
    FAIL() << "daemon accepted a one-vector workload";
  } catch (const service::UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("vectors must be at least 2"),
              std::string::npos)
        << e.what();
  }
  EXPECT_NE(client.ping().find("version 1"), std::string::npos);
}

TEST(ServeLifecycle, PingReportsVersionAndClientShutdownExitsZero) {
  ScopedServer daemon("lifecycle");
  {
    Client client = connect_with_retry(daemon.socket_path);
    EXPECT_NE(client.ping().find("version 1"), std::string::npos);
    client.shutdown_server();
  }
  daemon.join();
  EXPECT_EQ(daemon.exit_code, Server::kExitOk);
}

TEST(ServeLifecycle, SignalShutdownExitsSix) {
  ScopedServer daemon("signal");
  {
    // Make sure the accept loop is actually up before stopping it.
    Client client = connect_with_retry(daemon.socket_path);
    (void)client.ping();
  }
  daemon.server->request_shutdown(/*from_signal=*/true);
  daemon.join();
  EXPECT_EQ(daemon.exit_code, Server::kExitSignal);
}

TEST(ServePersistence, RestartServesFromPersistedRegistry) {
  const std::string persist =
      (std::filesystem::temp_directory_path() /
       ("cfpm-server-test-persist-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(persist);

  const service::BuildRequest request = c17_request();
  service::EvalRequest eval;
  eval.vectors = 300;
  service::ModelId id;
  service::EvalReply first_reply;
  {
    ScopedServer daemon("persist-a", persist);
    Client client = connect_with_retry(daemon.socket_path);
    id = client.build(request).id;
    first_reply = client.evaluate(id, eval);
    client.shutdown_server();
    daemon.join();
    ASSERT_EQ(daemon.exit_code, Server::kExitOk);
  }

  {
    ScopedServer daemon("persist-b", persist);
    Client client = connect_with_retry(daemon.socket_path);
    const wire::StatsReply boot = client.stats();
    ASSERT_EQ(boot.models, 1u) << "warm start did not reload the registry";

    // The same build request is now a cache hit with zero construction...
    const service::BuildReply warm = client.build(request);
    EXPECT_TRUE(warm.cache_hit);
    EXPECT_EQ(warm.id, id);
    EXPECT_EQ(client.stats().builds - boot.builds, 0u);

    // ...and the reloaded model evaluates bit-identically.
    const service::EvalReply again = client.evaluate(id, eval);
    EXPECT_EQ(again.total_ff, first_reply.total_ff);
    EXPECT_EQ(again.average_ff, first_reply.average_ff);
    EXPECT_EQ(again.peak_ff, first_reply.peak_ff);
  }
  std::filesystem::remove_all(persist);
}

TEST(ServeConcurrency, ParallelClientsShareOneDeduplicatedBuild) {
  ScopedServer daemon("parallel");
  const service::BuildRequest request = c17_request();
  constexpr int kClients = 4;
  service::BuildReply replies[kClients];
  std::uint64_t before_builds = 0;
  {
    Client probe = connect_with_retry(daemon.socket_path);
    before_builds = probe.stats().builds;
  }
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      Client client = connect_with_retry(daemon.socket_path);
      replies[i] = client.build(request);
    });
  }
  for (std::thread& t : clients) t.join();
  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(replies[i].id, replies[0].id);
    EXPECT_EQ(replies[i].model_nodes, replies[0].model_nodes);
  }
  Client probe = connect_with_retry(daemon.socket_path);
  EXPECT_EQ(probe.stats().models, 1u);
  if (metrics::compiled_in()) {
    // Concurrent requesters of one id wait on the same job: exactly one
    // construction no matter how the connection threads interleave.
    EXPECT_EQ(probe.stats().builds - before_builds, 1u);
  }
}

TEST(ServeChip, ChipQueryServesMacroLibraryFromRegistry) {
  ScopedServer daemon("chip");
  Client client = connect_with_retry(daemon.socket_path);
  service::ChipRequest request;
  request.spec = "2x2x8";  // 2 distinct macros -> 4 models (avg + bound)
  request.vectors = 200;

  const service::ChipReply first = client.chip(request);
  EXPECT_EQ(first.status, service::StatusCode::kOk);
  EXPECT_EQ(first.macros, 4u);
  EXPECT_EQ(first.cache_hits, 0u);
  ASSERT_EQ(first.library.size(), 2u);
  EXPECT_EQ(client.stats().models, 4u)
      << "every macro variant should be admitted to the registry";

  // The same spec again: the whole library comes from the cache and not a
  // single model is rebuilt.
  const wire::StatsReply before = client.stats();
  const service::ChipReply second = client.chip(request);
  EXPECT_EQ(second.cache_hits, 2 * second.library.size());
  for (const service::ChipMacroSummary& m : second.library) {
    EXPECT_TRUE(m.cache_hit) << m.name;
  }
  EXPECT_EQ(client.stats().builds - before.builds, 0u);
  EXPECT_EQ(client.stats().models, 4u);

  // Served-from-cache and built-fresh replies are bit-identical, and both
  // match the in-process facade (same structs, same code path).
  const service::ChipReply local = service::evaluate_chip(request);
  for (const service::ChipReply* r : {&first, &second}) {
    EXPECT_EQ(r->total_ff, local.total_ff);
    EXPECT_EQ(r->peak_ff, local.peak_ff);
    EXPECT_EQ(r->bound_total_ff, local.bound_total_ff);
    EXPECT_EQ(r->bound_peak_ff, local.bound_peak_ff);
    EXPECT_EQ(r->worst_case_sum_ff, local.worst_case_sum_ff);
    EXPECT_EQ(r->transitions, local.transitions);
    ASSERT_EQ(r->instances.size(), local.instances.size());
    for (std::size_t i = 0; i < local.instances.size(); ++i) {
      EXPECT_EQ(r->instances[i].total_ff, local.instances[i].total_ff);
    }
  }
}

TEST(ServeChip, BadChipSpecFailsTypedOverTheWire) {
  ScopedServer daemon("chip-bad");
  Client client = connect_with_retry(daemon.socket_path);
  service::ChipRequest request;
  request.spec = "not-a-spec";
  try {
    (void)client.chip(request);
    FAIL() << "daemon accepted a malformed chip spec";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad chip spec"), std::string::npos);
  }
  EXPECT_EQ(client.stats().models, 0u);
}

}  // namespace
}  // namespace cfpm::serve
