// Blocking wire-protocol client for the `cfpm serve` daemon.
//
// One Client owns one connected Unix-socket stream and issues strictly
// request/reply calls on it. Error frames from the daemon are rethrown as
// the typed exception they were classified from on the server (a remote
// DeadlineExceeded lands as DeadlineExceeded here), so caller-side handling
// is identical for the in-process facade and the daemon — which is what the
// serve-roundtrip fuzz oracle and the CLI `query` subcommand rely on.
#pragma once

#include <string>

#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "sim/sequence.hpp"

namespace cfpm::serve {

class Client {
 public:
  /// Connects to the daemon at `socket_path`; throws IoError on failure.
  explicit Client(const std::string& socket_path);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Remote service::build. The reply carries no model object (it lives in
  /// the daemon's registry); address it by reply.id in later queries.
  service::BuildReply build(const service::BuildRequest& request);

  /// Remote (sp, st) workload evaluation of an admitted model.
  service::EvalReply evaluate(const service::ModelId& id,
                              const service::EvalRequest& request);

  /// Remote evaluation of an explicit trace.
  service::EvalReply evaluate_trace(const service::ModelId& id,
                                    const sim::InputSequence& trace);

  /// Remote chip build-and-evaluate: the daemon constructs the spec's
  /// macro library through its registry (reply.cache_hits counts variants
  /// served without construction) and evaluates both compositions.
  service::ChipReply chip(const service::ChipRequest& request);

  wire::StatsReply stats();

  /// Liveness probe; returns the pong payload text.
  std::string ping();

  /// Asks the daemon to drain and exit (its run() returns exit code 0).
  void shutdown_server();

 private:
  /// One request/reply exchange; rethrows daemon error frames typed.
  wire::Frame call(wire::MsgType type, const std::string& payload,
                   wire::MsgType expected_reply);

  int fd_ = -1;
};

}  // namespace cfpm::serve
