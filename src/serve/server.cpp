#include "serve/server.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ostream>
#include <utility>

#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/metrics.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace cfpm::serve {

namespace {

const metrics::Counter& c_requests() {
  static const metrics::Counter c("serve.request.count");
  return c;
}
const metrics::Counter& c_cache_hit() {
  static const metrics::Counter c("serve.cache.hit");
  return c;
}
const metrics::Counter& c_cache_miss() {
  static const metrics::Counter c("serve.cache.miss");
  return c;
}
const metrics::Counter& c_builds() {
  static const metrics::Counter c("serve.build.count");
  return c;
}

std::uint64_t micros(double seconds) {
  return seconds <= 0.0 ? 0 : static_cast<std::uint64_t>(seconds * 1e6);
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      eval_pool_(options_.eval_threads) {
  if (options_.socket_path.empty()) {
    throw ContractError("Server: socket_path must not be empty");
  }
  sockaddr_un addr{};
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw ContractError("Server: socket path longer than sun_path limit: " +
                        options_.socket_path);
  }
}

Server::~Server() {
  if (const int fd = listen_fd_.exchange(-1); fd >= 0) ::close(fd);
}

void Server::log(const std::string& line) const {
  if (options_.log == nullptr) return;
  // Connection threads log concurrently; one process-wide mutex keeps lines
  // whole (this is a cold path).
  static std::mutex log_mutex;
  std::lock_guard<std::mutex> lock(log_mutex);
  *options_.log << "cfpmd: " << line << "\n" << std::flush;
}

void Server::request_shutdown(bool from_signal) noexcept {
  if (from_signal) stopped_by_signal_.store(true, std::memory_order_relaxed);
  stop_.store(true, std::memory_order_release);
  // Wake the blocked accept(2). shutdown on a listening socket makes it
  // return immediately; both calls here are async-signal-safe.
  if (const int fd = listen_fd_.load(); fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

int Server::run() {
  if (!options_.persist_dir.empty()) {
    const std::size_t warm = registry_.load(options_.persist_dir);
    if (warm > 0) {
      log("warm start: " + std::to_string(warm) + " model(s) from " +
          options_.persist_dir);
    }
  }

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw IoError(std::string("cfpmd: socket: ") + std::strerror(errno));
  }
  listen_fd_.store(fd);
  ::unlink(options_.socket_path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw IoError("cfpmd: bind " + options_.socket_path + ": " +
                  std::strerror(errno));
  }
  if (::listen(fd, 64) != 0) {
    throw IoError(std::string("cfpmd: listen: ") + std::strerror(errno));
  }
  log("listening on " + options_.socket_path);

  accept_loop(fd);

  // Drain: no new connections are possible. Shut the read side of every
  // live connection so idle readers see EOF; a thread mid-request finishes
  // it (and its reply write) before exiting.
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const auto& conn : connections_) {
      if (!conn->finished.load(std::memory_order_acquire)) {
        ::shutdown(conn->fd, SHUT_RD);
      }
    }
  }
  std::size_t drained = 0;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const auto& conn : connections_) {
      if (conn->thread.joinable()) conn->thread.join();
      ++drained;
    }
    connections_.clear();
  }
  log("drained " + std::to_string(drained) + " connection(s)");

  persist();
  if (const int owned = listen_fd_.exchange(-1); owned >= 0) ::close(owned);
  ::unlink(options_.socket_path.c_str());

  const bool by_signal = stopped_by_signal_.load(std::memory_order_relaxed);
  log(by_signal ? "shutdown complete (signal)" : "shutdown complete");
  return by_signal ? kExitSignal : kExitOk;
}

void Server::accept_loop(int listen_fd) {
  static const metrics::Counter c_accept("serve.accept.count");
  static const metrics::Counter c_accept_error("serve.accept.error");
  while (!stop_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (stop_.load(std::memory_order_acquire)) break;
      // EMFILE/ENFILE etc.: transient — drop this attempt, keep serving.
      c_accept_error.add();
      continue;
    }
    try {
      // After accept on purpose: an injected accept fault exercises the
      // "connection dropped before first byte" path the client must handle
      // (EOF -> typed IoError), without wedging the listener.
      CFPM_FAILPOINT("serve.accept");
    } catch (...) {
      c_accept_error.add();
      ::close(fd);
      continue;
    }
    c_accept.add();

    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* slot = conn.get();
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      // Reap finished threads so a long-lived daemon does not accumulate
      // one zombie std::thread per past connection.
      std::erase_if(connections_, [](const std::unique_ptr<Connection>& c) {
        if (!c->finished.load(std::memory_order_acquire)) return false;
        if (c->thread.joinable()) c->thread.join();
        return true;
      });
      connections_.push_back(std::move(conn));
    }
    slot->thread = std::thread([this, slot] {
      handle_connection(slot->fd);
      ::close(slot->fd);
      slot->finished.store(true, std::memory_order_release);
    });
  }
}

void Server::handle_connection(int fd) {
  wire::Frame frame;
  while (true) {
    try {
      if (!wire::read_frame(fd, frame)) return;  // peer closed
    } catch (...) {
      // Framing is broken (torn header, CRC mismatch, version skew): the
      // stream cannot be resynchronized, so report once and hang up.
      try {
        wire::write_frame(fd, wire::MsgType::kError,
                          wire::encode_error(
                              service::classify(std::current_exception())));
      } catch (...) {
      }
      return;
    }
    try {
      if (!handle_frame(fd, frame)) return;
    } catch (const IoError&) {
      return;  // reply write failed; nothing more to say on this socket
    } catch (...) {
      // Request-level failure: the frame was well-formed, so the stream is
      // intact — send the typed payload and keep serving this connection.
      try {
        wire::write_frame(fd, wire::MsgType::kError,
                          wire::encode_error(
                              service::classify(std::current_exception())));
      } catch (...) {
        return;
      }
    }
  }
}

bool Server::handle_frame(int fd, const wire::Frame& frame) {
  c_requests().add();
  switch (frame.type) {
    case wire::MsgType::kBuildRequest: {
      const service::BuildReply reply = handle_build(frame);
      wire::write_frame(fd, wire::MsgType::kBuildReply,
                        wire::encode_build_reply(reply));
      return true;
    }
    case wire::MsgType::kEvalRequest: {
      static const metrics::Histogram h_eval("serve.eval.latency_us");
      Timer timer;
      const service::EvalReply reply = handle_eval(frame);
      h_eval.observe(micros(timer.seconds()));
      wire::write_frame(fd, wire::MsgType::kEvalReply,
                        wire::encode_eval_reply(reply));
      return true;
    }
    case wire::MsgType::kTraceRequest: {
      static const metrics::Histogram h_eval("serve.eval.latency_us");
      Timer timer;
      const service::EvalReply reply = handle_trace(frame);
      h_eval.observe(micros(timer.seconds()));
      wire::write_frame(fd, wire::MsgType::kTraceReply,
                        wire::encode_eval_reply(reply));
      return true;
    }
    case wire::MsgType::kChipRequest: {
      static const metrics::Histogram h_chip("serve.chip.latency_us");
      Timer timer;
      const service::ChipReply reply = handle_chip(frame);
      h_chip.observe(micros(timer.seconds()));
      wire::write_frame(fd, wire::MsgType::kChipReply,
                        wire::encode_chip_reply(reply));
      return true;
    }
    case wire::MsgType::kStatsRequest: {
      wire::write_frame(fd, wire::MsgType::kStatsReply,
                        wire::encode_stats_reply(handle_stats()));
      return true;
    }
    case wire::MsgType::kPing: {
      wire::write_frame(fd, wire::MsgType::kPong,
                        "version " + std::to_string(wire::kProtocolVersion) +
                            "\nmodels " + std::to_string(registry_.size()) +
                            "\n");
      return true;
    }
    case wire::MsgType::kShutdownRequest: {
      wire::write_frame(fd, wire::MsgType::kShutdownReply, "draining 1\n");
      request_shutdown(/*from_signal=*/false);
      return false;
    }
    default:
      throw service::UsageError("cfpmd: unexpected message type " +
                                std::to_string(static_cast<unsigned>(
                                    frame.type)));
  }
}

service::BuildReply Server::handle_build(const wire::Frame& frame) {
  CFPM_TRACE_SPAN("serve.build_request");
  service::BuildRequest request = wire::decode_build_request(frame.payload);
  if (!request.options.deadline_ms && options_.default_deadline_ms > 0) {
    request.options.deadline_ms = options_.default_deadline_ms;
  }
  return build_model(request);
}

service::BuildReply Server::build_model(const service::BuildRequest& request) {
  const service::ModelId id = service::model_id(request.netlist,
                                                request.options);

  // A cache hit performs zero construction work — that is the asserted
  // contract (`serve.cache.hit` rises, `serve.build.count` does not).
  const auto hit_reply = [&](std::shared_ptr<const power::PowerModel> model) {
    c_cache_hit().add();
    service::BuildReply reply;
    reply.id = id;
    reply.cache_hit = true;
    if (const auto* add =
            dynamic_cast<const power::AddPowerModel*>(model.get())) {
      reply.model_nodes = add->size();
    }
    reply.model = std::move(model);
    return reply;
  };
  if (auto model = registry_.lookup(id)) return hit_reply(std::move(model));
  c_cache_miss().add();

  // Miss: join or create the deduplicated build job for this id, so N
  // concurrent first-requesters cost one construction.
  std::shared_ptr<BuildJob> job;
  bool creator = false;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    auto [it, inserted] =
        jobs_.try_emplace(id.key, std::make_shared<BuildJob>());
    job = it->second;
    creator = inserted;
    if (creator) {
      // The build may have completed — admission, then job erasure —
      // between our registry miss and taking jobs_mutex_ (the registry's
      // own lock is not held across the two). Admission strictly precedes
      // erasure, so a second probe under jobs_mutex_ is authoritative: a
      // hit here means a duplicate construction was about to start.
      if (auto model = registry_.lookup(id)) {
        jobs_.erase(id.key);
        return hit_reply(std::move(model));
      }
    }
  }
  if (!creator) {
    std::unique_lock<std::mutex> job_lock(job->mutex);
    job->done_cv.wait(job_lock, [&] { return job->done; });
    if (job->error) std::rethrow_exception(job->error);
    return job->reply;
  }

  // The creator builds on its own connection thread; waiters on the same
  // id block on the job until it completes, whatever the outcome.
  static const metrics::Histogram h_build("serve.build.latency_us");
  service::BuildReply result;
  std::exception_ptr error;
  try {
    CFPM_TRACE_SPAN("serve.build");
    CFPM_FAILPOINT("serve.build");
    Timer building;
    c_builds().add();
    result = service::build(request);
    h_build.observe(micros(building.seconds()));
    if (result.status == service::StatusCode::kOk) {
      Registry::Entry entry;
      entry.id = id;
      entry.model = result.model;
      entry.circuit = request.netlist.name();
      entry.nodes = result.model_nodes;
      registry_.admit(std::move(entry));
      log("admitted " + id.to_hex() + " (" + request.netlist.name() + ", " +
          std::to_string(result.model_nodes) + " nodes)");
    }
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> job_lock(job->mutex);
    job->reply = result;
    job->error = error;
    job->done = true;
  }
  job->done_cv.notify_all();
  {
    // Erased on failure too: a failed build is not cached, so the next
    // request for this id starts a fresh one.
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs_.erase(id.key);
  }
  if (error) std::rethrow_exception(error);
  return result;
}

std::shared_ptr<const power::PowerModel> Server::resolve(
    const service::ModelId& id, bool& cache_hit) {
  auto model = registry_.lookup(id);
  if (!model) {
    c_cache_miss().add();
    throw Error("cfpmd: model " + id.to_hex() +
                " is not admitted (issue a build request first)");
  }
  c_cache_hit().add();
  cache_hit = true;
  return model;
}

service::EvalReply Server::handle_eval(const wire::Frame& frame) {
  CFPM_TRACE_SPAN("serve.eval_request");
  const wire::EvalQuery query = wire::decode_eval_query(frame.payload);
  bool cache_hit = false;
  const auto model = resolve(query.id, cache_hit);
  service::EvalReply reply = service::evaluate(*model, query.request,
                                               &eval_pool_);
  reply.cache_hit = cache_hit;
  return reply;
}

service::EvalReply Server::handle_trace(const wire::Frame& frame) {
  CFPM_TRACE_SPAN("serve.trace_request");
  const wire::TraceQuery query = wire::decode_trace_query(frame.payload);
  bool cache_hit = false;
  const auto model = resolve(query.id, cache_hit);
  service::EvalReply reply =
      service::evaluate_trace(*model, query.trace, &eval_pool_);
  reply.cache_hit = cache_hit;
  return reply;
}

service::ChipReply Server::handle_chip(const wire::Frame& frame) {
  CFPM_TRACE_SPAN("serve.chip_request");
  service::ChipRequest request = wire::decode_chip_request(frame.payload);
  if (!request.deadline_ms && options_.default_deadline_ms > 0) {
    request.deadline_ms = options_.default_deadline_ms;
  }
  // Each macro variant becomes one ordinary build request through
  // build_model: first-chip misses are built (and admitted) once even under
  // concurrent chip requests, and a repeated spec costs zero construction.
  const chip::ModelSource source = [this, &request](const netlist::Netlist& n,
                                                    power::ModelKind kind) {
    service::BuildRequest br;
    br.netlist = n;
    br.options.kind = kind;
    br.options.max_nodes = request.max_nodes;
    br.options.degrade = request.degrade;
    br.options.deadline_ms = request.deadline_ms;
    service::BuildReply reply = build_model(br);
    chip::SourcedModel out;
    out.model = reply.model;
    out.build_info = reply.build_info;
    out.nodes = reply.model_nodes;
    out.cache_hit = reply.cache_hit;
    return out;
  };
  return service::evaluate_chip(request, source, &eval_pool_);
}

wire::StatsReply Server::handle_stats() const {
  wire::StatsReply reply;
  const metrics::Snapshot snap = metrics::snapshot();
  reply.hits = snap.counter("serve.cache.hit");
  reply.misses = snap.counter("serve.cache.miss");
  reply.builds = snap.counter("serve.build.count");
  for (const Registry::Entry& e : registry_.entries()) {
    reply.model_lines.push_back(e.id.to_hex() + " " +
                                std::to_string(e.nodes) + " " + e.circuit);
  }
  reply.models = reply.model_lines.size();
  return reply;
}

void Server::persist() noexcept {
  if (options_.persist_dir.empty()) return;
  static const metrics::Counter c_persist_error("serve.persist.error");
  try {
    registry_.save(options_.persist_dir);
    log("persisted " + std::to_string(registry_.size()) + " model(s) to " +
        options_.persist_dir);
  } catch (const std::exception& e) {
    // A failed persist must not turn a clean drain into a crash: the
    // registry rebuilds on demand after a cold start. Log and count.
    c_persist_error.add();
    log(std::string("persist failed: ") + e.what());
  }
}

namespace {

std::atomic<Server*> g_signal_server{nullptr};

void on_shutdown_signal(int) {
  if (Server* s = g_signal_server.load(std::memory_order_acquire)) {
    s->request_shutdown(/*from_signal=*/true);
  }
}

}  // namespace

int run_with_signal_handling(Server& server) {
  struct sigaction sa {};
  sa.sa_handler = on_shutdown_signal;
  sigemptyset(&sa.sa_mask);
  struct sigaction old_int {}, old_term {};
  g_signal_server.store(&server, std::memory_order_release);
  ::sigaction(SIGINT, &sa, &old_int);
  ::sigaction(SIGTERM, &sa, &old_term);
  const int code = server.run();
  ::sigaction(SIGINT, &old_int, nullptr);
  ::sigaction(SIGTERM, &old_term, nullptr);
  g_signal_server.store(nullptr, std::memory_order_release);
  return code;
}

}  // namespace cfpm::serve
