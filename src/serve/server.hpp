// The long-lived power-model server behind `cfpm serve` (its log lines and
// error messages carry the `cfpmd:` prefix).
//
// One process owns a content-addressed Registry of compiled models and
// answers wire-protocol queries over a Unix-domain socket:
//
//   build  -> hash the netlist+options; registry hit returns immediately
//             (serve.cache.hit, zero construction work); a miss runs one
//             deduplicated build on the requesting connection's thread
//             (concurrent requesters of the same id wait on the same job)
//             under the request's deadline, with the §9 constant model
//             as fallback. Clean builds are admitted to the registry;
//             fallback results are served to their requester but never
//             cached (whether the deadline expires depends on wall clock,
//             so caching one would break the bit-identical replay
//             guarantee).
//   eval   -> (sp, st) workload query against an admitted model — the exact
//             one-shot-CLI recipe (seeded Markov generator + one batched
//             estimate_trace pass), so daemon replies are bit-identical to
//             `cfpm estimate`.
//   trace  -> explicit vector sequence evaluated the same way; request
//             batching rides the estimate_trace fixed-chunk contract.
//   chip   -> builds a composed chip (src/chip) whose macro library is
//             routed through the registry — each distinct macro model is
//             one deduplicated build request, so a repeated spec is all
//             cache hits — then evaluates both compositions on the shared
//             eval pool.
//   stats / ping / shutdown — introspection and lifecycle.
//
// Threading: one std::thread per connection (requests on a connection are
// processed in order; concurrency comes from concurrent connections). A
// cache-miss build runs on the thread of the connection that created its
// job, so distinct models build in parallel, one per connection. The shared
// eval pool only shards evaluation. A registry lookup on the query path
// holds the registry mutex for one hash probe.
//
// Shutdown: request_shutdown() is async-signal-safe (an atomic flag plus
// shutdown(2) on the listening socket to wake accept). The drain sequence
// — stop accepting, shut the read side of every live connection, join
// connection threads (in-flight requests complete and their replies are
// written), persist the registry — runs the same way for a client-issued
// shutdown request (exit code 0) and for SIGINT/SIGTERM (exit code 6, see
// the CLI taxonomy).
//
// Failpoints: serve.accept (after a connection is accepted; the connection
// is dropped, counted, and serving continues), serve.build (start of every
// model construction), serve.persist (registry save).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/registry.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "support/thread_pool.hpp"

namespace cfpm::serve {

struct ServerOptions {
  /// Filesystem path of the Unix-domain listening socket (sun_path limits
  /// this to ~107 bytes). Created on run(), unlinked on exit.
  std::string socket_path;
  /// Warm-start directory: loaded before accepting, saved on clean
  /// shutdown. Empty disables persistence.
  std::string persist_dir;
  /// Lanes of the shared eval pool (estimate_trace sharding). 0 = hardware.
  std::size_t eval_threads = 1;
  /// Unused: builds run on connection threads. Kept only because the
  /// benchmark sources assign it; the next change to the benchmark removes it.
  std::size_t build_pool_threads = 1;
  /// Build deadline applied to requests that carry none (0 = no
  /// default deadline).
  std::size_t default_deadline_ms = 0;
  /// Progress log (startup, shutdown, admissions); nullptr = quiet.
  std::ostream* log = nullptr;
};

class Server {
 public:
  /// Exit codes of run(), extending the CLI taxonomy: a client-requested
  /// shutdown is a clean 0; a signal-initiated one exits 6 so scripts can
  /// tell "asked to stop" from "stopped by the operator/supervisor".
  static constexpr int kExitOk = 0;
  static constexpr int kExitSignal = 6;

  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, serves until shutdown, drains, persists; returns the
  /// exit code. Throws IoError when the socket cannot be created.
  int run();

  /// Initiates shutdown; safe from a signal handler (atomic store + one
  /// shutdown(2) syscall) and from any thread. `from_signal` selects the
  /// exit code.
  void request_shutdown(bool from_signal) noexcept;

  const Registry& registry() const { return registry_; }
  const ServerOptions& options() const { return options_; }

 private:
  /// Deduplicated in-flight construction of one model id.
  struct BuildJob {
    std::mutex mutex;
    std::condition_variable done_cv;
    bool done = false;
    service::BuildReply reply;
    std::exception_ptr error;
  };

  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> finished{false};
  };

  void accept_loop(int listen_fd);
  void handle_connection(int fd);
  /// Dispatches one decoded frame; returns false when the connection asked
  /// the server to shut down (reply already written).
  bool handle_frame(int fd, const wire::Frame& frame);
  service::BuildReply handle_build(const wire::Frame& frame);
  /// The registry-backed build path behind handle_build: probe, dedup via
  /// BuildJob, construction on the calling thread, admission of clean
  /// results. handle_chip
  /// calls it once per macro variant, so chip requests populate (and are
  /// served from) the same cache as plain build requests.
  service::BuildReply build_model(const service::BuildRequest& request);
  service::EvalReply handle_eval(const wire::Frame& frame);
  service::EvalReply handle_trace(const wire::Frame& frame);
  service::ChipReply handle_chip(const wire::Frame& frame);
  wire::StatsReply handle_stats() const;
  /// Looks `id` up, throwing a typed Error miss message shared by eval and
  /// trace paths.
  std::shared_ptr<const power::PowerModel> resolve(const service::ModelId& id,
                                                   bool& cache_hit);
  void persist() noexcept;
  void log(const std::string& line) const;

  ServerOptions options_;
  Registry registry_;
  ThreadPool eval_pool_;

  std::mutex jobs_mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<BuildJob>> jobs_;

  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;

  // Atomic because request_shutdown reads it from another thread (or a
  // signal handler: lock-free, so still async-signal-safe) while run()
  // sets and clears it. Whoever closes the socket takes it with
  // exchange(-1) first.
  std::atomic<int> listen_fd_{-1};
  static_assert(std::atomic<int>::is_always_lock_free);
  std::atomic<bool> stop_{false};
  std::atomic<bool> stopped_by_signal_{false};
};

/// Runs `server` with SIGINT/SIGTERM wired to
/// request_shutdown(from_signal=true) — the daemon entry point of
/// `cfpm serve`. Previous handlers are restored on return. One server at a
/// time, process-wide.
int run_with_signal_handling(Server& server);

}  // namespace cfpm::serve
