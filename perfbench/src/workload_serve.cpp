// Workload `serve`: one client in a closed loop on one Unix-socket
// connection to an in-process cfpm daemon (eval_threads = 1,
// build_pool_threads = 1).
//
// Set-up starts a daemon, admits four models through the client, stops it
// (which persists the registry), builds the same four models in-process,
// and computes the in-process service::evaluate reply of every read
// request. Before each pass, untimed, a fresh daemon warm-starts from a
// copy of that registry, so every pass starts from the same four models.
// Reads are 1000-vector EvalRequests whose replies must equal the
// references bitwise. Every eighth op is a write: a BuildRequest for a
// never-seen small model (a fresh netlist/MAX pair), which forces a
// registry admit and index rebuild beside the reads; every write must be
// admitted.
#include <unistd.h>

#include <chrono>
#include <exception>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "common.hpp"
#include "netlist/generators.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace perfbench {
namespace {

using namespace cfpm;

constexpr std::size_t kWriteEvery = 8;

/// A daemon whose run() executes on a background thread; the destructor
/// stops it (which persists its registry) and joins it.
class Daemon {
 public:
  Daemon(const std::string& socket_path, const std::string& persist_dir)
      : path_(socket_path) {
    serve::ServerOptions options;
    options.socket_path = socket_path;
    options.persist_dir = persist_dir;
    options.eval_threads = 1;
    options.build_pool_threads = 1;
    server_ = std::make_unique<serve::Server>(std::move(options));
    thread_ = std::thread([this] {
      try {
        server_->run();
      } catch (...) {
        error_ = std::current_exception();
      }
    });
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    server_->request_shutdown(false);
    thread_.join();
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }

  /// Connects, retrying while the server thread binds.
  std::unique_ptr<serve::Client> connect() {
    for (int attempt = 0;; ++attempt) {
      try {
        return std::make_unique<serve::Client>(path_);
      } catch (const IoError&) {
        if (attempt >= 400) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }

 private:
  std::string path_;
  std::unique_ptr<serve::Server> server_;
  std::exception_ptr error_;
  std::thread thread_;
};

struct Model {
  service::BuildRequest request;
  service::ModelId id;
  std::shared_ptr<const power::PowerModel> local;  ///< in-process twin
};

struct Read {
  std::size_t model = 0;
  service::EvalRequest request;
  service::EvalReply reference;
};

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(const Config& c)
      : seed_(c.seed),
        base_(c.work_dir + "/serve-" + std::to_string(::getpid())),
        reads_(c.tiny ? 8 : 32),
        ops_per_pass_(c.tiny ? 16 : 96),
        score_vectors_(c.tiny ? 256 : 2000) {}

  ~ServeWorkload() override {
    stop();
    std::error_code ec;
    std::filesystem::remove_all(base_ + ".registry", ec);
    std::filesystem::remove_all(base_ + ".pass", ec);
  }

  void setup() override {
    stop();
    models_.clear();
    reads_list_.clear();
    std::filesystem::remove_all(base_ + ".registry");
    start(base_ + ".registry");
    for (const Circuit& circuit : table1_circuits()) {
      const std::string name = circuit.name;
      if (name != "x2" && name != "cm85") continue;
      netlist::Netlist n;
      {
        trace::Span span("netlist.gen");
        n = netlist::gen::mcnc_like(circuit.name);
      }
      for (const bool bound : {false, true}) {
        Model m;
        m.request.netlist = n;
        m.request.options.kind = bound ? power::ModelKind::kAddUpperBound
                                       : power::ModelKind::kAddAverage;
        // Both variants at the average MAX, so the bound is approximated.
        m.request.options.max_nodes = circuit.avg_max;
        m.request.options.build_threads = 1;
        {
          trace::Span span("serve.rtt");
          const service::BuildReply admitted = client_->build(m.request);
          if (admitted.status != service::StatusCode::kOk) {
            throw Error("serve set-up: " + name + " build degraded");
          }
          m.id = admitted.id;
        }
        {
          trace::Span span("bench.service.build");
          m.local = service::build(m.request).model;
        }
        models_.push_back(std::move(m));
      }
    }
    stop();
    for (std::size_t k = 0; k < reads_; ++k) {
      Read q;
      q.model = k % models_.size();
      q.request.statistics = spread_cell(k, reads_);
      q.request.vectors = 1000;
      q.request.seed = derive_seed(seed_, 31, k);
      trace::Span span("bench.service.evaluate");
      q.reference = service::evaluate(*models_[q.model].local, q.request);
      reads_list_.push_back(q);
    }
    next_read_ = 0;
  }

  void prepare_pass() override {
    const std::string dir = base_ + ".pass";
    std::filesystem::remove_all(dir);
    std::filesystem::copy(base_ + ".registry", dir,
                          std::filesystem::copy_options::recursive);
    start(dir);
    writes_ = 0;
  }

  std::uint64_t run_pass(Result& r, std::vector<double>* op_ms) override {
    std::uint64_t transitions = 0;
    for (std::size_t i = 0; i < ops_per_pass_; ++i) {
      if (i % kWriteEvery == kWriteEvery - 1) {
        write(r, op_ms);
        continue;
      }
      const Read& q = reads_list_[next_read_++ % reads_list_.size()];
      try {
        Timer t;
        service::EvalReply reply;
        {
          trace::Span span("serve.rtt");
          reply = client_->evaluate(models_[q.model].id, q.request);
        }
        if (op_ms != nullptr) op_ms->push_back(1e3 * t.seconds());
        transitions += reply.transitions;
        r.op(reply.status == service::StatusCode::kOk && reply.cache_hit &&
                 reply.transitions == q.reference.transitions &&
                 same_bits(reply.total_ff, q.reference.total_ff) &&
                 same_bits(reply.peak_ff, q.reference.peak_ff),
             "read differs from in-process service::evaluate");
      } catch (const std::exception& e) {
        r.op(false, std::string("read: ") + e.what());
      }
    }
    return transitions;
  }

  void verify_pass(Result& r) override {
    try {
      registry_models_ = client_->stats().models;
      if (registry_models_ != models_.size() + writes_) {
        r.fail("registry holds " + std::to_string(registry_models_) +
               " models, expected " +
               std::to_string(models_.size() + writes_));
      }
    } catch (const std::exception& e) {
      r.fail(std::string("stats: ") + e.what());
    }
    stop();
  }

  void finish(Result& r) override {
    // Accuracy of the served models on held-out traces (untimed). The
    // daemon builds with the standard library, so the golden does too.
    const std::vector<stats::InputStatistics> grid = stats::evaluation_grid();
    Accuracy accuracy;
    for (std::size_t i = 0; i + 1 < models_.size(); i += 2) {
      Golden golden(models_[i].request.netlist,
                    netlist::GateLibrary::standard());
      golden.generate(grid, score_vectors_, derive_seed(seed_, 32, i));
      accuracy.add_average(*models_[i].local, golden);
      accuracy.add_bound(*models_[i + 1].local, golden);
    }
    accuracy.write(r.accuracy);
  }

  void counts(Result& r) override {
    std::vector<std::shared_ptr<const power::PowerModel>> models;
    for (const Model& m : models_) models.push_back(m.local);
    add_model_counts(models, r);
    double bits = 0.0;
    for (const Read& q : reads_list_) {
      bits += static_cast<double>(
          models_[q.model].request.netlist.num_inputs() * q.request.vectors);
    }
    r.counts["stats.bits"] = bits;
    r.counts["serve.registry_models"] = static_cast<double>(registry_models_);
  }

 private:
  /// One write: a BuildRequest this daemon has not seen (the MAX is unique
  /// per write and above the exact model size, so every write builds the
  /// same exact c17 model under a new content address).
  void write(Result& r, std::vector<double>* op_ms) {
    service::BuildRequest request;
    request.netlist = netlist::gen::c17();
    request.options.max_nodes = 100000 + writes_;
    request.options.build_threads = 1;
    try {
      Timer t;
      service::BuildReply reply;
      {
        trace::Span span("serve.rtt");
        reply = client_->build(request);
      }
      if (op_ms != nullptr) op_ms->push_back(1e3 * t.seconds());
      ++writes_;
      r.op(reply.status == service::StatusCode::kOk && !reply.cache_hit,
           "write was not admitted as a new model");
    } catch (const std::exception& e) {
      r.op(false, std::string("write: ") + e.what());
    }
  }

  void start(const std::string& persist_dir) {
    daemon_ = std::make_unique<Daemon>(base_ + ".sock", persist_dir);
    client_ = daemon_->connect();
  }

  void stop() {
    client_.reset();
    daemon_.reset();
  }

  std::uint64_t seed_;
  std::string base_;  ///< prefix of the socket and registry paths
  std::size_t reads_;
  std::size_t ops_per_pass_;
  std::size_t score_vectors_;
  std::size_t writes_ = 0;
  std::size_t next_read_ = 0;
  std::uint64_t registry_models_ = 0;
  std::unique_ptr<Daemon> daemon_;
  std::unique_ptr<serve::Client> client_;
  std::vector<Model> models_;
  std::vector<Read> reads_list_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_workload(const Config& c) {
  return std::make_unique<ServeWorkload>(c);
}

}  // namespace perfbench
