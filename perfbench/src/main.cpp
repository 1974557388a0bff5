// cfpm_perfbench: runs one benchmark workload and writes its raw
// measurements as JSON. perfbench/run.py builds and drives it and turns the
// raw file (plus, in a traced run, the Chrome trace) into the reported
// metrics.
//
//   cfpm_perfbench --workload build|estimate|serve|chip --seed N
//                  --seconds S --trace 0|1 --out FILE [--trace-out FILE]
//                  [--work-dir DIR] [--tiny]
//
// Untraced run: set-up is repeated (its times are reported), then passes of
// the workload's fixed op list run until the next one would overrun
// --seconds. Traced run: one traced set-up, then passes alternating
// untraced and traced, so the tracing overhead is measured in one process.
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <numeric>
#include <string>
#include <thread>

#include "common.hpp"
#include "dd/simd.hpp"
#include "support/metrics.hpp"
#include "support/parse.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "cfpm_perfbench: " << why << "\n"
            << "usage: cfpm_perfbench --workload build|estimate|serve|chip "
               "--seed N --seconds S --trace 0|1 --out FILE "
               "[--trace-out FILE] [--work-dir DIR] [--tiny]\n";
  std::exit(2);
}

Config parse_args(int argc, char** argv) {
  Config c;
  bool have_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      c.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      c.workload = value;
    } else if (arg == "--seed") {
      const auto v = cfpm::parse_number<std::uint64_t>(value);
      if (!v) usage("bad --seed " + value);
      c.seed = *v;
    } else if (arg == "--seconds") {
      const auto v = cfpm::parse_number<double>(value);
      if (!v || *v <= 0.0) usage("bad --seconds " + value);
      c.seconds = *v;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      c.trace = value == "1";
    } else if (arg == "--out") {
      c.out_path = value;
      have_out = true;
    } else if (arg == "--trace-out") {
      c.trace_path = value;
    } else if (arg == "--work-dir") {
      c.work_dir = value;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (!have_out) usage("--out is required");
  if (c.trace && c.trace_path.empty()) usage("--trace 1 needs --trace-out");
  return c;
}

std::unique_ptr<Workload> make_workload(const Config& c) {
  if (c.workload == "build") return make_build_workload(c);
  if (c.workload == "estimate") return make_estimate_workload(c);
  if (c.workload == "serve") return make_serve_workload(c);
  if (c.workload == "chip") return make_chip_workload(c);
  usage("unknown workload " + c.workload);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

void write_list(std::ostream& os, const char* key,
                const std::vector<double>& v) {
  os << "  \"" << key << "\": [";
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
  os << "],\n";
}

void write_map(std::ostream& os, const char* key,
               const std::map<std::string, double>& m, bool last = false) {
  os << "  \"" << key << "\": {";
  bool first = true;
  for (const auto& [name, value] : m) {
    os << (first ? "" : ", ") << "\"" << name << "\": " << value;
    first = false;
  }
  os << "}" << (last ? "\n" : ",\n");
}

/// Counter deltas of the process metrics between two snapshots.
void add_snapshot_counts(const cfpm::metrics::Snapshot& before,
                         const cfpm::metrics::Snapshot& after, Result& r) {
  auto delta = [&](const char* name) {
    return static_cast<double>(after.counter(name) - before.counter(name));
  };
  r.counts["dd.node_alloc"] = delta("dd.node.alloc");
  r.counts["serve.cache_hit"] = delta("serve.cache.hit");
  r.counts["serve.cache_miss"] = delta("serve.cache.miss");
  r.counts["serve.builds"] = delta("serve.build.count");
}

int run(const Config& c) {
  const std::string tier(
      cfpm::dd::simd::simd_tier_name(cfpm::dd::simd::active_simd_tier()));
  std::cout << "# workload " << c.workload << "  seed " << c.seed
            << "  seconds " << c.seconds << "  trace " << c.trace
            << (c.tiny ? "  tiny" : "") << "\n"
            << "# host simd_tier " << tier << "  hardware_concurrency "
            << std::thread::hardware_concurrency() << std::endl;

  std::unique_ptr<Workload> w = make_workload(c);
  Result r;
  cfpm::metrics::Snapshot before;

  if (!c.trace) {
    const int setups = c.tiny ? 1 : 3;
    for (int i = 0; i < setups; ++i) {
      if (i + 1 == setups) before = cfpm::metrics::snapshot();
      cfpm::Timer t;
      w->setup();
      r.setup_s.push_back(t.seconds());
    }
  } else {
    before = cfpm::metrics::snapshot();
    cfpm::trace::clear();
    cfpm::trace::set_enabled(true);
    {
      cfpm::trace::Span span("bench.setup");
      w->setup();
    }
    cfpm::trace::set_enabled(false);
  }

  // Passes: untraced only, or alternating untraced/traced in the traced
  // run. Stop when one more pass would overrun the measuring window.
  cfpm::Timer window;
  for (std::size_t k = 0;; ++k) {
    const bool traced = c.trace && k % 2 == 1;
    w->prepare_pass();
    if (traced) {
      cfpm::trace::set_enabled(true);
      cfpm::Timer t;
      {
        cfpm::trace::Span span("bench.pass");
        w->run_pass(r, nullptr);
      }
      r.traced_pass_s.push_back(t.seconds());
      cfpm::trace::set_enabled(false);
    } else {
      cfpm::Timer t;
      const std::uint64_t transitions =
          w->run_pass(r, c.trace ? nullptr : &r.op_ms);
      r.pass_s.push_back(t.seconds());
      if (!c.trace) r.transitions += transitions;
    }
    w->verify_pass(r);
    if (k == 0) {
      add_snapshot_counts(before, cfpm::metrics::snapshot(), r);
      w->counts(r);
    }
    // The traced run needs one untraced and one traced pass at least.
    const std::size_t min_passes = c.trace ? 2 : 1;
    if (k + 1 < min_passes) continue;
    if (c.tiny) break;
    const double per_pass = mean(c.trace ? r.traced_pass_s : r.pass_s);
    if (window.seconds() + per_pass > c.seconds) break;
  }
  w->finish(r);
  const double lookups = r.counts["dd.cache_lookups"];
  r.counts["dd.cache_hit_rate"] =
      lookups > 0.0 ? r.counts["dd.cache_hits"] / lookups : 0.0;
  r.counts.erase("dd.cache_hits");

  if (c.trace) {
    std::ofstream trace_out(c.trace_path);
    cfpm::trace::write_chrome_json(trace_out);
    if (!trace_out) throw std::runtime_error("cannot write " + c.trace_path);
  }

  std::ofstream os(c.out_path);
  os << std::setprecision(17) << "{\n";
  os << "  \"attempted\": " << r.attempted << ",\n"
     << "  \"failed\": " << r.failed << ",\n";
  write_list(os, "setup_s", r.setup_s);
  write_list(os, "pass_s", r.pass_s);
  write_list(os, "traced_pass_s", r.traced_pass_s);
  write_list(os, "op_ms", r.op_ms);
  os << "  \"transitions\": " << r.transitions << ",\n"
     << "  \"peak_rss_mb\": " << peak_rss_mb() << ",\n";
  write_map(os, "accuracy", r.accuracy);
  write_map(os, "counts", r.counts, /*last=*/true);
  os << "}\n";
  if (!os) throw std::runtime_error("cannot write " + c.out_path);

  std::cout << "# attempted " << r.attempted << "  failed " << r.failed
            << "\n";
  for (const std::string& f : r.failures) std::cout << "# FAILED " << f << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Config c = parse_args(argc, argv);
  try {
    return run(c);
  } catch (const std::exception& e) {
    std::cerr << "cfpm_perfbench: " << e.what() << "\n";
    return 1;
  }
}
