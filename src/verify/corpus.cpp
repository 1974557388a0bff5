#include "verify/corpus.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "netlist/bench_io.hpp"
#include "support/assert.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/io.hpp"
#include "support/parse.hpp"

namespace cfpm::verify {

namespace {

/// "key value" line with an exact key; returns the value part.
std::string expect_kv(std::istream& is, const char* key, std::size_t& lineno) {
  std::string line;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.find(' ');
    if (space == std::string::npos || line.substr(0, space) != key) {
      throw ParseError("repro: expected '" + std::string(key) + " <value>', got '" +
                           line + "'",
                       lineno);
    }
    return line.substr(space + 1);
  }
  throw ParseError("repro: missing '" + std::string(key) + "' line", lineno);
}

}  // namespace

Repro read_repro(std::istream& is) {
  std::size_t lineno = 0;
  std::string line;
  if (!std::getline(is, line)) throw ParseError("repro: empty file", 1);
  ++lineno;
  if (line != "cfpm-fuzz-repro 1") {
    throw ParseError("repro: bad header '" + line + "'", lineno);
  }

  Repro r;
  r.check = expect_kv(is, "check", lineno);
  if (find_check(r.check) == nullptr) {
    throw ParseError("repro: unknown check '" + r.check + "'", lineno);
  }
  const std::string seed_tok = expect_kv(is, "seed", lineno);
  const auto seed = parse_number<std::uint64_t>(seed_tok);
  if (!seed) throw ParseError("repro: bad seed '" + seed_tok + "'", lineno);
  r.seed = *seed;
  const std::string pat_tok = expect_kv(is, "patterns", lineno);
  const auto patterns = parse_number<std::size_t>(pat_tok);
  if (!patterns || *patterns == 0) {
    throw ParseError("repro: bad patterns '" + pat_tok + "'", lineno);
  }
  r.patterns = *patterns;

  // Optional "faults"/"note ..." lines, then the mandatory "bench" marker.
  for (;;) {
    if (!std::getline(is, line)) {
      throw ParseError("repro: missing 'bench' section", lineno);
    }
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    if (line == "bench") break;
    if (line.rfind("faults ", 0) == 0) {
      if (!r.faults.empty()) {
        throw ParseError("repro: duplicate 'faults' line", lineno);
      }
      r.faults = line.substr(7);
      try {
        failpoint::validate_spec(r.faults);
      } catch (const Error& e) {
        throw ParseError(std::string("repro: ") + e.what(), lineno);
      }
      continue;
    }
    if (line.rfind("note ", 0) == 0) {
      if (!r.note.empty()) r.note += "\n";
      r.note += line.substr(5);
      continue;
    }
    throw ParseError("repro: unexpected line '" + line + "'", lineno);
  }

  r.netlist = netlist::read_bench(is, "repro");
  return r;
}

Repro read_repro_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw Error("cannot open repro: " + path);
  try {
    return read_repro(f);
  } catch (const ParseError& e) {
    throw ParseError(path + ": " + e.what(), e.line());
  }
}

void write_repro(std::ostream& os, const Repro& r) {
  os << "cfpm-fuzz-repro 1\n";
  os << "check " << r.check << "\n";
  os << "seed " << r.seed << "\n";
  os << "patterns " << r.patterns << "\n";
  if (!r.faults.empty()) os << "faults " << r.faults << "\n";
  std::istringstream note(r.note);
  std::string line;
  while (std::getline(note, line)) os << "note " << line << "\n";
  os << "bench\n";
  netlist::write_bench(os, r.netlist);
  if (!os) throw IoError("write_repro: stream failure");
}

void write_repro_file(const std::string& path, const Repro& r) {
  // Corpus commits are regression inputs: a torn repro from a full disk or
  // a crash would replay as a *parse* failure and mask the original bug.
  atomic_write_file(path, [&](std::ostream& os) { write_repro(os, r); });
}

CheckResult replay(const Repro& r) {
  const Check* check = find_check(r.check);
  CFPM_REQUIRE(check != nullptr);  // read_repro validated the name
  CheckContext ctx;
  ctx.seed = r.seed;
  ctx.patterns = r.patterns;
  if (r.faults.empty()) return run_check(*check, r.netlist, ctx);

  // Fault-campaign repro: the recorded spec replaces whatever is armed for
  // the duration of the check, then everything is disarmed (the repro's
  // budget is its own).
  struct DisarmGuard {
    ~DisarmGuard() { failpoint::disarm_all(); }
  } guard;
  failpoint::disarm_all();
  failpoint::arm_from_spec(r.faults);
  try {
    return run_check(*check, r.netlist, ctx);
  } catch (const DeadlineExceeded& e) {
    // An armed throw_deadline fault propagates out of run_check by design;
    // during a fault replay it is a typed finding, not a stop signal.
    CheckResult result;
    result.ok = false;
    result.detail = std::string("injected deadline: ") + e.what();
    result.threw = true;
    return result;
  }
}

std::vector<std::string> list_corpus(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".repro") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace cfpm::verify
