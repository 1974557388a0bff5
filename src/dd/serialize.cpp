#include "dd/serialize.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dd/dd_internal.hpp"
#include "support/assert.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/parse.hpp"

namespace cfpm::dd {

namespace {

/// 8-digit lowercase hex, the textual form of the CRC trailer value.
std::string crc_hex(std::uint32_t crc) {
  static const char* digits = "0123456789abcdef";
  std::string out(8, '0');
  for (int i = 7; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[crc & 0xfu];
    crc >>= 4;
  }
  return out;
}

/// Writes the ADD under `root` in format v2. File ids number the nodes
/// 0..count-1 in post-order, so every child precedes its parent.
void write_dd(std::ostream& os, const DdManager& mgr, Edge root) {
  CFPM_FAILPOINT("dd.serialize.write");
  std::unordered_map<std::uint32_t, std::size_t> ids;
  std::vector<std::uint32_t> order;
  std::vector<std::pair<std::uint32_t, bool>> stack{{edge_index(root), false}};
  while (!stack.empty()) {
    auto [i, expanded] = stack.back();
    stack.pop_back();
    if (ids.contains(i)) continue;
    const DdNode& n = DdInternal::node(mgr, i);
    if (n.is_terminal() || expanded) {
      ids.emplace(i, order.size());
      order.push_back(i);
    } else {
      stack.push_back({i, true});
      stack.push_back({edge_index(n.then_edge), false});
      stack.push_back({edge_index(n.else_edge), false});
    }
  }

  auto token = [&](Edge e) { return ids.at(edge_index(e)); };

  // The body is rendered into memory first so the CRC trailer can cover the
  // exact bytes written. Every line is already canonical (no comments, no
  // stray whitespace), which is what the reader checksums too.
  std::ostringstream body;
  body << "cfpm-dd 2 add\n";
  body << "vars " << mgr.num_vars() << "\n";
  // The node structure is only canonical under the manager's variable
  // order (which sifting may have changed); record it.
  body << "order";
  for (std::uint32_t l = 0; l < mgr.num_vars(); ++l) {
    body << " " << mgr.var_at_level(l);
  }
  body << "\n";
  body << "nodes " << order.size() << "\n";
  for (std::size_t i = 0; i < order.size(); ++i) {
    const DdNode& n = DdInternal::node(mgr, order[i]);
    if (n.is_terminal()) {
      // Terminal values go through to_chars: shortest exact round-trip,
      // immune to the stream's imbued locale (a comma decimal point would
      // corrupt the file).
      body << i << " T " << format_double(DdInternal::value(mgr, order[i]))
           << "\n";
    } else {
      body << i << " N " << n.var << " " << token(n.then_edge) << " "
           << token(n.else_edge) << "\n";
    }
  }
  body << "root " << token(root) << "\n";
  const std::string text = body.str();
  os << text << "crc " << crc_hex(Crc32::of(text)) << "\n";
  if (!os) throw IoError("write_dd: stream failure");
}

/// Next non-empty, non-comment line; returns false at EOF.
bool next_line(std::istream& is, std::string& line, std::size_t& lineno) {
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto last = line.find_last_not_of(" \t\r");
    line = line.substr(first, last - first + 1);
    return true;
  }
  return false;
}

/// Parses the `cfpm-dd 2 add` and `vars <n>` lines, each fetched into
/// `line` by expect_line(what); returns the variable count.
template <class ExpectLine>
std::size_t read_preamble(ExpectLine&& expect_line, const std::string& line,
                          const std::size_t& lineno) {
  expect_line("header");
  {
    std::istringstream ss(line);
    std::string magic, kind, extra;
    int v = 0;
    if (!(ss >> magic >> v >> kind) || (ss >> extra) || magic != "cfpm-dd" ||
        v != 2 || kind != "add") {
      throw ParseError("read_dd: bad header '" + line + "'", lineno);
    }
  }

  expect_line("vars");
  std::istringstream ss(line);
  std::string kw;
  std::size_t vars = 0;
  if (!(ss >> kw >> vars) || kw != "vars") {
    throw ParseError("read_dd: expected 'vars <n>'", lineno);
  }
  return vars;
}

/// Reads an ADD. Returns a referenced plain root edge.
Edge read_dd(std::istream& is, DdManager& mgr) {
  CFPM_FAILPOINT("dd.serialize.read");
  std::string line;
  std::size_t lineno = 0;

  // Integrity check: the CRC runs over the canonical form of every consumed
  // line (trimmed, comments stripped, '\n'-terminated) — exactly the bytes
  // write_dd emits — so a hand-annotated but otherwise intact file still
  // verifies against its trailer.
  Crc32 crc;
  auto expect_line = [&](const char* what) {
    if (!next_line(is, line, lineno)) {
      throw ParseError(std::string("read_dd: missing ") + what, lineno);
    }
    crc.update(line);
    crc.update("\n");
  };

  const std::size_t nvars = read_preamble(expect_line, line, lineno);
  if (nvars > mgr.num_vars()) {
    throw ParseError("read_dd: model needs " + std::to_string(nvars) +
                         " variables, manager has " +
                         std::to_string(mgr.num_vars()),
                     lineno);
  }

  expect_line("order-or-nodes");
  std::vector<std::uint32_t> saved_order;
  if (line.rfind("order", 0) == 0) {
    std::istringstream ss(line);
    std::string kw;
    ss >> kw;
    std::vector<bool> used(mgr.num_vars(), false);
    std::uint32_t v;
    while (ss >> v) {
      if (v >= nvars || used[v]) {
        throw ParseError("read_dd: order is not a permutation of the " +
                             std::to_string(nvars) + " variables",
                         lineno);
      }
      used[v] = true;
      saved_order.push_back(v);
    }
    if (saved_order.size() != nvars) {
      throw ParseError("read_dd: order lists " +
                           std::to_string(saved_order.size()) + " of " +
                           std::to_string(nvars) + " variables",
                       lineno);
    }
    bool differs = false;
    for (std::uint32_t l = 0; l < nvars; ++l) {
      if (mgr.var_at_level(l) != saved_order[l]) differs = true;
    }
    if (differs) {
      // Extend to the manager's full width: unmentioned variables keep
      // their relative order below the recorded ones.
      std::vector<std::uint32_t> full(saved_order);
      for (std::uint32_t v2 = 0; v2 < mgr.num_vars(); ++v2) {
        if (!used[v2]) full.push_back(v2);
      }
      mgr.set_order(full);  // requires a fresh manager
    }
    expect_line("nodes");
  }
  std::size_t count = 0;
  {
    std::istringstream ss(line);
    std::string kw;
    if (!(ss >> kw >> count) || kw != "nodes") {
      throw ParseError("read_dd: expected 'nodes <count>'", lineno);
    }
  }
  if (count == 0) throw ParseError("read_dd: empty node list", lineno);

  // Edge token: the id of an already parsed node. `by_id` grows one node
  // line at a time and is never sized from the declared count, which no
  // check has verified yet.
  std::vector<Edge> by_id;
  auto parse_edge = [&](std::istringstream& ss) {
    std::string tok;
    if (!(ss >> tok)) {
      throw ParseError("read_dd: missing edge token in '" + line + "'",
                       lineno);
    }
    const auto id = parse_number<std::size_t>(tok);
    if (!id || *id >= by_id.size()) {
      throw ParseError("read_dd: bad edge token in '" + line + "'", lineno);
    }
    return by_id[*id];
  };

  // Each resolved entry owns one manager reference to its node.
  struct Releaser {
    DdManager& mgr;
    std::vector<Edge>& edges;
    ~Releaser() {
      for (const Edge e : edges) DdInternal::deref(mgr, e);
    }
  } releaser{mgr, by_id};

  for (std::size_t i = 0; i < count; ++i) {
    expect_line("node");
    std::istringstream ss(line);
    std::size_t id = 0;
    char kind = 0;
    if (!(ss >> id >> kind) || id != i) {  // ids run 0..count-1 in order
      throw ParseError("read_dd: bad node line '" + line + "'", lineno);
    }
    // Make room first: storing a created node's edge must not throw, or its
    // reference would leak.
    if (by_id.size() == by_id.capacity()) by_id.reserve(2 * by_id.size() + 16);
    if (kind == 'T') {
      // The value token is parsed with from_chars (never `ss >> double`,
      // which honors the imbued locale): a full-match parse with nothing
      // after it, so "1,5" and "5.0garbage" are both rejected.
      std::string tok, extra;
      std::optional<double> parsed;
      if (!(ss >> tok) || !(parsed = parse_number<double>(tok)) ||
          (ss >> extra)) {
        throw ParseError("read_dd: bad terminal line '" + line + "'", lineno);
      }
      by_id.push_back(DdInternal::terminal(mgr, *parsed));  // its reference
    } else if (kind == 'N') {
      std::uint32_t var = 0;
      if (!(ss >> var) || var >= nvars) {
        throw ParseError("read_dd: bad internal line '" + line + "'", lineno);
      }
      const Edge t = parse_edge(ss);
      const Edge e = parse_edge(ss);
      DdInternal::ref(mgr, t);  // consumed by make_node
      DdInternal::ref(mgr, e);
      by_id.push_back(DdInternal::make_node(mgr, var, t, e));
    } else {
      throw ParseError("read_dd: unknown node kind '" + line + "'", lineno);
    }
  }

  expect_line("root");
  Edge root = kNilEdge;
  {
    std::istringstream ss(line);
    std::string kw;
    if (!(ss >> kw) || kw != "root") {
      throw ParseError("read_dd: bad root line", lineno);
    }
    root = parse_edge(ss);
  }

  // Trailer: "crc <8 hex digits>" over the canonical body. Optional for
  // backward compatibility — pre-trailer files simply end after `root` —
  // but when present it must match. The lookahead seeks back when the next
  // line belongs to someone else (concatenated-DD streams).
  const std::uint32_t body_crc = crc.value();
  const std::istream::pos_type after_root = is.tellg();
  std::string trailer;
  std::size_t trailer_lineno = lineno;
  if (next_line(is, trailer, trailer_lineno)) {
    if (trailer.rfind("crc ", 0) == 0) {
      lineno = trailer_lineno;
      const std::string_view hex = std::string_view(trailer).substr(4);
      std::uint32_t stored = 0;
      const auto [ptr, ec] =
          std::from_chars(hex.data(), hex.data() + hex.size(), stored, 16);
      if (ec != std::errc{} || ptr != hex.data() + hex.size() ||
          hex.empty()) {
        throw ParseError("read_dd: bad crc trailer '" + trailer + "'",
                         lineno);
      }
      if (stored != body_crc) {
        throw ParseError("read_dd: checksum mismatch (file says " +
                             crc_hex(stored) + ", content is " +
                             crc_hex(body_crc) + ") — truncated or corrupt",
                         lineno);
      }
    } else {
      // Not ours: restore the stream so a following reader sees it.
      is.clear();
      is.seekg(after_root);
    }
  }

  DdInternal::ref(mgr, root);
  return root;  // by_id's references die with the releaser
}

}  // namespace

void write_add(std::ostream& os, const Add& f) {
  CFPM_REQUIRE(!f.is_null());
  write_dd(os, *f.manager(), DdInternal::edge(f));
}

std::size_t peek_add_vars(std::istream& is) {
  const std::istream::pos_type start = is.tellg();
  std::string line;
  std::size_t lineno = 0;
  auto expect_line = [&](const char* what) {
    if (!next_line(is, line, lineno)) {
      throw ParseError(std::string("read_dd: missing ") + what, lineno);
    }
  };
  const std::size_t vars = read_preamble(expect_line, line, lineno);
  is.clear();
  if (start == std::istream::pos_type(-1) || !is.seekg(start)) {
    throw ParseError("read_dd: cannot rewind the stream after its header");
  }
  return vars;
}

Add read_add(std::istream& is, DdManager& mgr) {
  return DdInternal::make_add(&mgr, read_dd(is, mgr));
}

}  // namespace cfpm::dd
