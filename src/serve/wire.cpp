#include "serve/wire.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "netlist/bench_io.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/parse.hpp"

namespace cfpm::serve::wire {

namespace {

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint16_t get_u16(std::string_view in, std::size_t at) {
  return static_cast<std::uint16_t>(
      static_cast<unsigned char>(in[at]) |
      (static_cast<unsigned char>(in[at + 1]) << 8));
}

std::uint32_t get_u32(std::string_view in, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(in[at + i]);
  }
  return v;
}

/// Sequential reader over a line-oriented payload with counted byte blocks.
class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  std::string_view line() {
    if (pos_ >= text_.size()) {
      throw ParseError("wire: truncated payload (expected another line)");
    }
    const auto nl = text_.find('\n', pos_);
    if (nl == std::string_view::npos) {
      throw ParseError("wire: unterminated line in payload");
    }
    const std::string_view out = text_.substr(pos_, nl - pos_);
    pos_ = nl + 1;
    return out;
  }

  /// Next line must be `key value`; returns `value` (may contain spaces).
  std::string_view field(std::string_view key) {
    const std::string_view l = line();
    if (l.size() <= key.size() || l.substr(0, key.size()) != key ||
        l[key.size()] != ' ') {
      throw ParseError("wire: expected field '" + std::string(key) +
                       "', got '" + std::string(l) + "'");
    }
    return l.substr(key.size() + 1);
  }

  template <typename T>
  T number(std::string_view key) {
    const std::string_view v = field(key);
    const auto parsed = parse_number<T>(v);
    if (!parsed) {
      throw ParseError("wire: bad number for '" + std::string(key) + "': '" +
                       std::string(v) + "'");
    }
    return *parsed;
  }

  /// Raw counted block (no trailing newline is consumed).
  std::string_view bytes(std::size_t n) {
    if (text_.size() - pos_ < n) {
      throw ParseError("wire: truncated payload (counted block)");
    }
    const std::string_view out = text_.substr(pos_, n);
    pos_ += n;
    return out;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

bool parse_flag(std::string_view v, std::string_view key) {
  if (v == "0") return false;
  if (v == "1") return true;
  throw ParseError("wire: bad flag for '" + std::string(key) + "': '" +
                   std::string(v) + "'");
}

}  // namespace

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

std::string encode_frame(MsgType type, std::string_view payload) {
  if (payload.size() > kMaxPayload) {
    throw ContractError("wire: payload exceeds kMaxPayload");
  }
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  out.append(kMagic, sizeof(kMagic));
  put_u16(out, kProtocolVersion);
  put_u16(out, static_cast<std::uint16_t>(type));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, Crc32::of(payload));
  out.append(payload);
  return out;
}

MsgType decode_header(std::string_view header, std::uint32_t& payload_length,
                      std::uint32_t& payload_crc) {
  if (header.size() < kHeaderSize) {
    throw ParseError("wire: short frame header");
  }
  if (std::memcmp(header.data(), kMagic, sizeof(kMagic)) != 0) {
    throw ParseError("wire: bad frame magic");
  }
  const std::uint16_t version = get_u16(header, 4);
  if (version != kProtocolVersion) {
    throw Error("wire: protocol version mismatch (peer " +
                std::to_string(version) + ", this build " +
                std::to_string(kProtocolVersion) + ")");
  }
  const std::uint16_t type = get_u16(header, 6);
  if (type < static_cast<std::uint16_t>(MsgType::kBuildRequest) ||
      type > static_cast<std::uint16_t>(MsgType::kChipReply)) {
    throw ParseError("wire: unknown message type " + std::to_string(type));
  }
  payload_length = get_u32(header, 8);
  if (payload_length > kMaxPayload) {
    throw ParseError("wire: declared payload length " +
                     std::to_string(payload_length) + " exceeds limit");
  }
  payload_crc = get_u32(header, 12);
  return static_cast<MsgType>(type);
}

void check_payload(std::string_view payload, std::uint32_t expected_crc) {
  if (Crc32::of(payload) != expected_crc) {
    throw ParseError("wire: payload crc mismatch (torn or corrupt frame)");
  }
}

void write_frame(int fd, MsgType type, std::string_view payload) {
  const std::string frame = encode_frame(type, payload);
  std::size_t off = 0;
  while (off < frame.size()) {
    // MSG_NOSIGNAL: a peer that already closed (a connection the server
    // dropped right after accept) must surface as EPIPE -> IoError, not as
    // a process-killing SIGPIPE. Non-socket fds fall back to write(2).
    ssize_t n = ::send(fd, frame.data() + off, frame.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = ::write(fd, frame.data() + off, frame.size() - off);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("wire: write failed: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

namespace {

/// Reads exactly `n` bytes. Returns false on EOF before the first byte when
/// `eof_ok`; throws IoError on errors or mid-buffer EOF.
bool read_exact(int fd, char* buf, std::size_t n, bool eof_ok) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t r = ::read(fd, buf + off, n - off);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("wire: read failed: ") + std::strerror(errno));
    }
    if (r == 0) {
      if (off == 0 && eof_ok) return false;
      throw IoError("wire: unexpected EOF mid-frame");
    }
    off += static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

bool read_frame(int fd, Frame& out) {
  char header[kHeaderSize];
  if (!read_exact(fd, header, kHeaderSize, /*eof_ok=*/true)) return false;
  std::uint32_t length = 0;
  std::uint32_t crc = 0;
  out.type = decode_header({header, kHeaderSize}, length, crc);
  out.payload.resize(length);
  if (length > 0) {
    read_exact(fd, out.payload.data(), length, /*eof_ok=*/false);
  }
  check_payload(out.payload, crc);
  return true;
}

// ---------------------------------------------------------------------------
// Build messages
// ---------------------------------------------------------------------------

std::string encode_build_request(const service::BuildRequest& req) {
  std::ostringstream netlist_text;
  netlist::write_bench(netlist_text, req.netlist);
  const std::string bench = netlist_text.str();
  const service::BuildOptions& o = req.options;
  std::ostringstream os;
  os << "version " << req.api_version << "\n"
     << "circuit " << req.netlist.name() << "\n"
     << "kind " << static_cast<unsigned>(o.kind) << "\n"
     << "max-nodes " << o.max_nodes << "\n"
     << "order " << static_cast<unsigned>(o.order) << "\n"
     << "reorder-passes " << o.reorder_passes << "\n"
     << "approx " << (o.approximate_during_construction ? 1 : 0) << "\n"
     << "degrade " << (o.degrade ? 1 : 0) << "\n"
     << "deadline-ms " << (o.deadline_ms ? std::to_string(*o.deadline_ms)
                                         : std::string("none"))
     << "\n"
     << "char-vectors " << o.characterization_vectors << "\n"
     << "char-seed " << o.characterization_seed << "\n"
     << "netlist " << bench.size() << "\n"
     << bench;
  return os.str();
}

service::BuildRequest decode_build_request(std::string_view payload) {
  Reader r(payload);
  service::BuildRequest req;
  req.api_version = r.number<std::uint32_t>("version");
  const std::string circuit(r.field("circuit"));
  service::BuildOptions& o = req.options;
  const auto kind = r.number<unsigned>("kind");
  if (kind > static_cast<unsigned>(power::ModelKind::kLinear)) {
    throw ParseError("wire: unknown model kind " + std::to_string(kind));
  }
  o.kind = static_cast<power::ModelKind>(kind);
  o.max_nodes = r.number<std::size_t>("max-nodes");
  const auto order = r.number<unsigned>("order");
  if (order > static_cast<unsigned>(power::VariableOrder::kBlocked)) {
    throw ParseError("wire: unknown variable order " + std::to_string(order));
  }
  o.order = static_cast<power::VariableOrder>(order);
  o.reorder_passes = r.number<unsigned>("reorder-passes");
  o.approximate_during_construction = parse_flag(r.field("approx"), "approx");
  o.degrade = parse_flag(r.field("degrade"), "degrade");
  const std::string_view deadline = r.field("deadline-ms");
  if (deadline != "none") {
    const auto ms = parse_number<std::size_t>(deadline);
    if (!ms) {
      throw ParseError("wire: bad deadline-ms: '" + std::string(deadline) +
                       "'");
    }
    o.deadline_ms = *ms;
  }
  o.characterization_vectors = r.number<std::size_t>("char-vectors");
  o.characterization_seed = r.number<std::uint64_t>("char-seed");
  const std::size_t bench_size = r.number<std::size_t>("netlist");
  std::istringstream bench{std::string(r.bytes(bench_size))};
  req.netlist = netlist::read_bench(bench, circuit);
  return req;
}

std::string encode_build_reply(const service::BuildReply& reply) {
  std::ostringstream os;
  os << "id " << reply.id.to_hex() << "\n"
     << "status " << static_cast<unsigned>(reply.status) << "\n"
     << "nodes " << reply.model_nodes << "\n"
     << "cache-hit " << (reply.cache_hit ? 1 : 0) << "\n"
     << "outcome " << static_cast<unsigned>(reply.build_info.outcome) << "\n"
     << "attempts " << reply.build_info.attempts << "\n";
  return os.str();
}

service::BuildReply decode_build_reply(std::string_view payload) {
  Reader r(payload);
  service::BuildReply reply;
  const std::string_view hex = r.field("id");
  const auto id = service::ModelId::from_hex(hex);
  if (!id) throw ParseError("wire: bad model id: '" + std::string(hex) + "'");
  reply.id = *id;
  const auto status = r.number<unsigned>("status");
  if (status > static_cast<unsigned>(service::StatusCode::kInternal)) {
    throw ParseError("wire: unknown status " + std::to_string(status));
  }
  reply.status = static_cast<service::StatusCode>(status);
  reply.model_nodes = r.number<std::size_t>("nodes");
  reply.cache_hit = parse_flag(r.field("cache-hit"), "cache-hit");
  const auto outcome = r.number<unsigned>("outcome");
  if (outcome > static_cast<unsigned>(power::BuildOutcome::kFallback)) {
    throw ParseError("wire: unknown outcome " + std::to_string(outcome));
  }
  reply.build_info.outcome = static_cast<power::BuildOutcome>(outcome);
  reply.build_info.attempts = r.number<std::size_t>("attempts");
  return reply;
}

// ---------------------------------------------------------------------------
// Eval / trace messages
// ---------------------------------------------------------------------------

std::string encode_eval_query(const EvalQuery& query) {
  std::ostringstream os;
  os << "version " << query.request.api_version << "\n"
     << "id " << query.id.to_hex() << "\n"
     << "sp " << format_double(query.request.statistics.sp) << "\n"
     << "st " << format_double(query.request.statistics.st) << "\n"
     << "vectors " << query.request.vectors << "\n"
     << "seed " << query.request.seed << "\n";
  return os.str();
}

EvalQuery decode_eval_query(std::string_view payload) {
  Reader r(payload);
  EvalQuery q;
  q.request.api_version = r.number<std::uint32_t>("version");
  const std::string_view hex = r.field("id");
  const auto id = service::ModelId::from_hex(hex);
  if (!id) throw ParseError("wire: bad model id: '" + std::string(hex) + "'");
  q.id = *id;
  q.request.statistics.sp = r.number<double>("sp");
  q.request.statistics.st = r.number<double>("st");
  q.request.vectors = r.number<std::size_t>("vectors");
  q.request.seed = r.number<std::uint64_t>("seed");
  return q;
}

std::string encode_eval_reply(const service::EvalReply& reply) {
  std::ostringstream os;
  os << "status " << static_cast<unsigned>(reply.status) << "\n"
     << "cache-hit " << (reply.cache_hit ? 1 : 0) << "\n"
     << "total " << format_double(reply.total_ff) << "\n"
     << "average " << format_double(reply.average_ff) << "\n"
     << "peak " << format_double(reply.peak_ff) << "\n"
     << "transitions " << reply.transitions << "\n";
  return os.str();
}

service::EvalReply decode_eval_reply(std::string_view payload) {
  Reader r(payload);
  service::EvalReply reply;
  const auto status = r.number<unsigned>("status");
  if (status > static_cast<unsigned>(service::StatusCode::kInternal)) {
    throw ParseError("wire: unknown status " + std::to_string(status));
  }
  reply.status = static_cast<service::StatusCode>(status);
  reply.cache_hit = parse_flag(r.field("cache-hit"), "cache-hit");
  reply.total_ff = r.number<double>("total");
  reply.average_ff = r.number<double>("average");
  reply.peak_ff = r.number<double>("peak");
  reply.transitions = r.number<std::size_t>("transitions");
  return reply;
}

std::string encode_trace_query(const TraceQuery& query) {
  const sim::InputSequence& t = query.trace;
  std::string bits;
  bits.reserve(t.length() * t.num_inputs());
  for (std::size_t step = 0; step < t.length(); ++step) {
    for (std::size_t i = 0; i < t.num_inputs(); ++i) {
      bits.push_back(t.bit(i, step) ? '1' : '0');
    }
  }
  std::ostringstream os;
  os << "version " << service::kApiVersion << "\n"
     << "id " << query.id.to_hex() << "\n"
     << "inputs " << t.num_inputs() << "\n"
     << "length " << t.length() << "\n"
     << "bits " << bits.size() << "\n"
     << bits;
  return os.str();
}

TraceQuery decode_trace_query(std::string_view payload) {
  Reader r(payload);
  const auto version = r.number<std::uint32_t>("version");
  if (version != service::kApiVersion) {
    throw service::UsageError("wire: unsupported api version " +
                              std::to_string(version));
  }
  TraceQuery q;
  const std::string_view hex = r.field("id");
  const auto id = service::ModelId::from_hex(hex);
  if (!id) throw ParseError("wire: bad model id: '" + std::string(hex) + "'");
  q.id = *id;
  const std::size_t inputs = r.number<std::size_t>("inputs");
  const std::size_t length = r.number<std::size_t>("length");
  if (inputs == 0) throw ParseError("wire: trace with zero inputs");
  const std::size_t declared = r.number<std::size_t>("bits");
  if (declared != inputs * length) {
    throw ParseError("wire: trace bit count mismatch");
  }
  const std::string_view bits = r.bytes(declared);
  q.trace = sim::InputSequence(inputs, length);
  for (std::size_t step = 0; step < length; ++step) {
    for (std::size_t i = 0; i < inputs; ++i) {
      const char c = bits[step * inputs + i];
      if (c != '0' && c != '1') {
        throw ParseError("wire: trace bit is not 0/1");
      }
      q.trace.set_bit(i, step, c == '1');
    }
  }
  return q;
}

// ---------------------------------------------------------------------------
// Stats / error messages
// ---------------------------------------------------------------------------

std::string encode_stats_reply(const StatsReply& reply) {
  std::ostringstream os;
  os << "models " << reply.models << "\n"
     << "hits " << reply.hits << "\n"
     << "misses " << reply.misses << "\n"
     << "builds " << reply.builds << "\n";
  for (const std::string& line : reply.model_lines) {
    os << "entry " << line << "\n";
  }
  return os.str();
}

StatsReply decode_stats_reply(std::string_view payload) {
  Reader r(payload);
  StatsReply reply;
  reply.models = r.number<std::uint64_t>("models");
  reply.hits = r.number<std::uint64_t>("hits");
  reply.misses = r.number<std::uint64_t>("misses");
  reply.builds = r.number<std::uint64_t>("builds");
  for (std::uint64_t i = 0; i < reply.models; ++i) {
    reply.model_lines.emplace_back(r.field("entry"));
  }
  return reply;
}

std::string encode_error(const service::ErrorPayload& error) {
  std::ostringstream os;
  os << "code " << static_cast<unsigned>(error.code) << "\n"
     << "kind " << static_cast<unsigned>(error.kind) << "\n"
     << "message " << error.message.size() << "\n"
     << error.message;
  return os.str();
}

service::ErrorPayload decode_error(std::string_view payload) {
  Reader r(payload);
  service::ErrorPayload error;
  const auto code = r.number<unsigned>("code");
  if (code > static_cast<unsigned>(service::StatusCode::kInternal)) {
    throw ParseError("wire: unknown status " + std::to_string(code));
  }
  error.code = static_cast<service::StatusCode>(code);
  const auto kind = r.number<unsigned>("kind");
  if (kind > static_cast<unsigned>(service::ErrorKind::kInternal)) {
    throw ParseError("wire: unknown error kind " + std::to_string(kind));
  }
  error.kind = static_cast<service::ErrorKind>(kind);
  const std::size_t size = r.number<std::size_t>("message");
  error.message = std::string(r.bytes(size));
  return error;
}

// ---------------------------------------------------------------------------
// Chip messages
// ---------------------------------------------------------------------------

namespace {

/// Splits a field value into exactly `n` space-separated tokens. Chip
/// component names are generated ("b2.m1.add5") and never contain spaces,
/// so whitespace tokenization is unambiguous.
std::vector<std::string_view> tokens(std::string_view v, std::size_t n,
                                     std::string_view key) {
  std::vector<std::string_view> out;
  std::size_t pos = 0;
  while (pos <= v.size() && out.size() < n) {
    const std::size_t sp = out.size() + 1 == n ? std::string_view::npos
                                               : v.find(' ', pos);
    if (sp == std::string_view::npos) {
      out.push_back(v.substr(pos));
      pos = v.size() + 1;
    } else {
      out.push_back(v.substr(pos, sp - pos));
      pos = sp + 1;
    }
  }
  if (out.size() != n || out.back().empty() ||
      out.back().find(' ') != std::string_view::npos) {
    throw ParseError("wire: expected " + std::to_string(n) + " tokens in '" +
                     std::string(key) + "' line");
  }
  return out;
}

template <typename T>
T token_number(std::string_view v, std::string_view key) {
  const auto parsed = parse_number<T>(v);
  if (!parsed) {
    throw ParseError("wire: bad number in '" + std::string(key) + "' line: '" +
                     std::string(v) + "'");
  }
  return *parsed;
}

power::BuildOutcome token_outcome(std::string_view v, std::string_view key) {
  const auto raw = token_number<unsigned>(v, key);
  if (raw > static_cast<unsigned>(power::BuildOutcome::kFallback)) {
    throw ParseError("wire: unknown outcome " + std::to_string(raw));
  }
  return static_cast<power::BuildOutcome>(raw);
}

}  // namespace

std::string encode_chip_request(const service::ChipRequest& req) {
  std::ostringstream os;
  os << "version " << req.api_version << "\n"
     << "spec " << req.spec << "\n"
     << "max-nodes " << req.max_nodes << "\n"
     << "degrade " << (req.degrade ? 1 : 0) << "\n"
     << "deadline-ms " << (req.deadline_ms ? std::to_string(*req.deadline_ms)
                                           : std::string("none"))
     << "\n"
     << "sp " << format_double(req.statistics.sp) << "\n"
     << "st " << format_double(req.statistics.st) << "\n"
     << "vectors " << req.vectors << "\n"
     << "seed " << req.seed << "\n";
  return os.str();
}

service::ChipRequest decode_chip_request(std::string_view payload) {
  Reader r(payload);
  service::ChipRequest req;
  req.api_version = r.number<std::uint32_t>("version");
  req.spec = std::string(r.field("spec"));
  req.max_nodes = r.number<std::size_t>("max-nodes");
  req.degrade = parse_flag(r.field("degrade"), "degrade");
  const std::string_view deadline = r.field("deadline-ms");
  if (deadline != "none") {
    const auto ms = parse_number<std::size_t>(deadline);
    if (!ms) {
      throw ParseError("wire: bad deadline-ms: '" + std::string(deadline) +
                       "'");
    }
    req.deadline_ms = *ms;
  }
  req.statistics.sp = r.number<double>("sp");
  req.statistics.st = r.number<double>("st");
  req.vectors = r.number<std::size_t>("vectors");
  req.seed = r.number<std::uint64_t>("seed");
  return req;
}

std::string encode_chip_reply(const service::ChipReply& reply) {
  std::ostringstream os;
  os << "status " << static_cast<unsigned>(reply.status) << "\n"
     << "spec " << reply.spec << "\n"
     << "macros " << reply.macros << "\n"
     << "components " << reply.components << "\n"
     << "bus-bits " << reply.bus_bits << "\n"
     << "transitions " << reply.transitions << "\n"
     << "total " << format_double(reply.total_ff) << "\n"
     << "average " << format_double(reply.average_ff) << "\n"
     << "peak " << format_double(reply.peak_ff) << "\n"
     << "bound-total " << format_double(reply.bound_total_ff) << "\n"
     << "bound-peak " << format_double(reply.bound_peak_ff) << "\n"
     << "worst-sum " << format_double(reply.worst_case_sum_ff) << "\n"
     << "cache-hits " << reply.cache_hits << "\n"
     << "library " << reply.library.size() << "\n";
  for (const service::ChipMacroSummary& m : reply.library) {
    os << "macro " << m.name << " " << m.instances << " " << m.inputs << " "
       << m.avg_nodes << " " << m.bound_nodes << " "
       << static_cast<unsigned>(m.avg_outcome) << " "
       << static_cast<unsigned>(m.bound_outcome) << " "
       << (m.cache_hit ? 1 : 0) << "\n";
  }
  os << "blocks " << reply.blocks.size() << "\n";
  for (const service::ChipComponentTotal& b : reply.blocks) {
    os << "block " << b.name << " " << format_double(b.total_ff) << "\n";
  }
  os << "instances " << reply.instances.size() << "\n";
  for (const service::ChipComponentTotal& i : reply.instances) {
    os << "instance " << i.name << " " << format_double(i.total_ff) << "\n";
  }
  return os.str();
}

service::ChipReply decode_chip_reply(std::string_view payload) {
  Reader r(payload);
  service::ChipReply reply;
  const auto status = r.number<unsigned>("status");
  if (status > static_cast<unsigned>(service::StatusCode::kInternal)) {
    throw ParseError("wire: unknown status " + std::to_string(status));
  }
  reply.status = static_cast<service::StatusCode>(status);
  reply.spec = std::string(r.field("spec"));
  reply.macros = r.number<std::size_t>("macros");
  reply.components = r.number<std::size_t>("components");
  reply.bus_bits = r.number<std::size_t>("bus-bits");
  reply.transitions = r.number<std::size_t>("transitions");
  reply.total_ff = r.number<double>("total");
  reply.average_ff = r.number<double>("average");
  reply.peak_ff = r.number<double>("peak");
  reply.bound_total_ff = r.number<double>("bound-total");
  reply.bound_peak_ff = r.number<double>("bound-peak");
  reply.worst_case_sum_ff = r.number<double>("worst-sum");
  reply.cache_hits = r.number<std::size_t>("cache-hits");
  const std::size_t library = r.number<std::size_t>("library");
  for (std::size_t i = 0; i < library; ++i) {
    const auto t = tokens(r.field("macro"), 8, "macro");
    service::ChipMacroSummary m;
    m.name = std::string(t[0]);
    m.instances = token_number<std::size_t>(t[1], "macro");
    m.inputs = token_number<std::size_t>(t[2], "macro");
    m.avg_nodes = token_number<std::size_t>(t[3], "macro");
    m.bound_nodes = token_number<std::size_t>(t[4], "macro");
    m.avg_outcome = token_outcome(t[5], "macro");
    m.bound_outcome = token_outcome(t[6], "macro");
    m.cache_hit = parse_flag(t[7], "macro");
    reply.library.push_back(std::move(m));
  }
  const std::size_t blocks = r.number<std::size_t>("blocks");
  for (std::size_t i = 0; i < blocks; ++i) {
    const auto t = tokens(r.field("block"), 2, "block");
    reply.blocks.push_back(
        {std::string(t[0]), token_number<double>(t[1], "block")});
  }
  const std::size_t instances = r.number<std::size_t>("instances");
  for (std::size_t i = 0; i < instances; ++i) {
    const auto t = tokens(r.field("instance"), 2, "instance");
    reply.instances.push_back(
        {std::string(t[0]), token_number<double>(t[1], "instance")});
  }
  return reply;
}

}  // namespace cfpm::serve::wire
