// Wire-protocol invariants: framing is self-describing and CRC-checked,
// every codec round-trips bit-exactly (doubles included), and malformed
// frames fail typed instead of being misparsed.
#include "serve/wire.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include "netlist/generators.hpp"
#include "stats/markov.hpp"
#include "support/error.hpp"

namespace cfpm::serve::wire {
namespace {

TEST(Wire, FrameHeaderRoundTrip) {
  const std::string payload = "version 1\nhello\n";
  const std::string frame = encode_frame(MsgType::kPing, payload);
  ASSERT_EQ(frame.size(), kHeaderSize + payload.size());

  std::uint32_t length = 0;
  std::uint32_t crc = 0;
  const MsgType type =
      decode_header(std::string_view(frame).substr(0, kHeaderSize), length,
                    crc);
  EXPECT_EQ(type, MsgType::kPing);
  EXPECT_EQ(length, payload.size());
  EXPECT_NO_THROW(check_payload(payload, crc));
}

TEST(Wire, CorruptPayloadFailsCrc) {
  const std::string payload = "models 3\n";
  const std::string frame = encode_frame(MsgType::kStatsReply, payload);
  std::uint32_t length = 0;
  std::uint32_t crc = 0;
  decode_header(std::string_view(frame).substr(0, kHeaderSize), length, crc);
  std::string torn = payload;
  torn[0] ^= 0x40;
  EXPECT_THROW(check_payload(torn, crc), ParseError);
}

TEST(Wire, BadMagicAndVersionRejected) {
  std::string frame = encode_frame(MsgType::kPing, "x");
  std::uint32_t length = 0;
  std::uint32_t crc = 0;

  std::string bad_magic = frame;
  bad_magic[0] = 'X';
  EXPECT_THROW(decode_header(std::string_view(bad_magic).substr(0, kHeaderSize),
                             length, crc),
               ParseError);

  std::string bad_version = frame;
  bad_version[4] = static_cast<char>(kProtocolVersion + 1);
  EXPECT_THROW(
      decode_header(std::string_view(bad_version).substr(0, kHeaderSize),
                    length, crc),
      Error);

  std::string bomb = frame;  // declared length over kMaxPayload
  bomb[8] = static_cast<char>(0xff);
  bomb[9] = static_cast<char>(0xff);
  bomb[10] = static_cast<char>(0xff);
  bomb[11] = static_cast<char>(0x7f);
  EXPECT_THROW(decode_header(std::string_view(bomb).substr(0, kHeaderSize),
                             length, crc),
               ParseError);
}

TEST(Wire, BuildRequestRoundTripsNetlistAndOptions) {
  service::BuildRequest request;
  request.netlist = netlist::gen::mcnc_like("cm85");
  request.options.kind = power::ModelKind::kAddUpperBound;
  request.options.max_nodes = 321;
  request.options.order = power::VariableOrder::kBlocked;
  request.options.reorder_passes = 7;
  request.options.approximate_during_construction = false;
  request.options.degrade = false;
  request.options.deadline_ms = 4321;
  request.options.characterization_vectors = 55;
  request.options.characterization_seed = 0xfeedface;

  const service::BuildRequest back =
      decode_build_request(encode_build_request(request));
  EXPECT_EQ(back.api_version, request.api_version);
  EXPECT_EQ(back.options.kind, request.options.kind);
  EXPECT_EQ(back.options.max_nodes, request.options.max_nodes);
  EXPECT_EQ(back.options.order, request.options.order);
  EXPECT_EQ(back.options.reorder_passes, request.options.reorder_passes);
  EXPECT_EQ(back.options.approximate_during_construction,
            request.options.approximate_during_construction);
  EXPECT_EQ(back.options.degrade, request.options.degrade);
  EXPECT_EQ(back.options.deadline_ms, request.options.deadline_ms);
  EXPECT_EQ(back.options.characterization_vectors,
            request.options.characterization_vectors);
  EXPECT_EQ(back.options.characterization_seed,
            request.options.characterization_seed);
  // The netlist crosses as canonical .bench text, so the content id — the
  // registry key — is preserved exactly.
  EXPECT_EQ(service::model_id(back.netlist, back.options),
            service::model_id(request.netlist, request.options));
}

TEST(Wire, EvalQueryAndReplyRoundTripDoublesExactly) {
  EvalQuery query;
  query.id = {0xaabbccdd00112233ull, 0x445566778899aabbull};
  query.request.statistics = {0.1, 0.07};  // not exactly representable
  query.request.vectors = 777;
  query.request.seed = 0x123456789abcdefull;
  const EvalQuery q = decode_eval_query(encode_eval_query(query));
  EXPECT_EQ(q.id, query.id);
  EXPECT_EQ(q.request.statistics.sp, query.request.statistics.sp);
  EXPECT_EQ(q.request.statistics.st, query.request.statistics.st);
  EXPECT_EQ(q.request.vectors, query.request.vectors);
  EXPECT_EQ(q.request.seed, query.request.seed);

  service::EvalReply reply;
  reply.total_ff = 12345.678901234567;
  reply.average_ff = 0.30000000000000004;  // classic shortest-round-trip case
  reply.peak_ff = 1e-17;
  reply.transitions = 776;
  reply.cache_hit = true;
  const service::EvalReply r = decode_eval_reply(encode_eval_reply(reply));
  EXPECT_EQ(r.total_ff, reply.total_ff);
  EXPECT_EQ(r.average_ff, reply.average_ff);
  EXPECT_EQ(r.peak_ff, reply.peak_ff);
  EXPECT_EQ(r.transitions, reply.transitions);
  EXPECT_EQ(r.cache_hit, reply.cache_hit);
}

TEST(Wire, TraceQueryRoundTripsEveryBit) {
  stats::MarkovSequenceGenerator gen({0.4, 0.3}, 0xbeef);
  TraceQuery query;
  query.id = {1, 2};
  query.trace = gen.generate(5, 131);  // non-multiple of 64: partial word
  const TraceQuery back = decode_trace_query(encode_trace_query(query));
  EXPECT_EQ(back.id, query.id);
  ASSERT_EQ(back.trace.num_inputs(), query.trace.num_inputs());
  ASSERT_EQ(back.trace.length(), query.trace.length());
  for (std::size_t i = 0; i < query.trace.num_inputs(); ++i) {
    for (std::size_t t = 0; t < query.trace.length(); ++t) {
      ASSERT_EQ(back.trace.bit(i, t), query.trace.bit(i, t))
          << "input " << i << " time " << t;
    }
  }
}

TEST(Wire, StatsAndErrorRoundTrip) {
  StatsReply stats;
  stats.models = 2;  // must equal model_lines.size(): the decoder reads
                     // exactly `models` entry lines
  stats.hits = 100;
  stats.misses = 7;
  stats.builds = 5;
  stats.model_lines = {"aa 12 c17", "bb 34 cm85"};
  const StatsReply s = decode_stats_reply(encode_stats_reply(stats));
  EXPECT_EQ(s.models, stats.models);
  EXPECT_EQ(s.hits, stats.hits);
  EXPECT_EQ(s.misses, stats.misses);
  EXPECT_EQ(s.builds, stats.builds);
  EXPECT_EQ(s.model_lines, stats.model_lines);

  service::ErrorPayload error;
  error.code = service::StatusCode::kError;
  error.kind = service::ErrorKind::kDeadline;
  error.message = "deadline of 10ms exceeded\nwith a second line";
  const service::ErrorPayload e = decode_error(encode_error(error));
  EXPECT_EQ(e.code, error.code);
  EXPECT_EQ(e.kind, error.kind);
  EXPECT_EQ(e.message, error.message);
}

TEST(Wire, ChipRequestRoundTripsEveryField) {
  service::ChipRequest request;
  request.spec = "4x6x16";
  request.max_nodes = 123;
  request.degrade = false;
  request.deadline_ms = 777;
  request.statistics = {0.1, 0.07};  // not exactly representable
  request.vectors = 4242;
  request.seed = 0xdeadbeefcafeull;

  const service::ChipRequest back =
      decode_chip_request(encode_chip_request(request));
  EXPECT_EQ(back.api_version, request.api_version);
  EXPECT_EQ(back.spec, request.spec);
  EXPECT_EQ(back.max_nodes, request.max_nodes);
  EXPECT_EQ(back.degrade, request.degrade);
  EXPECT_EQ(back.deadline_ms, request.deadline_ms);
  EXPECT_EQ(back.statistics.sp, request.statistics.sp);
  EXPECT_EQ(back.statistics.st, request.statistics.st);
  EXPECT_EQ(back.vectors, request.vectors);
  EXPECT_EQ(back.seed, request.seed);

  // The optional deadline also round-trips in its empty state.
  request.deadline_ms.reset();
  EXPECT_EQ(decode_chip_request(encode_chip_request(request)).deadline_ms,
            std::nullopt);
}

TEST(Wire, ChipReplyRoundTripsBreakdownExactly) {
  service::ChipReply reply;
  reply.status = service::StatusCode::kDegraded;
  reply.spec = "2x3x12";
  reply.macros = 6;
  reply.components = 3;
  reply.bus_bits = 24;
  reply.transitions = 1999;
  reply.total_ff = 12345.678901234567;
  reply.average_ff = 0.30000000000000004;
  reply.peak_ff = 368.0;
  reply.bound_total_ff = 54321.000000000001;
  reply.bound_peak_ff = 1e-17;
  reply.worst_case_sum_ff = 588.25;
  reply.cache_hits = 4;
  reply.library = {{"add4", 2, 9, 1939, 1939, power::BuildOutcome::kClean,
                    power::BuildOutcome::kDegraded, true},
                   {"cmp4", 4, 8, 2390, 2390, power::BuildOutcome::kFallback,
                    power::BuildOutcome::kClean, false}};
  reply.blocks = {{"b0", 1.5}, {"b1", 2.25}};
  reply.instances = {{"b0.m0.add4", 0.5}, {"b0.m1.cmp4", 1.0}};

  const service::ChipReply r = decode_chip_reply(encode_chip_reply(reply));
  EXPECT_EQ(r.status, reply.status);
  EXPECT_EQ(r.spec, reply.spec);
  EXPECT_EQ(r.macros, reply.macros);
  EXPECT_EQ(r.components, reply.components);
  EXPECT_EQ(r.bus_bits, reply.bus_bits);
  EXPECT_EQ(r.transitions, reply.transitions);
  EXPECT_EQ(r.total_ff, reply.total_ff);
  EXPECT_EQ(r.average_ff, reply.average_ff);
  EXPECT_EQ(r.peak_ff, reply.peak_ff);
  EXPECT_EQ(r.bound_total_ff, reply.bound_total_ff);
  EXPECT_EQ(r.bound_peak_ff, reply.bound_peak_ff);
  EXPECT_EQ(r.worst_case_sum_ff, reply.worst_case_sum_ff);
  EXPECT_EQ(r.cache_hits, reply.cache_hits);
  ASSERT_EQ(r.library.size(), reply.library.size());
  for (std::size_t i = 0; i < reply.library.size(); ++i) {
    EXPECT_EQ(r.library[i].name, reply.library[i].name);
    EXPECT_EQ(r.library[i].instances, reply.library[i].instances);
    EXPECT_EQ(r.library[i].inputs, reply.library[i].inputs);
    EXPECT_EQ(r.library[i].avg_nodes, reply.library[i].avg_nodes);
    EXPECT_EQ(r.library[i].bound_nodes, reply.library[i].bound_nodes);
    EXPECT_EQ(r.library[i].avg_outcome, reply.library[i].avg_outcome);
    EXPECT_EQ(r.library[i].bound_outcome, reply.library[i].bound_outcome);
    EXPECT_EQ(r.library[i].cache_hit, reply.library[i].cache_hit);
  }
  ASSERT_EQ(r.blocks.size(), reply.blocks.size());
  for (std::size_t i = 0; i < reply.blocks.size(); ++i) {
    EXPECT_EQ(r.blocks[i].name, reply.blocks[i].name);
    EXPECT_EQ(r.blocks[i].total_ff, reply.blocks[i].total_ff);
  }
  ASSERT_EQ(r.instances.size(), reply.instances.size());
  for (std::size_t i = 0; i < reply.instances.size(); ++i) {
    EXPECT_EQ(r.instances[i].name, reply.instances[i].name);
    EXPECT_EQ(r.instances[i].total_ff, reply.instances[i].total_ff);
  }
}

TEST(Wire, MalformedPayloadsThrowParseError) {
  EXPECT_THROW(decode_build_request("nonsense"), ParseError);
  EXPECT_THROW(decode_eval_query(""), ParseError);
  EXPECT_THROW(decode_eval_reply("status x\n"), ParseError);
  EXPECT_THROW(decode_trace_query("version 1\nid zz\n"), ParseError);
  EXPECT_THROW(decode_error("code 1\n"), ParseError);
  EXPECT_THROW(decode_chip_request("nonsense"), ParseError);
  EXPECT_THROW(decode_chip_request("version 1\nspec \n"), ParseError);
  EXPECT_THROW(decode_chip_reply(""), ParseError);
  // Out-of-range enum values are rejected, not cast blindly.
  service::ChipReply reply;
  reply.library = {{"add4", 1, 9, 10, 10, power::BuildOutcome::kClean,
                    power::BuildOutcome::kClean, false}};
  std::string encoded = encode_chip_reply(reply);
  const std::size_t pos = encoded.find("macro add4");
  ASSERT_NE(pos, std::string::npos);
  encoded.replace(encoded.find(" 0 0 ", pos), 5, " 9 0 ");
  EXPECT_THROW(decode_chip_reply(encoded), ParseError);
}

TEST(Wire, WriteToClosedSocketPeerThrowsInsteadOfRaisingSigpipe) {
  // A daemon that drops a connection right after accept leaves the client
  // writing into a closed socket: that must be a typed IoError, not a
  // SIGPIPE that kills the client process.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  EXPECT_THROW(write_frame(fds[0], MsgType::kPing, "version 1\n"), IoError);
  ::close(fds[0]);
}

TEST(Wire, FdTransportRoundTripAndCleanEof) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string payload(100000, 'x');  // larger than one pipe buffer
  std::thread writer([&] {
    write_frame(fds[1], MsgType::kPong, payload);
    ::close(fds[1]);
  });
  Frame frame;
  ASSERT_TRUE(read_frame(fds[0], frame));
  EXPECT_EQ(frame.type, MsgType::kPong);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_FALSE(read_frame(fds[0], frame)) << "EOF at boundary is clean";
  writer.join();
  ::close(fds[0]);
}

TEST(Wire, MidFrameEofIsAnIoError) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string frame = encode_frame(MsgType::kPing, "truncated body");
  // Write the header plus half the payload, then hang up.
  const std::string partial = frame.substr(0, kHeaderSize + 4);
  ASSERT_EQ(::write(fds[1], partial.data(), partial.size()),
            static_cast<ssize_t>(partial.size()));
  ::close(fds[1]);
  Frame out;
  EXPECT_THROW(read_frame(fds[0], out), IoError);
  ::close(fds[0]);
}

}  // namespace
}  // namespace cfpm::serve::wire
