#include "sim/trace_io.hpp"

#include <ostream>
#include <string>
#include <vector>

#include "support/assert.hpp"
#include "support/error.hpp"

namespace cfpm::sim {

namespace {

/// VCD identifier codes: printable ASCII 33..126, little-endian multi-char.
std::string vcd_id(std::size_t index) {
  std::string id;
  do {
    id += static_cast<char>('!' + index % 94);
    index /= 94;
  } while (index != 0);
  return id;
}

}  // namespace

void write_vcd(std::ostream& os, const netlist::Netlist& n,
               const InputSequence& seq, const GateLevelSimulator* simulator) {
  CFPM_REQUIRE(seq.num_inputs() == n.num_inputs());
  const bool internal = simulator != nullptr;

  // Which signals appear in the dump, in declaration order.
  std::vector<netlist::SignalId> dumped;
  if (internal) {
    dumped.resize(n.num_signals());
    for (netlist::SignalId s = 0; s < n.num_signals(); ++s) dumped[s] = s;
  } else {
    dumped.assign(n.inputs().begin(), n.inputs().end());
  }

  os << "$date cfpm trace $end\n";
  os << "$version cfpm 1.0 $end\n";
  os << "$timescale 1ns $end\n";
  os << "$scope module " << (n.name().empty() ? "top" : n.name()) << " $end\n";
  for (std::size_t i = 0; i < dumped.size(); ++i) {
    os << "$var wire 1 " << vcd_id(i) << " " << n.signal(dumped[i]).name
       << " $end\n";
  }
  os << "$upscope $end\n$enddefinitions $end\n";

  std::vector<std::uint8_t> inputs(n.num_inputs());
  std::vector<std::uint8_t> values;
  std::vector<std::uint8_t> previous(dumped.size(), 0xff);  // force initial dump
  for (std::size_t t = 0; t < seq.length(); ++t) {
    seq.vector_at(t, inputs);
    if (internal) {
      values = simulator->eval(inputs);
    } else {
      values.assign(inputs.begin(), inputs.end());
    }
    bool header_written = false;
    for (std::size_t i = 0; i < dumped.size(); ++i) {
      const std::uint8_t v = internal ? values[dumped[i]] : values[i];
      if (v == previous[i]) continue;
      if (!header_written) {
        os << "#" << t << "\n";
        if (t == 0) os << "$dumpvars\n";
        header_written = true;
      }
      os << (v ? '1' : '0') << vcd_id(i) << "\n";
      previous[i] = v;
    }
    if (t == 0 && header_written) os << "$end\n";
  }
  os << "#" << seq.length() << "\n";
  if (!os) throw Error("write_vcd: stream failure");
}

}  // namespace cfpm::sim
