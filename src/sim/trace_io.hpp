// Value Change Dump (VCD) export of simulation traces.
//
// Dumps an input workload -- and, when a simulator is supplied, every
// internal signal's zero-delay value -- as an IEEE-1364 VCD file that any
// waveform viewer (GTKWave & friends) can open. One timestep per input
// vector; only changes are emitted, per the format.
#pragma once

#include <iosfwd>

#include "netlist/netlist.hpp"
#include "sim/sequence.hpp"
#include "sim/simulator.hpp"

namespace cfpm::sim {

/// Writes the workload `seq` applied to `n`, one 1ns timestep per vector.
/// When `simulator` is non-null, internal signal values are dumped as well.
/// Throws cfpm::Error on stream failure.
void write_vcd(std::ostream& os, const netlist::Netlist& n,
               const InputSequence& seq,
               const GateLevelSimulator* simulator = nullptr);

}  // namespace cfpm::sim
