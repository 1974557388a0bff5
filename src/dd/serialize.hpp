// Textual serialization of ADDs.
//
// This is what makes the paper's IP argument concrete: a vendor can ship
// the switching-capacitance ADD of a macro (a black-box discrete function)
// without revealing the gate-level netlist it was derived from.
//
// Format v2 (line oriented, '#' comments allowed):
//   cfpm-dd 2 add
//   vars <n>
//   order <var@level0> <var@level1> ...   # optional; identity when absent
//   nodes <count>
//   <id> T <value>                 # terminal
//   <id> N <var> <then> <else>     # internal node, children appear earlier
//   root <id>
//   crc <8 hex digits>             # optional; checked when present
// Ids run 0..count-1 in file order, and child and root references name
// earlier ids. ADD edges are always plain, so no token carries a
// complement mark; any other header kind (such as 'bdd') is malformed.
//
// v2 is the only format read or written; a v1 header ("cfpm-add 1") is
// rejected as malformed.
//
// The node structure is canonical only under the recorded variable order
// (sifting may have moved variables); loading a reordered diagram requires
// a fresh manager, whose order is set before any node is built.
#pragma once

#include <iosfwd>

#include "dd/manager.hpp"

namespace cfpm::dd {

/// Writes `f` to `os` (format v2). Throws cfpm::Error on stream failure.
void write_add(std::ostream& os, const Add& f);

/// Reads the header and `vars` line of a serialized ADD, then rewinds `is`
/// to where it started, so a caller can check the diagram's width before
/// sizing a manager for read_add. Throws cfpm::ParseError on a malformed
/// header or a stream that cannot rewind.
std::size_t peek_add_vars(std::istream& is);

/// Reads an ADD into `mgr` (which must have at least the
/// serialized variable count). Throws cfpm::ParseError on malformed input.
Add read_add(std::istream& is, DdManager& mgr);

}  // namespace cfpm::dd
