#pragma once
// BLIF reader/writer (the SIS subset used by the MCNC benchmark flows).
//
// Supported constructs: .model/.inputs/.outputs/.names/.latch/.end, comments
// and line continuations. Latches are absorbed into edge weights of the
// retiming graph (a chain of k latches becomes weight k); latch initial
// values are ignored, consistent with the paper's retiming formulation.
// PO nodes receive an internal "$po:" name prefix so that output names may
// coincide with internal signal names; the writer strips the prefix.
//
// The reader makes one pass over the caller's text and holds views into it:
// lines and tokens are std::string_views, signal names resolve through one
// view-keyed table, and only '\' continuation lines are copied (into a
// buffer the parser owns). Each cover row becomes one cube built at word
// level. read_blif(istream) and read_blif_file read the whole stream first
// and then take the same path.

#include <iosfwd>
#include <string>

#include "netlist/circuit.hpp"

namespace turbosyn {

inline constexpr const char* kPoPrefix = "$po:";

/// The user-visible name of a PO node (strips the internal prefix).
std::string po_display_name(const Circuit& c, NodeId po);

/// Parses a BLIF model into a Circuit. Throws turbosyn::Error on malformed
/// input (unknown signals, duplicate drivers, combinational loops, trailing
/// garbage after .end, ...); diagnostics carry "source:line:" context, with
/// `source_name` (the file path for read_blif_file) naming the input.
Circuit read_blif(std::istream& in, const std::string& source_name = "<blif>");
Circuit read_blif_string(const std::string& text, const std::string& source_name = "<blif>");
Circuit read_blif_file(const std::string& path);

/// Serializes the circuit as BLIF; edge weights are expanded into latch
/// chains. Gates are emitted as minterm covers.
void write_blif(const Circuit& c, std::ostream& out, const std::string& model_name = "circuit");
std::string write_blif_string(const Circuit& c, const std::string& model_name = "circuit");
void write_blif_file(const Circuit& c, const std::string& path,
                     const std::string& model_name = "circuit");

}  // namespace turbosyn
