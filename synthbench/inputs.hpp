#pragma once
// Seeded inputs of the three workloads. Every input is BLIF text produced by
// the repository's circuit generator (workloads/generator.hpp) — the program
// under test receives nothing but that text. The same seed always yields
// byte-identical inputs.
//
// Circuit structures are fixed per workload; the seed picks their
// presentation (internal signal names) and, for the daemon, the request
// stream and its edits. Per-circuit cost is heavy-tailed (TurboSYN
// especially), so structures redrawn per seed would make the figures depend
// on which circuits a seed happened to draw.

#include <cstdint>
#include <string>
#include <vector>

namespace synthbench {

/// One circuit the benchmark submits, with the flow to run on it.
struct CircuitInput {
  std::string id;    // stable name, used as the expected-results key
  std::string blif;  // the netlist text
  std::string flow;  // "turbomap", "turbosyn", or "portfolio" (turbomap,turbosyn)
  int spec_gates = 0;  // requested gate count of the generator spec
};

/// splitmix64 step: the benchmark's only source of randomness.
std::uint64_t mix64(std::uint64_t x);

/// Round `round` of table1_turbomap: the 16 Table-1 shapes. Round 0 keeps
/// the canonical specs; every later round redraws only each spec's generator
/// seed. The seed picks the presentation (seed 0: the generator's own text).
std::vector<CircuitInput> table1_round(std::uint64_t seed, int round);

/// Circuit `index` of small_turbosyn: a fixed catalog of 261 seeded
/// circuits of 16-40 gates, cycled. The structure is a function of the
/// index alone; the seed picks its presentation.
CircuitInput small_turbosyn_circuit(std::uint64_t seed, int index);

/// The same netlist in a seeded presentation: internal signals renamed by a
/// seeded permutation. Statement order, structure, functions and the PI/PO
/// interface stay (reordering statements changes node ids, and TurboSYN's
/// run time depends strongly on them). Seed 0 returns the text unchanged.
std::string present_blif(const std::string& blif, std::uint64_t seed);

/// A one-gate edit of a BLIF netlist: drops one cover line from one `.names`
/// block that has at least two, so exactly one gate's function changes while
/// its fanins and the PI/PO interface stay put. `pick` selects block and
/// line. Returns the text unchanged when no block qualifies.
std::string edit_one_gate(const std::string& blif, std::uint64_t pick);

/// serve_mixed traffic: a pool of 40 base circuits (fixed structures in a
/// seeded presentation) with a fixed Zipf popularity order, and a seeded
/// request stream over the pool and its one-gate edits.
struct ServeStream {
  enum class Kind : std::uint8_t { kBase, kEdit };
  std::vector<CircuitInput> circuits;  // pool first (kPoolSize), then edits
  std::vector<int> requests;           // circuit index per request, in order
  std::vector<Kind> kinds;             // per request
};

inline constexpr int kPoolSize = 40;

/// `length` requests in seeded order: exact Zipf-proportional counts of each
/// pool circuit (first touches become misses, later ones hits) and 10%
/// seeded one-gate edits of the TurboMap circuits.
ServeStream serve_stream(std::uint64_t seed, int length);

/// FNV-1a over the stream's request order and every circuit's id, flow and
/// text: equal digests mean byte-identical streams.
std::uint64_t stream_digest(const ServeStream& stream);

}  // namespace synthbench
