#pragma once
// Cycle-accurate logic simulation of sequential circuits, 64 runs at once.
//
// Every node carries one 64-bit word: bit l is its value in lane l, and the
// lanes are independent runs that share one pass over the circuit. Flip-flops
// live on edges (weight w = a chain of w FFs, all initialized to zero); each
// registered edge keeps its chain as a ring of w words. One step evaluates
// the combinational logic in combinational_order from the current register
// contents and the primary inputs, samples the outputs, then advances every
// ring by one. A gate is evaluated as a multiplexer tree over its fanin words
// whose leaves are its truth-table bits, so it costs 2^k - 1 word operations
// for all 64 lanes together.

#include <cstdint>
#include <span>
#include <vector>

#include "base/rng.hpp"
#include "netlist/circuit.hpp"

namespace turbosyn {

class Simulator {
 public:
  /// Independent runs per pass, one per bit of a word.
  static constexpr int kLanes = 64;

  explicit Simulator(const Circuit& circuit);

  /// Resets every flip-flop of every lane to zero.
  void reset();

  /// Advances every lane one clock cycle. Bit l of pi_words[i] is the value
  /// of PI i (pis() order) in lane l; returns the PO words in pos() order,
  /// valid until the next step.
  std::span<const std::uint64_t> step_lanes(std::span<const std::uint64_t> pi_words);

  /// Lane 0 alone: one value per PI in pis() order, one per PO in pos() order.
  std::vector<bool> step(const std::vector<bool>& pi_values);

  /// Lane 0's value of a node after the last step (PIs included).
  bool value(NodeId v) const { return (wire_[static_cast<std::size_t>(v)] & 1) != 0; }

 private:
  /// One non-PI node, in combinational order.
  struct Op {
    NodeId node;
    std::int32_t first_input;  // into input_wire_
    std::int32_t num_inputs;
    std::int32_t first_word;   // into table_; -1 for a PO, which copies its input
  };

  std::vector<NodeId> pis_;
  std::vector<NodeId> pos_;
  std::vector<Op> ops_;
  std::vector<std::int32_t> input_wire_;  // wire read by each fanin slot
  std::vector<std::uint64_t> table_;      // truth-table words of every gate
  /// Wires 0..n-1 are the node outputs; wire n + r is the output of
  /// registered edge r's chain, its oldest word.
  std::vector<std::uint64_t> wire_;
  /// Registered edge r: its ring is ring_[ring_begin_[r], ring_begin_[r + 1])
  /// and head_[r] indexes the oldest word; reg_driver_[r] feeds the ring.
  std::vector<NodeId> reg_driver_;
  std::vector<std::int32_t> ring_begin_;
  std::vector<std::int32_t> head_;
  std::vector<std::uint64_t> ring_;
  std::vector<std::uint64_t> outputs_;
  std::vector<std::uint64_t> scratch_;  // mux-tree levels of the widest gate
};

/// Runs the circuit on an input sequence from the all-zero state in lane 0
/// and returns one PO-value vector per cycle.
std::vector<std::vector<bool>> simulate_sequence(const Circuit& circuit,
                                                 const std::vector<std::vector<bool>>& inputs);

/// Deterministic random stimulus for all lanes: `length` cycles of
/// `num_inputs` words, one fresh random word per input and cycle.
std::vector<std::vector<std::uint64_t>> random_lane_stimulus(Rng& rng, int num_inputs,
                                                             int length);

/// Lane 0 of random_lane_stimulus: `length` cycles of `num_inputs` bits.
std::vector<std::vector<bool>> random_stimulus(Rng& rng, int num_inputs, int length);

}  // namespace turbosyn
