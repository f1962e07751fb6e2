#include "sim/simulator.hpp"

#include <algorithm>

#include "base/check.hpp"

namespace turbosyn {
namespace {

/// lo where the select bit is 0, hi where it is 1.
std::uint64_t mux(std::uint64_t select, std::uint64_t lo, std::uint64_t hi) {
  return lo ^ (select & (hi ^ lo));
}

}  // namespace

Simulator::Simulator(const Circuit& circuit)
    : pis_(circuit.pis().begin(), circuit.pis().end()),
      pos_(circuit.pos().begin(), circuit.pos().end()) {
  const int n = circuit.num_nodes();
  std::vector<std::int32_t> wire_of_edge(static_cast<std::size_t>(circuit.num_edges()));
  ring_begin_.push_back(0);
  for (EdgeId e = 0; e < circuit.num_edges(); ++e) {
    const Circuit::Edge& edge = circuit.edge(e);
    if (edge.weight == 0) {
      wire_of_edge[static_cast<std::size_t>(e)] = edge.from;
      continue;
    }
    wire_of_edge[static_cast<std::size_t>(e)] = n + static_cast<std::int32_t>(reg_driver_.size());
    reg_driver_.push_back(edge.from);
    head_.push_back(ring_begin_.back());
    ring_begin_.push_back(ring_begin_.back() + edge.weight);
  }
  ring_.assign(static_cast<std::size_t>(ring_begin_.back()), 0);
  wire_.assign(static_cast<std::size_t>(n) + reg_driver_.size(), 0);
  outputs_.assign(pos_.size(), 0);

  int widest = 1;
  for (const NodeId v : combinational_order(circuit)) {
    if (circuit.is_pi(v)) continue;
    Op op{v, static_cast<std::int32_t>(input_wire_.size()), 0, -1};
    for (const EdgeId e : circuit.fanin_edges(v)) {
      input_wire_.push_back(wire_of_edge[static_cast<std::size_t>(e)]);
    }
    op.num_inputs = static_cast<std::int32_t>(input_wire_.size()) - op.first_input;
    if (circuit.is_gate(v)) {
      op.first_word = static_cast<std::int32_t>(table_.size());
      const auto words = circuit.function(v).words();
      table_.insert(table_.end(), words.begin(), words.end());
      widest = std::max(widest, op.num_inputs);
    }
    ops_.push_back(op);
  }
  scratch_.resize(std::size_t{1} << (widest - 1));
}

void Simulator::reset() {
  std::fill(ring_.begin(), ring_.end(), 0);
  std::fill(wire_.begin(), wire_.end(), 0);
  std::copy(ring_begin_.begin(), ring_begin_.end() - 1, head_.begin());
}

std::span<const std::uint64_t> Simulator::step_lanes(std::span<const std::uint64_t> pi_words) {
  TS_CHECK(pi_words.size() == pis_.size(),
           "expected " << pis_.size() << " PI values, got " << pi_words.size());
  for (std::size_t i = 0; i < pis_.size(); ++i) {
    wire_[static_cast<std::size_t>(pis_[i])] = pi_words[i];
  }
  const std::size_t first_reg_wire = wire_.size() - reg_driver_.size();
  for (std::size_t r = 0; r < reg_driver_.size(); ++r) {
    wire_[first_reg_wire + r] = ring_[static_cast<std::size_t>(head_[r])];
  }
  for (const Op& op : ops_) {
    const std::int32_t* in = input_wire_.data() + op.first_input;
    std::uint64_t& out = wire_[static_cast<std::size_t>(op.node)];
    if (op.first_word < 0) {
      out = wire_[static_cast<std::size_t>(in[0])];
    } else if (op.num_inputs == 0) {
      out = 0 - (table_[static_cast<std::size_t>(op.first_word)] & 1);
    } else {
      // Leaves are the table bits: the first level muxes each pair of rows
      // by fanin 0, every later level halves the row count by the next fanin.
      const std::uint64_t* table = table_.data() + op.first_word;
      const std::uint64_t x0 = wire_[static_cast<std::size_t>(in[0])];
      const std::size_t half = std::size_t{1} << (op.num_inputs - 1);
      for (std::size_t j = 0; j < half; ++j) {
        const std::uint64_t rows = table[j >> 5] >> (2 * (j & 31));
        scratch_[j] = mux(x0, 0 - (rows & 1), 0 - ((rows >> 1) & 1));
      }
      for (std::int32_t i = 1; i < op.num_inputs; ++i) {
        const std::uint64_t x = wire_[static_cast<std::size_t>(in[i])];
        for (std::size_t j = 0, rows = half >> i; j < rows; ++j) {
          scratch_[j] = mux(x, scratch_[2 * j], scratch_[2 * j + 1]);
        }
      }
      out = scratch_[0];
    }
  }
  for (std::size_t o = 0; o < pos_.size(); ++o) {
    outputs_[o] = wire_[static_cast<std::size_t>(pos_[o])];
  }
  // Advance the registers: the driver's word replaces the oldest one.
  for (std::size_t r = 0; r < reg_driver_.size(); ++r) {
    std::int32_t& head = head_[r];
    ring_[static_cast<std::size_t>(head)] = wire_[static_cast<std::size_t>(reg_driver_[r])];
    if (++head == ring_begin_[r + 1]) head = ring_begin_[r];
  }
  return outputs_;
}

std::vector<bool> Simulator::step(const std::vector<bool>& pi_values) {
  std::vector<std::uint64_t> words(pi_values.begin(), pi_values.end());
  const std::span<const std::uint64_t> out = step_lanes(words);
  std::vector<bool> lane0(out.size());
  for (std::size_t o = 0; o < out.size(); ++o) lane0[o] = (out[o] & 1) != 0;
  return lane0;
}

std::vector<std::vector<bool>> simulate_sequence(const Circuit& circuit,
                                                 const std::vector<std::vector<bool>>& inputs) {
  Simulator sim(circuit);
  std::vector<std::vector<bool>> outputs;
  outputs.reserve(inputs.size());
  for (const auto& in : inputs) outputs.push_back(sim.step(in));
  return outputs;
}

std::vector<std::vector<std::uint64_t>> random_lane_stimulus(Rng& rng, int num_inputs,
                                                             int length) {
  std::vector<std::vector<std::uint64_t>> seq(static_cast<std::size_t>(length));
  for (auto& cycle : seq) {
    cycle.resize(static_cast<std::size_t>(num_inputs));
    for (std::uint64_t& word : cycle) word = rng.next_u64();
  }
  return seq;
}

std::vector<std::vector<bool>> random_stimulus(Rng& rng, int num_inputs, int length) {
  std::vector<std::vector<bool>> seq;
  seq.reserve(static_cast<std::size_t>(length));
  for (const auto& cycle : random_lane_stimulus(rng, num_inputs, length)) {
    std::vector<bool>& bits = seq.emplace_back(cycle.size());
    for (std::size_t i = 0; i < cycle.size(); ++i) bits[i] = (cycle[i] & 1) != 0;
  }
  return seq;
}

}  // namespace turbosyn
