#include "netlist/canonical.hpp"

#include <algorithm>
#include <vector>

namespace turbosyn {
namespace {

int kind_rank(NodeKind k) {
  switch (k) {
    case NodeKind::kPi:
      return 0;
    case NodeKind::kGate:
      return 1;
    case NodeKind::kPo:
      return 2;
  }
  return 3;
}

void append_int(std::string& out, std::int64_t value) {
  out += std::to_string(value);
  out += ' ';
}

void append_truth_table(std::string& out, const TruthTable& t) {
  static const char* hex = "0123456789abcdef";
  append_int(out, t.num_vars());
  // Hex nibbles, low word first; the table length is implied by the arity.
  for (std::size_t w = 0; w < t.num_words(); ++w) {
    std::uint64_t word = t.word(w);
    const std::size_t bits = std::min<std::size_t>(64, t.num_bits() - w * 64);
    for (std::size_t nib = 0; nib * 4 < bits; ++nib) {
      out += hex[word & 0xf];
      word >>= 4;
    }
  }
  out += ' ';
}

std::vector<NodeId> canonical_node_order(const Circuit& c) {
  const int n = c.num_nodes();
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  std::sort(order.begin(), order.end(), [&c](NodeId a, NodeId b) {
    const int ra = kind_rank(c.kind(a));
    const int rb = kind_rank(c.kind(b));
    if (ra != rb) return ra < rb;
    return c.name(a) < c.name(b);
  });
  return order;
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t state) {
  for (const char ch : bytes) {
    state ^= static_cast<unsigned char>(ch);
    state *= 0x100000001b3ull;
  }
  return state;
}

CanonicalForm canonical_circuit_form(const Circuit& c) {
  const int n = c.num_nodes();
  CanonicalForm form;
  form.order = canonical_node_order(c);
  const std::vector<NodeId>& order = form.order;
  std::vector<int> position(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) position[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = i;

  form.text.reserve(static_cast<std::size_t>(n) * 24);
  form.text += "canon 1\n";
  append_int(form.text, n);
  form.text += '\n';
  for (const NodeId v : order) {
    switch (c.kind(v)) {
      case NodeKind::kPi:
        form.text += "pi ";
        form.text += c.name(v);
        break;
      case NodeKind::kPo:
      case NodeKind::kGate: {
        form.text += c.is_po(v) ? "po " : "gate ";
        form.text += c.name(v);
        form.text += ' ';
        if (c.is_gate(v)) append_truth_table(form.text, c.function(v));
        const auto fanins = c.fanin_edges(v);
        append_int(form.text, static_cast<std::int64_t>(fanins.size()));
        for (const EdgeId e : fanins) {
          // Fanin slot order is semantic (it matches the function's variable
          // order), so slots are serialized in place, by canonical index.
          append_int(form.text, position[static_cast<std::size_t>(c.edge(e).from)]);
          append_int(form.text, c.edge(e).weight);
        }
        break;
      }
    }
    form.text += '\n';
  }
  form.hash = fnv1a64(form.text);
  return form;
}

}  // namespace turbosyn
