#include "oracle.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "base/check.hpp"
#include "netlist/blif.hpp"
#include "netlist/canonical.hpp"
#include "retime/retiming.hpp"

namespace turbosyn::oracle {

PositiveCycle find_positive_cycle(const Digraph& g,
                                  const std::function<std::int64_t(EdgeId)>& cost) {
  const int n = g.num_nodes();
  PositiveCycle result;
  if (n == 0) return result;
  std::vector<std::int64_t> dist(static_cast<std::size_t>(n), 0);
  std::vector<EdgeId> parent(static_cast<std::size_t>(n), kNoEdge);
  NodeId touched = kNoNode;
  for (int round = 0; round < n; ++round) {
    touched = kNoNode;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto& edge = g.edge(e);
      const std::int64_t cand = dist[static_cast<std::size_t>(edge.from)] + cost(e);
      if (cand > dist[static_cast<std::size_t>(edge.to)]) {
        dist[static_cast<std::size_t>(edge.to)] = cand;
        parent[static_cast<std::size_t>(edge.to)] = e;
        touched = edge.to;
      }
    }
    if (touched == kNoNode) return result;
  }
  // Still relaxing after n rounds: n parent steps from the last raised node
  // land on the cycle.
  NodeId v = touched;
  for (int i = 0; i < n; ++i) v = g.edge(parent[static_cast<std::size_t>(v)]).from;
  const NodeId start = v;
  result.found = true;
  do {
    const EdgeId e = parent[static_cast<std::size_t>(v)];
    result.edges.push_back(e);
    v = g.edge(e).from;
  } while (v != start);
  std::reverse(result.edges.begin(), result.edges.end());
  return result;
}

namespace {

/// Positive cycle under q·d(to) - p·w(e): a cycle of ratio above p/q, or a
/// zero-register cycle with positive delay.
PositiveCycle cycle_above(const Digraph& g, std::span<const int> delay, const Rational& ratio) {
  return find_positive_cycle(g, [&](EdgeId e) {
    const auto& edge = g.edge(e);
    return ratio.den() * delay[static_cast<std::size_t>(edge.to)] - ratio.num() * edge.weight;
  });
}

}  // namespace

bool has_cycle_above_ratio(const Digraph& g, std::span<const int> delay, const Rational& ratio) {
  return cycle_above(g, delay, ratio).found;
}

CycleRatioResult max_delay_to_register_ratio(const Digraph& g, std::span<const int> delay) {
  CycleRatioResult result;
  if (!has_cycle_above_ratio(g, delay, Rational(0))) return result;
  // Binary search on the integer part, then jump from cycle to cycle.
  std::int64_t lo = 0;
  std::int64_t hi = 1;
  for (const int d : delay) hi += d;
  while (lo + 1 < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    (has_cycle_above_ratio(g, delay, Rational(mid)) ? lo : hi) = mid;
  }
  for (PositiveCycle c = cycle_above(g, delay, Rational(lo)); c.found;
       c = cycle_above(g, delay, result.ratio)) {
    std::int64_t d = 0;
    std::int64_t w = 0;
    for (const EdgeId e : c.edges) {
      d += delay[static_cast<std::size_t>(g.edge(e).to)];
      w += g.edge(e).weight;
    }
    TS_CHECK(w > 0, "combinational loop: the MDR ratio is unbounded");
    result.ratio = Rational(d, w);
    result.critical_cycle = c.edges;
  }
  return result;
}

std::vector<int> circuit_delays(const Circuit& c) {
  std::vector<int> delay(static_cast<std::size_t>(c.num_nodes()));
  for (NodeId v = 0; v < c.num_nodes(); ++v) delay[static_cast<std::size_t>(v)] = c.delay(v);
  return delay;
}

std::vector<NodeId> circuit_io(const Circuit& c) {
  std::vector<NodeId> io(c.pis().begin(), c.pis().end());
  io.insert(io.end(), c.pos().begin(), c.pos().end());
  return io;
}

CycleRatioResult circuit_mdr(const Circuit& c) {
  return max_delay_to_register_ratio(c.to_digraph(), circuit_delays(c));
}

namespace {

constexpr std::int32_t kNoPath = std::numeric_limits<std::int32_t>::max();

/// Leiserson–Saxe W(u, v) (fewest registers on a u ⇝ v path) and D(u, v)
/// (largest delay among those paths, both ends included), row-major.
struct WdMatrices {
  int n = 0;
  std::vector<std::int32_t> w;
  std::vector<std::int32_t> d;
};

WdMatrices wd_matrices(const Digraph& g, std::span<const int> delay) {
  WdMatrices m;
  m.n = g.num_nodes();
  const auto n = static_cast<std::size_t>(m.n);
  m.w.assign(n * n, kNoPath);
  m.d.assign(n * n, 0);
  // Dijkstra under the lexicographic weight (w(e), -d(head)).
  using Entry = std::tuple<std::int64_t, std::int64_t, NodeId>;
  for (NodeId u = 0; u < m.n; ++u) {
    std::vector<std::pair<std::int64_t, std::int64_t>> best(
        n, {std::numeric_limits<std::int64_t>::max(), 0});
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
    best[static_cast<std::size_t>(u)] = {0, -delay[static_cast<std::size_t>(u)]};
    queue.emplace(0, -delay[static_cast<std::size_t>(u)], u);
    while (!queue.empty()) {
      const auto [w, neg_d, v] = queue.top();
      queue.pop();
      if (best[static_cast<std::size_t>(v)] != std::pair{w, neg_d}) continue;
      m.w[static_cast<std::size_t>(u) * n + static_cast<std::size_t>(v)] =
          static_cast<std::int32_t>(w);
      m.d[static_cast<std::size_t>(u) * n + static_cast<std::size_t>(v)] =
          static_cast<std::int32_t>(-neg_d);
      for (const EdgeId e : g.fanout_edges(v)) {
        const auto& edge = g.edge(e);
        const std::pair<std::int64_t, std::int64_t> cand{
            w + edge.weight, neg_d - delay[static_cast<std::size_t>(edge.to)]};
        if (cand < best[static_cast<std::size_t>(edge.to)]) {
          best[static_cast<std::size_t>(edge.to)] = cand;
          queue.emplace(cand.first, cand.second, edge.to);
        }
      }
    }
  }
  return m;
}

/// FEAS on the difference constraints
///   r(u) - r(v) <= w(e)            for every edge e(u, v)
///   r(u) - r(v) <= W(u, v) - 1     whenever D(u, v) > c
///   r(p) = r(q)                    for pinned p, q
/// by Bellman–Ford from an all-zero start.
std::optional<std::vector<int>> feas(const Digraph& g, std::span<const int> delay,
                                     const WdMatrices& m, std::int64_t c,
                                     std::span<const NodeId> pinned) {
  for (const int d : delay) {
    if (d > c) return std::nullopt;
  }
  struct Constraint {
    NodeId u;
    NodeId v;
    std::int64_t bound;  // r(u) - r(v) <= bound
  };
  std::vector<Constraint> constraints;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    constraints.push_back({g.edge(e).from, g.edge(e).to, g.edge(e).weight});
  }
  for (std::size_t i = 1; i < pinned.size(); ++i) {
    constraints.push_back({pinned[i - 1], pinned[i], 0});
    constraints.push_back({pinned[i], pinned[i - 1], 0});
  }
  const auto n = static_cast<std::size_t>(m.n);
  for (NodeId u = 0; u < m.n; ++u) {
    for (NodeId v = 0; v < m.n; ++v) {
      const std::size_t at = static_cast<std::size_t>(u) * n + static_cast<std::size_t>(v);
      if (m.w[at] != kNoPath && m.d[at] > c) constraints.push_back({u, v, m.w[at] - 1});
    }
  }
  std::vector<std::int64_t> r(n, 0);
  for (int round = 0; round <= m.n; ++round) {
    bool relaxed = false;
    for (const Constraint& k : constraints) {
      const std::int64_t cand = r[static_cast<std::size_t>(k.v)] + k.bound;
      if (cand < r[static_cast<std::size_t>(k.u)]) {
        r[static_cast<std::size_t>(k.u)] = cand;
        relaxed = true;
      }
    }
    if (!relaxed) {
      const std::int64_t base = pinned.empty() ? 0 : r[static_cast<std::size_t>(pinned[0])];
      std::vector<int> lags(n);
      for (std::size_t v = 0; v < n; ++v) lags[v] = static_cast<int>(r[v] - base);
      return lags;
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::vector<int>> feasible_retiming(const Digraph& g, std::span<const int> delay,
                                                  std::int64_t c, std::span<const NodeId> pinned) {
  return feas(g, delay, wd_matrices(g, delay), c, pinned);
}

RetimeResult min_period_retiming(const Digraph& g, std::span<const int> delay,
                                 std::span<const NodeId> pinned) {
  const WdMatrices m = wd_matrices(g, delay);
  RetimeResult best{clock_period(g, delay), std::vector<int>(delay.size(), 0)};
  std::int64_t lo = 0;
  for (const int d : delay) lo = std::max<std::int64_t>(lo, d);
  while (lo < best.period) {
    const std::int64_t mid = lo + (best.period - lo) / 2;
    if (auto r = feas(g, delay, m, mid, pinned)) {
      best = RetimeResult{mid, std::move(*r)};
    } else {
      lo = mid + 1;
    }
  }
  return best;
}

std::int64_t retime_min_period(Circuit& c) {
  const RetimeResult result =
      min_period_retiming(c.to_digraph(), circuit_delays(c), circuit_io(c));
  apply_retiming(c, result.r);
  return result.period;
}

namespace {

// The line-by-line istream BLIF reader the product shipped before its
// one-pass reader (netlist/blif.cpp), kept verbatim as the differential
// oracle: getline per line, a token vector per line, and one projection and
// AND per cover literal.

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) tokens.push_back(tok);
  return tokens;
}

/// A named signal together with the line of the directive that mentioned it.
struct SignalRef {
  std::string name;
  int line = 0;
};

/// One .names block: output signal, input signals, cover rows.
struct CoverBlock {
  std::string output;
  std::vector<std::string> inputs;
  struct Row {
    std::string plane;  // input plane ('0'/'1'/'-')
    char bit = '1';     // output bit
    int line = 0;
  };
  std::vector<Row> rows;
  int line = 0;  // line of the .names directive
};

struct LatchDef {
  std::string input;
  std::string output;
  int line = 0;
};

/// Builds a truth table from an SOP cover. All rows must share the output
/// polarity (as SIS writes them); a '0' output plane complements the OR.
/// `src` names the input for "source:line:" diagnostics.
TruthTable cover_to_truth_table(const CoverBlock& block, const std::string& src) {
  const int arity = static_cast<int>(block.inputs.size());
  TS_CHECK(arity <= TruthTable::kMaxVars,
           src << ':' << block.line << ": .names '" << block.output << "' has " << arity
               << " inputs (max " << TruthTable::kMaxVars << ")");
  TruthTable sum = TruthTable::constant(arity, false);
  char polarity = '1';
  bool polarity_set = false;
  for (const auto& row : block.rows) {
    TS_CHECK(static_cast<int>(row.plane.size()) == arity,
             src << ':' << row.line << ": .names '" << block.output
                 << "': cover row width mismatch (" << row.plane.size() << " columns for "
                 << arity << " inputs)");
    TS_CHECK(row.bit == '0' || row.bit == '1',
             src << ':' << row.line << ": invalid cover output bit '" << row.bit << "'");
    if (!polarity_set) {
      polarity = row.bit;
      polarity_set = true;
    }
    TS_CHECK(row.bit == polarity, src << ':' << row.line << ": .names '" << block.output
                                      << "': mixed output polarities");
    TruthTable product = TruthTable::constant(arity, true);
    for (int i = 0; i < arity; ++i) {
      if (row.plane[static_cast<std::size_t>(i)] == '1') {
        product = product & TruthTable::var(arity, i);
      } else if (row.plane[static_cast<std::size_t>(i)] == '0') {
        product = product & ~TruthTable::var(arity, i);
      } else {
        TS_CHECK(row.plane[static_cast<std::size_t>(i)] == '-',
                 src << ':' << row.line << ": invalid cover input character '"
                     << row.plane[static_cast<std::size_t>(i)] << "'");
      }
    }
    sum = sum | product;
  }
  if (!polarity_set) return TruthTable::constant(arity, false);  // empty cover = const 0
  return polarity == '1' ? sum : ~sum;
}

class BlifParser {
 public:
  BlifParser(std::istream& in, std::string source) : in_(in), src_(std::move(source)) {}

  Circuit parse() {
    read_sections();
    return build();
  }

 private:
  /// "source:line: " prefix for diagnostics anchored at `line`.
  std::string at(int line) const { return src_ + ':' + std::to_string(line) + ": "; }

  void read_sections() {
    std::string line;
    std::string pending;
    int pending_start = 0;  // line where the current continuation began
    int line_no = 0;
    bool done = false;
    while (!done && std::getline(in_, line)) {
      ++line_no;
      // Strip comments and handle '\' continuations.
      if (const auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
      if (!line.empty() && line.back() == '\\') {
        if (pending.empty()) pending_start = line_no;
        line.pop_back();
        pending += line + ' ';
        continue;
      }
      // A construct is reported at the line it started on.
      const int at_line = pending.empty() ? line_no : pending_start;
      line = pending + line;
      pending.clear();
      const auto tokens = tokenize(line);
      if (tokens.empty()) continue;
      const std::string& head = tokens[0];
      if (head[0] != '.') {
        TS_CHECK(current_cover_ != nullptr, at(at_line) << "cover row outside a .names block");
        if (tokens.size() == 1) {
          // Constant function: single output column.
          TS_CHECK(current_cover_->inputs.empty(),
                   at(at_line) << "cover row missing input plane");
          current_cover_->rows.push_back({"", tokens[0][0], at_line});
        } else {
          TS_CHECK(tokens.size() == 2, at(at_line) << "cover row must be '<plane> <bit>'");
          current_cover_->rows.push_back({tokens[0], tokens[1][0], at_line});
        }
        continue;
      }
      current_cover_ = nullptr;
      if (head == ".model") {
        // Model name ignored (single-model files only).
      } else if (head == ".inputs") {
        for (auto it = tokens.begin() + 1; it != tokens.end(); ++it) {
          inputs_.push_back({*it, at_line});
        }
      } else if (head == ".outputs") {
        for (auto it = tokens.begin() + 1; it != tokens.end(); ++it) {
          outputs_.push_back({*it, at_line});
        }
      } else if (head == ".names") {
        TS_CHECK(tokens.size() >= 2, at(at_line) << ".names requires at least an output");
        CoverBlock block;
        block.output = tokens.back();
        block.inputs.assign(tokens.begin() + 1, tokens.end() - 1);
        block.line = at_line;
        covers_.push_back(std::move(block));
        current_cover_ = &covers_.back();
      } else if (head == ".latch") {
        TS_CHECK(tokens.size() >= 3, at(at_line) << ".latch requires input and output");
        latches_.push_back(LatchDef{tokens[1], tokens[2], at_line});
      } else if (head == ".end") {
        done = true;
      } else {
        TS_CHECK(false, at(at_line) << "unsupported BLIF construct '" << head << "'");
      }
    }
    TS_CHECK(pending.empty(), at(pending_start) << "dangling line continuation at end of file");
    // Nothing but whitespace and comments may follow .end: silently ignoring
    // content there hides concatenated models and truncation artifacts.
    while (std::getline(in_, line)) {
      ++line_no;
      if (const auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
      TS_CHECK(tokenize(line).empty(), at(line_no) << "trailing garbage after .end");
    }
  }

  /// Resolves a signal name to its combinational driver node plus the number
  /// of latches between driver and the named signal (latch chains collapse
  /// into the returned edge weight). `line` anchors diagnostics at the
  /// directive that referenced the signal.
  Circuit::FaninSpec resolve(const Circuit& c, const std::string& signal, int line) const {
    std::string target = signal;
    int weight = 0;
    while (true) {
      const auto it = latch_by_output_.find(target);
      if (it == latch_by_output_.end()) break;
      ++weight;
      TS_CHECK(weight <= static_cast<int>(latches_.size()),
               at(line) << "latch loop without combinational driver at '" << signal << "'");
      target = it->second->input;
    }
    const NodeId v = c.find(target);
    TS_CHECK(v != kNoNode, at(line) << "undriven signal '" << target << "'");
    return Circuit::FaninSpec{v, weight};
  }

  Circuit build() {
    Circuit c;
    std::unordered_set<std::string> driven;
    for (const auto& latch : latches_) {
      TS_CHECK(driven.insert(latch.output).second,
               at(latch.line) << "signal '" << latch.output << "' driven more than once");
      latch_by_output_.emplace(latch.output, &latch);
    }
    for (const SignalRef& in : inputs_) {
      TS_CHECK(driven.insert(in.name).second,
               at(in.line) << "signal '" << in.name << "' driven more than once");
      c.add_pi(in.name);
    }
    // Declare all gates first (sequential loops make any bottom-up order
    // impossible), then attach covers and finally the POs.
    std::vector<NodeId> gate_of(covers_.size());
    for (std::size_t i = 0; i < covers_.size(); ++i) {
      TS_CHECK(driven.insert(covers_[i].output).second,
               at(covers_[i].line)
                   << "signal '" << covers_[i].output << "' driven more than once");
      gate_of[i] = c.declare_gate(covers_[i].output);
    }
    for (std::size_t i = 0; i < covers_.size(); ++i) {
      std::vector<Circuit::FaninSpec> fanins;
      fanins.reserve(covers_[i].inputs.size());
      for (const std::string& in : covers_[i].inputs) {
        fanins.push_back(resolve(c, in, covers_[i].line));
      }
      c.finish_gate(gate_of[i], cover_to_truth_table(covers_[i], src_), fanins);
    }
    for (const SignalRef& out : outputs_) {
      c.add_po(std::string(kPoPrefix) + out.name, resolve(c, out.name, out.line));
    }
    c.validate();
    return c;
  }

  std::istream& in_;
  std::string src_;
  std::vector<SignalRef> inputs_;
  std::vector<SignalRef> outputs_;
  std::vector<CoverBlock> covers_;
  std::vector<LatchDef> latches_;
  CoverBlock* current_cover_ = nullptr;
  std::unordered_map<std::string, const LatchDef*> latch_by_output_;
};

}  // namespace

Circuit read_blif_reference(std::istream& in, const std::string& source_name) {
  return BlifParser(in, source_name).parse();
}

Circuit read_blif_reference(const std::string& text, const std::string& source_name) {
  std::istringstream is(text);
  return read_blif_reference(is, source_name);
}

std::string diagnostic(const Error& e) {
  const std::string what = e.what();
  const std::string dash = " — ";
  const auto at = what.find(dash);
  return at == std::string::npos ? what : what.substr(at + dash.size());
}

namespace {

/// One reader's outcome on a text: its diagnostic, or the circuit's
/// canonical text and written BLIF.
struct ReadOutcome {
  bool accepted = false;
  std::string error;
  std::string canonical;
  std::string written;
};

template <typename Reader>
ReadOutcome read_outcome(Reader&& read) {
  ReadOutcome out;
  try {
    const Circuit c = read();
    out.accepted = true;
    out.canonical = canonical_circuit_form(c).text;
    out.written = write_blif_string(c);
  } catch (const Error& e) {
    out.error = diagnostic(e);
  }
  return out;
}

}  // namespace

std::string blif_reader_disagreement(const std::string& text, const std::string& source_name) {
  const ReadOutcome got = read_outcome([&] { return read_blif_string(text, source_name); });
  const ReadOutcome want =
      read_outcome([&] { return read_blif_reference(text, source_name); });
  if (got.accepted != want.accepted) {
    return got.accepted ? "read_blif accepts; the reference rejects: " + want.error
                        : "read_blif rejects (" + got.error + "); the reference accepts";
  }
  if (got.error != want.error) {
    return "diagnostics differ: '" + got.error + "' vs reference '" + want.error + "'";
  }
  if (got.canonical != want.canonical) return "canonical forms differ";
  if (got.written != want.written) return "write_blif bytes differ";
  return {};
}

std::string random_cover_blif(Rng& rng, int arity, int rows, char polarity) {
  std::string names;
  for (int i = 0; i < arity; ++i) names += " x" + std::to_string(i);
  std::string text = ".model wide\n.inputs" + names + "\n.outputs f\n.names" + names + " f\n";
  for (int r = 0; r < rows; ++r) {
    for (int i = 0; i < arity; ++i) text += rng.next_bool() ? '-' : rng.next_bool() ? '1' : '0';
    text += ' ';
    text += polarity;
    text += '\n';
  }
  return text + ".end\n";
}

}  // namespace turbosyn::oracle
