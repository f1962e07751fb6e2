#include "oracle.hpp"

#include <algorithm>
#include <bit>
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

PositiveCycle find_positive_cycle(const Circuit& c,
                                  const std::function<std::int64_t(EdgeId)>& cost) {
  const int n = c.num_nodes();
  PositiveCycle result;
  if (n == 0) return result;
  std::vector<std::int64_t> dist(static_cast<std::size_t>(n), 0);
  std::vector<EdgeId> parent(static_cast<std::size_t>(n), kNoEdge);
  NodeId touched = kNoNode;
  for (int round = 0; round < n; ++round) {
    touched = kNoNode;
    for (EdgeId e = 0; e < c.num_edges(); ++e) {
      const auto& edge = c.edge(e);
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
  for (int i = 0; i < n; ++i) v = c.edge(parent[static_cast<std::size_t>(v)]).from;
  const NodeId start = v;
  result.found = true;
  do {
    const EdgeId e = parent[static_cast<std::size_t>(v)];
    result.edges.push_back(e);
    v = c.edge(e).from;
  } while (v != start);
  std::reverse(result.edges.begin(), result.edges.end());
  return result;
}

namespace {

/// Positive cycle under q·d(to) - p·w(e): a cycle of ratio above p/q, or a
/// zero-register cycle with positive delay.
PositiveCycle cycle_above(const Circuit& c, const Rational& ratio) {
  return find_positive_cycle(c, [&](EdgeId e) {
    const auto& edge = c.edge(e);
    return ratio.den() * c.delay(edge.to) - ratio.num() * edge.weight;
  });
}

}  // namespace

bool has_cycle_above_ratio(const Circuit& c, const Rational& ratio) {
  return cycle_above(c, ratio).found;
}

CycleRatioResult circuit_mdr(const Circuit& c) {
  CycleRatioResult result;
  if (!has_cycle_above_ratio(c, Rational(0))) return result;
  // Binary search on the integer part, then jump from cycle to cycle.
  std::int64_t lo = 0;
  std::int64_t hi = 1;
  for (NodeId v = 0; v < c.num_nodes(); ++v) hi += c.delay(v);
  while (lo + 1 < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    (has_cycle_above_ratio(c, Rational(mid)) ? lo : hi) = mid;
  }
  for (PositiveCycle cycle = cycle_above(c, Rational(lo)); cycle.found;
       cycle = cycle_above(c, result.ratio)) {
    std::int64_t d = 0;
    std::int64_t w = 0;
    for (const EdgeId e : cycle.edges) {
      d += c.delay(c.edge(e).to);
      w += c.edge(e).weight;
    }
    TS_CHECK(w > 0, "combinational loop: the MDR ratio is unbounded");
    result.ratio = Rational(d, w);
    result.critical_cycle = cycle.edges;
  }
  return result;
}

std::vector<NodeId> circuit_io(const Circuit& c) {
  std::vector<NodeId> io(c.pis().begin(), c.pis().end());
  io.insert(io.end(), c.pos().begin(), c.pos().end());
  return io;
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

WdMatrices wd_matrices(const Circuit& c) {
  WdMatrices m;
  m.n = c.num_nodes();
  const auto n = static_cast<std::size_t>(m.n);
  m.w.assign(n * n, kNoPath);
  m.d.assign(n * n, 0);
  // Dijkstra under the lexicographic weight (w(e), -d(head)).
  using Entry = std::tuple<std::int64_t, std::int64_t, NodeId>;
  for (NodeId u = 0; u < m.n; ++u) {
    std::vector<std::pair<std::int64_t, std::int64_t>> best(
        n, {std::numeric_limits<std::int64_t>::max(), 0});
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
    best[static_cast<std::size_t>(u)] = {0, -c.delay(u)};
    queue.emplace(0, -c.delay(u), u);
    while (!queue.empty()) {
      const auto [w, neg_d, v] = queue.top();
      queue.pop();
      if (best[static_cast<std::size_t>(v)] != std::pair{w, neg_d}) continue;
      m.w[static_cast<std::size_t>(u) * n + static_cast<std::size_t>(v)] =
          static_cast<std::int32_t>(w);
      m.d[static_cast<std::size_t>(u) * n + static_cast<std::size_t>(v)] =
          static_cast<std::int32_t>(-neg_d);
      for (const EdgeId e : c.fanout_edges(v)) {
        const auto& edge = c.edge(e);
        const std::pair<std::int64_t, std::int64_t> cand{w + edge.weight,
                                                         neg_d - c.delay(edge.to)};
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
///   r(u) - r(v) <= W(u, v) - 1     whenever D(u, v) > period
///   r(p) = r(q)                    for PIs and POs p, q
/// by Bellman–Ford from an all-zero start.
std::optional<std::vector<int>> feas(const Circuit& c, const WdMatrices& m,
                                     std::int64_t period) {
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    if (c.delay(v) > period) return std::nullopt;
  }
  struct Constraint {
    NodeId u;
    NodeId v;
    std::int64_t bound;  // r(u) - r(v) <= bound
  };
  std::vector<Constraint> constraints;
  for (EdgeId e = 0; e < c.num_edges(); ++e) {
    constraints.push_back({c.edge(e).from, c.edge(e).to, c.edge(e).weight});
  }
  const std::vector<NodeId> pinned = circuit_io(c);
  for (std::size_t i = 1; i < pinned.size(); ++i) {
    constraints.push_back({pinned[i - 1], pinned[i], 0});
    constraints.push_back({pinned[i], pinned[i - 1], 0});
  }
  const auto n = static_cast<std::size_t>(m.n);
  for (NodeId u = 0; u < m.n; ++u) {
    for (NodeId v = 0; v < m.n; ++v) {
      const std::size_t at = static_cast<std::size_t>(u) * n + static_cast<std::size_t>(v);
      if (m.w[at] != kNoPath && m.d[at] > period) constraints.push_back({u, v, m.w[at] - 1});
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

std::optional<std::vector<int>> feasible_retiming(const Circuit& c, std::int64_t period) {
  return feas(c, wd_matrices(c), period);
}

RetimeResult min_period_retiming(const Circuit& c) {
  const WdMatrices m = wd_matrices(c);
  RetimeResult best{circuit_clock_period(c),
                    std::vector<int>(static_cast<std::size_t>(c.num_nodes()), 0)};
  std::int64_t lo = 0;
  for (NodeId v = 0; v < c.num_nodes(); ++v) lo = std::max<std::int64_t>(lo, c.delay(v));
  while (lo < best.period) {
    const std::int64_t mid = lo + (best.period - lo) / 2;
    if (auto r = feas(c, m, mid)) {
      best = RetimeResult{mid, std::move(*r)};
    } else {
      lo = mid + 1;
    }
  }
  return best;
}

std::int64_t retime_min_period(Circuit& c) {
  const RetimeResult result = min_period_retiming(c);
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


TruthTable cut_function_reference(const Circuit& c, NodeId root,
                                  std::span<const SeqCutNode> cut) {
  const int arity = static_cast<int>(cut.size());
  TS_CHECK(arity <= TruthTable::kMaxVars, "cut too wide for truth-table extraction");
  const auto key = [](SeqCutNode id) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(id.node)) << 32) |
           static_cast<std::uint32_t>(id.w);
  };
  std::unordered_map<std::uint64_t, TruthTable> memo;
  for (int i = 0; i < arity; ++i) {
    memo.emplace(key(cut[static_cast<std::size_t>(i)]), TruthTable::var(arity, i));
  }
  auto eval = [&](auto&& self, SeqCutNode at) -> const TruthTable& {
    const auto it = memo.find(key(at));
    if (it != memo.end()) return it->second;
    TS_CHECK(c.is_gate(at.node), "cut does not cover every path to the root");
    std::vector<TruthTable> inputs;
    for (const EdgeId e : c.fanin_edges(at.node)) {
      const Circuit::Edge& edge = c.edge(e);
      inputs.push_back(self(self, SeqCutNode{edge.from, at.w + edge.weight}));
    }
    TruthTable result = inputs.empty() ? c.function(at.node).remap(arity, {})
                                       : compose(c.function(at.node), inputs);
    return memo.emplace(key(at), std::move(result)).first->second;
  };
  return eval(eval, SeqCutNode{root, 0});
}

namespace {

struct RefSignal {
  int eff;
  DecompFanin ref;
};

struct RefClasses {
  std::vector<std::uint32_t> code_of;
  std::vector<TruthTable> class_tt;
};

/// Columns of f for the bound set = its top `bound` variables, numbered by
/// first appearance with bound variable 0 as the most significant bit.
RefClasses classify_reference(const TruthTable& f, int bound) {
  const int free_vars = f.num_vars() - bound;
  RefClasses out;
  out.code_of.resize(std::size_t{1} << bound);
  for (std::uint32_t r = 0; r < out.code_of.size(); ++r) {
    std::uint32_t a = 0;
    for (int j = 0; j < bound; ++j) {
      if ((r >> (bound - 1 - j)) & 1) a |= std::uint32_t{1} << j;
    }
    TruthTable column = TruthTable::constant(free_vars, false);
    for (std::uint32_t y = 0; y < column.num_bits(); ++y) {
      if (f.bit(y | (a << free_vars))) column.set_bit(y, true);
    }
    std::size_t code = 0;
    while (code < out.class_tt.size() && out.class_tt[code] != column) ++code;
    if (code == out.class_tt.size()) out.class_tt.push_back(std::move(column));
    out.code_of[a] = static_cast<std::uint32_t>(code);
  }
  return out;
}

class RefSearch {
 public:
  RefSearch(int target_label, const DecompOptions& options)
      : target_(target_label), options_(options), attempts_left_(options.max_attempts) {}

  bool solve(const TruthTable& f, std::vector<RefSignal> signals, std::vector<DecompLut>& luts) {
    if (static_cast<int>(signals.size()) <= options_.k) {
      DecompLut root;
      root.func = f;
      achieved_ = 0;
      for (const RefSignal& s : signals) {
        root.fanins.push_back(s.ref);
        achieved_ = std::max(achieved_, s.eff + 1);
      }
      if (achieved_ > target_) return false;
      luts.push_back(std::move(root));
      return true;
    }
    const int m = static_cast<int>(signals.size());
    std::vector<int> candidates;
    for (int i = 0; i < m; ++i) {
      if (signals[static_cast<std::size_t>(i)].eff <= target_ - 2) candidates.push_back(i);
    }
    std::stable_sort(candidates.begin(), candidates.end(), [&](int a, int b) {
      return signals[static_cast<std::size_t>(a)].eff < signals[static_cast<std::size_t>(b)].eff;
    });
    for (int b = std::min<int>(options_.k, static_cast<int>(candidates.size())); b >= 2; --b) {
      for (std::size_t start = 0; start + static_cast<std::size_t>(b) <= candidates.size();
           ++start) {
        if (attempts_left_-- <= 0) return false;
        const std::span<const int> bound(candidates.data() + start, static_cast<std::size_t>(b));
        if (try_step(f, signals, bound, luts)) return true;
      }
    }
    return false;
  }

  int achieved() const { return achieved_; }

 private:
  bool try_step(const TruthTable& f, const std::vector<RefSignal>& signals,
                std::span<const int> bound, std::vector<DecompLut>& luts) {
    const int m = static_cast<int>(signals.size());
    const int b = static_cast<int>(bound.size());
    const int free_vars = m - b;
    std::vector<int> var_map(static_cast<std::size_t>(m), -1);
    for (int j = 0; j < b; ++j) {
      var_map[static_cast<std::size_t>(bound[static_cast<std::size_t>(j)])] = free_vars + j;
    }
    int next = 0;
    std::vector<int> kept;
    for (int i = 0; i < m; ++i) {
      if (var_map[static_cast<std::size_t>(i)] < 0) {
        var_map[static_cast<std::size_t>(i)] = next++;
        kept.push_back(i);
      }
    }
    const RefClasses classes = classify_reference(f.remap(m, var_map), b);
    const std::size_t mu = classes.class_tt.size();
    const int t = std::max(1, mu == 1 ? 0 : static_cast<int>(std::bit_width(mu - 1)));
    if (t >= b) return false;

    int eff_bound = 0;
    for (const int i : bound) {
      eff_bound = std::max(eff_bound, signals[static_cast<std::size_t>(i)].eff);
    }
    const std::size_t luts_mark = luts.size();
    std::vector<RefSignal> remaining;
    for (int j = 0; j < t; ++j) {
      DecompLut lut;
      lut.func = TruthTable::constant(b, false);
      for (std::uint32_t a = 0; a < classes.code_of.size(); ++a) {
        if ((classes.code_of[a] >> j) & 1) lut.func.set_bit(a, true);
      }
      for (const int i : bound) lut.fanins.push_back(signals[static_cast<std::size_t>(i)].ref);
      luts.push_back(std::move(lut));
      remaining.push_back(
          RefSignal{eff_bound + 1, DecompFanin::lut(static_cast<int>(luts.size() - 1))});
    }
    for (const int i : kept) remaining.push_back(signals[static_cast<std::size_t>(i)]);

    // Residue over (code variables low, kept variables high).
    const int new_arity = t + free_vars;
    TruthTable next_f = TruthTable::constant(new_arity, false);
    const std::uint32_t total = std::uint32_t{1} << new_arity;
    for (std::uint32_t x = 0; x < total; ++x) {
      std::uint32_t code = x & ((std::uint32_t{1} << t) - 1);
      if (code >= mu) code = 0;  // unreachable code: don't care
      if (classes.class_tt[code].bit(x >> t)) next_f.set_bit(x, true);
    }
    if (solve(next_f, std::move(remaining), luts)) return true;
    luts.resize(luts_mark);
    return false;
  }

  int target_;
  const DecompOptions& options_;
  int attempts_left_;
  int achieved_ = 0;
};

}  // namespace

DecompResult decompose_for_label_reference(const TruthTable& f, std::span<const int> eff_labels,
                                           int target_label, const DecompOptions& options) {
  TS_CHECK(static_cast<int>(eff_labels.size()) == f.num_vars(),
           "one effective label per input required");
  DecompResult result;
  TruthTable current = f;
  std::vector<RefSignal> signals;
  const std::vector<int> support = f.support();
  for (const int v : support) {
    signals.push_back(RefSignal{eff_labels[static_cast<std::size_t>(v)], DecompFanin::input(v)});
  }
  for (int v = f.num_vars() - 1; v >= 0; --v) {
    if (!std::binary_search(support.begin(), support.end(), v)) current = current.drop_var(v);
  }
  RefSearch search(target_label, options);
  result.success = search.solve(current, std::move(signals), result.luts);
  result.achieved_label = search.achieved();
  if (!result.success) result.luts.clear();
  return result;
}

}  // namespace turbosyn::oracle
