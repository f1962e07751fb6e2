#include "netlist/blif.hpp"

#include <deque>
#include <fstream>
#include <iterator>
#include <map>
#include <span>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/check.hpp"
#include "base/failpoint.hpp"

namespace turbosyn {
namespace {

/// The characters `istream >> std::string` skips in the classic locale:
/// ' ', '\t', '\n', '\v', '\f' and '\r'.
bool is_space(char ch) {
  const auto u = static_cast<unsigned char>(ch);
  return u <= ' ' && ((std::uint64_t{0x100003e00} >> u) & 1) != 0;
}

/// Splits `line` at whitespace into `tokens` (views into `line`).
void tokenize(std::string_view line, std::vector<std::string_view>& tokens) {
  tokens.clear();
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (is_space(line[i])) continue;
    const std::size_t start = i;
    while (i < line.size() && !is_space(line[i])) ++i;
    tokens.push_back(line.substr(start, i - start));
  }
}

/// A named signal together with the line of the directive that mentioned it.
struct SignalRef {
  std::string_view name;
  int line = 0;
};

/// One cover row: input plane ('0'/'1'/'-'), output bit and its line.
struct CoverRow {
  std::string_view plane;
  char bit = '1';
  int line = 0;
};

/// One .names block: its output, and its inputs and rows as ranges of the
/// parser's flat `cover_inputs_` and `rows_`.
struct CoverBlock {
  std::string_view output;
  std::size_t first_input = 0, num_inputs = 0;
  std::size_t first_row = 0, num_rows = 0;
  int line = 0;  // line of the .names directive
};

struct LatchDef {
  std::string_view input, output;
  int line = 0;
};

/// Builds a truth table from an SOP cover. All rows must share the output
/// polarity (as SIS writes them); a '0' output plane complements the OR.
/// Each row is one cube ORed in at word level: variables below 6 select
/// bits inside a word, variables 6 and up select words by index.
/// `src` names the input for "source:line:" diagnostics; `words` is scratch.
TruthTable cover_to_truth_table(const CoverBlock& block, std::span<const CoverRow> rows,
                                const std::string& src, std::vector<std::uint64_t>& words) {
  const int arity = static_cast<int>(block.num_inputs);
  TS_CHECK(arity <= TruthTable::kMaxVars,
           src << ':' << block.line << ": .names '" << block.output << "' has " << arity
               << " inputs (max " << TruthTable::kMaxVars << ")");
  words.assign(arity <= 6 ? 1 : std::size_t{1} << (arity - 6), 0);
  char polarity = '1';
  bool polarity_set = false;
  for (const CoverRow& row : rows) {
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
    std::uint64_t in_word = ~std::uint64_t{0};
    std::size_t care = 0;  // word-index bits the cube fixes (variables >= 6)
    std::size_t value = 0;
    for (int i = 0; i < arity; ++i) {
      const char ch = row.plane[static_cast<std::size_t>(i)];
      if (ch == '-') continue;
      TS_CHECK(ch == '0' || ch == '1',
               src << ':' << row.line << ": invalid cover input character '" << ch << "'");
      if (i < 6) {
        in_word &= ch == '1' ? TruthTable::kProjection[i] : ~TruthTable::kProjection[i];
      } else {
        care |= std::size_t{1} << (i - 6);
        if (ch == '1') value |= std::size_t{1} << (i - 6);
      }
    }
    for (std::size_t k = 0; k < words.size(); ++k) {
      if ((k & care) == value) words[k] |= in_word;
    }
  }
  if (!polarity_set) return TruthTable::constant(arity, false);  // empty cover = const 0
  if (polarity == '0') {
    for (std::uint64_t& w : words) w = ~w;
  }
  return TruthTable::from_words(arity, words);
}

class BlifParser {
 public:
  BlifParser(std::string_view text, std::string source) : text_(text), src_(std::move(source)) {}

  Circuit parse() { read_sections(); return build(); }

 private:
  /// "source:line: " prefix for diagnostics anchored at `line`.
  std::string at(int line) const { return src_ + ':' + std::to_string(line) + ": "; }

  /// The next line of the text without its '\n' (false at the end), with
  /// any '#' comment cut off.
  bool next_line(std::string_view& line) {
    if (pos_ >= text_.size()) return false;
    const std::size_t nl = text_.find('\n', pos_);
    line = text_.substr(pos_, nl - pos_);  // to the end if there is no '\n'
    pos_ = nl == std::string_view::npos ? text_.size() : nl + 1;
    ++line_no_;
    line = line.substr(0, line.find('#'));
    return true;
  }

  void read_sections() {
    std::string_view line;
    std::string pending;
    int pending_start = 0;  // line where the current continuation began
    bool done = false;
    while (!done && next_line(line)) {
      // '\' continuations join into a line the parser owns.
      if (!line.empty() && line.back() == '\\') {
        if (pending.empty()) pending_start = line_no_;
        pending.append(line.substr(0, line.size() - 1)) += ' ';
        continue;
      }
      // A construct is reported at the line it started on.
      const int at_line = pending.empty() ? line_no_ : pending_start;
      if (!pending.empty()) {
        line = joined_.emplace_back(std::move(pending.append(line)));
        pending.clear();
      }
      tokenize(line, tokens_);
      if (tokens_.empty()) continue;
      const std::string_view head = tokens_[0];
      if (head[0] != '.') {
        TS_CHECK(in_cover_, at(at_line) << "cover row outside a .names block");
        if (tokens_.size() == 1) {
          // Constant function: single output column.
          TS_CHECK(covers_.back().num_inputs == 0,
                   at(at_line) << "cover row missing input plane");
          rows_.push_back({"", tokens_[0][0], at_line});
        } else {
          TS_CHECK(tokens_.size() == 2, at(at_line) << "cover row must be '<plane> <bit>'");
          rows_.push_back({tokens_[0], tokens_[1][0], at_line});
        }
        ++covers_.back().num_rows;
        continue;
      }
      in_cover_ = false;
      if (head == ".model") {
        // Model name ignored (single-model files only).
      } else if (head == ".inputs" || head == ".outputs") {
        auto& refs = head == ".inputs" ? inputs_ : outputs_;
        for (std::size_t i = 1; i < tokens_.size(); ++i) refs.push_back({tokens_[i], at_line});
      } else if (head == ".names") {
        TS_CHECK(tokens_.size() >= 2, at(at_line) << ".names requires at least an output");
        covers_.push_back({tokens_.back(), cover_inputs_.size(), tokens_.size() - 2,
                           rows_.size(), 0, at_line});
        cover_inputs_.insert(cover_inputs_.end(), tokens_.begin() + 1, tokens_.end() - 1);
        in_cover_ = true;
      } else if (head == ".latch") {
        TS_CHECK(tokens_.size() >= 3, at(at_line) << ".latch requires input and output");
        latches_.push_back(LatchDef{tokens_[1], tokens_[2], at_line});
      } else if (head == ".end") {
        done = true;
      } else {
        TS_CHECK(false, at(at_line) << "unsupported BLIF construct '" << head << "'");
      }
    }
    TS_CHECK(pending.empty(), at(pending_start) << "dangling line continuation at end of file");
    // Nothing but whitespace and comments may follow .end: silently ignoring
    // content there hides concatenated models and truncation artifacts.
    while (next_line(line)) {
      tokenize(line, tokens_);
      TS_CHECK(tokens_.empty(), at(line_no_) << "trailing garbage after .end");
    }
  }

  /// Resolves a signal name to its combinational driver node plus the number
  /// of latches between driver and the named signal (latch chains collapse
  /// into the returned edge weight). `line` anchors diagnostics at the
  /// directive that referenced the signal.
  Circuit::FaninSpec resolve(const Circuit& c, std::string_view signal, int line) const {
    std::string_view target = signal;
    int weight = 0;
    auto it = drivers_.find(target);
    while (it != drivers_.end() && it->second < 0) {
      ++weight;
      TS_CHECK(weight <= static_cast<int>(latches_.size()),
               at(line) << "latch loop without combinational driver at '" << signal << "'");
      target = latches_[static_cast<std::size_t>(~it->second)].input;
      it = drivers_.find(target);
    }
    // A miss may still name a PO added earlier, as Circuit::find would.
    const NodeId v = it != drivers_.end() ? it->second : c.find(std::string(target));
    TS_CHECK(v != kNoNode, at(line) << "undriven signal '" << target << "'");
    return Circuit::FaninSpec{v, weight};
  }

  /// Claims `name` for one driver (a node id, or ~i for latches_[i]).
  void drive(std::string_view name, int driver, int line) {
    TS_CHECK(drivers_.try_emplace(name, driver).second,
             at(line) << "signal '" << name << "' driven more than once");
  }

  Circuit build() {
    Circuit c;
    c.reserve(static_cast<int>(inputs_.size() + covers_.size() + outputs_.size()),
              static_cast<int>(cover_inputs_.size() + outputs_.size()));
    drivers_.reserve(latches_.size() + inputs_.size() + covers_.size());
    for (std::size_t i = 0; i < latches_.size(); ++i) {
      drive(latches_[i].output, ~static_cast<int>(i), latches_[i].line);
    }
    for (const SignalRef& in : inputs_) {
      drive(in.name, c.num_nodes(), in.line);
      c.add_pi(std::string(in.name));
    }
    // Declare all gates first (sequential loops make any bottom-up order
    // impossible), then attach covers and finally the POs.
    for (const CoverBlock& block : covers_) {
      drive(block.output, c.num_nodes(), block.line);
      c.declare_gate(std::string(block.output));
    }
    std::vector<Circuit::FaninSpec> fanins;
    std::vector<std::uint64_t> words;
    NodeId gate = c.num_nodes() - static_cast<NodeId>(covers_.size());
    for (const CoverBlock& block : covers_) {
      fanins.clear();
      for (std::size_t i = 0; i < block.num_inputs; ++i) {
        fanins.push_back(resolve(c, cover_inputs_[block.first_input + i], block.line));
      }
      const std::span<const CoverRow> rows(rows_.data() + block.first_row, block.num_rows);
      c.finish_gate(gate++, cover_to_truth_table(block, rows, src_, words), fanins);
    }
    for (const SignalRef& out : outputs_) {
      c.add_po(std::string(kPoPrefix).append(out.name), resolve(c, out.name, out.line));
    }
    c.validate();
    return c;
  }

  std::string_view text_;
  std::string src_;
  std::size_t pos_ = 0;  // start of the next line in text_
  int line_no_ = 0;
  std::vector<std::string_view> tokens_;  // the current line's tokens
  std::deque<std::string> joined_;        // continued lines, owned (stable addresses)
  std::vector<SignalRef> inputs_;
  std::vector<SignalRef> outputs_;
  std::vector<CoverBlock> covers_;
  std::vector<std::string_view> cover_inputs_;
  std::vector<CoverRow> rows_;
  bool in_cover_ = false;  // cover rows extend covers_.back()
  std::vector<LatchDef> latches_;
  // Signal name -> its driver: a node id, or ~i for the output of latches_[i].
  std::unordered_map<std::string_view, int> drivers_;
};

}  // namespace

std::string po_display_name(const Circuit& c, NodeId po) {
  TS_CHECK(c.is_po(po), "po_display_name requires a PO node");
  const std::string& n = c.name(po);
  if (n.rfind(kPoPrefix, 0) == 0) return n.substr(std::string(kPoPrefix).size());
  return n;
}

Circuit read_blif(std::istream& in, const std::string& source_name) {
  const std::string text{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  return read_blif_string(text, source_name);
}

Circuit read_blif_string(const std::string& text, const std::string& source_name) {
  return BlifParser(text, source_name).parse();
}

Circuit read_blif_file(const std::string& path) {
  // Fault-injection site for ingest-path hardening tests: an armed
  // "blif.read" failpoint makes the read fail exactly as an unreadable file
  // would (the kThrow/kError policies both surface as turbosyn::Error here,
  // which batch supervision contains into a failed record).
  if (failpoint::enabled() &&
      failpoint::check("blif.read").action == failpoint::Action::kError) {
    throw Error("failpoint blif.read: cannot read BLIF file '" + path + "'");
  }
  std::ifstream f(path);
  TS_CHECK(f.good(), "cannot open BLIF file '" << path << "'");
  return read_blif(f, path);
}

void write_blif(const Circuit& c, std::ostream& out, const std::string& model_name) {
  out << ".model " << model_name << '\n';
  out << ".inputs";
  for (const NodeId pi : c.pis()) out << ' ' << c.name(pi);
  out << '\n';
  out << ".outputs";
  for (const NodeId po : c.pos()) out << ' ' << po_display_name(c, po);
  out << '\n';

  // Latch chains: signal name of `driver` delayed by `level` >= 1 latches.
  // All .latch lines are emitted up front (before any .names) so gate covers
  // can reference them.
  //
  // A PO fed through latches reserves its display name for the final latch
  // output of its chain (first PO wins), so `.latch n q 0` + `.outputs q`
  // round-trips without a buffer gate — the parser would otherwise turn the
  // writer's `.names n_ff1 q` alias into a real node.
  std::unordered_set<std::string> taken;
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    if (!c.is_po(v)) taken.insert(c.name(v));
  }
  std::map<std::pair<NodeId, int>, std::string> reserved;
  for (const NodeId po : c.pos()) {
    const auto& e = c.edge(c.fanin_edges(po)[0]);
    if (e.weight == 0) continue;
    const std::string display = po_display_name(c, po);
    if (!taken.insert(display).second) continue;  // name already in use
    reserved.emplace(std::make_pair(e.from, e.weight), display);
  }
  std::map<std::pair<NodeId, int>, std::string> latch_signal;
  const auto declare_chain = [&](NodeId driver, int weight) {
    std::string prev = c.name(driver);
    for (int lvl = 1; lvl <= weight; ++lvl) {
      auto [it, inserted] = latch_signal.emplace(std::make_pair(driver, lvl), "");
      if (inserted) {
        const auto r = reserved.find(std::make_pair(driver, lvl));
        it->second =
            r != reserved.end() ? r->second : c.name(driver) + "_ff" + std::to_string(lvl);
        out << ".latch " << prev << ' ' << it->second << " 0\n";
      }
      prev = it->second;
    }
  };
  for (EdgeId e = 0; e < c.num_edges(); ++e) {
    declare_chain(c.edge(e).from, c.edge(e).weight);
  }
  const auto signal_at = [&](NodeId driver, int weight) -> std::string {
    if (weight == 0) return c.name(driver);
    return latch_signal.at(std::make_pair(driver, weight));
  };

  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    if (!c.is_gate(v)) continue;
    const auto fanins = c.fanin_edges(v);
    out << ".names";
    for (const EdgeId e : fanins) out << ' ' << signal_at(c.edge(e).from, c.edge(e).weight);
    out << ' ' << c.name(v) << '\n';
    const TruthTable& f = c.function(v);
    const int arity = f.num_vars();
    if (arity == 0) {
      if (f.bit(0)) out << "1\n";
      continue;
    }
    for (std::uint32_t m = 0; m < f.num_bits(); ++m) {
      if (!f.bit(m)) continue;
      std::string plane(static_cast<std::size_t>(arity), '0');
      for (int i = 0; i < arity; ++i) {
        if ((m >> i) & 1) plane[static_cast<std::size_t>(i)] = '1';
      }
      out << plane << " 1\n";
    }
  }

  for (const NodeId po : c.pos()) {
    const auto& e = c.edge(c.fanin_edges(po)[0]);
    const std::string sig = signal_at(e.from, e.weight);
    const std::string display = po_display_name(c, po);
    if (sig != display) out << ".names " << sig << ' ' << display << "\n1 1\n";
  }
  out << ".end\n";
}

std::string write_blif_string(const Circuit& c, const std::string& model_name) {
  std::ostringstream os;
  write_blif(c, os, model_name);
  return os.str();
}

void write_blif_file(const Circuit& c, const std::string& path, const std::string& model_name) {
  std::ofstream f(path);
  TS_CHECK(f.good(), "cannot open '" << path << "' for writing");
  write_blif(c, f, model_name);
}

}  // namespace turbosyn
