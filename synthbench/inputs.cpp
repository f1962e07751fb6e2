#include "inputs.hpp"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <map>
#include <set>
#include <sstream>

#include "netlist/blif.hpp"
#include "workloads/generator.hpp"

namespace synthbench {

namespace {

using turbosyn::BenchmarkSpec;

std::string blif_of(const BenchmarkSpec& spec) {
  return turbosyn::write_blif_string(turbosyn::generate_fsm_circuit(spec), spec.name);
}

/// Small sequential circuit shape shared by small_turbosyn and the daemon
/// pool: the size depends on `index` only, the structure on `generator_seed`.
BenchmarkSpec small_spec(const std::string& name, int index, std::uint64_t generator_seed) {
  BenchmarkSpec s;
  s.name = name;
  s.seed = generator_seed;
  s.num_pis = 3 + index % 3;
  s.num_pos = 2 + index % 2;
  s.num_gates = 16 + (index * 7) % 25;
  s.feedback = 0.10;
  s.locality = 8;
  return s;
}

BenchmarkSpec table1_spec(const std::string& shape) {
  for (const BenchmarkSpec& s : turbosyn::table1_suite()) {
    if (s.name == shape) return s;
  }
  return {};
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return state_ = mix64(state_); }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

const std::vector<int>& small_catalog() {
  // Members of the family whose sequential TurboSYN run took over 0.5 s when
  // the benchmark was defined (a scan of members 0-299 on a 4-core x86-64
  // host). They are left out so that no single circuit dominates a run; the
  // remaining 261 members all map in 0.5 s or less.
  static const std::vector<int> catalog = [] {
    const int heavy[] = {13,  14,  16,  17,  35,  38,  39,  41,  46,  53,  64,  70,  74,
                         103, 107, 113, 121, 127, 132, 135, 138, 139, 146, 157, 164, 182,
                         203, 206, 207, 214, 221, 239, 246, 260, 264, 278, 282, 289, 296};
    std::vector<int> members;
    for (int m = 0; m < 300; ++m) {
      if (std::find(std::begin(heavy), std::end(heavy), m) == std::end(heavy)) members.push_back(m);
    }
    return members;
  }();
  return catalog;
}

BenchmarkSpec catalog_spec(const std::string& name, int member) {
  return small_spec(name, member, mix64(0x73796eULL + static_cast<std::uint64_t>(member)));
}

}  // namespace

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::vector<CircuitInput> table1_round(std::uint64_t seed, int round) {
  std::vector<CircuitInput> out;
  std::uint64_t index = 0;
  for (BenchmarkSpec spec : turbosyn::table1_suite()) {
    const std::uint64_t slot = static_cast<std::uint64_t>(round) * 64 + index++;
    if (round != 0) spec.seed = mix64(0x7461626c6531ULL + slot);
    out.push_back({"r" + std::to_string(round) + "." + spec.name,
                   present_blif(blif_of(spec), seed == 0 ? 0 : mix64(seed) + slot), "turbomap",
                   spec.num_gates});
  }
  return out;
}


CircuitInput small_turbosyn_circuit(std::uint64_t seed, int index) {
  const std::vector<int>& catalog = small_catalog();
  const auto i = static_cast<std::size_t>(index);
  const std::string name = "syn" + std::to_string(index);
  const BenchmarkSpec spec = catalog_spec(name, catalog[i % catalog.size()]);
  const bool canonical = seed == 0 && i < catalog.size();
  return {name, present_blif(blif_of(spec), canonical ? 0 : mix64(seed) + i + 1), "turbosyn",
          spec.num_gates};
}

std::string present_blif(const std::string& blif, std::uint64_t seed) {
  if (seed == 0) return blif;
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> blocks;  // one .latch line, or .names + cover
  std::string end;
  std::set<std::string> interface_names;
  {
    std::istringstream in(blif);
    for (std::string line; std::getline(in, line);) {
      if (line.rfind(".model", 0) == 0 || line.rfind(".inputs", 0) == 0 ||
          line.rfind(".outputs", 0) == 0) {
        std::istringstream tokens(line);
        std::string t;
        tokens >> t;
        while (tokens >> t) interface_names.insert(t);
        header.push_back(line);
      } else if (line.rfind(".latch", 0) == 0 || line.rfind(".names", 0) == 0) {
        blocks.push_back({line});
      } else if (line.rfind(".end", 0) == 0) {
        end = line;
      } else if (!line.empty() && !blocks.empty()) {
        blocks.back().push_back(line);
      }
    }
  }
  // Signal operands of each statement: every word after .names; the two
  // after .latch (a third is the initial value).
  std::vector<std::vector<std::string>> words(blocks.size());
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    std::istringstream in(blocks[b][0]);
    for (std::string t; in >> t;) words[b].push_back(t);
  }
  const auto operands = [&](std::size_t b) {
    return words[b][0] == ".latch" ? std::min<std::size_t>(words[b].size(), 3) : words[b].size();
  };
  // Internal names, in first-use order, get a seeded permutation of fresh
  // names; interface names stay.
  std::map<std::string, std::string> rename;
  std::vector<std::string> internal;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    for (std::size_t k = 1; k < operands(b); ++k) {
      const std::string& name = words[b][k];
      if (!interface_names.count(name) && rename.emplace(name, "").second) internal.push_back(name);
    }
  }
  Rng rng(seed);
  std::vector<std::size_t> order(internal.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  for (std::size_t k = order.size(); k > 1; --k) std::swap(order[k - 1], order[rng.next() % k]);
  for (std::size_t k = 0; k < internal.size(); ++k) rename[internal[k]] = "n" + std::to_string(order[k]);

  std::string out;
  out.reserve(blif.size());
  for (const std::string& line : header) out += line + "\n";
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    for (std::size_t k = 0; k < words[b].size(); ++k) {
      if (k > 0) out += ' ';
      const auto it = k > 0 && k < operands(b) ? rename.find(words[b][k]) : rename.end();
      out += it != rename.end() ? it->second : words[b][k];
    }
    out += '\n';
    for (std::size_t k = 1; k < blocks[b].size(); ++k) out += blocks[b][k] + "\n";
  }
  out += (end.empty() ? std::string(".end") : end) + "\n";
  return out;
}

std::string edit_one_gate(const std::string& blif, std::uint64_t pick) {
  std::vector<std::string> lines;
  {
    std::istringstream in(blif);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  // Cover-line indices of every .names block with at least two of them.
  std::vector<std::vector<std::size_t>> blocks;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind(".names", 0) != 0) continue;
    std::vector<std::size_t> cover;
    for (std::size_t j = i + 1; j < lines.size() && !lines[j].empty() && lines[j][0] != '.'; ++j) {
      cover.push_back(j);
    }
    if (cover.size() >= 2) blocks.push_back(std::move(cover));
  }
  if (blocks.empty()) return blif;
  const std::vector<std::size_t>& block = blocks[pick % blocks.size()];
  const std::size_t drop = block[mix64(pick) % block.size()];
  std::string out;
  out.reserve(blif.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i == drop) continue;
    out += lines[i];
    out += '\n';
  }
  return out;
}

ServeStream serve_stream(std::uint64_t seed, int length) {
  ServeStream stream;
  // The pool, by kind. TurboMap circuits use the Table-1 shapes up to ~400
  // gates, smallest first; TurboSYN and portfolio circuits are small.
  const char* const tm_shapes[] = {"bbara", "s298", "bbsse", "s400", "s526", "kirkman",
                                   "cse",   "keyb", "pma",   "dk16", "s1",   "styr",
                                   "s953",  "bbara", "s298", "bbsse"};
  std::vector<CircuitInput> tm;
  std::vector<CircuitInput> syn;
  std::vector<CircuitInput> port;
  const auto presentation = [seed](int n) {
    return seed == 0 ? 0 : mix64(seed ^ 0x706f6f6cULL) + static_cast<std::uint64_t>(n);
  };
  int n = 0;
  for (const char* shape : tm_shapes) {
    BenchmarkSpec spec = table1_spec(shape);
    spec.seed = mix64(0x706f6f6cULL + static_cast<std::uint64_t>(n));
    spec.name = "p" + std::to_string(n) + "." + shape;
    tm.push_back({spec.name, present_blif(blif_of(spec), presentation(n)), "turbomap",
                  spec.num_gates});
    ++n;
  }
  for (int j = 0; j < 24; ++j, ++n) {
    const bool racing = j % 4 == 3;  // 6 portfolio races among 24 small circuits
    const std::string name = "p" + std::to_string(n) + (racing ? ".race" : ".syn");
    const BenchmarkSpec spec = catalog_spec(name, small_catalog()[static_cast<std::size_t>(j)]);
    (racing ? port : syn).push_back({name, present_blif(blif_of(spec), presentation(n)),
                                     racing ? "portfolio" : "turbosyn", spec.num_gates});
  }
  // Fixed popularity order (rank 0 most popular), independent of the seed
  // so every seed has the same cost profile: kinds interleaved, the larger
  // TurboMap shapes toward the tail.
  const char pattern[] = {'S', 'T', 'S', 'T', 'P', 'S', 'T'};
  std::size_t ti = 0, si = 0, pi = 0;
  for (std::size_t k = 0; stream.circuits.size() < kPoolSize; ++k) {
    const char want = pattern[k % sizeof(pattern)];
    if (want == 'T' && ti < tm.size()) stream.circuits.push_back(tm[ti++]);
    if (want == 'S' && si < syn.size()) stream.circuits.push_back(syn[si++]);
    if (want == 'P' && pi < port.size()) stream.circuits.push_back(port[pi++]);
  }

  // Exact Zipf (exponent 1) request counts, the same for every seed, so a
  // seed changes the order and the edits but not how often each circuit is
  // asked for: with independent draws the per-seed count of the few
  // expensive circuits moved throughput by a fifth. 10% of requests are
  // one-gate edits, spread over the TurboMap circuits by the same weights:
  // a function-only edit leaves a TurboMap run's structure-driven cost where
  // it was, while an edited TurboSYN circuit can cost 100x its base.
  const auto apportion = [](const std::vector<double>& weights, int total) {
    double sum = 0.0;
    for (const double w : weights) sum += w;
    std::vector<int> counts(weights.size());
    std::vector<std::pair<double, std::size_t>> remainders;
    int given = 0;
    for (std::size_t r = 0; r < weights.size(); ++r) {
      const double exact = total * weights[r] / sum;
      counts[r] = static_cast<int>(exact);
      given += counts[r];
      remainders.emplace_back(counts[r] - exact, r);  // most negative first
    }
    std::sort(remainders.begin(), remainders.end());
    for (int k = 0; k < total - given; ++k) ++counts[remainders[static_cast<std::size_t>(k)].second];
    return counts;
  };
  std::vector<double> zipf(kPoolSize);
  std::vector<double> edit_weight(kPoolSize);
  for (std::size_t r = 0; r < zipf.size(); ++r) {
    zipf[r] = 1.0 / static_cast<double>(r + 1);
    edit_weight[r] = stream.circuits[r].flow == "turbomap" ? zipf[r] : 0.0;
  }
  const int edit_total = length / 10;
  const std::vector<int> base_counts = apportion(zipf, length - edit_total);
  const std::vector<int> edit_counts = apportion(edit_weight, edit_total);
  std::vector<std::pair<int, ServeStream::Kind>> order;  // pool circuit, kind
  for (int r = 0; r < kPoolSize; ++r) {
    const auto k = static_cast<std::size_t>(r);
    order.insert(order.end(), static_cast<std::size_t>(base_counts[k]), {r, ServeStream::Kind::kBase});
    order.insert(order.end(), static_cast<std::size_t>(edit_counts[k]), {r, ServeStream::Kind::kEdit});
  }
  Rng rng(mix64(seed ^ 0x73747265616dULL));
  for (std::size_t k = order.size(); k > 1; --k) std::swap(order[k - 1], order[rng.next() % k]);
  int edits = 0;
  for (const auto& [r, kind] : order) {
    stream.kinds.push_back(kind);
    if (kind == ServeStream::Kind::kBase) {
      stream.requests.push_back(r);
      continue;
    }
    const CircuitInput& base = stream.circuits[static_cast<std::size_t>(r)];
    CircuitInput edited{base.id + "~e" + std::to_string(edits++),
                        edit_one_gate(base.blif, rng.next()), base.flow, base.spec_gates};
    stream.requests.push_back(static_cast<int>(stream.circuits.size()));
    stream.circuits.push_back(std::move(edited));
  }
  return stream;
}

std::uint64_t stream_digest(const ServeStream& stream) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto feed = [&](const std::string& s) {
    for (const char c : s) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    h = (h ^ 0xff) * 0x100000001b3ULL;
  };
  for (const CircuitInput& c : stream.circuits) {
    feed(c.id);
    feed(c.flow);
    feed(c.blif);
  }
  for (const int r : stream.requests) feed(std::to_string(r));
  return h;
}

}  // namespace synthbench
