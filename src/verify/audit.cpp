#include "verify/audit.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#include "base/check.hpp"
#include "core/engines.hpp"
#include "decomp/roth_karp.hpp"
#include "netlist/blif.hpp"
#include "retime/pipeline.hpp"
#include "retime/retiming.hpp"
#include "verify/equiv.hpp"

namespace turbosyn {
namespace {

std::vector<int> unit_delays(const Circuit& c) {
  std::vector<int> delay(static_cast<std::size_t>(c.num_nodes()));
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    delay[static_cast<std::size_t>(v)] = c.delay(v);
  }
  return delay;
}

std::string seq_node_name(const Circuit& c, const SeqCutNode& n) {
  std::ostringstream os;
  os << '\'' << c.name(n.node) << "'^" << n.w;
  return os.str();
}

/// Fanin bound L(v) = max over fanin edges e(u,v) of l(u) - phi*w(e),
/// re-derived here so the audit does not share code with the label engine.
std::int64_t fanin_bound(const Circuit& c, std::span<const int> labels, int phi, NodeId v) {
  std::int64_t best = INT64_MIN;
  for (const EdgeId e : c.fanin_edges(v)) {
    const Circuit::Edge& edge = c.edge(e);
    best = std::max(best, static_cast<std::int64_t>(labels[static_cast<std::size_t>(edge.from)]) -
                              static_cast<std::int64_t>(phi) * edge.weight);
  }
  return best;
}

/// LUT levels from each cut input to the root of a realization (1 for plain
/// cuts); recomputed from the decomposition DAG, independent of mapgen.
std::vector<int> input_depths(const NodeRealization& real) {
  std::vector<int> depth(real.cut.size(), 1);
  if (!real.decomp.has_value()) return depth;
  const auto& luts = real.decomp->luts;
  std::vector<int> dist(luts.size(), 0);  // LUT j's output -> root output
  for (std::size_t j = luts.size(); j-- > 0;) {
    for (const DecompFanin& fin : luts[j].fanins) {
      if (fin.kind == DecompFanin::Kind::kLut) {
        auto& d = dist[static_cast<std::size_t>(fin.index)];
        d = std::max(d, dist[j] + 1);
      }
    }
  }
  std::fill(depth.begin(), depth.end(), 0);
  for (std::size_t j = 0; j < luts.size(); ++j) {
    for (const DecompFanin& fin : luts[j].fanins) {
      if (fin.kind == DecompFanin::Kind::kInput) {
        auto& d = depth[static_cast<std::size_t>(fin.index)];
        d = std::max(d, dist[j] + 1);
      }
    }
  }
  return depth;
}

/// Sentinel for nodes no source of a longest-path run reaches.
constexpr std::int64_t kUnreached = std::numeric_limits<std::int64_t>::min();

/// The auditor's one longest-path routine: textbook Bellman–Ford rounds in
/// edge order under the integer cost a·d(head) - b·w(e). Every node starts at
/// 0, or (`from_pis`) only the PIs do. It shares no code with the flows'
/// Howard iteration or label pass; its output is only ever trusted through
/// the O(E) certificate checks below. `converged` is false when round n + 1
/// still raised a value, i.e. some cycle has positive cost.
struct LongestPaths {
  std::vector<std::int64_t> dist;
  std::vector<EdgeId> parent;  // the edge that last raised dist, or kNoEdge
  bool converged = false;
};

LongestPaths longest_paths(const Circuit& c, std::int64_t a, std::int64_t b, bool from_pis) {
  const int n = c.num_nodes();
  const std::vector<int> delay = unit_delays(c);
  LongestPaths lp;
  lp.dist.assign(static_cast<std::size_t>(n), from_pis ? kUnreached : 0);
  lp.parent.assign(static_cast<std::size_t>(n), kNoEdge);
  if (from_pis) {
    for (const NodeId pi : c.pis()) lp.dist[static_cast<std::size_t>(pi)] = 0;
  }
  for (int round = 0; round <= n && !lp.converged; ++round) {
    lp.converged = true;
    for (EdgeId e = 0; e < c.num_edges(); ++e) {
      const Circuit::Edge& edge = c.edge(e);
      const std::int64_t from = lp.dist[static_cast<std::size_t>(edge.from)];
      if (from == kUnreached) continue;
      const std::int64_t cand = from + a * delay[static_cast<std::size_t>(edge.to)] - b * edge.weight;
      if (cand > lp.dist[static_cast<std::size_t>(edge.to)]) {
        lp.dist[static_cast<std::size_t>(edge.to)] = cand;
        lp.parent[static_cast<std::size_t>(edge.to)] = e;
        lp.converged = false;
      }
    }
  }
  return lp;
}

/// A cycle of edges that `potential` leaves tight under cost
/// q·d(head) - p·w(e), in traversal order; empty if the tight edges are
/// acyclic. Kahn's algorithm peels the acyclic part; every node left over has
/// a tight in-edge from another one, so walking those backwards closes a
/// cycle.
std::vector<EdgeId> tight_cycle(const Circuit& c, std::span<const std::int64_t> potential,
                                std::int64_t p, std::int64_t q) {
  const int n = c.num_nodes();
  const std::vector<int> delay = unit_delays(c);
  const auto tight = [&](EdgeId e) {
    const Circuit::Edge& edge = c.edge(e);
    return potential[static_cast<std::size_t>(edge.to)] ==
           potential[static_cast<std::size_t>(edge.from)] +
               q * delay[static_cast<std::size_t>(edge.to)] - p * edge.weight;
  };
  std::vector<int> indegree(static_cast<std::size_t>(n), 0);
  for (EdgeId e = 0; e < c.num_edges(); ++e) {
    if (tight(e)) ++indegree[static_cast<std::size_t>(c.edge(e).to)];
  }
  std::vector<NodeId> ready;
  for (NodeId v = 0; v < n; ++v) {
    if (indegree[static_cast<std::size_t>(v)] == 0) ready.push_back(v);
  }
  while (!ready.empty()) {
    const NodeId v = ready.back();
    ready.pop_back();
    for (const EdgeId e : c.fanout_edges(v)) {
      if (tight(e) && --indegree[static_cast<std::size_t>(c.edge(e).to)] == 0) {
        ready.push_back(c.edge(e).to);
      }
    }
  }
  NodeId v = kNoNode;
  for (NodeId u = 0; u < n && v == kNoNode; ++u) {
    if (indegree[static_cast<std::size_t>(u)] > 0) v = u;
  }
  if (v == kNoNode) return {};
  std::vector<int> step(static_cast<std::size_t>(n), -1);
  std::vector<EdgeId> back;  // back[i] enters the i-th node of the walk
  while (step[static_cast<std::size_t>(v)] < 0) {
    step[static_cast<std::size_t>(v)] = static_cast<int>(back.size());
    const auto fanins = c.fanin_edges(v);
    const auto in = std::find_if(fanins.begin(), fanins.end(), [&](EdgeId e) {
      return tight(e) && indegree[static_cast<std::size_t>(c.edge(e).from)] > 0;
    });
    TS_ASSERT(in != fanins.end());
    back.push_back(*in);
    v = c.edge(*in).from;
  }
  std::vector<EdgeId> cycle(back.begin() + step[static_cast<std::size_t>(v)], back.end());
  std::reverse(cycle.begin(), cycle.end());
  return cycle;
}

}  // namespace

const char* audit_status_name(AuditStatus s) {
  switch (s) {
    case AuditStatus::kPass:
      return "PASS";
    case AuditStatus::kFail:
      return "FAIL";
    case AuditStatus::kSkipped:
      return "SKIP";
  }
  return "?";
}

bool AuditReport::passed() const { return failures() == 0; }

int AuditReport::failures() const {
  int n = 0;
  for (const AuditCheck& c : checks) {
    if (c.status == AuditStatus::kFail) ++n;
  }
  return n;
}

std::string AuditReport::breakdown() const {
  std::ostringstream os;
  for (const AuditCheck& c : checks) {
    os << "  [" << audit_status_name(c.status) << "] " << c.name;
    if (!c.detail.empty()) os << " — " << c.detail;
    os << '\n';
  }
  return os.str();
}

std::optional<std::string> audit_retiming_legality(const Circuit& c, std::span<const int> r,
                                                   std::span<const NodeId> pinned) {
  if (static_cast<int>(r.size()) != c.num_nodes()) {
    return "retiming has " + std::to_string(r.size()) + " lags for " +
           std::to_string(c.num_nodes()) + " nodes";
  }
  for (const NodeId p : pinned) {
    if (r[static_cast<std::size_t>(p)] != 0) {
      return "pinned node '" + c.name(p) + "' has nonzero lag " +
             std::to_string(r[static_cast<std::size_t>(p)]);
    }
  }
  for (EdgeId e = 0; e < c.num_edges(); ++e) {
    const Circuit::Edge& edge = c.edge(e);
    const std::int64_t w = static_cast<std::int64_t>(edge.weight) +
                           r[static_cast<std::size_t>(edge.to)] -
                           r[static_cast<std::size_t>(edge.from)];
    if (w < 0) {
      return "edge '" + c.name(edge.from) + "' -> '" + c.name(edge.to) +
             "' retimed to negative weight " + std::to_string(w);
    }
  }
  return std::nullopt;
}

std::optional<std::string> audit_labels(const Circuit& c, std::span<const int> labels,
                                        int phi) {
  if (static_cast<int>(labels.size()) != c.num_nodes()) {
    return "label vector has " + std::to_string(labels.size()) + " entries for " +
           std::to_string(c.num_nodes()) + " nodes";
  }
  if (phi < 1) return "certified phi " + std::to_string(phi) + " < 1";
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    const std::int64_t l = labels[static_cast<std::size_t>(v)];
    if (c.is_source(v)) {
      if (l != 0) {
        return "source '" + c.name(v) + "' has label " + std::to_string(l) + " (expected 0)";
      }
      continue;
    }
    const std::int64_t bound = fanin_bound(c, labels, phi, v);
    if (c.is_po(v)) {
      const std::int64_t expected = std::max<std::int64_t>(0, bound);
      if (l != expected) {
        return "PO '" + c.name(v) + "' has label " + std::to_string(l) + " (expected " +
               std::to_string(expected) + ")";
      }
      continue;
    }
    // Gate with fanins: converged labels satisfy max(1, L(v)) <= l(v) <=
    // max(1, L(v) + 1) — below the bound another sweep would still raise
    // l(v); above L(v)+1 the iteration overshot (it only ever assigns L or
    // L+1 and lower bounds only grow).
    const std::int64_t lo = std::max<std::int64_t>(1, bound);
    const std::int64_t hi = std::max<std::int64_t>(1, bound + 1);
    if (l < lo || l > hi) {
      return "gate '" + c.name(v) + "' has label " + std::to_string(l) +
             " outside [" + std::to_string(lo) + ", " + std::to_string(hi) +
             "] for fanin bound " + std::to_string(bound);
    }
  }
  return std::nullopt;
}

std::optional<std::string> audit_mapping_record(const Circuit& c, std::span<const int> labels,
                                                int phi, int k, const MappingRecord& rec,
                                                int cone_node_budget) {
  const NodeId root = rec.root;
  if (root < 0 || root >= c.num_nodes() || !c.is_gate(root) || c.fanin_edges(root).empty()) {
    return "record root is not a mappable gate";
  }
  const auto& cut = rec.real.cut;
  if (cut.empty()) return "empty cut at root '" + c.name(root) + "'";
  if (cut.size() > 16) {
    return "cut of width " + std::to_string(cut.size()) + " at root '" + c.name(root) +
           "' exceeds the auditable limit (16)";
  }

  // K-feasibility and internal consistency of the realization.
  if (!rec.real.decomp.has_value()) {
    if (static_cast<int>(cut.size()) > k) {
      return "plain cut of width " + std::to_string(cut.size()) + " at root '" +
             c.name(root) + "' exceeds K=" + std::to_string(k);
    }
    if (rec.real.func.num_vars() != static_cast<int>(cut.size())) {
      return "LUT function arity " + std::to_string(rec.real.func.num_vars()) +
             " does not match cut width " + std::to_string(cut.size()) + " at root '" +
             c.name(root) + "'";
    }
  } else {
    const auto& luts = rec.real.decomp->luts;
    if (luts.empty()) return "decomposition with no LUTs at root '" + c.name(root) + "'";
    for (std::size_t j = 0; j < luts.size(); ++j) {
      if (static_cast<int>(luts[j].fanins.size()) > k) {
        return "decomposition LUT " + std::to_string(j) + " at root '" + c.name(root) +
               "' has " + std::to_string(luts[j].fanins.size()) + " fanins (K=" +
               std::to_string(k) + ")";
      }
      if (luts[j].func.num_vars() != static_cast<int>(luts[j].fanins.size())) {
        return "decomposition LUT " + std::to_string(j) + " arity mismatch at root '" +
               c.name(root) + "'";
      }
      for (const DecompFanin& fin : luts[j].fanins) {
        const bool ok = fin.kind == DecompFanin::Kind::kInput
                            ? fin.index >= 0 && fin.index < static_cast<int>(cut.size())
                            : fin.index >= 0 && fin.index < static_cast<int>(j);
        if (!ok) {
          return "decomposition LUT " + std::to_string(j) + " has an out-of-range fanin at root '" +
                 c.name(root) + "'";
        }
      }
    }
  }

  // Cut sanity + index for the cone walk.
  std::map<SeqCutNode, int> cut_index;
  for (std::size_t i = 0; i < cut.size(); ++i) {
    const SeqCutNode& n = cut[i];
    if (n.node < 0 || n.node >= c.num_nodes() || n.w < 0) {
      return "cut node out of range at root '" + c.name(root) + "'";
    }
    if (!cut_index.emplace(n, static_cast<int>(i)).second) {
      return "duplicate cut node " + seq_node_name(c, n) + " at root '" + c.name(root) + "'";
    }
  }
  if (cut_index.count(SeqCutNode{root, 0})) {
    return "cut contains the root itself at '" + c.name(root) + "'";
  }

  // Expanded cone: walk back from (root, 0), stopping at cut nodes. Every
  // backward path must hit the cut before a PI, and the cone must stay
  // finite (a covering cut guarantees both; registered loops raise w each
  // lap, so escaping paths blow the node budget and are reported).
  struct ConeNode {
    SeqCutNode at;
    int cut_pos = -1;         // >= 0: cut input (leaf)
    std::vector<int> fanins;  // cone indices, in the gate's fanin slot order
  };
  std::vector<ConeNode> cone;
  std::map<SeqCutNode, int> cone_index;
  const auto intern = [&](SeqCutNode at) {
    const auto [it, inserted] = cone_index.emplace(at, static_cast<int>(cone.size()));
    if (inserted) cone.push_back(ConeNode{at, -1, {}});
    return it->second;
  };
  intern(SeqCutNode{root, 0});
  for (std::size_t i = 0; i < cone.size(); ++i) {
    if (static_cast<int>(cone.size()) > cone_node_budget) {
      return "expanded cone at root '" + c.name(root) + "' exceeds " +
             std::to_string(cone_node_budget) + " nodes — the cut does not cover the fanin frontier";
    }
    const SeqCutNode at = cone[i].at;
    if (const auto it = cut_index.find(at); it != cut_index.end()) {
      cone[i].cut_pos = it->second;
      continue;
    }
    if (c.is_pi(at.node)) {
      return "cut at root '" + c.name(root) + "' misses PI copy " + seq_node_name(c, at) +
             " — the fanin frontier is not covered";
    }
    if (c.is_po(at.node)) {
      return "PO copy " + seq_node_name(c, at) + " inside the cone of root '" + c.name(root) + "'";
    }
    // Zero-state safety: an interior copy at w >= 1 is recomputed for early
    // cycles from pre-history zeros, so its function must map the all-zero
    // input to 0 (the value its register would have held); otherwise the
    // mapped network boots into a state the original never visits.
    if (at.w > 0 && c.function(at.node).bit(0)) {
      return "zero-state-unsafe interior copy " + seq_node_name(c, at) + " in the cone of root '" +
             c.name(root) + "': its function is 1 on all-zero inputs, so recomputing it across " +
             std::to_string(at.w) + " register(s) diverges from the power-up state";
    }
    // Interior gate (constants evaluate from their 0-ary function).
    std::vector<int> fanins;
    fanins.reserve(c.fanin_edges(at.node).size());
    for (const EdgeId e : c.fanin_edges(at.node)) {
      const Circuit::Edge& edge = c.edge(e);
      fanins.push_back(intern(SeqCutNode{edge.from, at.w + edge.weight}));
    }
    cone[i].fanins = std::move(fanins);
  }

  // Topological order (children before parents) via iterative DFS; a cycle
  // here would mean a zero-register loop, which validate() rejects upstream.
  std::vector<std::uint8_t> mark(cone.size(), 0);  // 0 white, 1 gray, 2 black
  std::vector<int> order;
  order.reserve(cone.size());
  {
    std::vector<std::pair<int, std::size_t>> stack;
    stack.emplace_back(0, 0);
    mark[0] = 1;
    while (!stack.empty()) {
      const int n = stack.back().first;
      const std::size_t next = stack.back().second;
      if (next < cone[static_cast<std::size_t>(n)].fanins.size()) {
        ++stack.back().second;
        const int child = cone[static_cast<std::size_t>(n)].fanins[next];
        if (mark[static_cast<std::size_t>(child)] == 0) {
          mark[static_cast<std::size_t>(child)] = 1;
          stack.emplace_back(child, 0);
        } else if (mark[static_cast<std::size_t>(child)] == 1) {
          return "combinational cycle inside the cone of root '" + c.name(root) + "'";
        }
      } else {
        mark[static_cast<std::size_t>(n)] = 2;
        order.push_back(n);
        stack.pop_back();
      }
    }
  }

  // Functional equality: the realization (single LUT or decomposition DAG)
  // must compute exactly the cone's composition for every cut assignment.
  std::vector<std::uint8_t> value(cone.size(), 0);
  const std::uint32_t num_assignments = std::uint32_t{1} << cut.size();
  for (std::uint32_t m = 0; m < num_assignments; ++m) {
    for (const int idx : order) {
      const ConeNode& n = cone[static_cast<std::size_t>(idx)];
      if (n.cut_pos >= 0) {
        value[static_cast<std::size_t>(idx)] =
            static_cast<std::uint8_t>((m >> n.cut_pos) & 1u);
        continue;
      }
      const TruthTable& f = c.function(n.at.node);
      std::uint32_t row = 0;
      for (std::size_t i = 0; i < n.fanins.size(); ++i) {
        row |= static_cast<std::uint32_t>(value[static_cast<std::size_t>(n.fanins[i])]) << i;
      }
      value[static_cast<std::size_t>(idx)] = f.bit(row) ? 1 : 0;
    }
    const bool cone_value = value[0] != 0;
    const bool lut_value = rec.real.decomp.has_value()
                               ? evaluate_decomposition(*rec.real.decomp, m)
                               : rec.real.func.bit(m);
    if (cone_value != lut_value) {
      return "realization at root '" + c.name(root) + "' disagrees with its cone on cut assignment " +
             std::to_string(m);
    }
  }

  // Height consistency: every cut input's effective label plus its LUT depth
  // must fit under the recorded height (labels may predate relaxation, which
  // only ever raises heights — so <= is the invariant).
  const std::vector<int> depth = input_depths(rec.real);
  for (std::size_t i = 0; i < cut.size(); ++i) {
    const std::int64_t eff =
        static_cast<std::int64_t>(labels[static_cast<std::size_t>(cut[i].node)]) -
        static_cast<std::int64_t>(phi) * cut[i].w;
    if (eff + depth[i] > rec.height) {
      return "cut input " + seq_node_name(c, cut[i]) + " at root '" + c.name(root) +
             "' has effective label " + std::to_string(eff) + " and depth " +
             std::to_string(depth[i]) + ", exceeding the recorded height " +
             std::to_string(rec.height);
    }
  }
  return std::nullopt;
}

MdrCertificate mdr_certificate(const Circuit& c, const Rational& mdr) {
  LongestPaths lp = longest_paths(c, mdr.den(), mdr.num(), /*from_pis=*/false);
  MdrCertificate cert;
  if (lp.converged && mdr.num() != 0) cert.cycle = tight_cycle(c, lp.dist, mdr.num(), mdr.den());
  cert.potential = std::move(lp.dist);
  return cert;
}

std::optional<std::string> check_mdr_certificate(const Circuit& c, const Rational& mdr,
                                                 const MdrCertificate& cert) {
  const std::int64_t p = mdr.num();
  const std::int64_t q = mdr.den();
  if (p < 0) return "negative ratio " + mdr.to_string();
  if (static_cast<int>(cert.potential.size()) != c.num_nodes()) {
    return std::to_string(cert.potential.size()) + " potentials for " +
           std::to_string(c.num_nodes()) + " nodes";
  }
  const std::vector<int> delay = unit_delays(c);
  for (EdgeId e = 0; e < c.num_edges(); ++e) {
    const Circuit::Edge& edge = c.edge(e);
    if (cert.potential[static_cast<std::size_t>(edge.to)] <
        cert.potential[static_cast<std::size_t>(edge.from)] +
            q * delay[static_cast<std::size_t>(edge.to)] - p * edge.weight) {
      return "edge '" + c.name(edge.from) + "' -> '" + c.name(edge.to) +
             "' violates the potentials for ratio " + mdr.to_string() +
             ": some cycle's ratio may exceed it";
    }
  }
  if (p == 0) return std::nullopt;  // every ratio is >= 0
  if (cert.cycle.empty()) {
    return "no cycle attains ratio " + mdr.to_string() + ": the MDR is below it";
  }
  std::int64_t total_delay = 0;
  std::int64_t total_weight = 0;
  for (std::size_t i = 0; i < cert.cycle.size(); ++i) {
    const EdgeId e = cert.cycle[i];
    const EdgeId next = cert.cycle[(i + 1) % cert.cycle.size()];
    if (e < 0 || e >= c.num_edges() || next < 0 || next >= c.num_edges() ||
        c.edge(e).to != c.edge(next).from) {
      return "the critical-cycle witness is not a closed cycle";
    }
    total_delay += delay[static_cast<std::size_t>(c.edge(e).to)];
    total_weight += c.edge(e).weight;
  }
  if (total_weight <= 0 || q * total_delay != p * total_weight) {
    return "the critical-cycle witness has delay " + std::to_string(total_delay) + " over " +
           std::to_string(total_weight) + " register(s), not ratio " + mdr.to_string();
  }
  return std::nullopt;
}

std::vector<EdgeId> slowest_io_path(const Circuit& c, std::int64_t period) {
  const LongestPaths lp = longest_paths(c, 1, period, /*from_pis=*/true);
  if (!lp.converged) return {};
  NodeId end = kNoNode;
  for (const NodeId po : c.pos()) {
    const std::int64_t d = lp.dist[static_cast<std::size_t>(po)];
    if (d != kUnreached && (end == kNoNode || d > lp.dist[static_cast<std::size_t>(end)])) {
      end = po;
    }
  }
  std::vector<EdgeId> path;
  // Without a positive cycle the parent edges form a forest rooted at the PIs.
  for (NodeId v = end; v != kNoNode && lp.parent[static_cast<std::size_t>(v)] != kNoEdge;) {
    if (static_cast<int>(path.size()) >= c.num_nodes()) return {};
    path.push_back(lp.parent[static_cast<std::size_t>(v)]);
    v = c.edge(path.back()).from;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::optional<std::string> check_slow_path(const Circuit& c, std::span<const EdgeId> path,
                                           std::int64_t period, int stages) {
  if (path.empty()) return std::string("no PI→PO path");
  std::int64_t total_delay = 0;
  std::int64_t total_weight = 0;
  for (std::size_t i = 0; i < path.size(); ++i) {
    const EdgeId e = path[i];
    if (e < 0 || e >= c.num_edges() || (i > 0 && c.edge(path[i - 1]).to != c.edge(e).from)) {
      return std::string("the path is not a chain of edges");
    }
    total_delay += c.delay(c.edge(e).to);
    total_weight += c.edge(e).weight;
  }
  if (!c.is_pi(c.edge(path.front()).from) || !c.is_po(c.edge(path.back()).to)) {
    return std::string("the path does not run from a PI to a PO");
  }
  const std::int64_t segments = total_weight + 2 * static_cast<std::int64_t>(stages) + 1;
  if (total_delay <= period * segments) {
    return "the slowest PI→PO path (delay " + std::to_string(total_delay) + ", " +
           std::to_string(total_weight) + " register(s)) fits period " + std::to_string(period) +
           " with " + std::to_string(stages) + " stage(s)";
  }
  return std::nullopt;
}

std::optional<std::string> audit_mdr(const Circuit& mapped, int phi, const Rational& claimed) {
  if (auto bad = check_mdr_certificate(mapped, claimed, mdr_certificate(mapped, claimed))) {
    return "claimed exact MDR " + claimed.to_string() + " is not certified: " + *bad;
  }
  if (claimed > Rational(phi)) {
    return "mapped MDR " + claimed.to_string() + " exceeds the certified phi " +
           std::to_string(phi);
  }
  return std::nullopt;
}

std::optional<std::string> audit_period(const Circuit& mapped, const Rational& mdr,
                                        std::int64_t period, int stages,
                                        std::span<const int> witness) {
  if (period <= 0) return "claimed clock period " + std::to_string(period) + " is not positive";
  if (stages < 0) return "negative pipeline depth " + std::to_string(stages);
  if (Rational(period) < mdr) {
    return "claimed period " + std::to_string(period) + " is below the MDR lower bound " +
           mdr.to_string();
  }
  // Reproduce the claimed configuration on an explicitly pipelined copy and
  // re-verify the witness end to end: legal edge by edge, and its period,
  // recomputed from scratch, meets the claim.
  Circuit pipelined = mapped;
  pipeline_inputs(pipelined, stages);
  pipeline_outputs(pipelined, stages);
  std::vector<NodeId> pinned(pipelined.pis().begin(), pipelined.pis().end());
  pinned.insert(pinned.end(), pipelined.pos().begin(), pipelined.pos().end());
  if (auto bad = audit_retiming_legality(pipelined, witness, pinned)) {
    return "the flow's retiming witness: " + *bad;
  }
  apply_retiming(pipelined, witness);
  if (const std::int64_t achieved = circuit_clock_period(pipelined); achieved > period) {
    return "the flow's retiming witness gives period " + std::to_string(achieved) +
           ", above the claimed " + std::to_string(period);
  }
  // Minimality: a path too slow for one stage fewer, and (above the MDR
  // floor) a path too slow for one period less.
  if (stages > 0) {
    if (auto bad = check_slow_path(mapped, slowest_io_path(mapped, period), period, stages - 1)) {
      return *bad + ": " + std::to_string(stages) + " stage(s) is not the minimum";
    }
  }
  if (period > std::max<std::int64_t>(1, mdr.ceil())) {
    if (auto bad = check_slow_path(mapped, slowest_io_path(mapped, period - 1), period - 1,
                                   stages)) {
      return *bad + ": period " + std::to_string(period) + " is not the minimum";
    }
  }
  return std::nullopt;
}

AuditReport audit_flow(const Circuit& input, const FlowResult& result,
                       const FlowOptions& options, const AuditOptions& audit) {
  AuditReport report;
  const auto add = [&report](std::string name, AuditStatus status, std::string detail = "") {
    report.checks.push_back(AuditCheck{std::move(name), status, std::move(detail)});
  };
  const auto add_outcome = [&](std::string name, const std::optional<std::string>& failure,
                               std::string pass_detail = "") {
    if (failure.has_value()) {
      add(std::move(name), AuditStatus::kFail, *failure);
    } else {
      add(std::move(name), AuditStatus::kPass, std::move(pass_detail));
    }
  };
  const Circuit& mapped = result.mapped;

  // containment: a contained stage failure (status == kFailed) is not a
  // result — the audit verifies the containment record is coherent (a
  // failing stage is named iff the status says so) and skips every product
  // check, since there is no product to verify. Runs that merely recovered
  // (cache demotions to misses, batch retries that then succeeded) carry an
  // ordinary status and audit as clean runs; this branch never sees them.
  if (result.status == Status::kFailed || !result.failed_stage.empty()) {
    std::optional<std::string> failure;
    if (result.status != Status::kFailed) {
      failure = "failing stage '" + result.failed_stage + "' recorded on a " +
                std::string(status_name(result.status)) + " result";
    } else if (result.failed_stage.empty()) {
      failure = "status is failed but no failing stage was recorded";
    }
    add_outcome("containment", failure,
                "stage '" + result.failed_stage + "' contained: " + result.failure);
    for (const char* name : {"structure", "interface", "labels", "cuts", "mdr", "period",
                             "equivalence", "probes", "portfolio", "stage-timing"}) {
      add(name, AuditStatus::kSkipped, "run failed in containment; no result to verify");
    }
    return report;
  }

  // structure: the network validates (arity, PO fanins, registered loops)
  // and every LUT is K-feasible.
  try {
    mapped.validate();
    if (!mapped.is_k_bounded(options.k)) {
      add("structure", AuditStatus::kFail,
          "mapped network has a gate wider than K=" + std::to_string(options.k) +
              " (max fanin " + std::to_string(mapped.max_fanin()) + ")");
    } else {
      add("structure", AuditStatus::kPass,
          std::to_string(mapped.num_gates()) + " LUTs, K-bounded, validates");
    }
  } catch (const Error& e) {
    add("structure", AuditStatus::kFail, e.what());
  }

  // interface: same PI name set and PO display-name set as the input.
  {
    std::optional<std::string> failure;
    std::map<std::string, int> names;
    for (const NodeId pi : input.pis()) ++names[input.name(pi)];
    for (const NodeId pi : mapped.pis()) --names[mapped.name(pi)];
    for (const NodeId po : input.pos()) ++names["$po$" + po_display_name(input, po)];
    for (const NodeId po : mapped.pos()) --names["$po$" + po_display_name(mapped, po)];
    for (const auto& [name, count] : names) {
      if (count != 0) {
        failure = "PI/PO '" + name + "' " + (count > 0 ? "missing from" : "invented by") +
                  " the mapped network";
        break;
      }
    }
    add_outcome("interface", failure);
  }

  // labels / cuts: need collected artifacts.
  if (!result.artifacts.valid) {
    const char* why = options.collect_artifacts
                          ? "flow records no label artifacts (FlowSYN-s / identity fallback)"
                          : "artifacts not collected (set FlowOptions::collect_artifacts)";
    add("labels", AuditStatus::kSkipped, why);
    add("cuts", AuditStatus::kSkipped, why);
  } else {
    const FlowArtifacts& art = result.artifacts;
    add_outcome("labels", audit_labels(input, art.labels.labels, art.phi),
                "fixpoint at phi=" + std::to_string(art.phi));
    std::optional<std::string> failure;
    int checked = 0;
    for (const MappingRecord& rec : art.records) {
      failure = audit_mapping_record(input, art.labels.labels, art.phi, options.k, rec,
                                     audit.cone_node_budget);
      if (failure.has_value()) break;
      ++checked;
    }
    add_outcome("cuts", failure, std::to_string(checked) + " realization record(s)");
  }

  // mdr: the claim is certified by potentials and a critical cycle from the
  // auditor's own longest-path routine (the flows use Howard's policy
  // iteration).
  add_outcome("mdr", audit_mdr(mapped, result.phi, result.exact_mdr),
              result.exact_mdr.to_string() + " <= phi=" + std::to_string(result.phi));

  // period: the claimed (period, stages) pair must be achievable and minimal.
  if (result.period <= 0) {
    add("period", AuditStatus::kSkipped, "flow reported no clock period (pipelining disabled)");
  } else {
    add_outcome("period",
                audit_period(mapped, result.exact_mdr, result.period, result.pipeline_stages,
                             result.retiming),
                "period " + std::to_string(result.period) + " with " +
                    std::to_string(result.pipeline_stages) + " stage(s)");
  }

  // equivalence: zero-state, formal when register-free, bounded otherwise.
  if (!audit.check_equivalence) {
    add("equivalence", AuditStatus::kSkipped, "disabled by AuditOptions");
  } else {
    try {
      // The ROBDD engine caps at 63 variables; wider register-free circuits
      // fall through to the bounded check rather than failing on the cap.
      const bool bdd_fits = static_cast<int>(input.pis().size()) <= 63;
      if (input.num_ffs() == 0 && mapped.num_ffs() == 0 && bdd_fits) {
        if (const auto cex = combinational_counterexample(input, mapped)) {
          add("equivalence", AuditStatus::kFail,
              "PO '" + cex->po_name + "' differs (BDD miter counterexample)");
        } else {
          add("equivalence", AuditStatus::kPass, "formal (BDD miter)");
        }
      } else {
        SequentialCheckOptions sopt;
        sopt.cycles = audit.seq_cycles;
        sopt.runs = audit.seq_runs;
        sopt.seed = audit.seq_seed;
        if (const auto cex = sequential_counterexample(input, mapped, sopt)) {
          add("equivalence", AuditStatus::kFail,
              "PO '" + cex->po_name + "' first differs at cycle " + std::to_string(cex->cycle));
        } else {
          add("equivalence", AuditStatus::kPass,
              "bounded co-simulation (" + std::to_string(sopt.runs) + "x" +
                  std::to_string(sopt.cycles) + " cycles)");
        }
      }
    } catch (const Error& e) {
      add("equivalence", AuditStatus::kFail, e.what());
    }
  }

  // probes: the ledger is internally consistent and certifies the result —
  // no (engine, mode, phi) probed twice, no winning-engine probe more
  // degraded than the flow admits, the winning phi backed by a feasible
  // record whose label hash matches the artifacts, and (on an exact run) a
  // rejection witness at phi - 1 proving minimality. In a merged portfolio
  // ledger the severity/certification rules bind only the winning engine's
  // records (tagged with FlowResult::engine): a losing engine's degraded or
  // interrupted probes are expected casualties of the race and must never
  // outrank — or stand in for — the winner's certificate.
  if (result.probes.empty()) {
    add("probes", AuditStatus::kSkipped,
        "flow recorded no probe ledger (FlowSYN-s, or a pre-pipeline result)");
  } else {
    std::optional<std::string> failure;
    const auto find_probe = [&result](LabelMode mode, int phi) -> const ProbeRecord* {
      for (const ProbeRecord& rec : result.probes) {
        if (rec.engine == result.engine && rec.mode == mode && rec.phi == phi) return &rec;
      }
      return nullptr;
    };
    std::map<std::tuple<std::string, int, int>, int> seen;
    for (const ProbeRecord& rec : result.probes) {
      if (++seen[{rec.engine, static_cast<int>(rec.mode), rec.phi}] > 1) {
        failure = "phi=" + std::to_string(rec.phi) + " (" + label_mode_name(rec.mode) +
                  (rec.engine.empty() ? std::string() : ", engine " + rec.engine) +
                  ") probed twice in one run";
        break;
      }
      if (rec.engine == result.engine &&
          combine_status(result.status, rec.status) != result.status) {
        failure = "probe phi=" + std::to_string(rec.phi) + " (" + label_mode_name(rec.mode) +
                  ") reported status " + status_name(rec.status) +
                  ", more severe than the flow's " + status_name(result.status);
        break;
      }
    }
    if (!failure.has_value() && result.artifacts.valid) {
      const FlowArtifacts& art = result.artifacts;
      const ProbeRecord* win = find_probe(art.mode, art.phi);
      if (win == nullptr) {
        failure = "no ledger record certifies the winning phi=" + std::to_string(art.phi) +
                  " (" + std::string(label_mode_name(art.mode)) + ")";
      } else if (!win->feasible) {
        failure = "winning phi=" + std::to_string(art.phi) + " is recorded infeasible";
      } else if (win->label_hash != hash_labels(art.labels.labels)) {
        failure = "winning label vector hash does not match its ledger record";
      } else if (result.status == Status::kOk && art.phi > 1) {
        // Both schedules probe phi - 1 before settling on phi (bisection's
        // last lo-advance, the descending scan's terminating probe), so an
        // uninterrupted, undegraded run must carry the rejection witness.
        const ProbeRecord* reject = find_probe(art.mode, art.phi - 1);
        const bool rejected =
            reject != nullptr && (art.po_limited
                                      ? (!reject->feasible || reject->max_po_label > art.phi - 1)
                                      : !reject->feasible);
        if (reject == nullptr) {
          failure = "exact run has no rejection witness at phi=" + std::to_string(art.phi - 1);
        } else if (!rejected) {
          failure = "phi=" + std::to_string(art.phi - 1) +
                    " was not rejected by its ledger record: minimality unproven";
        }
      }
    }
    add_outcome("probes", failure,
                std::to_string(result.probes.size()) + " probe record(s), ledger consistent");
  }

  // portfolio: winner selection re-verified from the race table. The
  // selected result must be the minimal certified φ among the engines under
  // the shared selection order (engines.hpp), and no engine may hold an
  // exact feasible probe below the selected φ.
  if (result.portfolio.empty()) {
    add("portfolio", AuditStatus::kSkipped, "standalone flow run (no portfolio)");
  } else {
    std::optional<std::string> failure;
    const std::vector<EngineRun>& table = result.portfolio;
    std::vector<const EngineSpec*> specs(table.size(), nullptr);
    std::size_t winner_pos = table.size();
    for (std::size_t i = 0; i < table.size() && !failure.has_value(); ++i) {
      specs[i] = find_engine(table[i].name);
      if (specs[i] == nullptr) {
        failure = "unknown engine '" + table[i].name + "' in the portfolio table";
        break;
      }
      for (std::size_t j = 0; j < i; ++j) {
        if (table[j].name == table[i].name) {
          failure = "engine '" + table[i].name + "' listed twice in the portfolio table";
          break;
        }
      }
      if (table[i].name == result.engine) winner_pos = i;
    }
    if (!failure.has_value() && result.engine.empty()) {
      failure = "portfolio result names no winning engine";
    }
    if (!failure.has_value() && winner_pos == table.size()) {
      failure = "winning engine '" + result.engine + "' is missing from the portfolio table";
    }
    // Row coherence: certified iff the engine finished exactly.
    for (std::size_t i = 0; i < table.size() && !failure.has_value(); ++i) {
      const EngineRun& row = table[i];
      if (row.certified != (row.status == Status::kOk)) {
        failure = "engine '" + row.name + "' marked " +
                  (row.certified ? "certified with status " : "uncertified despite status ") +
                  status_name(row.status);
      }
    }
    if (!failure.has_value()) {
      const EngineRun& win = table[winner_pos];
      if (win.phi != result.phi) {
        failure = "winner row claims phi=" + std::to_string(win.phi) +
                  " but the result carries phi=" + std::to_string(result.phi);
      } else if (win.status != result.status) {
        failure = std::string("winner row status ") + status_name(win.status) +
                  " does not match the result's " + status_name(result.status);
      }
    }
    // Selection minimality among certified engines.
    if (!failure.has_value()) {
      std::size_t best = table.size();
      for (std::size_t i = 0; i < table.size(); ++i) {
        if (!table[i].certified) continue;
        if (best == table.size() ||
            portfolio_prefers(table[i].phi, specs[i]->strength, i, table[best].phi,
                              specs[best]->strength, best)) {
          best = i;
        }
      }
      if (best != table.size() && best != winner_pos) {
        failure = "selected winner '" + result.engine + "' (phi=" +
                  std::to_string(table[winner_pos].phi) + ") is not the preferred certified " +
                  "engine: '" + table[best].name + "' certified phi=" +
                  std::to_string(table[best].phi);
      }
    }
    // No exact feasible probe below the selected φ, anywhere in the merged
    // ledger, and every record tagged with a raced engine.
    if (!failure.has_value() && winner_pos != table.size()) {
      const bool po_limited = specs[winner_pos]->period_objective;
      for (const ProbeRecord& rec : result.probes) {
        bool known = false;
        for (const EngineRun& row : table) known = known || row.name == rec.engine;
        if (!known) {
          failure = "probe record tagged with engine '" + rec.engine +
                    "', which is not in the portfolio";
          break;
        }
        const bool certifies = rec.outcome == ProbeOutcome::kOk && rec.feasible &&
                               (!po_limited || rec.max_po_label <= rec.phi);
        if (certifies && rec.phi < result.phi) {
          failure = "engine '" + rec.engine + "' holds an exact feasible probe at phi=" +
                    std::to_string(rec.phi) + ", below the selected phi=" +
                    std::to_string(result.phi) + ": wrong winner";
          break;
        }
      }
    }
    add_outcome("portfolio", failure,
                std::to_string(table.size()) + " engine(s), winner '" + result.engine +
                    "' re-verified");
  }

  // stage-timing: the per-stage wall times are non-negative and account for
  // (at most) the flow's total wall time, with 5% tolerance for clock skew.
  if (result.stage_metrics.stages.empty()) {
    add("stage-timing", AuditStatus::kSkipped, "flow recorded no stage metrics");
  } else if (result.seconds <= 0.0) {
    add("stage-timing", AuditStatus::kSkipped,
        "in-pipeline audit (flow wall time not recorded yet)");
  } else {
    std::optional<std::string> failure;
    double sum = 0.0;
    for (const StageMetric& s : result.stage_metrics.stages) {
      if (s.seconds < 0.0) {
        failure = "stage '" + s.name + "' reports a negative wall time";
        break;
      }
      sum += s.seconds;
    }
    if (!failure.has_value() && sum > result.seconds * 1.05 + 1e-3) {
      failure = "stage wall times sum to " + std::to_string(sum) + "s, exceeding the flow's " +
                std::to_string(result.seconds) + "s";
    }
    add_outcome("stage-timing", failure,
                std::to_string(result.stage_metrics.stages.size()) +
                    " stage(s) within the flow wall time");
  }
  return report;
}

bool audit_flag_from_cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--audit") return true;
  }
  return false;
}

const char* audit_cli_help() {
  return "--audit (re-verify every invariant of each flow result and print a breakdown)";
}

bool audit_and_report(const Circuit& input, const FlowResult& result,
                      const FlowOptions& options, const std::string& tag, std::ostream& os,
                      const AuditOptions& audit) {
  const AuditReport report = audit_flow(input, result, options, audit);
  int passes = 0;
  int skips = 0;
  for (const AuditCheck& c : report.checks) {
    if (c.status == AuditStatus::kPass) ++passes;
    if (c.status == AuditStatus::kSkipped) ++skips;
  }
  os << "audit " << tag << ": " << (report.passed() ? "PASS" : "FAIL") << " (" << passes
     << " passed, " << report.failures() << " failed, " << skips << " skipped)\n"
     << report.breakdown();
  return report.passed();
}

}  // namespace turbosyn
