#include "mapping/lut_network.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <string>

#include "base/check.hpp"

namespace turbosyn {
namespace {

using Fanin = LutNetwork::Fanin;
using Lut = LutNetwork::Lut;

/// Union-find over LUT indices (path-compressing find).
std::int32_t find_rep(std::vector<std::int32_t>& rep, std::int32_t v) {
  while (rep[static_cast<std::size_t>(v)] != v) {
    rep[static_cast<std::size_t>(v)] = rep[static_cast<std::size_t>(rep[static_cast<std::size_t>(v)])];
    v = rep[static_cast<std::size_t>(v)];
  }
  return v;
}

/// The consumer's function with the producer substituted at fanin `slot`,
/// over `merged` (every other fanin of both, each once). compose() reads a
/// fanin repeated in either LUT as one variable, which remap() would refuse.
TruthTable merge_functions(const Lut& consumer, const Lut& producer, std::size_t slot,
                           std::span<const Fanin> merged) {
  const int arity = static_cast<int>(merged.size());
  const auto var_of = [&](const Fanin& f) {
    return TruthTable::var(arity, static_cast<int>(std::ranges::find(merged, f) - merged.begin()));
  };
  std::vector<TruthTable> inputs;
  for (const Fanin& f : producer.fanins) inputs.push_back(var_of(f));
  const TruthTable absorbed = compose(producer.func, inputs);
  inputs.clear();
  for (std::size_t i = 0; i < consumer.fanins.size(); ++i) {
    inputs.push_back(i == slot ? absorbed : var_of(consumer.fanins[i]));
  }
  return compose(consumer.func, inputs);
}

}  // namespace

LutNetwork LutNetwork::from_circuit(const Circuit& c) {
  LutNetwork net;
  net.source = &c;
  std::vector<std::int32_t> ref(static_cast<std::size_t>(c.num_nodes()), 0);
  for (std::size_t i = 0; i < c.pis().size(); ++i) {
    ref[static_cast<std::size_t>(c.pis()[i])] = ~static_cast<std::int32_t>(i);
  }
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    if (!c.is_gate(v)) continue;
    ref[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(net.luts.size());
    net.luts.push_back(Lut{c.function(v), {}, v});
  }
  const auto fanin = [&](EdgeId e) {
    return Fanin{ref[static_cast<std::size_t>(c.edge(e).from)], c.edge(e).weight};
  };
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    if (!c.is_gate(v)) continue;
    auto& fanins = net.luts[static_cast<std::size_t>(ref[static_cast<std::size_t>(v)])].fanins;
    for (const EdgeId e : c.fanin_edges(v)) fanins.push_back(fanin(e));
  }
  for (const NodeId po : c.pos()) net.pos.push_back(fanin(c.fanin_edges(po)[0]));
  return net;
}

int LutNetwork::num_luts() const {
  int n = 0;
  for (const Lut& lut : luts) n += lut.alive && !lut.fanins.empty() ? 1 : 0;
  return n;
}

Circuit LutNetwork::to_circuit() const {
  const Circuit& c = *source;
  Circuit out;
  std::size_t edges = pos.size();
  for (const Lut& lut : luts) edges += lut.alive ? lut.fanins.size() : 0;
  out.reserve(c.num_pis() + static_cast<int>(luts.size()) + c.num_pos(),
              static_cast<int>(edges));
  for (const NodeId pi : c.pis()) out.add_pi(c.name(pi));  // PI number i is node i
  std::vector<NodeId> node(luts.size(), kNoNode);
  for (std::size_t i = 0; i < luts.size(); ++i) {
    const Lut& lut = luts[i];
    if (!lut.alive) continue;
    node[i] = out.declare_gate(lut.encoder < 0 ? c.name(lut.origin)
                                               : c.name(lut.origin) + "$e" +
                                                     std::to_string(lut.encoder));
  }
  const auto driver = [&](Fanin f) {
    const NodeId d = f.src < 0 ? ~f.src : node[static_cast<std::size_t>(f.src)];
    TS_ASSERT(d != kNoNode);  // live LUTs read live LUTs only
    return Circuit::FaninSpec{d, f.weight};
  };
  std::vector<Circuit::FaninSpec> fanins;
  for (std::size_t i = 0; i < luts.size(); ++i) {
    if (!luts[i].alive) continue;
    fanins.clear();
    for (const Fanin& f : luts[i].fanins) fanins.push_back(driver(f));
    out.finish_gate(node[i], luts[i].func, fanins);
  }
  for (std::size_t i = 0; i < pos.size(); ++i) out.add_po(c.name(c.pos()[i]), driver(pos[i]));
  out.validate();
  return out;
}

int dedupe_luts(LutNetwork& net) {
  auto& luts = net.luts;
  const std::size_t n = luts.size();
  std::vector<std::int32_t> rep(n);
  std::iota(rep.begin(), rep.end(), 0);
  const auto resolve = [&](Fanin f) {
    return f.src < 0 ? f : Fanin{find_rep(rep, f.src), f.weight};
  };

  // Hash-consing, one pass per round in list order: an open-addressing table
  // of LUT indices keyed by the function and the fanins as resolved when the
  // LUT entered it this round. A LUT whose key is already there joins it.
  std::size_t mask = 15;
  while (mask < 2 * n) mask = 2 * mask + 1;
  std::vector<std::int32_t> table(mask + 1);
  std::vector<std::uint64_t> key_hash(n);
  std::vector<std::size_t> key_begin(n);
  std::vector<Fanin> keys;
  const auto key_of = [&](std::size_t i) {
    return std::span<const Fanin>(keys).subspan(key_begin[i], luts[i].fanins.size());
  };
  int rounds = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    ++rounds;
    std::fill(table.begin(), table.end(), -1);
    keys.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const auto self = static_cast<std::int32_t>(i);
      if (!luts[i].alive || find_rep(rep, self) != self) continue;
      key_begin[i] = keys.size();
      std::uint64_t h = luts[i].func.hash();
      for (const Fanin& f : luts[i].fanins) {
        const Fanin r = resolve(f);
        keys.push_back(r);
        h = (h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(r.src)) << 32 |
                  static_cast<std::uint32_t>(r.weight))) *
            0x9e3779b97f4a7c15ULL;
        h ^= h >> 29;
      }
      key_hash[i] = h;
      for (std::size_t slot = h & mask;; slot = (slot + 1) & mask) {
        const std::int32_t j = table[slot];
        if (j < 0) {
          table[slot] = static_cast<std::int32_t>(i);
          break;
        }
        const auto ju = static_cast<std::size_t>(j);
        if (key_hash[ju] == h && std::ranges::equal(key_of(ju), key_of(i)) &&
            luts[ju].func == luts[i].func) {
          rep[i] = j;
          changed = true;
          break;
        }
      }
    }
  }

  // Readers move to representatives; keep the LUTs the POs reach.
  std::vector<char> live(n, 0);
  std::vector<std::int32_t> stack;
  const auto mark = [&](Fanin& f) {
    f = resolve(f);
    if (f.src >= 0 && !live[static_cast<std::size_t>(f.src)]) {
      live[static_cast<std::size_t>(f.src)] = 1;
      stack.push_back(f.src);
    }
  };
  for (Fanin& f : net.pos) mark(f);
  while (!stack.empty()) {
    const auto i = static_cast<std::size_t>(stack.back());
    stack.pop_back();
    for (Fanin& f : luts[i].fanins) mark(f);
  }
  for (std::size_t i = 0; i < n; ++i) luts[i].alive = live[i] != 0;
  return rounds;
}

int pack_luts(LutNetwork& net, int k) {
  auto& luts = net.luts;
  // Readers per LUT: fanin slots of live LUTs plus POs.
  std::vector<int> fanout_uses(luts.size(), 0);
  const auto count_uses = [&](std::span<const Fanin> fanins, int delta) {
    for (const Fanin& f : fanins) {
      if (f.src >= 0) fanout_uses[static_cast<std::size_t>(f.src)] += delta;
    }
  };
  for (const Lut& lut : luts) {
    if (lut.alive) count_uses(lut.fanins, 1);
  }
  count_uses(net.pos, 1);

  int merges = 0;
  std::vector<Fanin> merged;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t v = 0; v < luts.size(); ++v) {
      Lut& consumer = luts[v];
      if (!consumer.alive) continue;
      for (std::size_t slot = 0; slot < consumer.fanins.size(); ++slot) {
        const Fanin fin = consumer.fanins[slot];
        if (fin.weight != 0 || fin.src < 0 || static_cast<std::size_t>(fin.src) == v) continue;
        Lut& producer = luts[static_cast<std::size_t>(fin.src)];
        if (!producer.alive || producer.fanins.empty()) continue;
        if (fanout_uses[static_cast<std::size_t>(fin.src)] != 1) continue;
        // Merged support, deduplicated by (driver, weight).
        merged.clear();
        const auto add_unique = [&](const Fanin& f) {
          if (std::ranges::find(merged, f) == merged.end()) merged.push_back(f);
        };
        for (std::size_t i = 0; i < consumer.fanins.size(); ++i) {
          if (i != slot) add_unique(consumer.fanins[i]);
        }
        for (const Fanin& f : producer.fanins) add_unique(f);
        if (static_cast<int>(merged.size()) > k) continue;

        consumer.func = merge_functions(consumer, producer, slot, merged);
        // Re-balance the use counts: the old consumer slots and all producer
        // slots disappear; the merged slots take their place.
        count_uses(consumer.fanins, -1);
        count_uses(producer.fanins, -1);
        count_uses(merged, 1);
        consumer.fanins = merged;
        producer.alive = false;
        ++merges;
        changed = true;
        break;  // consumer changed; revisit it on the next sweep
      }
    }
  }
  return merges;
}

}  // namespace turbosyn
