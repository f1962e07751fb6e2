#include "core/expanded.hpp"

#include <algorithm>

#include "base/check.hpp"

namespace turbosyn {
namespace {

std::uint64_t pack(SeqCutNode id) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(id.node)) << 24) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(id.w));
}

std::uint64_t hash_key(std::uint64_t key) {
  key ^= key >> 33;
  key *= 0xff51afd7ed558ccdULL;
  key ^= key >> 33;
  return key;
}

}  // namespace

ExpandedNetwork::ExpandedNetwork(const Circuit& c, std::span<const int> labels, int phi,
                                 NodeId root, int height_limit, const ExpandedOptions& options) {
  build(c, labels, phi, root, height_limit, options);
}

void ExpandedNetwork::build(const Circuit& c, std::span<const int> labels, int phi, NodeId root,
                            int height_limit, const ExpandedOptions& options) {
  TS_CHECK(phi >= 1, "target ratio must be at least 1");
  circuit_ = &c;
  labels_ = labels;
  phi_ = phi;
  root_ = root;
  height_limit_ = height_limit;
  options_ = options;
  viable_ = true;
  augmentations_ = 0;
  unit_flow_failed_ = false;
  unit_flow_ = UnitFlow::kNone;
  num_nodes_ = 0;
  fanin_pool_.clear();
  // Pre-size the per-query scratch to the high-water mark of earlier builds,
  // so a query no larger than any previous one reallocates nothing.
  slack_.reserve(hw_nodes_);
  worklist_.reserve(hw_nodes_);
  fanin_pool_.reserve(hw_nodes_ * 2);
  // O(1) index clear; on epoch wrap-around the stale stamps must be wiped.
  if (++index_epoch_ == 0) {
    index_epoch_ = 1;
    std::fill(index_slots_.begin(), index_slots_.end(), IndexSlot{});
  }
  index_size_ = 0;
  expand();
}

bool ExpandedNetwork::allowed(SeqCutNode id) const {
  // eff(u, w) + 1 <= H, i.e. this copy may be a LUT input.
  const std::int64_t eff =
      static_cast<std::int64_t>(labels_[static_cast<std::size_t>(id.node)]) -
      static_cast<std::int64_t>(phi_) * id.w;
  return eff + 1 <= height_limit_;
}

int ExpandedNetwork::find_index(std::uint64_t key) const {
  if (index_slots_.empty()) return -1;
  const std::size_t mask = index_slots_.size() - 1;
  for (std::size_t i = hash_key(key) & mask;; i = (i + 1) & mask) {
    const IndexSlot& slot = index_slots_[i];
    if (slot.epoch != index_epoch_) return -1;
    if (slot.key == key) return slot.value;
  }
}

void ExpandedNetwork::index_grow() {
  const std::size_t new_size = index_slots_.empty() ? 256 : index_slots_.size() * 2;
  std::vector<IndexSlot> old;
  old.swap(index_slots_);
  index_slots_.assign(new_size, IndexSlot{});
  const std::size_t mask = new_size - 1;
  for (const IndexSlot& slot : old) {
    if (slot.epoch != index_epoch_) continue;
    std::size_t i = hash_key(slot.key) & mask;
    while (index_slots_[i].epoch == index_epoch_) i = (i + 1) & mask;
    index_slots_[i] = slot;
    index_slots_[i].epoch = index_epoch_;
  }
}

int ExpandedNetwork::intern(SeqCutNode id) {
  if (index_size_ * 10 >= index_slots_.size() * 7) index_grow();
  const std::uint64_t key = pack(id);
  const std::size_t mask = index_slots_.size() - 1;
  std::size_t i = hash_key(key) & mask;
  while (index_slots_[i].epoch == index_epoch_) {
    if (index_slots_[i].key == key) return index_slots_[i].value;
    i = (i + 1) & mask;
  }
  const int value = static_cast<int>(num_nodes_);
  index_slots_[i] = IndexSlot{key, value, index_epoch_};
  ++index_size_;
  if (num_nodes_ == nodes_.size()) {
    nodes_.emplace_back();
    fanin_begin_.emplace_back();
    fanin_end_.emplace_back();
  }
  Copy& n = nodes_[num_nodes_];
  n.id = id;
  n.allowed = allowed(id);
  n.expanded = false;
  fanin_begin_[num_nodes_] = 0;
  fanin_end_[num_nodes_] = 0;
  ++num_nodes_;
  return value;
}

void ExpandedNetwork::expand() {
  // BFS from the root. slack[i] = number of allowed nodes on the best path
  // from the root to node i (the root itself is always interior). Mandatory
  // nodes always expand; allowed nodes expand while slack <= extra_levels.
  const CsrTopology& topo = circuit_->topology();
  const int root_idx = intern(SeqCutNode{root_, 0});
  slack_.clear();
  slack_.push_back(0);
  worklist_.clear();
  worklist_.push_back(root_idx);
  for (std::size_t head = 0; head < worklist_.size(); ++head) {
    const int i = worklist_[head];
    // Copy the fields used below: intern() may reallocate nodes_.
    const SeqCutNode id = nodes_[static_cast<std::size_t>(i)].id;
    const bool node_allowed = nodes_[static_cast<std::size_t>(i)].allowed;
    const bool is_root = (i == root_idx);
    const int my_slack = slack_[static_cast<std::size_t>(i)];
    const bool should_expand = is_root || !node_allowed || my_slack <= options_.extra_levels;
    if (!should_expand || nodes_[static_cast<std::size_t>(i)].expanded) continue;
    if (topo.flag(id.node, CsrTopology::kIsPi)) continue;  // sources have no fanins
    // Zero-state safety: a register-crossed copy (w >= 1) is only allowed
    // inside a LUT when its function is 0 on the all-zero input. Interior
    // copies at w >= 1 are recomputed for cycles t < w from pre-history
    // values, and every register powers up holding 0 — so recomputation is
    // faithful exactly when all-zero inputs reproduce the stored 0. Copies
    // violating that stay unexpanded frontier nodes: they may be cut inputs
    // (read through real, zero-initialized registers) but never interior.
    if (id.w > 0 && topo.flag(id.node, CsrTopology::kZeroUnsafe)) continue;
    nodes_[static_cast<std::size_t>(i)].expanded = true;
    const int child_slack = my_slack + ((node_allowed && !is_root) ? 1 : 0);
    const std::int32_t fanin_begin = static_cast<std::int32_t>(fanin_pool_.size());
    const std::int32_t slot_begin = topo.fanin_offset[static_cast<std::size_t>(id.node)];
    const std::int32_t slot_end = topo.fanin_offset[static_cast<std::size_t>(id.node) + 1];
    for (std::int32_t s = slot_begin; s < slot_end; ++s) {
      const SeqCutNode child{topo.fanin_src[static_cast<std::size_t>(s)],
                             id.w + topo.fanin_weight[static_cast<std::size_t>(s)]};
      const std::size_t before = num_nodes_;
      const int j = intern(child);
      if (num_nodes_ > before) {
        slack_.push_back(child_slack + (nodes_[static_cast<std::size_t>(j)].allowed ? 1 : 0));
        worklist_.push_back(j);
      } else if (child_slack + (nodes_[static_cast<std::size_t>(j)].allowed ? 1 : 0) <
                 slack_[static_cast<std::size_t>(j)]) {
        slack_[static_cast<std::size_t>(j)] =
            child_slack + (nodes_[static_cast<std::size_t>(j)].allowed ? 1 : 0);
        worklist_.push_back(j);  // better slack may unlock expansion
      }
      fanin_pool_.push_back(j);
      if (static_cast<int>(num_nodes_) > options_.node_budget) {
        viable_ = false;
        return;
      }
    }
    fanin_begin_[static_cast<std::size_t>(i)] = fanin_begin;
    fanin_end_[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(fanin_pool_.size());
  }
  hw_nodes_ = std::max(hw_nodes_, num_nodes_);
}

NodeCut::Network ExpandedNetwork::flow_network() const {
  return NodeCut::Network{std::span(fanin_begin_).first(num_nodes_),
                          std::span(fanin_end_).first(num_nodes_), fanin_pool_, capacity_,
                          flags_};
}

template <class CapacityOf>
void ExpandedNetwork::set_capacities(CapacityOf capacity_of) {
  // The root (interned first) is the sink; PI copies and unexpanded
  // frontier copies feed from the source. An expanded constant gate has no
  // fanins and no source arc: it is free inside the LUT.
  capacity_.resize(num_nodes_);
  flags_.resize(num_nodes_);
  for (std::size_t i = 0; i < num_nodes_; ++i) {
    const Copy& n = nodes_[i];
    capacity_[i] = n.allowed ? capacity_of(n) : NodeCut::kUncuttable;
    flags_[i] = static_cast<std::uint8_t>((n.expanded ? 0 : NodeCut::kFromSource) |
                                          (i == 0 ? NodeCut::kSink : 0));
  }
}

std::optional<std::vector<SeqCutNode>> ExpandedNetwork::read_cut(std::int64_t value,
                                                                 std::int64_t value_limit) {
  augmentations_ = cut_.paths();
  if (value > value_limit) return std::nullopt;
  std::vector<SeqCutNode> cut;
  cut.reserve(cut_.cut().size());
  for (const std::int32_t i : cut_.cut()) cut.push_back(nodes_[static_cast<std::size_t>(i)].id);
  std::sort(cut.begin(), cut.end());
  return cut;
}

std::optional<std::vector<SeqCutNode>> ExpandedNetwork::find_cut(int size_limit) {
  augmentations_ = 0;
  unit_flow_failed_ = false;
  if (!viable_) return std::nullopt;
  // Start from the unit flow this build already has when there is one no
  // larger than limit + 1 units: the flow of the last find_cut(), or the
  // paths refuted_by() accepted. Any starting flow ends at the same value
  // and the same cut closest to the source.
  const auto units_fit = [&](std::int64_t units) { return units <= size_limit + std::int64_t{1}; };
  std::int64_t value = 0;
  if (unit_flow_ == UnitFlow::kHeld && units_fit(cut_.flow())) {
    value = cut_.resume(flow_network(), size_limit);
  } else {
    set_capacities([](const Copy&) { return std::int64_t{1}; });
    const NodeCut::Network net = flow_network();
    const bool seeded =
        unit_flow_ == UnitFlow::kSeed && units_fit(static_cast<std::int64_t>(seed_ends_.size()));
    cut_.seed(net, seeded ? NodeCut::Paths{seed_nodes_, seed_ends_} : NodeCut::Paths{});
    value = cut_.resume(net, size_limit);
  }
  unit_flow_ = UnitFlow::kHeld;
  unit_flow_failed_ = value > size_limit;
  auto cut = read_cut(value, size_limit);
  TS_ASSERT(!cut.has_value() || static_cast<int>(cut->size()) <= size_limit);
  return cut;
}

std::optional<std::vector<SeqCutNode>> ExpandedNetwork::find_low_cost_cut(
    int size_limit, const std::function<bool(const SeqCutNode&)>& shared) {
  augmentations_ = 0;
  unit_flow_failed_ = false;
  unit_flow_ = UnitFlow::kNone;  // the weighted flow is no unit flow
  if (!viable_) return std::nullopt;
  // Capacity B per node plus 1 for non-shared nodes, with B > size_limit:
  // the min cut is lexicographically (size, #non-shared)-minimal, and a cut
  // of size <= size_limit exists iff max-flow <= (B+1)*size_limit.
  const std::int64_t b = size_limit + 1;
  set_capacities([&](const Copy& n) { return b + (shared(n.id) ? 0 : 1); });
  const std::int64_t value_limit = (b + 1) * size_limit;
  auto cut = read_cut(cut_.run(flow_network(), value_limit), value_limit);
  if (cut.has_value() && static_cast<int>(cut->size()) > size_limit) return std::nullopt;
  return cut;
}

bool ExpandedNetwork::separates(std::span<const SeqCutNode> cut) {
  if (!viable_) return false;
  // mark_: 0 unseen, kMember a cut member, kSeen reached from the root.
  constexpr std::uint8_t kMember = 1;
  constexpr std::uint8_t kSeen = 2;
  mark_.assign(num_nodes_, 0);
  for (const SeqCutNode& member : cut) {
    const int i = find_index(pack(member));
    if (i < 0 || !nodes_[static_cast<std::size_t>(i)].allowed) return false;
    mark_[static_cast<std::size_t>(i)] = kMember;
  }
  // The root (interned first) is the sink: search down from it, stopping at
  // members. Reaching an unexpanded copy means a source path misses the cut.
  std::vector<int>& stack = worklist_;
  stack.assign(1, 0);
  mark_[0] = kSeen;
  while (!stack.empty()) {
    const auto i = static_cast<std::size_t>(stack.back());
    stack.pop_back();
    if (!nodes_[i].expanded) return false;
    for (std::int32_t s = fanin_begin_[i]; s < fanin_end_[i]; ++s) {
      const auto j = static_cast<std::size_t>(fanin_pool_[static_cast<std::size_t>(s)]);
      if (mark_[j] != 0) continue;
      mark_[j] = kSeen;
      stack.push_back(static_cast<int>(j));
    }
  }
  return true;
}

FlowPaths ExpandedNetwork::flow_paths() {
  path_copies_.clear();
  if (!unit_flow_failed_) return {};
  const NodeCut::Paths paths = cut_.flow_paths(flow_network());
  for (const std::int32_t i : paths.nodes) {
    path_copies_.push_back(nodes_[static_cast<std::size_t>(i)].id);
  }
  return FlowPaths{path_copies_, paths.ends};
}

bool ExpandedNetwork::refuted_by(FlowPaths paths, int size_limit) {
  seed_nodes_.clear();
  seed_ends_.clear();
  unit_flow_ = UnitFlow::kSeed;
  if (!viable_) return false;
  const auto wanted = static_cast<std::size_t>(size_limit) + 1;
  // mark_[i] != 0: allowed copy i lies on an accepted path or earlier on
  // the path being checked (capacity 1).
  mark_.assign(num_nodes_, 0);
  // Checks one path, appending its copies to seed_nodes_ and marking its
  // allowed ones; false at the first copy that is no flow in this network,
  // before that copy is appended.
  const auto check = [&](std::span<const SeqCutNode> path) {
    // The root (interned first) is the sink: it starts every path and is
    // not a capacity of the flow.
    if (find_index(pack(path.front())) != 0) return false;
    seed_nodes_.push_back(0);
    std::size_t prev = 0;
    for (const SeqCutNode& copy : path.subspan(1)) {
      const int found = find_index(pack(copy));
      if (found < 0 || !nodes_[prev].expanded) return false;
      bool is_fanin = false;
      for (std::int32_t s = fanin_begin_[prev]; s < fanin_end_[prev] && !is_fanin; ++s) {
        is_fanin = fanin_pool_[static_cast<std::size_t>(s)] == found;
      }
      if (!is_fanin) return false;
      const auto i = static_cast<std::size_t>(found);
      if (nodes_[i].allowed) {
        if (mark_[i] != 0) return false;
        mark_[i] = 1;
      }
      seed_nodes_.push_back(found);
      prev = i;
    }
    return !nodes_[prev].expanded;  // the path must end at the source
  };
  std::size_t begin = 0;
  for (const std::int32_t end_offset : paths.ends) {
    const auto end = static_cast<std::size_t>(end_offset);
    if (seed_ends_.size() == wanted || end <= begin || end > paths.copies.size()) break;
    const std::size_t first = seed_nodes_.size();
    if (check(paths.copies.subspan(begin, end - begin))) {
      seed_ends_.push_back(static_cast<std::int32_t>(seed_nodes_.size()));
    } else {
      // Every mark on the rejected path's copies is its own: free them.
      for (std::size_t k = first; k < seed_nodes_.size(); ++k) {
        mark_[static_cast<std::size_t>(seed_nodes_[k])] = 0;
      }
      seed_nodes_.resize(first);
    }
    begin = end;
  }
  return seed_ends_.size() == wanted;
}

template <std::size_t B>
void ExpandedNetwork::evaluate_cone() {
  // The steps are evaluated over blocks of B table words. Step s keeps its
  // block at arena_[s * B], so the arena holds a few words per cone copy
  // however wide the cut.
  arena_.resize(cone_.size() * B);
  const std::uint64_t* root = arena_.data() + static_cast<std::size_t>(slot_[0]) * B;
  for (std::size_t first = 0; first < root_words_.size(); first += B) {
    for (std::size_t s = 0; s < cone_.size(); ++s) {
      const ConeStep& step = cone_[s];
      std::uint64_t* value = arena_.data() + s * B;
      if (step.var >= 0) {
        for (std::size_t b = 0; b < B; ++b) {
          value[b] = step.var < 6 ? TruthTable::kProjection[step.var]
                     : (((first + b) >> (step.var - 6)) & 1) != 0 ? ~std::uint64_t{0}
                                                                 : 0;
        }
        continue;
      }
      std::uint64_t sum[B] = {};
      for (std::uint32_t r = step.rows_begin; r < step.rows_end; ++r) {
        const std::uint32_t row = cone_rows_[r];
        std::uint64_t product[B];
        std::fill_n(product, B, ~std::uint64_t{0});
        for (std::uint32_t f = step.fanins_begin; f < step.fanins_end; ++f) {
          const std::uint64_t* in = arena_.data() + static_cast<std::size_t>(cone_fanins_[f]) * B;
          const std::uint64_t flip =
              ((row >> (f - step.fanins_begin)) & 1) != 0 ? 0 : ~std::uint64_t{0};
          for (std::size_t b = 0; b < B; ++b) product[b] &= in[b] ^ flip;
        }
        for (std::size_t b = 0; b < B; ++b) sum[b] |= product[b];
      }
      const std::uint64_t flip = step.complement ? ~std::uint64_t{0} : 0;
      for (std::size_t b = 0; b < B; ++b) value[b] = sum[b] ^ flip;
    }
    std::copy_n(root, B, root_words_.begin() + static_cast<std::ptrdiff_t>(first));
  }
}

TruthTable ExpandedNetwork::cut_function(std::span<const SeqCutNode> cut) {
  const int arity = static_cast<int>(cut.size());
  TS_CHECK(arity <= TruthTable::kMaxVars, "cut too wide for truth-table extraction");
  // The cone in post-order: cut members first (the variables; the walk
  // stops at them), then each copy between them and the root once all its
  // fanins are placed. slot_[i] is copy i's step, -1 while unplaced.
  slot_.assign(num_nodes_, -1);
  cone_.clear();
  cone_rows_.clear();
  cone_fanins_.clear();
  for (int v = 0; v < arity; ++v) {
    const int found = find_index(pack(cut[static_cast<std::size_t>(v)]));
    if (found < 0 || slot_[static_cast<std::size_t>(found)] >= 0) continue;
    slot_[static_cast<std::size_t>(found)] = static_cast<std::int32_t>(cone_.size());
    cone_.push_back(ConeStep{.var = v});
  }
  std::vector<int>& stack = worklist_;
  stack.assign(1, 0);  // the root, interned first
  while (!stack.empty()) {
    const auto i = static_cast<std::size_t>(stack.back());
    if (slot_[i] >= 0) {
      stack.pop_back();
      continue;
    }
    TS_CHECK(circuit_->is_gate(nodes_[i].id.node) && nodes_[i].expanded,
             "cut does not cover every path to the root");
    bool ready = true;
    for (std::int32_t s = fanin_begin_[i]; s < fanin_end_[i]; ++s) {
      const int j = fanin_pool_[static_cast<std::size_t>(s)];
      if (slot_[static_cast<std::size_t>(j)] < 0) {
        stack.push_back(j);
        ready = false;
      }
    }
    if (!ready) continue;
    stack.pop_back();
    // A gate is the sum of products of its on-set rows, or of its off-set
    // rows complemented when that set is smaller.
    const TruthTable& g = circuit_->function(nodes_[i].id.node);
    ConeStep step;
    step.complement = g.count_ones() * 2 > g.num_bits();
    step.rows_begin = static_cast<std::uint32_t>(cone_rows_.size());
    for (std::uint32_t row = 0; row < g.num_bits(); ++row) {
      if (g.bit(row) != step.complement) cone_rows_.push_back(row);
    }
    step.rows_end = static_cast<std::uint32_t>(cone_rows_.size());
    step.fanins_begin = static_cast<std::uint32_t>(cone_fanins_.size());
    for (std::int32_t s = fanin_begin_[i]; s < fanin_end_[i]; ++s) {
      const auto j = static_cast<std::size_t>(fanin_pool_[static_cast<std::size_t>(s)]);
      cone_fanins_.push_back(slot_[j]);
    }
    step.fanins_end = static_cast<std::uint32_t>(cone_fanins_.size());
    slot_[i] = static_cast<std::int32_t>(cone_.size());
    cone_.push_back(step);
  }

  const std::size_t words = arity > 6 ? std::size_t{1} << (arity - 6) : 1;
  root_words_.resize(words);
  // Blocks of kBlockWords words, or the whole table when it is smaller
  // (word counts are powers of two). The block size is a compile-time
  // constant: one loop over a run-time count took 2-2.5x as long on
  // BM_CutFunction at every arity.
  switch (words) {
    case 1: evaluate_cone<1>(); break;
    case 2: evaluate_cone<2>(); break;
    case 4: evaluate_cone<4>(); break;
    case 8: evaluate_cone<8>(); break;
    default: evaluate_cone<kBlockWords>(); break;
  }
  return TruthTable::from_words(arity, root_words_);
}

}  // namespace turbosyn
