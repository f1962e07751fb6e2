#include "graph/node_cut.hpp"

#include <algorithm>

#include "base/check.hpp"

namespace turbosyn {

void NodeCut::reset(const Network& net) {
  const std::size_t n = net.capacity.size();
  TS_CHECK(net.fanin_begin.size() == n && net.fanin_end.size() == n && net.flags.size() == n,
           "node cut network arrays disagree on the node count");

  // Fanout lists by counting sort: counts land at fanout_offset_[u + 2], so
  // after the prefix sum and one fill pass [offset[u], offset[u + 1]) is u's
  // run. A sink's fanout is never traversed, so it is left out.
  fanout_offset_.assign(n + 2, 0);
  slot_head_.resize(net.fanins.size());
  sources_.clear();
  for (std::size_t w = 0; w < n; ++w) {
    if (net.flags[w] & kFromSource) sources_.push_back(static_cast<std::int32_t>(w));
    for (std::int32_t s = net.fanin_begin[w]; s < net.fanin_end[w]; ++s) {
      slot_head_[static_cast<std::size_t>(s)] = static_cast<std::int32_t>(w);
      const auto u = static_cast<std::size_t>(net.fanins[static_cast<std::size_t>(s)]);
      if (!(net.flags[u] & kSink)) ++fanout_offset_[u + 2];
    }
  }
  for (std::size_t i = 1; i < n + 2; ++i) fanout_offset_[i] += fanout_offset_[i - 1];
  fanout_slot_.resize(static_cast<std::size_t>(fanout_offset_[n + 1]));
  for (std::size_t w = 0; w < n; ++w) {
    for (std::int32_t s = net.fanin_begin[w]; s < net.fanin_end[w]; ++s) {
      const auto u = static_cast<std::size_t>(net.fanins[static_cast<std::size_t>(s)]);
      if (net.flags[u] & kSink) continue;
      fanout_slot_[static_cast<std::size_t>(fanout_offset_[u + 1]++)] = s;
    }
  }

  node_flow_.assign(n, 0);
  edge_flow_.assign(net.fanins.size(), 0);
  if (seen_.size() < 2 * n) seen_.resize(2 * n, 0);
  parent_.resize(2 * n);
  via_.resize(2 * n);
  next_.resize(2 * n);
  flow_ = 0;
}

std::int64_t NodeCut::run(const Network& net, std::int64_t limit) {
  reset(net);
  return resume(net, limit);
}

void NodeCut::seed(const Network& net, Paths paths) {
  reset(net);
  // One unit per path: each step from a node down to its fanin u carries it
  // along that fanin slot and through u's own arc.
  std::size_t begin = 0;
  for (const std::int32_t end_offset : paths.ends) {
    const auto end = static_cast<std::size_t>(end_offset);
    TS_ASSERT(begin < end && end <= paths.nodes.size());
    auto prev = static_cast<std::size_t>(paths.nodes[begin]);
    TS_ASSERT(net.flags[prev] & kSink);
    if (end - begin == 1) ++node_flow_[prev];  // a source arc straight into the sink
    for (std::size_t i = begin + 1; i < end; ++i) {
      const std::int32_t u = paths.nodes[i];
      std::int32_t s = net.fanin_begin[prev];
      while (s < net.fanin_end[prev] && net.fanins[static_cast<std::size_t>(s)] != u) ++s;
      TS_ASSERT(s < net.fanin_end[prev]);
      prev = static_cast<std::size_t>(u);
      TS_ASSERT(!(net.flags[prev] & kSink));
      ++edge_flow_[static_cast<std::size_t>(s)];
      ++node_flow_[prev];
      TS_ASSERT(node_flow_[prev] <= net.capacity[prev]);
    }
    TS_ASSERT(net.flags[prev] & kFromSource);
    begin = end;
  }
  flow_ = static_cast<std::int64_t>(paths.ends.size());
}

std::int64_t NodeCut::resume(const Network& net, std::int64_t limit) {
  const std::size_t n = net.capacity.size();
  TS_ASSERT(node_flow_.size() == n && edge_flow_.size() == net.fanins.size());
  TS_ASSERT(flow_ <= limit + 1);
  paths_ = 0;
  cut_.clear();
  if (flow_ > limit) return limit + 1;
  while (find_path(net)) {
    ++paths_;
    const std::int64_t amount = bottleneck(net);
    if (flow_ + amount > limit) {
      push(limit + 1 - flow_);  // keep exactly limit + 1 units for flow_paths()
      flow_ = limit + 1;
      return flow_;
    }
    flow_ += amount;
    push(amount);
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (!(net.flags[v] & kSink) && seen_[2 * v] == epoch_ && seen_[2 * v + 1] != epoch_) {
      cut_.push_back(static_cast<std::int32_t>(v));
    }
  }
  return flow_;
}

bool NodeCut::find_path(const Network& net) {
  if (++epoch_ == 0) {  // stamps wrapped: wipe the stale ones
    std::fill(seen_.begin(), seen_.end(), 0);
    epoch_ = 1;
  }
  for (const std::int32_t v : sources_) {
    const auto vs = static_cast<std::size_t>(v);
    if (net.flags[vs] & kSink) {  // source arc straight into the sink
      sink_hit_ = 2 * v;
      parent_[static_cast<std::size_t>(sink_hit_)] = -1;
      return true;
    }
    if (seen_[2 * vs] == epoch_) continue;
    seen_[2 * vs] = epoch_;
    parent_[2 * vs] = -1;
    via_[2 * vs] = -1;
    next_[2 * vs] = -1;
    stack_.assign(1, 2 * v);
    while (!stack_.empty()) {
      const std::int32_t h = stack_.back();
      const auto hs = static_cast<std::size_t>(h);
      const auto u = static_cast<std::size_t>(h >> 1);
      std::int32_t& k = next_[hs];
      std::int32_t to = -1;
      std::int32_t slot = -1;
      if ((h & 1) == 0) {
        // in(u): through u's own arc, or back against flow on a fanin edge.
        if (k < 0) {
          k = net.fanin_begin[u];
          if (node_flow_[u] < net.capacity[u] && seen_[hs + 1] != epoch_) to = h + 1;
        }
        while (to < 0 && k < net.fanin_end[u]) {
          const std::int32_t s = k++;
          if (edge_flow_[static_cast<std::size_t>(s)] == 0) continue;
          const std::int32_t t = 2 * net.fanins[static_cast<std::size_t>(s)] + 1;
          if (seen_[static_cast<std::size_t>(t)] != epoch_) {
            to = t;
            slot = s;
          }
        }
      } else {
        // out(u): forward along a fanout edge, then back against u's own
        // flow (position end + 1 means both are spent).
        if (k < 0) k = fanout_offset_[u];
        const std::int32_t end = fanout_offset_[u + 1];
        while (to < 0 && k < end) {
          const std::int32_t s = fanout_slot_[static_cast<std::size_t>(k++)];
          const std::int32_t w = slot_head_[static_cast<std::size_t>(s)];
          if (net.flags[static_cast<std::size_t>(w)] & kSink) {
            sink_hit_ = 2 * w;
            parent_[static_cast<std::size_t>(sink_hit_)] = h;
            via_[static_cast<std::size_t>(sink_hit_)] = s;
            return true;
          }
          if (seen_[static_cast<std::size_t>(2 * w)] != epoch_) {
            to = 2 * w;
            slot = s;
          }
        }
        if (to < 0 && k == end) {
          ++k;
          if (node_flow_[u] > 0 && seen_[hs - 1] != epoch_) to = h - 1;
        }
      }
      if (to < 0) {
        stack_.pop_back();
        continue;
      }
      const auto ts = static_cast<std::size_t>(to);
      seen_[ts] = epoch_;
      parent_[ts] = h;
      via_[ts] = slot;
      next_[ts] = -1;
      stack_.push_back(to);
    }
  }
  return false;
}

std::int64_t NodeCut::bottleneck(const Network& net) const {
  std::int64_t amount = kUncuttable;
  for (std::int32_t h = sink_hit_; parent_[static_cast<std::size_t>(h)] != -1;
       h = parent_[static_cast<std::size_t>(h)]) {
    const std::int32_t s = via_[static_cast<std::size_t>(h)];
    const auto v = static_cast<std::size_t>(h >> 1);
    std::int64_t residual = kUncuttable;  // a forward fanin edge
    if (s < 0) {
      residual = (h & 1) ? net.capacity[v] - node_flow_[v]  // in(v) -> out(v)
                         : node_flow_[v];                   // out(v) -> in(v)
    } else if (h & 1) {
      residual = edge_flow_[static_cast<std::size_t>(s)];  // in(w) -> out(v), against s
    }
    amount = std::min(amount, residual);
  }
  return amount;
}

void NodeCut::push(std::int64_t amount) {
  if (parent_[static_cast<std::size_t>(sink_hit_)] == -1) {  // a source arc into a sink
    node_flow_[static_cast<std::size_t>(sink_hit_ >> 1)] += amount;
    return;
  }
  for (std::int32_t h = sink_hit_; parent_[static_cast<std::size_t>(h)] != -1;
       h = parent_[static_cast<std::size_t>(h)]) {
    const std::int32_t s = via_[static_cast<std::size_t>(h)];
    const std::int64_t signed_amount = (h & 1) ? amount : -amount;
    if (s < 0) {
      node_flow_[static_cast<std::size_t>(h >> 1)] += signed_amount;
    } else {
      edge_flow_[static_cast<std::size_t>(s)] -= signed_amount;
    }
  }
}

NodeCut::Paths NodeCut::flow_paths(const Network& net) {
  const std::size_t n = net.capacity.size();
  path_nodes_.clear();
  path_ends_.clear();
  remaining_.assign(edge_flow_.begin(), edge_flow_.end());
  next_slot_.assign(net.fanin_begin.begin(), net.fanin_begin.end());
  const auto end_path = [&] {
    path_ends_.push_back(static_cast<std::int32_t>(path_nodes_.size()));
  };
  // Walk each unit down from its sink along fanin edges that still carry
  // flow. A node that is not source-fed passes on as much flow as enters it,
  // so the walk finds a carrying fanin until it reaches a source-fed node;
  // it stops at the first one, and each visit takes one unit of the flow
  // leaving a node, so no node lies on more paths than its flow.
  for (std::size_t w = 0; w < n; ++w) {
    if (!(net.flags[w] & kSink)) continue;
    for (std::int64_t i = 0; i < node_flow_[w]; ++i) {
      path_nodes_.push_back(static_cast<std::int32_t>(w));
      end_path();
    }
    for (std::int32_t s = net.fanin_begin[w]; s < net.fanin_end[w]; ++s) {
      while (remaining_[static_cast<std::size_t>(s)] > 0) {
        --remaining_[static_cast<std::size_t>(s)];
        path_nodes_.push_back(static_cast<std::int32_t>(w));
        std::int32_t u = net.fanins[static_cast<std::size_t>(s)];
        path_nodes_.push_back(u);
        while (!(net.flags[static_cast<std::size_t>(u)] & kFromSource)) {
          std::int32_t& t = next_slot_[static_cast<std::size_t>(u)];
          const std::int32_t end = net.fanin_end[static_cast<std::size_t>(u)];
          while (t < end && remaining_[static_cast<std::size_t>(t)] == 0) ++t;
          TS_ASSERT(t < end);
          --remaining_[static_cast<std::size_t>(t)];
          u = net.fanins[static_cast<std::size_t>(t)];
          path_nodes_.push_back(u);
        }
        end_path();
      }
    }
  }
  return Paths{path_nodes_, path_ends_};
}

}  // namespace turbosyn
