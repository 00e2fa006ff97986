#include "plan/gcf.h"

#include <algorithm>
#include <cstdint>


namespace csce {
namespace {

constexpr uint64_t kNoCluster = PatternContext::kNoCluster;

// Ranking key for the next-vertex choice: maximize (t1, t2, t3), then
// minimize (w1, w2, w3, vertex id). Group g of an unmatched vertex x
// holds its edges (x, j) with j matched (g = 1), j unmatched but
// adjacent to a matched vertex (g = 2), or neither (g = 3); t_g counts
// them and w_g is their smallest cluster. The vertex id makes
// BetterThan a strict total order.
struct Rank {
  uint32_t t[3] = {0, 0, 0};
  uint64_t w[3] = {kNoCluster, kNoCluster, kNoCluster};
  VertexId vertex = kInvalidVertex;

  bool BetterThan(const Rank& o) const {
    for (int g = 0; g < 3; ++g) {
      if (t[g] != o.t[g]) return t[g] > o.t[g];
    }
    for (int g = 0; g < 3; ++g) {
      if (w[g] != o.w[g]) return w[g] < o.w[g];
    }
    return vertex < o.vertex;
  }
};

}  // namespace

std::vector<VertexId> GreatestConstraintFirstOrder(const PatternContext& ctx,
                                                   const GcfOptions& options) {
  const uint32_t n = ctx.NumVertices();
  std::vector<VertexId> order;
  if (n == 0) return order;
  order.reserve(n);

  // Cluster sizes are kNoCluster throughout without data statistics.
  const bool sizes = options.use_cluster_tiebreak && ctx.data() != nullptr;
  auto weight = [&](VertexId x, size_t k) {
    return sizes ? ctx.NeighborClusterSizes(x)[k] : kNoCluster;
  };
  std::vector<bool> matched(n, false);
  // matched_nbrs[v]: neighbors of v already in the order.
  std::vector<uint32_t> matched_nbrs(n, 0);
  // Group (0-based) of edge (x, j) for unmatched x under the current
  // matched set.
  auto group = [&](VertexId j) {
    return matched[j] ? 0 : matched_nbrs[j] > 0 ? 1 : 2;
  };

  // Before anything is matched every edge is in group 3.
  std::vector<Rank> rank(n);
  for (VertexId x = 0; x < n; ++x) {
    rank[x].vertex = x;
    rank[x].t[2] = static_cast<uint32_t>(ctx.Neighbors(x).size());
    for (size_t k = 0; k < ctx.Neighbors(x).size(); ++k) {
      rank[x].w[2] = std::min(rank[x].w[2], weight(x, k));
    }
  }

  // The unmatched vertices in a binary max-heap under BetterThan, with
  // each vertex's index in `slot`. An edge only ever moves to a group
  // that ranks first, so a rank only improves and a changed vertex only
  // sifts up.
  auto better = [&](VertexId a, VertexId b) {
    return rank[a].BetterThan(rank[b]);
  };
  std::vector<VertexId> heap(n);
  std::vector<uint32_t> slot(n);
  for (VertexId v = 0; v < n; ++v) heap[v] = v;
  std::make_heap(heap.begin(), heap.end(),
                 [&](VertexId a, VertexId b) { return better(b, a); });
  for (uint32_t i = 0; i < n; ++i) slot[heap[i]] = i;
  auto place = [&](VertexId x, uint32_t i) {
    heap[i] = x;
    slot[x] = i;
  };
  auto sift_up = [&](VertexId x) {
    uint32_t i = slot[x];
    while (i > 0 && better(x, heap[(i - 1) / 2])) {
      place(heap[(i - 1) / 2], i);
      i = (i - 1) / 2;
    }
    place(x, i);
  };
  auto pop = [&] {
    const VertexId top = heap[0];
    const VertexId last = heap.back();
    heap.pop_back();
    const uint32_t size = static_cast<uint32_t>(heap.size());
    if (size == 0) return top;
    uint32_t i = 0;
    for (uint32_t c = 1; c < size; c = 2 * i + 1) {
      if (c + 1 < size && better(heap[c + 1], heap[c])) ++c;
      if (!better(heap[c], last)) break;
      place(heap[c], i);
      i = c;
    }
    place(last, i);
    return top;
  };

  // Moves x's edge of weight w from group `from` to group `to`. The
  // group's minimum is rescanned only when the leaving edge held it
  // (a kNoCluster minimum cannot rise).
  auto move = [&](VertexId x, uint64_t w, int from, int to) {
    Rank& r = rank[x];
    --r.t[from];
    ++r.t[to];
    r.w[to] = std::min(r.w[to], w);
    if (w == r.w[from] && w != kNoCluster) {
      r.w[from] = kNoCluster;
      std::span<const VertexId> nbrs = ctx.Neighbors(x);
      for (size_t k = 0; k < nbrs.size(); ++k) {
        if (group(nbrs[k]) == from) {
          r.w[from] = std::min(r.w[from], weight(x, k));
        }
      }
    }
    sift_up(x);
  };

  for (uint32_t step = 0; step < n; ++step) {
    const VertexId v = pop();
    order.push_back(v);
    matched[v] = true;

    // Edges (x, v) join group 1.
    std::span<const VertexId> nbrs = ctx.Neighbors(v);
    const int v_group = matched_nbrs[v] > 0 ? 1 : 2;
    for (size_t k = 0; k < nbrs.size(); ++k) {
      if (!matched[nbrs[k]]) move(nbrs[k], weight(v, k), v_group, 0);
    }
    // A neighbor x touching the prefix for the first time moves every
    // edge (y, x) of an unmatched y from group 3 to group 2.
    for (VertexId x : nbrs) {
      if (++matched_nbrs[x] != 1 || matched[x]) continue;
      std::span<const VertexId> x_nbrs = ctx.Neighbors(x);
      for (size_t k = 0; k < x_nbrs.size(); ++k) {
        if (!matched[x_nbrs[k]]) move(x_nbrs[k], weight(x, k), 2, 1);
      }
    }
  }
  return order;
}

}  // namespace csce
