#include "plan/ldsf.h"

#include <algorithm>
#include <cstdint>
#include <queue>

#include "util/logging.h"

namespace csce {
namespace {

constexpr uint64_t kNoCluster = PatternContext::kNoCluster;

// Rank of a ready vertex: (1) greatest constraint count — a ready
// vertex is anchored by all of its DAG parents, and matching the
// most-constrained vertex first prunes fastest (GCF's principle carries
// over to the reordering); (2) largest descendant size, the LDSF
// tie-break that maximizes candidate reuse; (3) smallest cluster to an
// already-ordered neighbor; (4) rarest label; (5) lowest id.
struct ReadyKey {
  uint32_t parents;
  uint32_t descendants;
  uint64_t cluster;
  uint64_t frequency;
  VertexId vertex;

  bool BetterThan(const ReadyKey& o) const {
    if (parents != o.parents) return parents > o.parents;
    if (descendants != o.descendants) return descendants > o.descendants;
    if (cluster != o.cluster) return cluster < o.cluster;
    if (frequency != o.frequency) return frequency < o.frequency;
    return vertex < o.vertex;
  }
};

struct Worse {
  bool operator()(const ReadyKey& a, const ReadyKey& b) const {
    return b.BetterThan(a);
  }
};

}  // namespace

std::vector<VertexId> LargestDescendantFirstOrder(
    const DependencyDag& dag, const PatternContext& ctx, bool use_data,
    std::span<const uint32_t> descendant_sizes) {
  const uint32_t n = dag.NumVertices();
  CSCE_CHECK(descendant_sizes.size() == n);
  std::vector<VertexId> order;
  order.reserve(n);

  const bool cluster_stats = use_data && ctx.data() != nullptr;
  std::vector<uint32_t> pending_parents(n, 0);
  std::vector<bool> ordered(n, false);
  // Every pattern edge is a DAG edge, so a ready vertex's pattern
  // neighbors are its parents, all ordered, and its children, none of
  // which can be ordered before it: the smallest cluster to an ordered
  // neighbor is final when the vertex becomes ready, and each vertex
  // enters the heap once.
  auto key = [&](VertexId v) {
    uint64_t cluster = kNoCluster;
    if (cluster_stats) {
      std::span<const VertexId> nbrs = ctx.Neighbors(v);
      std::span<const uint64_t> sizes = ctx.NeighborClusterSizes(v);
      for (size_t k = 0; k < nbrs.size(); ++k) {
        if (ordered[nbrs[k]]) cluster = std::min(cluster, sizes[k]);
      }
    }
    return ReadyKey{dag.NumParents(v), descendant_sizes[v], cluster,
                    ctx.LabelFrequency(v, use_data), v};
  };

  std::priority_queue<ReadyKey, std::vector<ReadyKey>, Worse> ready;
  for (VertexId v = 0; v < n; ++v) {
    pending_parents[v] = dag.NumParents(v);
    if (pending_parents[v] == 0) ready.push(key(v));
  }
  while (!ready.empty()) {
    const VertexId best = ready.top().vertex;
    ready.pop();
    order.push_back(best);
    ordered[best] = true;
    dag.ForEachChild(best, [&](VertexId c) {
      if (--pending_parents[c] == 0) ready.push(key(c));
    });
  }
  CSCE_CHECK(order.size() == n);
  return order;
}

}  // namespace csce
