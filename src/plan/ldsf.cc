#include "plan/ldsf.h"

#include <algorithm>
#include <cstdint>

#include "util/logging.h"

namespace csce {
namespace {

constexpr uint64_t kNoCluster = PatternContext::kNoCluster;

// Smallest cluster among x's pattern edges to already-ordered vertices.
uint64_t MinClusterToOrdered(const PatternContext& ctx, VertexId x,
                             const std::vector<bool>& ordered) {
  std::span<const VertexId> nbrs = ctx.Neighbors(x);
  std::span<const uint64_t> cluster = ctx.NeighborClusterSizes(x);
  uint64_t best = kNoCluster;
  for (size_t k = 0; k < nbrs.size(); ++k) {
    if (ordered[nbrs[k]]) best = std::min(best, cluster[k]);
  }
  return best;
}

}  // namespace

std::vector<VertexId> LargestDescendantFirstOrder(
    const DependencyDag& dag, const PatternContext& ctx, bool use_data,
    std::span<const uint32_t> descendant_sizes) {
  const uint32_t n = dag.NumVertices();
  CSCE_CHECK(descendant_sizes.size() == n);
  std::vector<VertexId> order;
  order.reserve(n);

  const bool cluster_stats = use_data && ctx.data() != nullptr;
  std::vector<uint32_t> num_parents(n, 0);
  std::vector<uint32_t> pending_parents(n, 0);
  std::vector<bool> ready(n, false);
  std::vector<bool> ordered(n, false);
  for (uint32_t v = 0; v < n; ++v) {
    num_parents[v] = dag.NumParents(v);
    pending_parents[v] = num_parents[v];
    if (pending_parents[v] == 0) ready[v] = true;
  }

  // The ready set is tiny (<= pattern size) so a linear scan with the
  // composite rank beats maintaining a priority queue whose keys (the
  // cluster tie-break) change as vertices get ordered.
  //
  // Rank: (1) greatest constraint count — a ready vertex is anchored by
  // all of its DAG parents, and matching the most-constrained vertex
  // first prunes fastest (GCF's principle carries over to the
  // reordering); (2) largest descendant size, the LDSF tie-break that
  // maximizes candidate reuse; (3) smallest cluster; (4) rarest label.
  for (uint32_t step = 0; step < n; ++step) {
    VertexId best = kInvalidVertex;
    uint32_t best_parents = 0;
    uint32_t best_desc = 0;
    uint64_t best_cluster = kNoCluster;
    uint64_t best_freq = kNoCluster;
    for (VertexId v = 0; v < n; ++v) {
      if (!ready[v] || ordered[v]) continue;
      uint32_t parents = num_parents[v];
      uint32_t desc = descendant_sizes[v];
      uint64_t cluster = 0;
      uint64_t freq = 0;
      bool need_ties = best != kInvalidVertex && parents == best_parents &&
                       desc == best_desc;
      if (best == kInvalidVertex || parents > best_parents ||
          (parents == best_parents && desc > best_desc) || need_ties) {
        cluster = cluster_stats ? MinClusterToOrdered(ctx, v, ordered)
                                : kNoCluster;
        freq = ctx.LabelFrequency(v, use_data);
      }
      bool better;
      if (best == kInvalidVertex) {
        better = true;
      } else if (parents != best_parents) {
        better = parents > best_parents;
      } else if (desc != best_desc) {
        better = desc > best_desc;
      } else if (cluster != best_cluster) {
        better = cluster < best_cluster;
      } else if (freq != best_freq) {
        better = freq < best_freq;
      } else {
        better = v < best;
      }
      if (better) {
        best = v;
        best_parents = parents;
        best_desc = desc;
        best_cluster = cluster;
        best_freq = freq;
      }
    }
    CSCE_CHECK(best != kInvalidVertex);
    order.push_back(best);
    ordered[best] = true;
    ready[best] = false;
    dag.ForEachChild(best, [&](VertexId c) {
      if (--pending_parents[c] == 0) ready[c] = true;
    });
  }
  return order;
}

}  // namespace csce
