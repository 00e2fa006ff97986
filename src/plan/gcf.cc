#include "plan/gcf.h"

#include <algorithm>
#include <cstdint>

#include "util/logging.h"

namespace csce {
namespace {

constexpr uint64_t kNoCluster = PatternContext::kNoCluster;

// Ranking key for the next-vertex choice: maximize (t1, t2, t3), then
// minimize (w1, w2, w3, vertex id). Implemented as lexicographic
// comparison on a normalized tuple.
struct Rank {
  uint32_t t1 = 0;
  uint32_t t2 = 0;
  uint32_t t3 = 0;
  uint64_t w1 = kNoCluster;
  uint64_t w2 = kNoCluster;
  uint64_t w3 = kNoCluster;
  VertexId vertex = kInvalidVertex;

  bool BetterThan(const Rank& o) const {
    if (t1 != o.t1) return t1 > o.t1;
    if (t2 != o.t2) return t2 > o.t2;
    if (t3 != o.t3) return t3 > o.t3;
    if (w1 != o.w1) return w1 < o.w1;
    if (w2 != o.w2) return w2 < o.w2;
    if (w3 != o.w3) return w3 < o.w3;
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
  std::vector<bool> matched(n, false);
  // matched_nbrs[v]: neighbors of v already in the order.
  std::vector<uint32_t> matched_nbrs(n, 0);
  auto append = [&](VertexId v) {
    order.push_back(v);
    matched[v] = true;
    for (VertexId w : ctx.Neighbors(v)) ++matched_nbrs[w];
  };

  // First vertex: highest degree; ties by smallest incident cluster.
  {
    VertexId best = 0;
    uint64_t best_cluster = kNoCluster;
    uint32_t best_degree = 0;
    for (VertexId v = 0; v < n; ++v) {
      uint32_t deg = static_cast<uint32_t>(ctx.Neighbors(v).size());
      uint64_t cluster = kNoCluster;
      if (sizes) {
        for (uint64_t s : ctx.NeighborClusterSizes(v)) {
          cluster = std::min(cluster, s);
        }
      }
      bool better = deg > best_degree ||
                    (deg == best_degree && cluster < best_cluster);
      if (v == 0 || better) {
        best = v;
        best_degree = deg;
        best_cluster = cluster;
      }
    }
    append(best);
  }

  for (uint32_t step = 1; step < n; ++step) {
    Rank best;
    for (VertexId x = 0; x < n; ++x) {
      if (matched[x]) continue;
      Rank r;
      r.vertex = x;
      std::span<const VertexId> nbrs = ctx.Neighbors(x);
      std::span<const uint64_t> cluster = ctx.NeighborClusterSizes(x);
      for (size_t k = 0; k < nbrs.size(); ++k) {
        const VertexId j = nbrs[k];
        const uint64_t w = sizes ? cluster[k] : kNoCluster;
        if (matched[j]) {
          // Rule 1: edges to already-matched vertices.
          ++r.t1;
          r.w1 = std::min(r.w1, w);
        } else if (matched_nbrs[j] > 0) {
          // Rule 2: an unmatched neighbor touching the matched prefix.
          ++r.t2;
          r.w2 = std::min(r.w2, w);
        } else {
          // Rule 3: an unmatched neighbor away from the prefix.
          ++r.t3;
          r.w3 = std::min(r.w3, w);
        }
      }
      if (best.vertex == kInvalidVertex || r.BetterThan(best)) best = r;
    }
    CSCE_CHECK(best.vertex != kInvalidVertex);
    append(best.vertex);
  }
  return order;
}

}  // namespace csce
