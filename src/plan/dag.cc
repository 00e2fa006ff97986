#include "plan/dag.h"

#include <algorithm>

#include "util/logging.h"

namespace csce {

DependencyDag DependencyDag::Build(const PatternContext& ctx,
                                   std::span<const VertexId> order) {
  const uint32_t n = ctx.NumVertices();
  CSCE_CHECK(order.size() == n);
  DependencyDag dag;
  dag.children_ = BitMatrix(n);
  dag.parents_ = BitMatrix(n);
  dag.reach_ = BitMatrix(n);

  auto add_edge = [&dag](VertexId from, VertexId to) {
    dag.children_.Set(from, to);
    dag.parents_.Set(to, from);
    ++dag.num_edges_;
  };

  std::vector<uint32_t> pos_of(n, 0);
  for (uint32_t j = 0; j < n; ++j) pos_of[order[j]] = j;
  const bool vertex_induced = ctx.variant() == MatchVariant::kVertexInduced;
  for (uint32_t j = 1; j < n; ++j) {
    const VertexId uj = order[j];
    // anchor: the earliest position holding a pattern neighbor of uj.
    uint32_t anchor = n;
    for (VertexId w : ctx.Neighbors(uj)) {
      anchor = std::min(anchor, pos_of[w]);
      if (pos_of[w] < j) add_edge(w, uj);
    }
    if (!vertex_induced) continue;
    // Line 7: a negation dependency on position i needs uj's candidate
    // set anchored by a pattern neighbor earlier than i. Line 8: only a
    // non-empty "(x,y)*-cluster" makes it real; empty clusters make it
    // vacuous (conservative without data statistics).
    for (uint32_t i = anchor + 1; i < j; ++i) {
      const VertexId ui = order[i];
      if (!ctx.Adjacent(ui, uj) && ctx.StarNonEmpty(ui, uj)) {
        add_edge(ui, uj);
      }
    }
  }

  // Children sit at later positions, so a reverse pass over the order
  // sees every child's closure before its parents'.
  for (uint32_t j = n; j-- > 0;) {
    const VertexId u = order[j];
    dag.reach_.Set(u, u);
    dag.children_.ForEachInRow(u, [&](VertexId c) { dag.reach_.OrRow(u, c); });
  }
  return dag;
}

std::vector<VertexId> DependencyDag::RowList(const BitMatrix& m, VertexId u) {
  std::vector<VertexId> list;
  m.ForEachInRow(u, [&list](VertexId v) { list.push_back(v); });
  return list;
}

std::vector<VertexId> DependencyDag::Roots() const {
  std::vector<VertexId> roots;
  for (uint32_t v = 0; v < NumVertices(); ++v) {
    if (NumParents(v) == 0) roots.push_back(v);
  }
  return roots;
}

SceStats ComputeSceStats(const Graph& pattern,
                         std::span<const VertexId> order,
                         MatchVariant variant, const DependencyDag& dag) {
  const uint32_t n = dag.NumVertices();
  SceStats stats;
  stats.pattern_vertices = n;
  if (n == 0) return stats;

  for (uint32_t j = 1; j < n; ++j) {
    VertexId uj = order[j];
    bool has_sce = false;
    bool cluster = false;
    for (uint32_t i = 0; i < j; ++i) {
      VertexId ui = order[i];
      if (!dag.Independent(ui, uj)) continue;
      has_sce = true;
      if (variant == MatchVariant::kVertexInduced) {
        // Independence between a non-adjacent pair exists only because
        // clusters (or the anchoring condition) pruned the negation
        // dependency; attribute pairs whose star clusters are empty.
        cluster = true;
      } else if (pattern.VertexLabel(ui) != pattern.VertexLabel(uj)) {
        // Injectivity cannot interfere: candidate sets live in
        // label-disjoint clusters, so C \ {v_x} == C (Definition 1).
        cluster = true;
      }
      if (cluster) break;
    }
    if (has_sce) ++stats.sce_vertices;
    if (has_sce && cluster) ++stats.cluster_attributed;
  }
  return stats;
}

}  // namespace csce
