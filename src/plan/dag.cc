#include "plan/dag.h"

#include <algorithm>
#include <queue>

#include "util/bitset.h"
#include "util/logging.h"

namespace csce {
namespace {

bool ArePatternNeighbors(const Graph& p, VertexId a, VertexId b) {
  return p.HasEdge(a, b) || (p.directed() && p.HasEdge(b, a));
}

}  // namespace

DependencyDag DependencyDag::Build(const Graph& pattern,
                                   std::span<const VertexId> order,
                                   MatchVariant variant, const Ccsr* gc) {
  const uint32_t n = pattern.NumVertices();
  CSCE_CHECK(order.size() == n);
  DependencyDag dag;
  dag.children_.resize(n);
  dag.parents_.resize(n);

  auto add_edge = [&dag](VertexId from, VertexId to) {
    dag.children_[from].push_back(to);
    dag.parents_[to].push_back(from);
    ++dag.num_edges_;
  };

  // Line 7 precomputation: anchor[j] is the earliest position holding a
  // pattern neighbor of order[j] (n if none). The anchoring condition
  // "exists k < i with Neighbor(P, order[k], order[j])" is then just
  // anchor[j] < i, keeping the vertex-induced build at O(n^2).
  std::vector<uint32_t> pos_of(n, 0);
  for (uint32_t j = 0; j < n; ++j) pos_of[order[j]] = j;
  std::vector<uint32_t> anchor(n, n);
  for (VertexId u = 0; u < n; ++u) {
    auto consider = [&](VertexId w) {
      anchor[pos_of[u]] = std::min(anchor[pos_of[u]], pos_of[w]);
    };
    for (const Neighbor& nb : pattern.OutNeighbors(u)) consider(nb.v);
    if (pattern.directed()) {
      for (const Neighbor& nb : pattern.InNeighbors(u)) consider(nb.v);
    }
  }

  for (uint32_t j = 1; j < n; ++j) {
    for (uint32_t i = 0; i < j; ++i) {
      if (ArePatternNeighbors(pattern, order[i], order[j])) {
        add_edge(order[i], order[j]);
      } else if (variant == MatchVariant::kVertexInduced) {
        // Line 7: the candidate set of order[j] must already be
        // anchored by some pattern neighbor earlier than position i.
        if (anchor[j] >= i) continue;
        // Line 8: only a non-empty "(x,y)*-cluster" creates a real
        // negation dependency; empty clusters make it vacuous
        // (conservative without data statistics).
        if (gc == nullptr ||
            gc->HasStarEdges(pattern.VertexLabel(order[i]),
                             pattern.VertexLabel(order[j]))) {
          add_edge(order[i], order[j]);
        }
      }
    }
  }

  for (uint32_t v = 0; v < n; ++v) {
    std::sort(dag.children_[v].begin(), dag.children_[v].end());
    std::sort(dag.parents_[v].begin(), dag.parents_[v].end());
  }
  return dag;
}

std::vector<VertexId> DependencyDag::Roots() const {
  std::vector<VertexId> roots;
  for (uint32_t v = 0; v < NumVertices(); ++v) {
    if (parents_[v].empty()) roots.push_back(v);
  }
  return roots;
}

bool DependencyDag::HasPath(VertexId u, VertexId v) const {
  if (u == v) return true;
  std::vector<bool> seen(NumVertices(), false);
  std::queue<VertexId> frontier;
  frontier.push(u);
  seen[u] = true;
  while (!frontier.empty()) {
    VertexId x = frontier.front();
    frontier.pop();
    for (VertexId c : children_[x]) {
      if (c == v) return true;
      if (!seen[c]) {
        seen[c] = true;
        frontier.push(c);
      }
    }
  }
  return false;
}

SceStats ComputeSceStats(const Graph& pattern,
                         std::span<const VertexId> order,
                         MatchVariant variant, const DependencyDag& dag) {
  const uint32_t n = dag.NumVertices();
  SceStats stats;
  stats.pattern_vertices = n;
  if (n == 0) return stats;

  // Transitive closure via reverse-topological dynamic programming:
  // reach[u] = descendants of u (including u).
  std::vector<uint32_t> indegree(n, 0);
  for (uint32_t v = 0; v < n; ++v) {
    indegree[v] = static_cast<uint32_t>(dag.Parents(v).size());
  }
  std::vector<VertexId> topo;
  topo.reserve(n);
  std::queue<VertexId> ready;
  for (uint32_t v = 0; v < n; ++v) {
    if (indegree[v] == 0) ready.push(v);
  }
  while (!ready.empty()) {
    VertexId v = ready.front();
    ready.pop();
    topo.push_back(v);
    for (VertexId c : dag.Children(v)) {
      if (--indegree[c] == 0) ready.push(c);
    }
  }
  CSCE_CHECK(topo.size() == n);

  std::vector<DynamicBitset> reach(n, DynamicBitset(n));
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    VertexId v = *it;
    reach[v].Set(v);
    for (VertexId c : dag.Children(v)) reach[v].OrWith(reach[c]);
  }
  auto independent = [&reach](VertexId a, VertexId b) {
    return !reach[a].Test(b) && !reach[b].Test(a);
  };

  for (uint32_t j = 1; j < n; ++j) {
    VertexId uj = order[j];
    bool has_sce = false;
    bool cluster = false;
    for (uint32_t i = 0; i < j; ++i) {
      VertexId ui = order[i];
      if (!independent(ui, uj)) continue;
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
    }
    if (has_sce) ++stats.sce_vertices;
    if (has_sce && cluster) ++stats.cluster_attributed;
  }
  return stats;
}

}  // namespace csce
