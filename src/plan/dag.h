#ifndef CSCE_PLAN_DAG_H_
#define CSCE_PLAN_DAG_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/variant.h"
#include "plan/pattern_context.h"
#include "util/bitset.h"

namespace csce {

/// The candidate-dependency DAG H of a pattern under a matching order
/// (paper Section V, Algorithm 2). A directed edge (u_i -> u_j) means
/// the candidate set of u_j depends on the chosen mapping of u_i.
/// Vertices are pattern vertices (not positions).
///
/// Children, parents and the transitive closure are n x n bit rows.
/// The build order is topological by construction (every edge points
/// from an earlier to a later position), so one reverse pass over it
/// computes the closure, and reachability, independence and descendant
/// counts are bit tests and popcounts.
class DependencyDag {
 public:
  /// Algorithm 2 (BuildDAG) for the context's pattern and variant.
  /// `order` is a permutation of the pattern's vertices. For
  /// edge-induced and homomorphic matching, H's edges are exactly the
  /// pattern edges oriented earlier -> later. For vertex-induced
  /// matching, negation dependencies are added between non-adjacent
  /// pairs, except where every "(x,y)*-cluster" is empty (lines 7-8) —
  /// clustering is what prunes those.
  static DependencyDag Build(const PatternContext& ctx,
                             std::span<const VertexId> order);

  uint32_t NumVertices() const { return children_.size(); }
  size_t NumEdges() const { return num_edges_; }

  bool HasEdge(VertexId u, VertexId v) const { return children_.Test(u, v); }
  uint32_t NumParents(VertexId u) const { return parents_.RowCount(u); }

  /// Ascending child (resp. parent) lists.
  std::vector<VertexId> Children(VertexId u) const {
    return RowList(children_, u);
  }
  std::vector<VertexId> Parents(VertexId u) const {
    return RowList(parents_, u);
  }
  template <typename F>
  void ForEachChild(VertexId u, F&& f) const {
    children_.ForEachInRow(u, f);
  }

  /// Vertices with no incoming dependency edge.
  std::vector<VertexId> Roots() const;

  /// True if v is reachable from u following dependency edges (u
  /// reaches itself).
  bool HasPath(VertexId u, VertexId v) const { return reach_.Test(u, v); }

  /// Distinct direct and indirect descendants of u.
  uint32_t NumDescendants(VertexId u) const { return reach_.RowCount(u) - 1; }

  /// True if u and v are mutually unreachable — the SCE condition of
  /// Definition 1.
  bool Independent(VertexId u, VertexId v) const {
    return !HasPath(u, v) && !HasPath(v, u);
  }

 private:
  static std::vector<VertexId> RowList(const BitMatrix& m, VertexId u);

  size_t num_edges_ = 0;
  BitMatrix children_;
  BitMatrix parents_;
  BitMatrix reach_;  // reflexive transitive closure
};

/// Fig. 12 statistics: how many pattern vertices exhibit SCE under the
/// given order, and how many of those owe it to cluster pruning.
struct SceStats {
  uint32_t pattern_vertices = 0;
  /// Vertices u_j with at least one earlier vertex u_i independent of
  /// them in H.
  uint32_t sce_vertices = 0;
  /// SCE vertices whose every independent earlier partner would carry a
  /// dependency if clusters had not pruned it (vertex-induced), or whose
  /// independence additionally satisfies the injectivity condition via
  /// label disjointness (edge-induced; see EXPERIMENTS.md).
  uint32_t cluster_attributed = 0;
};

SceStats ComputeSceStats(const Graph& pattern,
                         std::span<const VertexId> order,
                         MatchVariant variant, const DependencyDag& dag);

}  // namespace csce

#endif  // CSCE_PLAN_DAG_H_
