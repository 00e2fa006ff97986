#include "plan/dag.h"

#include <gtest/gtest.h>

#include <numeric>

#include "tests/test_util.h"

namespace csce {
namespace {

// Algorithm 2 over a context built for this one call.
DependencyDag BuildDag(const Graph& p, std::span<const VertexId> order,
                       MatchVariant variant, const Ccsr* gc) {
  return DependencyDag::Build(PatternContext(p, gc, variant), order);
}

using testing::MakeGraph;

std::vector<VertexId> IdentityOrder(uint32_t n) {
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  return order;
}

TEST(DagTest, EdgeInducedDagMirrorsPatternEdges) {
  Graph p = testing::Cycle(5);
  auto order = IdentityOrder(5);
  DependencyDag dag =
      BuildDag(p, order, MatchVariant::kEdgeInduced, nullptr);
  EXPECT_EQ(dag.NumEdges(), p.NumEdges());
  // Edges are oriented earlier -> later in the order.
  EXPECT_TRUE(dag.HasPath(0, 1));
  EXPECT_FALSE(dag.HasPath(1, 0));
}

TEST(DagTest, HomomorphicSameAsEdgeInduced) {
  Rng rng(2);
  Graph p = testing::RandomGraph(rng, 7, 0.4, 2, 1, false);
  auto order = IdentityOrder(7);
  DependencyDag e =
      BuildDag(p, order, MatchVariant::kEdgeInduced, nullptr);
  DependencyDag h =
      BuildDag(p, order, MatchVariant::kHomomorphic, nullptr);
  EXPECT_EQ(e.NumEdges(), h.NumEdges());
}

TEST(DagTest, RootsAreOrderHeads) {
  Graph p = testing::Path(4);
  auto order = IdentityOrder(4);
  DependencyDag dag =
      BuildDag(p, order, MatchVariant::kEdgeInduced, nullptr);
  auto roots = dag.Roots();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0], 0u);
}

TEST(DagTest, IndependenceMatchesPaths) {
  // Star with center first: leaves are pairwise independent.
  Graph star = testing::Star(3);
  auto order = IdentityOrder(4);
  DependencyDag dag =
      BuildDag(star, order, MatchVariant::kEdgeInduced, nullptr);
  EXPECT_TRUE(dag.Independent(1, 2));
  EXPECT_TRUE(dag.Independent(2, 3));
  EXPECT_FALSE(dag.Independent(0, 1));
}

TEST(DagTest, VertexInducedAddsNegationDependencies) {
  // Path 0-1-2 matched center-first: the non-adjacent endpoint pair is
  // anchored (line 7) and, without cluster statistics, assumed
  // non-vacuous (line 8) -> a negation dependency appears.
  Graph p = testing::Path(3);
  std::vector<VertexId> order = {1, 0, 2};
  DependencyDag e =
      BuildDag(p, order, MatchVariant::kEdgeInduced, nullptr);
  DependencyDag v =
      BuildDag(p, order, MatchVariant::kVertexInduced, nullptr);
  EXPECT_EQ(e.NumEdges(), 2u);
  EXPECT_EQ(v.NumEdges(), 3u);
  EXPECT_FALSE(v.Independent(0, 2));
}

TEST(DagTest, EmptyStarClustersPruneNegation) {
  // Data graph with labels 0-1 edges only: no data edges between labels
  // 0 and 2, so the negation pair (0-labeled, 2-labeled) is vacuous.
  Graph data = MakeGraph(false, {0, 1, 2, 1}, {{0, 1, 0}, {1, 2, 0}});
  Ccsr gc = Ccsr::Build(data);
  Graph p = MakeGraph(false, {0, 1, 2}, {{0, 1, 0}, {1, 2, 0}});
  std::vector<VertexId> order = {1, 0, 2};  // center first: pair anchored
  DependencyDag v =
      BuildDag(p, order, MatchVariant::kVertexInduced, &gc);
  // Pattern pair (0,2) is non-adjacent; labels (0,2) have a data edge?
  // Data edges: (0,1) and (1,2) label pairs -> pair {0,2} has none.
  EXPECT_EQ(v.NumEdges(), 2u);
  EXPECT_TRUE(v.Independent(0, 2));
}

TEST(DagTest, AnchoringConditionLine7) {
  // Order chosen so the non-adjacent pair is reached before any
  // neighbor of the later vertex: no anchoring, no negation edge from
  // the early position.
  Graph p = testing::Path(3);  // edges 0-1, 1-2
  std::vector<VertexId> order = {0, 2, 1};
  DependencyDag v =
      BuildDag(p, order, MatchVariant::kVertexInduced, nullptr);
  // Pair (0,2): at j=1 (vertex 2), no earlier neighbor of 2 exists
  // (vertex 1 comes later), so line 7 suppresses the negation edge.
  EXPECT_TRUE(v.Independent(0, 2));
}

TEST(SceStatsTest, StarLeavesShowSce) {
  Graph star = testing::Star(4);
  auto order = IdentityOrder(5);
  DependencyDag dag =
      BuildDag(star, order, MatchVariant::kEdgeInduced, nullptr);
  SceStats stats =
      ComputeSceStats(star, order, MatchVariant::kEdgeInduced, dag);
  EXPECT_EQ(stats.pattern_vertices, 5u);
  // Leaves 2..4 each have an earlier independent leaf.
  EXPECT_EQ(stats.sce_vertices, 3u);
}

TEST(SceStatsTest, CliqueHasNoSce) {
  Graph clique = testing::Clique(4);
  auto order = IdentityOrder(4);
  DependencyDag dag =
      BuildDag(clique, order, MatchVariant::kEdgeInduced, nullptr);
  SceStats stats =
      ComputeSceStats(clique, order, MatchVariant::kEdgeInduced, dag);
  EXPECT_EQ(stats.sce_vertices, 0u);
}

TEST(SceStatsTest, DifferentLabelsAttributeToClusters) {
  // Star center 0, leaves with different labels: SCE satisfies the
  // injectivity condition through label disjointness.
  Graph star = MakeGraph(false, {0, 1, 2},
                         {{0, 1, 0}, {0, 2, 0}});
  auto order = IdentityOrder(3);
  DependencyDag dag =
      BuildDag(star, order, MatchVariant::kEdgeInduced, nullptr);
  SceStats stats =
      ComputeSceStats(star, order, MatchVariant::kEdgeInduced, dag);
  EXPECT_EQ(stats.sce_vertices, 1u);
  EXPECT_EQ(stats.cluster_attributed, 1u);
}

}  // namespace
}  // namespace csce
