#include "plan/descendants.h"

#include <gtest/gtest.h>

#include <numeric>

#include "tests/test_util.h"

namespace csce {
namespace {

std::vector<VertexId> IdentityOrder(uint32_t n) {
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  return order;
}

DependencyDag DagOf(const Graph& p) {
  return DependencyDag::Build(
      PatternContext(p, nullptr, MatchVariant::kEdgeInduced),
      IdentityOrder(p.NumVertices()));
}

TEST(DescendantsTest, Chain) {
  // 0 -> 1 -> 2 -> 3: sizes 3, 2, 1, 0.
  DependencyDag dag = DagOf(testing::Path(4));
  std::vector<uint32_t> expected = {3, 2, 1, 0};
  EXPECT_EQ(ComputeDescendantSizes(dag), expected);
}

TEST(DescendantsTest, StarCenterFirst) {
  DependencyDag dag = DagOf(testing::Star(4));
  auto sizes = ComputeDescendantSizes(dag);
  EXPECT_EQ(sizes[0], 4u);
  for (int leaf = 1; leaf <= 4; ++leaf) EXPECT_EQ(sizes[leaf], 0u);
}

TEST(DescendantsTest, DiamondSharedDescendantCountedOnce) {
  // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 (a 4-cycle matched in id order).
  DependencyDag dag = DagOf(testing::MakeGraph(
      false, {0, 0, 0, 0}, {{0, 1, 0}, {0, 2, 0}, {1, 3, 0}, {2, 3, 0}}));
  auto sizes = ComputeDescendantSizes(dag);
  EXPECT_EQ(sizes[0], 3u);  // 1, 2, 3 — not 4 despite two paths to 3
  EXPECT_EQ(sizes[1], 1u);
  EXPECT_EQ(sizes[2], 1u);
  EXPECT_EQ(sizes[3], 0u);
}

TEST(DescendantsTest, CliqueIsTotalOrder) {
  DependencyDag dag = DagOf(testing::Clique(5));
  auto sizes = ComputeDescendantSizes(dag);
  for (uint32_t v = 0; v < 5; ++v) EXPECT_EQ(sizes[v], 4u - v);
}

TEST(DescendantsTest, AgreesWithReachabilityOnRandomDags) {
  Rng rng(17);
  for (int i = 0; i < 10; ++i) {
    Graph p = testing::RandomGraph(rng, 9, 0.35, 2, 1, false);
    DependencyDag dag = DagOf(p);
    auto sizes = ComputeDescendantSizes(dag);
    for (VertexId u = 0; u < p.NumVertices(); ++u) {
      uint32_t reachable = 0;
      for (VertexId v = 0; v < p.NumVertices(); ++v) {
        if (u != v && dag.HasPath(u, v)) ++reachable;
      }
      EXPECT_EQ(sizes[u], reachable) << "vertex " << u;
    }
  }
}

}  // namespace
}  // namespace csce
