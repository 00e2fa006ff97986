#include "plan/ldsf.h"

#include <gtest/gtest.h>

#include <numeric>

#include "plan/descendants.h"
#include "tests/test_util.h"

namespace csce {
namespace {

// Algorithm 2 over a context built for this one call.
DependencyDag BuildDag(const Graph& p, std::span<const VertexId> order,
                       MatchVariant variant, const Ccsr* gc) {
  return DependencyDag::Build(PatternContext(p, gc, variant), order);
}

std::vector<VertexId> Ldsf(const DependencyDag& dag, const Graph& p,
                           const Ccsr* gc, std::span<const uint32_t> sizes) {
  return LargestDescendantFirstOrder(
      dag, PatternContext(p, gc, MatchVariant::kEdgeInduced),
      /*use_data=*/true, sizes);
}

std::vector<VertexId> IdentityOrder(uint32_t n) {
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  return order;
}

bool IsTopologicalOrder(const DependencyDag& dag,
                        const std::vector<VertexId>& order) {
  std::vector<uint32_t> pos(dag.NumVertices(), 0);
  for (uint32_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (VertexId u = 0; u < dag.NumVertices(); ++u) {
    for (VertexId c : dag.Children(u)) {
      if (pos[u] >= pos[c]) return false;
    }
  }
  return true;
}

TEST(LdsfTest, ProducesTopologicalOrder) {
  Rng rng(23);
  for (int i = 0; i < 15; ++i) {
    Graph p = testing::RandomGraph(rng, 10, 0.3, 3, 1, i % 2 == 0);
    DependencyDag dag = BuildDag(
        p, IdentityOrder(p.NumVertices()), MatchVariant::kEdgeInduced,
        nullptr);
    auto sizes = ComputeDescendantSizes(dag);
    auto order = Ldsf(dag, p, nullptr, sizes);
    ASSERT_EQ(order.size(), p.NumVertices());
    EXPECT_TRUE(IsTopologicalOrder(dag, order));
  }
}

TEST(LdsfTest, PrefersLargerDescendantSize) {
  // Dag: 0 -> {1, 2}; 1 -> {3, 4}; 2 has no children. After 0, vertex 1
  // (descendant size 2) must precede vertex 2 (size 0).
  Graph p = testing::MakeGraph(
      false, {0, 0, 0, 0, 0},
      {{0, 1, 0}, {0, 2, 0}, {1, 3, 0}, {1, 4, 0}});
  DependencyDag dag = BuildDag(p, IdentityOrder(5),
                                           MatchVariant::kEdgeInduced,
                                           nullptr);
  auto sizes = ComputeDescendantSizes(dag);
  auto order = Ldsf(dag, p, nullptr, sizes);
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 1u);
}

TEST(LdsfTest, LabelFrequencyBreaksFinalTies) {
  // Star with two leaves of different labels; equal descendant sizes
  // and no earlier-cluster difference -> rarer label goes first.
  Graph p = testing::MakeGraph(false, {0, 1, 2}, {{0, 1, 0}, {0, 2, 0}});
  Graph data = testing::MakeGraph(
      false, {0, 1, 1, 1, 2}, {{0, 1, 0}, {0, 2, 0}, {0, 3, 0}, {0, 4, 0}});
  Ccsr gc = Ccsr::Build(data);
  DependencyDag dag = BuildDag(p, IdentityOrder(3),
                                           MatchVariant::kEdgeInduced, &gc);
  auto sizes = ComputeDescendantSizes(dag);
  auto order = Ldsf(dag, p, &gc, sizes);
  ASSERT_EQ(order[0], 0u);
  // Label 2 occurs once in the data, label 1 three times; the (0,2)
  // cluster is also smaller, so vertex 2 precedes vertex 1.
  EXPECT_EQ(order[1], 2u);
}

TEST(LdsfTest, DeterministicOutput) {
  Rng rng(29);
  Graph p = testing::RandomGraph(rng, 9, 0.4, 2, 1, false);
  DependencyDag dag = BuildDag(
      p, IdentityOrder(9), MatchVariant::kEdgeInduced, nullptr);
  auto sizes = ComputeDescendantSizes(dag);
  auto a = Ldsf(dag, p, nullptr, sizes);
  auto b = Ldsf(dag, p, nullptr, sizes);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace csce
