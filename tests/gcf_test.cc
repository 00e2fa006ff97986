#include "plan/gcf.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/subgraph.h"
#include "tests/test_util.h"

namespace csce {
namespace {

std::vector<VertexId> Gcf(const Graph& p, const Ccsr* gc,
                          const GcfOptions& options) {
  return GreatestConstraintFirstOrder(
      PatternContext(p, gc, MatchVariant::kEdgeInduced), options);
}

using testing::MakeGraph;

bool IsPermutation(const std::vector<VertexId>& order, uint32_t n) {
  if (order.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (VertexId v : order) {
    if (v >= n || seen[v]) return false;
    seen[v] = true;
  }
  return true;
}

// Every non-first vertex of a connected pattern should attach to the
// prefix (GCF rule 1 dominates for connected patterns).
bool PrefixConnected(const Graph& p, const std::vector<VertexId>& order) {
  std::vector<bool> in_prefix(p.NumVertices(), false);
  in_prefix[order[0]] = true;
  for (size_t i = 1; i < order.size(); ++i) {
    VertexId u = order[i];
    bool attached = false;
    for (const Neighbor& n : p.OutNeighbors(u)) attached |= in_prefix[n.v];
    if (p.directed()) {
      for (const Neighbor& n : p.InNeighbors(u)) attached |= in_prefix[n.v];
    }
    if (!attached) return false;
    in_prefix[u] = true;
  }
  return true;
}

TEST(GcfTest, ProducesPermutation) {
  Rng rng(4);
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Graph p = testing::RandomGraph(rng, 8, 0.4, 3, 1, seed % 2 == 0);
    auto order = Gcf(p, nullptr, GcfOptions{});
    EXPECT_TRUE(IsPermutation(order, p.NumVertices()));
  }
}

TEST(GcfTest, StartsAtHighestDegree) {
  Graph star = testing::Star(5);  // center 0 has degree 5
  auto order = Gcf(star, nullptr, GcfOptions{});
  EXPECT_EQ(order[0], 0u);
}

TEST(GcfTest, ConnectedPatternsGetConnectedPrefix) {
  Rng rng(6);
  for (int i = 0; i < 20; ++i) {
    Graph p = testing::RandomGraph(rng, 9, 0.5, 2, 1, false);
    if (!IsConnected(p)) continue;
    auto order = Gcf(p, nullptr, GcfOptions{});
    EXPECT_TRUE(PrefixConnected(p, order));
  }
}

TEST(GcfTest, DeterministicWithoutData) {
  Rng rng(8);
  Graph p = testing::RandomGraph(rng, 10, 0.3, 2, 1, false);
  auto a = Gcf(p, nullptr, GcfOptions{});
  auto b = Gcf(p, nullptr, GcfOptions{});
  EXPECT_EQ(a, b);
}

TEST(GcfTest, ClusterTieBreakPrefersRareEdges) {
  // Pattern: two triangles sharing vertex 0; labels make one triangle's
  // edges rare in the data graph.
  Graph pattern = MakeGraph(false, {0, 1, 1, 2, 2},
                            {{0, 1, 0}, {0, 2, 0}, {1, 2, 0},
                             {0, 3, 0}, {0, 4, 0}, {3, 4, 0}});
  // Data: many label-1 edges, a single label-2 pair.
  GraphBuilder b(false);
  VertexId hub = b.AddVertex(0);
  for (int i = 0; i < 20; ++i) {
    VertexId x = b.AddVertex(1);
    VertexId y = b.AddVertex(1);
    b.AddEdge(hub, x);
    b.AddEdge(hub, y);
    b.AddEdge(x, y);
  }
  VertexId r1 = b.AddVertex(2);
  VertexId r2 = b.AddVertex(2);
  b.AddEdge(hub, r1);
  b.AddEdge(hub, r2);
  b.AddEdge(r1, r2);
  Graph data;
  ASSERT_TRUE(b.Build(&data).ok());
  Ccsr gc = Ccsr::Build(data);

  GcfOptions with;
  with.use_cluster_tiebreak = true;
  auto order = Gcf(pattern, &gc, with);
  EXPECT_EQ(order[0], 0u);  // degree-4 hub first either way
  // With cluster statistics, the rare label-2 triangle (vertices 3, 4)
  // must be matched before the frequent label-1 one.
  auto pos = [&order](VertexId v) {
    return std::find(order.begin(), order.end(), v) - order.begin();
  };
  EXPECT_LT(pos(3), pos(1));
  EXPECT_LT(pos(4), pos(2));
}

}  // namespace
}  // namespace csce
