#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "graph/graph_builder.h"
#include "graph/graph_stats.h"
#include "graph/variant.h"
#include "tests/test_util.h"

namespace csce {
namespace {

using testing::MakeGraph;

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder b(false);
  Graph g;
  ASSERT_TRUE(b.Build(&g).ok());
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(GraphBuilderTest, RejectsSelfLoop) {
  GraphBuilder b(true);
  b.AddVertex(0);
  b.AddEdge(0, 0);
  Graph g;
  EXPECT_EQ(b.Build(&g).code(), StatusCode::kInvalidArgument);
}

TEST(GraphBuilderTest, RejectsOutOfRangeEndpoint) {
  GraphBuilder b(false);
  b.AddVertex(0);
  b.AddEdge(0, 5);
  Graph g;
  EXPECT_EQ(b.Build(&g).code(), StatusCode::kInvalidArgument);
}

TEST(GraphBuilderTest, DeduplicatesParallelEdges) {
  Graph g = MakeGraph(false, {0, 0}, {{0, 1, 0}, {0, 1, 0}, {1, 0, 0}});
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(GraphBuilderTest, DifferentEdgeLabelsKept) {
  Graph g = MakeGraph(true, {0, 0}, {{0, 1, 1}, {0, 1, 2}});
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1, 1));
  EXPECT_TRUE(g.HasEdge(0, 1, 2));
  EXPECT_FALSE(g.HasEdge(0, 1, 3));
}

TEST(GraphBuilderTest, AddVerticesBulk) {
  GraphBuilder b(false);
  VertexId first = b.AddVertices(5, 7);
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(b.NumVertices(), 5u);
  Graph g;
  ASSERT_TRUE(b.Build(&g).ok());
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(g.VertexLabel(v), 7u);
}

TEST(GraphTest, UndirectedAdjacencyIsSymmetric) {
  Graph g = MakeGraph(false, {0, 1, 2}, {{0, 1, 0}, {1, 2, 0}});
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_EQ(g.OutNeighbors(1).size(), 2u);
  EXPECT_EQ(g.InNeighbors(1).size(), 2u);
  EXPECT_EQ(g.Degree(1), 2u);
}

TEST(GraphTest, DirectedAdjacencySeparatesDirections) {
  Graph g = MakeGraph(true, {0, 1}, {{0, 1, 0}});
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdgeAnyDirection(1, 0));
  EXPECT_EQ(g.OutDegree(0), 1u);
  EXPECT_EQ(g.InDegree(0), 0u);
  EXPECT_EQ(g.InDegree(1), 1u);
  EXPECT_EQ(g.Degree(0), 1u);
}

TEST(GraphTest, ForEachEdgeUndirectedVisitsOnce) {
  Graph g = testing::Cycle(5);
  size_t count = 0;
  g.ForEachEdge([&count](const Edge& e) {
    EXPECT_LT(e.src, e.dst);
    ++count;
  });
  EXPECT_EQ(count, 5u);
}

TEST(GraphTest, ForEachEdgeDirectedVisitsAllArcs) {
  Graph g = MakeGraph(true, {0, 0}, {{0, 1, 0}, {1, 0, 0}});
  EXPECT_EQ(g.Edges().size(), 2u);
}

TEST(GraphTest, LabelCounts) {
  Graph unlabeled = testing::Path(3);
  EXPECT_EQ(unlabeled.VertexLabelCount(), 0u);
  EXPECT_FALSE(unlabeled.IsHeterogeneous());

  Graph labeled = MakeGraph(false, {1, 2, 1}, {{0, 1, 0}});
  EXPECT_EQ(labeled.VertexLabelCount(), 2u);
  EXPECT_TRUE(labeled.IsHeterogeneous());

  Graph elabeled = MakeGraph(false, {0, 0}, {{0, 1, 3}});
  EXPECT_EQ(elabeled.EdgeLabelCount(), 1u);
}

TEST(GraphTest, LabelFrequency) {
  Graph g = MakeGraph(false, {5, 5, 2}, {{0, 1, 0}});
  EXPECT_EQ(g.LabelFrequency(5), 2u);
  EXPECT_EQ(g.LabelFrequency(2), 1u);
  EXPECT_EQ(g.LabelFrequency(9), 0u);
}

TEST(GraphTest, NeighborsSortedUnique) {
  Graph g = MakeGraph(false, {0, 0, 0, 0},
                      {{0, 3, 0}, {0, 1, 0}, {0, 2, 0}});
  auto nbrs = g.OutNeighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(GraphStatsTest, MatchesTableConventions) {
  Graph g = MakeGraph(false, {0, 0, 0}, {{0, 1, 0}, {1, 2, 0}});
  GraphStats s = ComputeStats(g);
  EXPECT_FALSE(s.directed);
  EXPECT_EQ(s.vertex_count, 3u);
  EXPECT_EQ(s.edge_count, 2u);
  EXPECT_EQ(s.label_count, 0u);  // unlabeled reports 0
  EXPECT_DOUBLE_EQ(s.average_degree, 4.0 / 3.0);
  EXPECT_EQ(s.max_in_degree, 2u);
  EXPECT_EQ(s.max_out_degree, 2u);
}

TEST(GraphStatsTest, DirectedDegrees) {
  Graph g = MakeGraph(true, {0, 0, 0}, {{0, 2, 0}, {1, 2, 0}});
  GraphStats s = ComputeStats(g);
  EXPECT_TRUE(s.directed);
  EXPECT_EQ(s.max_in_degree, 2u);
  EXPECT_EQ(s.max_out_degree, 1u);
}

TEST(GraphStatsTest, FormatsRows) {
  GraphStats s = ComputeStats(testing::Clique(4));
  std::string row = FormatStatsRow("K4", s);
  EXPECT_NE(row.find("K4"), std::string::npos);
  EXPECT_NE(row.find("6"), std::string::npos);  // 6 edges
  EXPECT_FALSE(StatsHeader().empty());
}

TEST(VariantTest, NamesAndAliasesParseBack) {
  const std::pair<const char*, MatchVariant> aliases[] = {
      {"edge", MatchVariant::kEdgeInduced},
      {"vertex", MatchVariant::kVertexInduced},
      {"induced", MatchVariant::kVertexInduced},
      {"hom", MatchVariant::kHomomorphic},
  };
  for (const auto& [name, want] : aliases) {
    MatchVariant got = MatchVariant::kEdgeInduced;
    ASSERT_TRUE(ParseVariantName(name, &got)) << name;
    EXPECT_EQ(got, want) << name;
  }
  for (MatchVariant v :
       {MatchVariant::kEdgeInduced, MatchVariant::kVertexInduced,
        MatchVariant::kHomomorphic}) {
    MatchVariant got = MatchVariant::kEdgeInduced;
    ASSERT_TRUE(ParseVariantName(VariantName(v), &got)) << VariantName(v);
    EXPECT_EQ(got, v) << VariantName(v);
  }
  MatchVariant untouched = MatchVariant::kHomomorphic;
  for (const char* bad : {"", "unknown", "Edge", "edge-"}) {
    EXPECT_FALSE(ParseVariantName(bad, &untouched)) << bad;
  }
  EXPECT_EQ(untouched, MatchVariant::kHomomorphic);
}

}  // namespace
}  // namespace csce
