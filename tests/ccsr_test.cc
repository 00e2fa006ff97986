#include "ccsr/ccsr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <vector>

#include "ccsr/compressed_row.h"
#include "tests/test_util.h"

namespace csce {
namespace {

using testing::MakeGraph;
using testing::RandomGraph;

TEST(ClusterIdTest, UndirectedCanonicalizesLabels) {
  EXPECT_EQ(ClusterId::Undirected(3, 1, 0), ClusterId::Undirected(1, 3, 0));
  EXPECT_NE(ClusterId::Undirected(1, 3, 0), ClusterId::Undirected(1, 3, 1));
}

TEST(ClusterIdTest, DirectedKeepsOrientation) {
  EXPECT_NE(ClusterId::Directed(1, 2, 0), ClusterId::Directed(2, 1, 0));
}

TEST(ClusterIdTest, ToStringMentionsNull) {
  EXPECT_NE(ClusterId::Directed(1, 2, kNoLabel).ToString().find("NULL"),
            std::string::npos);
}

TEST(CcsrTest, UnlabeledGraphHasOneCluster) {
  Graph g = testing::Clique(4);
  Ccsr gc = Ccsr::Build(g);
  EXPECT_EQ(gc.NumClusters(), 1u);
  EXPECT_EQ(gc.clusters()[0].num_edges, 6u);
}

TEST(CcsrTest, ClustersPartitionEdges) {
  Rng rng(3);
  for (bool directed : {false, true}) {
    Graph g = RandomGraph(rng, 30, 0.2, 4, 2, directed);
    Ccsr gc = Ccsr::Build(g);
    uint64_t total = 0;
    for (const CompressedCluster& c : gc.clusters()) total += c.num_edges;
    // Every edge in exactly one cluster.
    EXPECT_EQ(total, g.NumEdges());
    // Each edge stored twice: both CSR directions (directed) or both
    // orientations in one CSR (undirected).
    uint64_t arcs = 0;
    for (const CompressedCluster& c : gc.clusters()) {
      arcs += c.out_cols.size() + c.in_cols.size();
    }
    EXPECT_EQ(arcs, 2 * g.NumEdges());
  }
}

TEST(CcsrTest, DirectedClusterHasBothDirections) {
  Graph g = MakeGraph(true, {1, 2}, {{0, 1, 5}});
  Ccsr gc = Ccsr::Build(g);
  const CompressedCluster* c = gc.Find(ClusterId::Directed(1, 2, 5));
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->num_edges, 1u);
  EXPECT_EQ(c->out_cols.size(), 1u);
  EXPECT_EQ(c->in_cols.size(), 1u);
  EXPECT_EQ(gc.Find(ClusterId::Directed(2, 1, 5)), nullptr);
}

TEST(CcsrTest, ClusterSizeLookupWithoutDecompression) {
  Graph g = MakeGraph(false, {1, 2, 2}, {{0, 1, 0}, {0, 2, 0}});
  Ccsr gc = Ccsr::Build(g);
  EXPECT_EQ(gc.ClusterSize(ClusterId::Undirected(1, 2, 0)), 2u);
  EXPECT_EQ(gc.ClusterSize(ClusterId::Undirected(2, 2, 0)), 0u);
}

TEST(CcsrTest, StarClustersFindAllLabelPairs) {
  Graph g = MakeGraph(true, {1, 2}, {{0, 1, 5}, {0, 1, 6}, {1, 0, 7}});
  Ccsr gc = Ccsr::Build(g);
  // Three clusters between labels {1,2}: two edge labels one way plus
  // one reversed.
  EXPECT_EQ(gc.StarClusters(1, 2).size(), 3u);
  EXPECT_EQ(gc.StarClusters(2, 1).size(), 3u);  // order-insensitive
  EXPECT_TRUE(gc.StarClusters(1, 9).empty());
}

TEST(CcsrTest, CarriesVertexLabels) {
  Graph g = MakeGraph(false, {4, 4, 9}, {{0, 2, 0}});
  Ccsr gc = Ccsr::Build(g);
  EXPECT_EQ(gc.NumVertices(), 3u);
  EXPECT_EQ(gc.VertexLabel(2), 9u);
  EXPECT_EQ(gc.LabelFrequency(4), 2u);
  EXPECT_EQ(gc.LabelFrequency(9), 1u);
}

TEST(CcsrTest, PaperFig4ClusterContents) {
  // The (A,B,NULL)-cluster of Fig. 4: v1 -> {v2, v6} and v4 -> {v5}.
  // A = label 1, B = label 2; ids: v1=0, v2=1, v4=2, v5=3, v6=4.
  Graph g = MakeGraph(true, {1, 2, 1, 2, 2},
                      {{0, 1, 0}, {0, 4, 0}, {2, 3, 0}});
  Ccsr gc = Ccsr::Build(g);
  QueryClusters qc;
  Graph pattern = MakeGraph(true, {1, 2}, {{0, 1, 0}});
  ASSERT_TRUE(
      ReadClusters(gc, pattern, MatchVariant::kEdgeInduced, &qc).ok());
  const ClusterView* view = qc.Find(ClusterId::Directed(1, 2, 0));
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->NumEdges(), 3u);
  auto out_v1 = view->Out(0);
  ASSERT_EQ(out_v1.size(), 2u);
  EXPECT_EQ(out_v1[0], 1u);
  EXPECT_EQ(out_v1[1], 4u);
  EXPECT_EQ(view->In(1).size(), 1u);
  EXPECT_EQ(view->In(1)[0], 0u);
  EXPECT_TRUE(view->HasArc(2, 3));
  EXPECT_FALSE(view->HasArc(3, 2));
}

TEST(CcsrTest, InMemoryViewsAliasClusterColumns) {
  // Same graph as Fig. 4: a view of an in-memory index borrows the
  // cluster's column arrays instead of copying them.
  Graph g = MakeGraph(true, {1, 2, 1, 2, 2},
                      {{0, 1, 0}, {0, 4, 0}, {2, 3, 0}});
  Ccsr gc = Ccsr::Build(g);
  QueryClusters qc;
  Graph pattern = MakeGraph(true, {1, 2}, {{0, 1, 0}});
  ASSERT_TRUE(
      ReadClusters(gc, pattern, MatchVariant::kEdgeInduced, &qc).ok());
  const ClusterId id = ClusterId::Directed(1, 2, 0);
  const CompressedCluster* cluster = gc.Find(id);
  const ClusterView* view = qc.Find(id);
  ASSERT_NE(cluster, nullptr);
  ASSERT_NE(view, nullptr);
  auto inside = [](std::span<const VertexId> row,
                   std::span<const VertexId> cols) {
    return !row.empty() && row.data() >= cols.data() &&
           row.data() + row.size() <= cols.data() + cols.size();
  };
  for (VertexId v : {0u, 2u}) {
    EXPECT_TRUE(inside(view->Out(v), cluster->out_cols.span())) << v;
  }
  for (VertexId v : {1u, 3u, 4u}) {
    EXPECT_TRUE(inside(view->In(v), cluster->in_cols.span())) << v;
  }
}

TEST(ReadClustersTest, LoadsOnlyPatternEdgeClusters) {
  Rng rng(9);
  Graph g = RandomGraph(rng, 40, 0.2, 3, 1, false);
  Ccsr gc = Ccsr::Build(g);
  Graph pattern = MakeGraph(false, {0, 1}, {{0, 1, 0}});
  QueryClusters qc;
  ASSERT_TRUE(
      ReadClusters(gc, pattern, MatchVariant::kEdgeInduced, &qc).ok());
  EXPECT_LE(qc.NumViews(), 1u);
  if (qc.NumViews() == 1) {
    EXPECT_NE(qc.Find(ClusterId::Undirected(0, 1, 0)), nullptr);
  }
}

TEST(ReadClustersTest, VertexInducedLoadsNegationClusters) {
  Rng rng(10);
  Graph g = RandomGraph(rng, 40, 0.3, 3, 1, false);
  Ccsr gc = Ccsr::Build(g);
  // Path pattern: the endpoints are unconnected -> negation clusters.
  Graph pattern = MakeGraph(false, {0, 1, 2}, {{0, 1, 0}, {1, 2, 0}});
  QueryClusters edge_qc;
  QueryClusters vi_qc;
  ASSERT_TRUE(
      ReadClusters(gc, pattern, MatchVariant::kEdgeInduced, &edge_qc).ok());
  ASSERT_TRUE(
      ReadClusters(gc, pattern, MatchVariant::kVertexInduced, &vi_qc).ok());
  EXPECT_GE(vi_qc.NumViews(), edge_qc.NumViews());
  EXPECT_FALSE(vi_qc.Star(0, 2).empty());
  EXPECT_TRUE(edge_qc.Star(0, 2).empty());
}

TEST(ReadClustersTest, RejectsDirectednessMismatch) {
  Graph g = MakeGraph(false, {0, 0}, {{0, 1, 0}});
  Ccsr gc = Ccsr::Build(g);
  Graph pattern = MakeGraph(true, {0, 0}, {{0, 1, 0}});
  QueryClusters qc;
  EXPECT_EQ(
      ReadClusters(gc, pattern, MatchVariant::kEdgeInduced, &qc).code(),
      StatusCode::kInvalidArgument);
}

TEST(CcsrTest, RowIndexStorageBounded) {
  // Paper Section IV: total compressed I_R length is at most 4|E|
  // integers (2 per stored edge, each edge stored twice).
  Rng rng(20);
  Graph g = RandomGraph(rng, 200, 0.05, 8, 2, true);
  Ccsr gc = Ccsr::Build(g);
  size_t total_runs = 0;
  for (const CompressedCluster& c : gc.clusters()) {
    total_runs += c.out_rows.num_runs() + c.in_rows.num_runs();
  }
  // Each run is (value, count); bound from the paper plus one run per
  // CSR for the leading zeros.
  EXPECT_LE(total_runs, 4 * g.NumEdges() + 2 * gc.NumClusters());
}

// One cluster direction as the earlier Ccsr::Build made it: sort the
// arcs, prefix-sum a dense |V|+1 row array, compress it. The oracle for
// the run-emitting build below.
struct DenseBuiltDirection {
  CompressedRowIndex rows;
  std::vector<VertexId> cols;
};

DenseBuiltDirection DenseBuild(uint32_t n, std::vector<Edge> arcs) {
  std::sort(arcs.begin(), arcs.end());
  std::vector<uint64_t> row(n + 1, 0);
  DenseBuiltDirection d;
  for (const Edge& a : arcs) {
    ++row[a.src + 1];
    d.cols.push_back(a.dst);
  }
  for (uint32_t v = 0; v < n; ++v) row[v + 1] += row[v];
  d.rows = CompressedRowIndex::Compress(row);
  return d;
}

void ExpectDirectionEquals(const CompressedRowIndex& rows,
                           std::span<const VertexId> cols,
                           const DenseBuiltDirection& want,
                           const std::string& where) {
  EXPECT_EQ(rows.uncompressed_length(), want.rows.uncompressed_length())
      << where;
  EXPECT_TRUE(std::ranges::equal(rows.runs(), want.rows.runs())) << where;
  EXPECT_TRUE(std::ranges::equal(cols, want.cols)) << where;
}

// Asserts that every cluster direction of Ccsr::Build(g) equals the
// dense-row construction, cluster for cluster, and that it validates.
void ExpectBuildMatchesDenseOracle(const Graph& g) {
  std::map<ClusterId, std::vector<Edge>> buckets;
  g.ForEachEdge([&](const Edge& e) {
    const Label ls = g.VertexLabel(e.src);
    const Label ld = g.VertexLabel(e.dst);
    if (g.directed()) {
      buckets[ClusterId::Directed(ls, ld, e.elabel)].push_back(e);
    } else {
      auto& bucket = buckets[ClusterId::Undirected(ls, ld, e.elabel)];
      bucket.push_back(e);
      bucket.push_back(Edge{e.dst, e.src, e.elabel});
    }
  });
  const Ccsr gc = Ccsr::Build(g);
  ASSERT_EQ(gc.NumClusters(), buckets.size());
  size_t slot = 0;
  for (const auto& [id, arcs] : buckets) {
    const CompressedCluster& c = gc.clusters()[slot++];
    ASSERT_EQ(c.id, id);
    EXPECT_EQ(c.num_edges, id.directed ? arcs.size() : arcs.size() / 2);
    ExpectDirectionEquals(c.out_rows, c.out_cols.span(),
                          DenseBuild(g.NumVertices(), arcs),
                          id.ToString() + " outgoing");
    if (id.directed) {
      std::vector<Edge> reversed;
      for (const Edge& a : arcs) {
        reversed.push_back(Edge{a.dst, a.src, a.elabel});
      }
      ExpectDirectionEquals(c.in_rows, c.in_cols.span(),
                            DenseBuild(g.NumVertices(), reversed),
                            id.ToString() + " incoming");
    } else {
      EXPECT_EQ(c.in_rows.num_runs(), 0u);
      EXPECT_TRUE(c.in_cols.empty());
    }
  }
  EXPECT_TRUE(gc.Validate().ok()) << gc.Validate().ToString();
}

// Seeded random graphs with 1-3 edge labels. Vertex label 3 is a class
// with no arcs; vertex 0 and vertex |V|-1 get arcs or stay isolated in
// all four combinations.
TEST(CcsrBuildTest, RunsAndColumnsMatchDenseRowConstruction) {
  for (bool directed : {false, true}) {
    for (uint32_t elabels = 1; elabels <= 3; ++elabels) {
      for (int ends = 0; ends < 4; ++ends) {
        const bool first_has_arcs = (ends & 1) != 0;
        const bool last_has_arcs = (ends & 2) != 0;
        Rng rng(1000 + 100 * directed + 10 * elabels + ends);
        const uint32_t n = 4 + static_cast<uint32_t>(rng.Uniform(60));
        std::vector<Label> vlabels(n);
        for (Label& l : vlabels) l = static_cast<Label>(rng.Uniform(4));
        vlabels[1] = 0;  // at least one vertex outside the arc-less class
        auto may_have_arcs = [&](VertexId v) {
          if (v == 0) return first_has_arcs;
          if (v == n - 1) return last_has_arcs;
          return vlabels[v] != 3;
        };
        if (first_has_arcs) vlabels[0] = 1;
        if (last_has_arcs) vlabels[n - 1] = 2;
        std::vector<Edge> edges;
        auto elabel = [&] { return static_cast<Label>(rng.Uniform(elabels)); };
        for (VertexId a = 0; a < n; ++a) {
          for (VertexId b = 0; b < n; ++b) {
            if (a == b || !may_have_arcs(a) || !may_have_arcs(b)) continue;
            if (rng.Bernoulli(0.15)) edges.push_back(Edge{a, b, elabel()});
          }
        }
        // Pin the end vertices' arcs in both directions.
        if (first_has_arcs) {
          edges.push_back(Edge{0, 1, elabel()});
          edges.push_back(Edge{1, 0, elabel()});
        }
        if (last_has_arcs) {
          edges.push_back(Edge{n - 1, 1, elabel()});
          edges.push_back(Edge{1, n - 1, elabel()});
        }
        SCOPED_TRACE(::testing::Message()
                     << "directed=" << directed << " elabels=" << elabels
                     << " ends=" << ends << " n=" << n);
        const Graph g = MakeGraph(directed, vlabels, edges);
        ASSERT_EQ(g.OutDegree(0) > 0, first_has_arcs);
        ASSERT_EQ(g.OutDegree(n - 1) > 0, last_has_arcs);
        ExpectBuildMatchesDenseOracle(g);
      }
    }
  }
}

TEST(CcsrBuildTest, EdgelessGraphsMatchDenseRowConstruction) {
  for (bool directed : {false, true}) {
    ExpectBuildMatchesDenseOracle(MakeGraph(directed, {}, {}));
    ExpectBuildMatchesDenseOracle(MakeGraph(directed, {0, 1, 2}, {}));
  }
}

}  // namespace
}  // namespace csce
