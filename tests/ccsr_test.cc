#include "ccsr/ccsr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "ccsr/ccsr_io.h"
#include "ccsr/ccsr_mmap.h"
#include "tests/ccsr_artifact_util.h"
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
      arcs += c.out.cols.size() + c.in.cols.size();
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
  EXPECT_EQ(c->out.cols.size(), 1u);
  EXPECT_EQ(c->in.cols.size(), 1u);
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
  const CompressedCluster* view = qc.Find(ClusterId::Directed(1, 2, 0));
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->num_edges, 3u);
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
  // Same graph as Fig. 4: a read hands out the index's own cluster
  // record, whose rows lie inside the cluster's column arrays.
  Graph g = MakeGraph(true, {1, 2, 1, 2, 2},
                      {{0, 1, 0}, {0, 4, 0}, {2, 3, 0}});
  Ccsr gc = Ccsr::Build(g);
  QueryClusters qc;
  Graph pattern = MakeGraph(true, {1, 2}, {{0, 1, 0}});
  ASSERT_TRUE(
      ReadClusters(gc, pattern, MatchVariant::kEdgeInduced, &qc).ok());
  const ClusterId id = ClusterId::Directed(1, 2, 0);
  const CompressedCluster* cluster = gc.Find(id);
  const CompressedCluster* view = qc.Find(id);
  ASSERT_NE(cluster, nullptr);
  EXPECT_EQ(view, cluster);
  auto inside = [](std::span<const VertexId> row,
                   std::span<const VertexId> cols) {
    return !row.empty() && row.data() >= cols.data() &&
           row.data() + row.size() <= cols.data() + cols.size();
  };
  for (VertexId v : {0u, 2u}) {
    EXPECT_TRUE(inside(view->Out(v), cluster->out.cols)) << v;
  }
  for (VertexId v : {1u, 3u, 4u}) {
    EXPECT_TRUE(inside(view->In(v), cluster->in.cols)) << v;
  }
}

// Copies share their storage and mutation is copy-on-write: a copy
// taken before InsertEdges keeps its clusters and tables, and the
// arrays a rebuild replaced are freed once no copy holds them.
TEST(CcsrTest, MutationIsCopyOnWrite) {
  Ccsr gc = Ccsr::Build(MakeGraph(true, {0, 1, 0}, {{0, 1, 0}}));
  Ccsr copy = gc;
  const std::string before = testing::CcsrV2Bytes(copy);
  ASSERT_TRUE(gc.InsertEdges({{2, 1, 0}}).ok());
  EXPECT_EQ(gc.NumEdges(), 2u);
  EXPECT_EQ(copy.NumEdges(), 1u);
  EXPECT_TRUE(copy.Validate().ok());
  EXPECT_TRUE(testing::CcsrV2Bytes(copy) == before);
  const std::weak_ptr<const void> replaced = copy.clusters()[0].storage;
  copy = Ccsr();
  // A built cluster's arrays are its own; a mapped one's (the
  // CSCE_CCSR_MMAP=1 hook) are the mapping, which gc still co-owns.
  EXPECT_EQ(replaced.expired(), !gc.mapped());
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

TEST(ReadClustersTest, VertexInducedRegistersExactlyTheNegatedLabelPairs) {
  // Algorithm 1 lines 12-18: a label pair's star clusters are read iff
  // some pattern pair with those labels is not fully connected. With 3
  // labels most label pairs have star clusters; with 40 labels over a
  // sparse graph most negated pairs have none, as in Patent(2000).
  Rng rng(12);
  size_t negated_without_stars = 0;
  size_t negated_with_stars = 0;
  size_t indexed_unregistered = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const bool directed = trial % 2 == 1;
    const bool many = trial >= 12;
    const Label num_labels = many ? 40 : 3;
    Graph g = RandomGraph(rng, many ? 120 : 40, many ? 0.02 : 0.2,
                          num_labels, 2, directed);
    Ccsr gc = Ccsr::Build(g);
    Graph pattern = RandomGraph(rng, many ? 16 : 8, many ? 0.3 : 0.5,
                                num_labels, 2, directed);
    for (MatchVariant variant :
         {MatchVariant::kVertexInduced, MatchVariant::kEdgeInduced}) {
      const bool vi = variant == MatchVariant::kVertexInduced;
      QueryClusters qc;
      ASSERT_TRUE(ReadClusters(gc, pattern, variant, &qc).ok());

      std::set<std::pair<Label, Label>> negated;
      for (VertexId a = 0; vi && a < pattern.NumVertices(); ++a) {
        for (VertexId b = a + 1; b < pattern.NumVertices(); ++b) {
          const bool full = pattern.HasEdge(a, b) &&
                            (!directed || pattern.HasEdge(b, a));
          if (full) continue;
          negated.insert(std::minmax(pattern.VertexLabel(a),
                                     pattern.VertexLabel(b)));
        }
      }
      std::set<ClusterId> views;
      pattern.ForEachEdge([&](const Edge& e) {
        ClusterId id = ClusterId::ForPatternEdge(pattern, e);
        if (gc.Find(id) != nullptr) views.insert(id);
      });
      for (Label la = 0; la < num_labels; ++la) {
        for (Label lb = la; lb < num_labels; ++lb) {
          const bool read = negated.count({la, lb}) > 0;
          std::span<const size_t> star = gc.StarClusters(la, lb);
          std::span<const CompressedCluster* const> got = qc.Star(la, lb);
          ASSERT_EQ(got.size(), read ? star.size() : 0u)
              << "labels " << la << ", " << lb;
          if (!read) continue;
          ++(star.empty() ? negated_without_stars : negated_with_stars);
          for (size_t i = 0; i < star.size(); ++i) {
            EXPECT_EQ(got[i], &gc.clusters()[star[i]]);
            views.insert(gc.clusters()[star[i]].id);
          }
        }
      }
      EXPECT_EQ(qc.NumViews(), views.size());
      // Find hands out exactly the registered clusters: an indexed
      // cluster the query did not register (say, a star cluster under
      // edge-induced matching) is nullptr.
      for (const CompressedCluster& c : gc.clusters()) {
        const bool registered = views.count(c.id) > 0;
        EXPECT_EQ(qc.Find(c.id), registered ? &c : nullptr) << c.id.ToString();
        indexed_unregistered += !registered;
      }
    }
  }
  EXPECT_GT(negated_without_stars, negated_with_stars);
  EXPECT_GT(indexed_unregistered, 0u);
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
  // integers (2 per stored edge, each edge stored twice). The ids and
  // offsets keep that bound: k ids and k+1 offsets for k <= arcs rows.
  Rng rng(20);
  Graph g = RandomGraph(rng, 200, 0.05, 8, 2, true);
  Ccsr gc = Ccsr::Build(g);
  size_t total_entries = 0;
  for (const CompressedCluster& c : gc.clusters()) {
    total_entries += c.out.ids.size() + c.out.offsets.size() +
                     c.in.ids.size() + c.in.offsets.size();
  }
  // Plus one offset per CSR for the leading zero.
  EXPECT_LE(total_entries, 4 * g.NumEdges() + 2 * gc.NumClusters());
}

// Asserts that every cluster direction of `gc` equals the dense-row
// construction of `buckets` (ExpectMatchesDenseRows), cluster for
// cluster.
void ExpectClustersMatchDenseOracle(
    const Ccsr& gc, const std::map<ClusterId, std::vector<Edge>>& buckets,
    const std::string& where) {
  ASSERT_EQ(gc.NumClusters(), buckets.size()) << where;
  size_t slot = 0;
  for (const auto& [id, arcs] : buckets) {
    const CompressedCluster& c = gc.clusters()[slot++];
    ASSERT_EQ(c.id, id) << where;
    EXPECT_EQ(c.num_edges, id.directed ? arcs.size() : arcs.size() / 2);
    testing::ExpectMatchesDenseRows(c.out, gc.NumVertices(), arcs,
                                    where + " " + id.ToString() + " outgoing");
    if (id.directed) {
      std::vector<Edge> reversed;
      for (const Edge& a : arcs) {
        reversed.push_back(Edge{a.dst, a.src, a.elabel});
      }
      testing::ExpectMatchesDenseRows(
          c.in, gc.NumVertices(), reversed,
          where + " " + id.ToString() + " incoming");
    } else {
      EXPECT_EQ(c.in.SizeBytes(), 0u) << where;
    }
  }
}

// Asserts that Ccsr::Build(g) matches the dense-row oracle and
// validates, both in memory and mapped from its v2 artifact.
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
  ExpectClustersMatchDenseOracle(gc, buckets, "in memory");
  EXPECT_TRUE(gc.Validate().ok()) << gc.Validate().ToString();

  const std::string path = testing::ScratchArtifactPath("ccsr_build_oracle");
  ASSERT_TRUE(SaveCcsrToFileV2(gc, path).ok());
  std::unique_ptr<MmapCcsr> mapped;
  ASSERT_TRUE(MmapCcsr::Open(path, &mapped).ok());
  ExpectClustersMatchDenseOracle(mapped->ccsr(), buckets, "mmap'd");
  EXPECT_TRUE(mapped->ccsr().Validate().ok());
  mapped.reset();
  std::remove(path.c_str());
}

// Seeded random graphs with 1-3 edge labels. Vertex label 3 is a class
// with no arcs; vertex 0 and vertex |V|-1 get arcs or stay isolated in
// all four combinations.
TEST(CcsrBuildTest, RowsAndColumnsMatchDenseRowConstruction) {
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
