// Incremental CCSR maintenance: building from G ∪ ΔE must equal
// building from G then inserting ΔE, and removal must invert insertion.

#include <gtest/gtest.h>

#include <algorithm>

#include "ccsr/ccsr.h"
#include "engine/matcher.h"
#include "graph/isomorphism.h"
#include "tests/test_util.h"

namespace csce {
namespace {

using testing::MakeGraph;

void ExpectSameClusters(const Ccsr& a, const Ccsr& b) {
  EXPECT_EQ(a.NumEdges(), b.NumEdges());
  ASSERT_EQ(a.NumClusters(), b.NumClusters());
  for (size_t i = 0; i < a.NumClusters(); ++i) {
    const CompressedCluster& ca = a.clusters()[i];
    const CompressedCluster& cb = b.clusters()[i];
    EXPECT_EQ(ca.id, cb.id);
    EXPECT_EQ(ca.num_edges, cb.num_edges);
    EXPECT_TRUE(ca.out == cb.out) << ca.id.ToString();
    EXPECT_TRUE(ca.in == cb.in) << ca.id.ToString();
  }
  for (VertexId v = 0; v < a.NumVertices(); ++v) {
    EXPECT_EQ(a.OutDegree(v), b.OutDegree(v));
    EXPECT_EQ(a.InDegree(v), b.InDegree(v));
  }
}

class CcsrUpdateTest : public ::testing::TestWithParam<bool> {};

TEST_P(CcsrUpdateTest, InsertMatchesFromScratchBuild) {
  const bool directed = GetParam();
  Rng rng(directed ? 301 : 302);
  // Base graph and a batch of extra edges over the same vertices.
  GraphBuilder base_builder(directed);
  GraphBuilder full_builder(directed);
  const uint32_t n = 30;
  for (uint32_t i = 0; i < n; ++i) {
    Label l = static_cast<Label>(rng.Uniform(3));
    base_builder.AddVertex(l);
    full_builder.AddVertex(l);
  }
  std::vector<Edge> extra;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      if (i == j || (!directed && j < i)) continue;
      if (rng.Bernoulli(0.15)) {
        Edge e{i, j, static_cast<Label>(rng.Uniform(2))};
        full_builder.AddEdge(e.src, e.dst, e.elabel);
        if (rng.Bernoulli(0.3)) {
          extra.push_back(e);  // will arrive incrementally
        } else {
          base_builder.AddEdge(e.src, e.dst, e.elabel);
        }
      }
    }
  }
  Graph base;
  Graph full;
  ASSERT_TRUE(base_builder.Build(&base).ok());
  ASSERT_TRUE(full_builder.Build(&full).ok());

  Ccsr incremental = Ccsr::Build(base);
  ASSERT_TRUE(incremental.InsertEdges(extra).ok());
  Ccsr from_scratch = Ccsr::Build(full);
  ExpectSameClusters(from_scratch, incremental);
}

TEST_P(CcsrUpdateTest, RemoveInvertsInsert) {
  const bool directed = GetParam();
  Rng rng(directed ? 303 : 304);
  Graph g = testing::RandomGraph(rng, 25, 0.2, 3, 2, directed);
  Ccsr original = Ccsr::Build(g);
  Ccsr mutated = Ccsr::Build(g);

  std::vector<Edge> batch = {{0, 1, 99}, {2, 3, 99}, {4, 5, 99}};
  ASSERT_TRUE(mutated.InsertEdges(batch).ok());
  EXPECT_EQ(mutated.NumEdges(), original.NumEdges() + 3);
  ASSERT_TRUE(mutated.RemoveEdges(batch).ok());
  ExpectSameClusters(original, mutated);
}

INSTANTIATE_TEST_SUITE_P(Directedness, CcsrUpdateTest, ::testing::Bool());

TEST(CcsrUpdateTest, InsertIsIdempotent) {
  Graph g = MakeGraph(false, {0, 1}, {{0, 1, 0}});
  Ccsr ccsr = Ccsr::Build(g);
  ASSERT_TRUE(ccsr.InsertEdges({{0, 1, 0}}).ok());
  EXPECT_EQ(ccsr.NumEdges(), 1u);
  EXPECT_EQ(ccsr.OutDegree(0), 1u);
}

TEST(CcsrUpdateTest, InsertCreatesNewCluster) {
  Graph g = MakeGraph(false, {0, 1, 2}, {{0, 1, 0}});
  Ccsr ccsr = Ccsr::Build(g);
  EXPECT_EQ(ccsr.NumClusters(), 1u);
  ASSERT_TRUE(ccsr.InsertEdges({{1, 2, 0}}).ok());
  EXPECT_EQ(ccsr.NumClusters(), 2u);
  EXPECT_EQ(ccsr.ClusterSize(ClusterId::Undirected(1, 2, 0)), 1u);
}

TEST(CcsrUpdateTest, RemoveDropsEmptiedCluster) {
  Graph g = MakeGraph(false, {0, 1, 2}, {{0, 1, 0}, {1, 2, 0}});
  Ccsr ccsr = Ccsr::Build(g);
  EXPECT_EQ(ccsr.NumClusters(), 2u);
  ASSERT_TRUE(ccsr.RemoveEdges({{1, 2, 0}}).ok());
  EXPECT_EQ(ccsr.NumClusters(), 1u);
  EXPECT_EQ(ccsr.Find(ClusterId::Undirected(1, 2, 0)), nullptr);
  EXPECT_EQ(ccsr.NumEdges(), 1u);
}

TEST(CcsrUpdateTest, RemoveMissingEdgeFailsAtomically) {
  Graph g = MakeGraph(false, {0, 1, 2}, {{0, 1, 0}, {1, 2, 0}});
  Ccsr ccsr = Ccsr::Build(g);
  // One present edge, one absent: nothing may change.
  Status st = ccsr.RemoveEdges({{0, 1, 0}, {0, 2, 0}});
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(ccsr.NumEdges(), 2u);
  EXPECT_EQ(ccsr.ClusterSize(ClusterId::Undirected(0, 1, 0)), 1u);
}

TEST(CcsrUpdateTest, InsertRejectsBadEdges) {
  Graph g = MakeGraph(false, {0, 1}, {{0, 1, 0}});
  Ccsr ccsr = Ccsr::Build(g);
  EXPECT_EQ(ccsr.InsertEdges({{0, 9, 0}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ccsr.InsertEdges({{0, 0, 0}}).code(),
            StatusCode::kInvalidArgument);
}

TEST(CcsrUpdateTest, MatchingSeesInsertedEdges) {
  // End-to-end: a triangle closed by an incremental insert becomes
  // matchable without rebuilding.
  Graph g = MakeGraph(false, {0, 0, 0, 0}, {{0, 1, 0}, {1, 2, 0}});
  Ccsr ccsr = Ccsr::Build(g);
  CsceMatcher matcher(&ccsr);
  MatchOptions options;
  MatchResult result;
  Graph triangle = testing::Cycle(3);
  ASSERT_TRUE(matcher.Match(triangle, options, &result).ok());
  EXPECT_EQ(result.embeddings, 0u);
  ASSERT_TRUE(ccsr.InsertEdges({{0, 2, 0}}).ok());
  ASSERT_TRUE(matcher.Match(triangle, options, &result).ok());
  EXPECT_EQ(result.embeddings, 6u);
}

}  // namespace
}  // namespace csce
