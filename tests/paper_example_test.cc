// Tests pinned to worked examples from the paper's text (Sections I-V).
// Where Fig. 1 is only partially specified, these use the exact
// fragments the text spells out.

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "ccsr/ccsr.h"
#include "engine/matcher.h"
#include "graph/isomorphism.h"
#include "plan/dag.h"
#include "tests/test_util.h"

namespace csce {
namespace {

using testing::MakeGraph;

// Labels used throughout: A=1, B=2, C=3, D=4.
constexpr Label A = 1;
constexpr Label B = 2;
constexpr Label C = 3;

TEST(PaperExampleTest, S3AutomorphismsOfSymmetricPath) {
  // Section II: the vertex-induced subgraph S3 from {u1, u6, u8} is
  // automorphic under exactly two mappings (identity and the A-A swap).
  Graph s3 = MakeGraph(false, {A, 0, A}, {{0, 1, 0}, {1, 2, 0}});
  EXPECT_EQ(CountAutomorphisms(s3), 2u);
}

TEST(PaperExampleTest, S3HomomorphicToSingleEdge) {
  // Section II: S3 is homomorphic to an edge (u1, u6) by folding both
  // A-endpoints onto one vertex.
  Graph s3 = MakeGraph(false, {A, 0, A}, {{0, 1, 0}, {1, 2, 0}});
  Graph edge = MakeGraph(false, {A, 0}, {{0, 1, 0}});
  EXPECT_GE(CountEmbeddingsBruteForce(edge, s3, MatchVariant::kHomomorphic),
            1u);
  EXPECT_EQ(CountEmbeddingsBruteForce(edge, s3, MatchVariant::kEdgeInduced),
            0u);
}

TEST(PaperExampleTest, EdgeVsVertexInducedS1S2) {
  // Section II (Fig. 1): edge-induced results contain both S1 and S2,
  // vertex-induced only S1. Reproduced with a pattern that occurs twice,
  // once with an extra chord.
  Graph pattern = MakeGraph(false, {A, B, C}, {{0, 1, 0}, {1, 2, 0}});
  GraphBuilder b(false);
  // Occurrence 1 (S1-like): exact.
  VertexId a1 = b.AddVertex(A);
  VertexId b1 = b.AddVertex(B);
  VertexId c1 = b.AddVertex(C);
  b.AddEdge(a1, b1);
  b.AddEdge(b1, c1);
  // Occurrence 2 (S2-like): with an extra chord a2-c2.
  VertexId a2 = b.AddVertex(A);
  VertexId b2 = b.AddVertex(B);
  VertexId c2 = b.AddVertex(C);
  b.AddEdge(a2, b2);
  b.AddEdge(b2, c2);
  b.AddEdge(a2, c2);
  Graph g;
  ASSERT_TRUE(b.Build(&g).ok());
  Ccsr gc = Ccsr::Build(g);
  CsceMatcher matcher(&gc);
  MatchOptions options;
  options.variant = MatchVariant::kEdgeInduced;
  MatchResult result;
  ASSERT_TRUE(matcher.Match(pattern, options, &result).ok());
  EXPECT_EQ(result.embeddings, 2u);  // both S1 and S2
  options.variant = MatchVariant::kVertexInduced;
  ASSERT_TRUE(matcher.Match(pattern, options, &result).ok());
  EXPECT_EQ(result.embeddings, 1u);  // S1 only
}

TEST(PaperExampleTest, Definition1CandidateSets) {
  // Section V: C(u2 | Phi1, {u1 -> v1}) = {v2, v6} and
  // C(u2 | Phi1, {u1 -> v4}) = {v5}.
  // Fragment: v1:A -> {v2:B, v6:B}, v4:A -> {v5:B}.
  Graph g = MakeGraph(true, {A, B, A, B, B},
                      {{0, 1, 0}, {0, 4, 0}, {2, 3, 0}});
  // v1=0, v2=1, v4=2, v5=3, v6=4.
  Graph pattern = MakeGraph(true, {A, B}, {{0, 1, 0}});
  Ccsr gc = Ccsr::Build(g);
  CsceMatcher matcher(&gc);
  MatchOptions options;
  options.variant = MatchVariant::kEdgeInduced;
  MatchResult result;
  std::vector<std::vector<VertexId>> embeddings;
  ASSERT_TRUE(matcher
                  .MatchWithCallback(
                      pattern, options,
                      [&embeddings](std::span<const VertexId> m) {
                        embeddings.emplace_back(m.begin(), m.end());
                        return true;
                      },
                      &result)
                  .ok());
  // u1 -> v1 yields u2 in {v2, v6}; u1 -> v4 yields u2 = v5.
  ASSERT_EQ(embeddings.size(), 3u);
  std::set<std::pair<VertexId, VertexId>> got;
  for (const auto& m : embeddings) got.insert({m[0], m[1]});
  EXPECT_TRUE(got.count({0, 1}));
  EXPECT_TRUE(got.count({0, 4}));
  EXPECT_TRUE(got.count({2, 3}));
}

TEST(PaperExampleTest, SyntacticallyEquivalentDataVertices) {
  // Section I: v3 and v10 are interchangeable candidates for u3 because
  // both are C-labeled neighbors of v1. Both must appear as mappings.
  Graph g = MakeGraph(false, {A, C, C}, {{0, 1, 0}, {0, 2, 0}});
  Graph pattern = MakeGraph(false, {A, C}, {{0, 1, 0}});
  Ccsr gc = Ccsr::Build(g);
  CsceMatcher matcher(&gc);
  MatchResult result;
  ASSERT_TRUE(matcher.Match(pattern, MatchOptions{}, &result).ok());
  EXPECT_EQ(result.embeddings, 2u);
}

TEST(PaperExampleTest, ConditionallyIndependentRegionsReuse) {
  // Section I's motivating redundancy: two regions hanging off a
  // matched pair are independent; SCE must reuse the second region's
  // candidates across mappings of the first.
  GraphBuilder b(false);
  VertexId hub_a = b.AddVertex(A);
  VertexId hub_b = b.AddVertex(B);
  b.AddEdge(hub_a, hub_b);
  // Region R1 candidates: several C vertices off hub_a.
  for (int i = 0; i < 4; ++i) b.AddEdge(hub_a, b.AddVertex(C));
  // Region R2 candidates: several D(=4) vertices off hub_b.
  for (int i = 0; i < 4; ++i) b.AddEdge(hub_b, b.AddVertex(4));
  Graph g;
  ASSERT_TRUE(b.Build(&g).ok());
  // Pattern: A-B edge with a C leaf on A and a D leaf on B.
  Graph pattern = MakeGraph(false, {A, B, C, 4},
                            {{0, 1, 0}, {0, 2, 0}, {1, 3, 0}});
  Ccsr gc = Ccsr::Build(g);
  CsceMatcher matcher(&gc);
  MatchResult result;
  ASSERT_TRUE(matcher.Match(pattern, MatchOptions{}, &result).ok());
  EXPECT_EQ(result.embeddings, 16u);  // 4 x 4 combinations
  // The leaf regions' candidates must have been reused, not recomputed
  // per sibling mapping.
  EXPECT_GT(result.candidate_sets_reused, 0u);
  EXPECT_LE(result.candidate_sets_computed, 4u);
}

TEST(PaperExampleTest, Fig5EdgeInducedDagIsPatternEdges) {
  // Section V: for edge-induced SM, H's edges are exactly the pattern
  // edges oriented by the matching order (Fig. 5a); two orders that
  // orient all pattern edges identically give the same DAG.
  Rng rng(123);
  Graph p = testing::RandomGraph(rng, 8, 0.4, 2, 1, false);
  std::vector<VertexId> order(8);
  std::iota(order.begin(), order.end(), 0);
  DependencyDag dag =
      DependencyDag::Build(
          PatternContext(p, nullptr, MatchVariant::kEdgeInduced), order);
  EXPECT_EQ(dag.NumEdges(), p.NumEdges());
}

}  // namespace
}  // namespace csce
