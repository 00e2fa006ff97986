// Deep-validator and self-check tests: clean structures pass, corrupted
// fixtures are detected with descriptive errors, and the SCE oracle
// catches a poisoned candidate cache that would otherwise silently skew
// results.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "ccsr/ccsr.h"
#include "ccsr/ccsr_v2_format.h"
#include "ccsr/compressed_row.h"
#include "engine/embedding_verifier.h"
#include "engine/executor.h"
#include "engine/matcher.h"
#include "plan/dag.h"
#include "plan/nec.h"
#include "plan/planner.h"
#include "plan/validate.h"
#include "tests/ccsr_artifact_util.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace csce {
namespace {

// ---------------------------------------------------------------------------
// CompressedRowIndex::Validate

TEST(CompressedRowValidateTest, CleanRowsPass) {
  std::vector<uint64_t> row = {0, 0, 2, 2, 2, 5, 9};
  EXPECT_TRUE(CompressedRowIndex::Compress(row).Validate().ok());
  EXPECT_TRUE(CompressedRowIndex().Validate().ok());
}

TEST(CompressedRowValidateTest, MutatedRunLengthDetected) {
  std::vector<uint64_t> row = {0, 0, 2, 2, 5};
  CompressedRowIndex rows = CompressedRowIndex::Compress(row);
  ASSERT_TRUE(rows.Validate().ok());
  // Coverage no longer matches the uncompressed length.
  rows.mutable_runs()->front().count += 1;
  Status st = rows.Validate();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("cover"), std::string::npos);
}

TEST(CompressedRowValidateTest, NonMonotoneRunsDetected) {
  std::vector<uint64_t> row = {0, 3, 7};
  CompressedRowIndex rows = CompressedRowIndex::Compress(row);
  (*rows.mutable_runs())[2].value = 2;  // 0, 3, 2: offsets went backwards
  Status st = rows.Validate();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("non-monotone"), std::string::npos);
}

TEST(CompressedRowValidateTest, EmptyRunDetected) {
  std::vector<uint64_t> row = {0, 4};
  CompressedRowIndex rows = CompressedRowIndex::Compress(row);
  (*rows.mutable_runs())[1].count = 0;
  EXPECT_FALSE(rows.Validate().ok());
}

// ---------------------------------------------------------------------------
// Ccsr::Validate

TEST(CcsrValidateTest, CleanGraphsPass) {
  Rng rng(71);
  for (bool directed : {false, true}) {
    Graph g = testing::RandomGraph(rng, 60, 0.1, 5, 3, directed);
    Ccsr gc = Ccsr::Build(g);
    EXPECT_TRUE(gc.Validate().ok()) << gc.Validate().ToString();
  }
}

TEST(CcsrValidateTest, StaysValidAcrossUpdates) {
  Rng rng(72);
  Graph g = testing::RandomGraph(rng, 40, 0.08, 4, 2, true);
  Ccsr gc = Ccsr::Build(g);
  std::vector<Edge> extra = {Edge{0, 1, 9}, Edge{5, 6, 9}};
  ASSERT_TRUE(gc.InsertEdges(extra).ok());
  EXPECT_TRUE(gc.Validate().ok()) << gc.Validate().ToString();
  ASSERT_TRUE(gc.RemoveEdges(extra).ok());
  EXPECT_TRUE(gc.Validate().ok()) << gc.Validate().ToString();
}

// The tests below write the v2 artifact, flip bytes located through its
// header and directory, and reload it through LoadCcsrFromFile.
TEST(CcsrLoaderTest, MutatedRunLengthRejected) {
  // Undirected path with one cluster; every vertex labeled alike.
  Graph g = testing::MakeGraph(false, {1, 1, 1, 1},
                               {Edge{0, 1, 0}, Edge{1, 2, 0}, Edge{2, 3, 0}});
  Ccsr gc = Ccsr::Build(g);
  std::string bytes = testing::CcsrV2Bytes(gc);
  // First run's count field of the first cluster's out-CSR.
  const V2Header h = testing::ReadV2Header(bytes);
  ASSERT_EQ(h.num_clusters, 1u);
  V2DirEntry e;
  std::memcpy(&e, bytes.data() + h.directory.offset, sizeof(e));
  size_t off = e.out_runs_offset + offsetof(RleRun, count);
  ASSERT_LT(off + 4, bytes.size());
  bytes[off] = static_cast<char>(bytes[off] + 1);
  Ccsr back;
  Status st = testing::LoadCcsrBytes(bytes, &back);
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(st.ToString().empty());
}

TEST(CcsrLoaderTest, LabelFlipCaughtByDeepValidation) {
  // Distinct labels so every edge's cluster pins its endpoint labels.
  Graph g = testing::MakeGraph(false, {0, 1, 2, 3},
                               {Edge{0, 1, 0}, Edge{1, 2, 0}, Edge{2, 3, 0}});
  Ccsr gc = Ccsr::Build(g);
  std::string bytes = testing::CcsrV2Bytes(gc);
  // Vertex 0's label opens the vlabels section. Flipping it to another
  // valid label passes every structural check at open; only the deep
  // validator's cross-checks can notice.
  const size_t off = testing::ReadV2Header(bytes).vlabels.offset;
  ASSERT_EQ(bytes[off], 0);
  bytes[off] = 3;
  Ccsr back;
  Status st = testing::LoadCcsrBytes(bytes, &back);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("label"), std::string::npos);
}

// ---------------------------------------------------------------------------
// DAG / NEC / plan validators

TEST(DagValidateTest, CleanDagAndOrderPass) {
  Rng rng(73);
  Graph pattern = testing::RandomGraph(rng, 8, 0.4, 2, 1, false);
  std::vector<VertexId> order(pattern.NumVertices());
  for (VertexId v = 0; v < pattern.NumVertices(); ++v) order[v] = v;
  DependencyDag dag =
      DependencyDag::Build(pattern, order, MatchVariant::kEdgeInduced, nullptr);
  EXPECT_TRUE(ValidateDag(dag).ok());
  EXPECT_TRUE(ValidateTopologicalOrder(dag, order).ok());
}

TEST(DagValidateTest, ReversedOrderIsNotTopological) {
  Graph pattern = testing::Path(4);
  std::vector<VertexId> order = {0, 1, 2, 3};
  DependencyDag dag =
      DependencyDag::Build(pattern, order, MatchVariant::kEdgeInduced, nullptr);
  std::vector<VertexId> reversed = {3, 2, 1, 0};
  Status st = ValidateTopologicalOrder(dag, reversed);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("not topological"), std::string::npos);
  // Non-permutations are rejected too.
  std::vector<VertexId> dup = {0, 0, 1, 2};
  EXPECT_FALSE(ValidateTopologicalOrder(dag, dup).ok());
}

TEST(NecValidateTest, ComputedClassesPass) {
  Rng rng(74);
  for (int i = 0; i < 10; ++i) {
    Graph pattern = testing::RandomGraph(rng, 7, 0.35, 2, 2, i % 2 == 1);
    std::vector<uint32_t> classes = ComputeNecClasses(pattern);
    EXPECT_TRUE(ValidateNecClasses(pattern, classes).ok());
  }
  // The star's leaves collapse into one class; still sound.
  Graph star = testing::Star(4);
  EXPECT_TRUE(ValidateNecClasses(star, ComputeNecClasses(star)).ok());
}

TEST(NecValidateTest, FalseEquivalenceDetected) {
  // Path 0-1-2: the endpoints are equivalent, the middle is not.
  Graph path = testing::Path(3);
  std::vector<uint32_t> bogus = {0, 0, 1};  // merges an endpoint + middle
  Status st = ValidateNecClasses(path, bogus);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("automorphism"), std::string::npos);
  // Non-dense ids are rejected regardless of soundness.
  std::vector<uint32_t> sparse_ids = {1, 0, 2};
  EXPECT_FALSE(ValidateNecClasses(path, sparse_ids).ok());
}

class PlanValidateTest : public ::testing::TestWithParam<MatchVariant> {};

TEST_P(PlanValidateTest, CleanPlansPass) {
  Rng rng(75);
  Graph data = testing::RandomGraph(rng, 60, 0.1, 3, 2, false);
  Ccsr gc = Ccsr::Build(data);
  Planner planner(&gc);
  for (const Graph& pattern :
       {testing::Path(4), testing::Clique(3), testing::Star(3)}) {
    Plan plan;
    ASSERT_TRUE(planner.MakePlan(pattern, GetParam(), {}, &plan).ok());
    Status st = ValidatePlan(&gc, pattern, plan);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, PlanValidateTest,
                         ::testing::Values(MatchVariant::kEdgeInduced,
                                           MatchVariant::kVertexInduced,
                                           MatchVariant::kHomomorphic));

TEST(PlanValidateCorruptionTest, SwappedOrderDetected) {
  Rng rng(76);
  Graph data = testing::RandomGraph(rng, 50, 0.12, 2, 1, false);
  Ccsr gc = Ccsr::Build(data);
  Planner planner(&gc);
  Plan plan;
  ASSERT_TRUE(
      planner.MakePlan(testing::Path(3), MatchVariant::kEdgeInduced, {}, &plan)
          .ok());
  ASSERT_TRUE(ValidatePlan(&gc, testing::Path(3), plan).ok());

  // Swapping order entries alone desynchronizes order and positions.
  Plan swapped_order = plan;
  std::swap(swapped_order.order[0], swapped_order.order[1]);
  EXPECT_FALSE(ValidatePlan(&gc, testing::Path(3), swapped_order).ok());

  // Swapping both keeps them in sync but breaks the compiled
  // constraints: a position with a backward edge moves to the front.
  Plan swapped_both = plan;
  std::swap(swapped_both.order[0], swapped_both.order[1]);
  std::swap(swapped_both.positions[0], swapped_both.positions[1]);
  EXPECT_FALSE(ValidatePlan(&gc, testing::Path(3), swapped_both).ok());
}

TEST(PlanValidateCorruptionTest, DroppedConstraintDetected) {
  Rng rng(77);
  Graph data = testing::RandomGraph(rng, 50, 0.12, 2, 1, false);
  Ccsr gc = Ccsr::Build(data);
  Planner planner(&gc);
  Plan plan;
  ASSERT_TRUE(planner
                  .MakePlan(testing::Clique(3), MatchVariant::kEdgeInduced, {},
                            &plan)
                  .ok());
  plan.positions[2].edges.pop_back();
  Status st = ValidatePlan(&gc, testing::Clique(3), plan);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("edge constraints"), std::string::npos);
}

// ---------------------------------------------------------------------------
// EmbeddingVerifier

TEST(EmbeddingVerifierTest, AcceptsRealEmbeddingsRejectsFakes) {
  // Data: labeled triangle 0(A)-1(B)-2(A) plus a pendant 3(B) on 2.
  Graph data = testing::MakeGraph(
      false, {0, 1, 0, 1},
      {Edge{0, 1, 0}, Edge{1, 2, 0}, Edge{0, 2, 0}, Edge{2, 3, 0}});
  Ccsr gc = Ccsr::Build(data);
  // Pattern: one A-B edge.
  Graph pattern = testing::MakeGraph(false, {0, 1}, {Edge{0, 1, 0}});
  EmbeddingVerifier verifier(gc, pattern, MatchVariant::kEdgeInduced);

  std::vector<VertexId> good = {0, 1};
  EXPECT_TRUE(verifier.Verify(good).ok());
  EXPECT_EQ(verifier.verified(), 1u);

  std::vector<VertexId> wrong_label = {1, 0};  // A-slot holds a B vertex
  EXPECT_FALSE(verifier.Verify(wrong_label).ok());
  std::vector<VertexId> no_edge = {0, 3};  // labels fine, arc missing
  EXPECT_FALSE(verifier.Verify(no_edge).ok());
  std::vector<VertexId> short_mapping = {0};
  EXPECT_FALSE(verifier.Verify(short_mapping).ok());
  std::vector<VertexId> out_of_range = {0, 99};
  EXPECT_FALSE(verifier.Verify(out_of_range).ok());
  EXPECT_EQ(verifier.verified(), 1u);
}

TEST(EmbeddingVerifierTest, EnforcesInjectivityAndInducedness) {
  // Unlabeled triangle: a path embedding whose endpoints are adjacent
  // violates vertex-induced matching.
  Graph data = testing::Clique(3);
  Ccsr gc = Ccsr::Build(data);
  Graph pattern = testing::Path(3);

  EmbeddingVerifier hom(gc, pattern, MatchVariant::kHomomorphic);
  std::vector<VertexId> repeat = {0, 1, 0};
  EXPECT_TRUE(hom.Verify(repeat).ok());  // homomorphisms may collapse

  EmbeddingVerifier edge_induced(gc, pattern, MatchVariant::kEdgeInduced);
  EXPECT_FALSE(edge_induced.Verify(repeat).ok());  // injectivity
  std::vector<VertexId> path_in_triangle = {0, 1, 2};
  EXPECT_TRUE(edge_induced.Verify(path_in_triangle).ok());

  EmbeddingVerifier induced(gc, pattern, MatchVariant::kVertexInduced);
  Status st = induced.Verify(path_in_triangle);
  EXPECT_FALSE(st.ok());  // 0 and 2 are adjacent in the data
  EXPECT_NE(st.ToString().find("induced"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end self-check

class SelfCheckTest : public ::testing::TestWithParam<MatchVariant> {};

TEST_P(SelfCheckTest, MatchesCleanlyAndVerifiesEveryEmbedding) {
  Rng rng(78);
  Graph data = testing::RandomGraph(rng, 50, 0.12, 3, 2, false);
  Ccsr gc = Ccsr::Build(data);
  CsceMatcher matcher(&gc);
  Graph pattern = testing::Path(3);

  MatchOptions plain;
  plain.variant = GetParam();
  MatchResult expected;
  ASSERT_TRUE(matcher.Match(pattern, plain, &expected).ok());

  for (uint32_t threads : {1u, 4u}) {
    MatchOptions checked = plain;
    checked.self_check = true;
    checked.num_threads = threads;
    MatchResult result;
    Status st = matcher.Match(pattern, checked, &result);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(result.embeddings, expected.embeddings);
    EXPECT_EQ(result.embeddings_verified, expected.embeddings);
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, SelfCheckTest,
                         ::testing::Values(MatchVariant::kEdgeInduced,
                                           MatchVariant::kVertexInduced,
                                           MatchVariant::kHomomorphic));

// ---------------------------------------------------------------------------
// SCE oracle vs a poisoned cache

struct SceFixture {
  Graph data = testing::Star(4);
  Graph pattern = testing::Path(3);  // center-first order, leaves share deps
  Ccsr gc;
  QueryClusters qc;
  Plan plan;

  SceFixture() {
    gc = Ccsr::Build(data);
    Planner planner(&gc);
    CSCE_CHECK(
        planner.MakePlan(pattern, MatchVariant::kEdgeInduced, {}, &plan).ok());
    CSCE_CHECK(
        ReadClusters(gc, pattern, MatchVariant::kEdgeInduced, &qc).ok());
  }

  uint64_t Count(const ExecOptions& options) {
    Executor ex(gc, qc, plan);
    ExecStats stats;
    CSCE_CHECK(ex.Run(options, &stats).ok());
    return stats.embeddings;
  }
};

TEST(SceOracleTest, PoisonedCacheSilentlySkewsResultsWithoutOracle) {
  SceFixture fx;
  uint64_t baseline = fx.Count(ExecOptions{});
  EXPECT_EQ(baseline, 12u);  // ordered leaf pairs of the 4-star

  // Sanity: this workload actually reuses SCE caches, so a poisoned
  // entry gets consumed.
  {
    Executor ex(fx.gc, fx.qc, fx.plan);
    ExecStats stats;
    ASSERT_TRUE(ex.Run(ExecOptions{}, &stats).ok());
    ASSERT_GT(stats.candidate_sets_reused, 0u);
  }

  ExecOptions poisoned;
  poisoned.poison_sce_position = 1;
  uint64_t skewed = fx.Count(poisoned);
  EXPECT_LT(skewed, baseline);  // wrong answer, no error: the quiet failure
}

TEST(SceOracleDeathTest, OracleCatchesPoisonedCache) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SceFixture fx;
  ExecOptions options;
  options.poison_sce_position = 1;
  options.verify_sce = true;
  EXPECT_DEATH(fx.Count(options), "SCE cache mismatch");
}

}  // namespace
}  // namespace csce
