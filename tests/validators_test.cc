// Deep-validator and self-check tests: clean structures pass, corrupted
// fixtures are detected with descriptive errors, and the SCE oracle
// catches a poisoned candidate cache that would otherwise silently skew
// results.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ccsr/ccsr.h"
#include "ccsr/ccsr_mmap.h"
#include "ccsr/ccsr_v2_format.h"
#include "ccsr/csr.h"
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
// CsrIndex::Validate

TEST(CsrIndexValidateTest, BuiltArraysPass) {
  for (uint32_t n : {1u, 10u, 100u, 1000u}) {
    CsrBuilder builder;
    for (VertexId v = 0; v < n; v += 3) builder.Add(v, (v + 1) % n);
    builder.Finish(n);
    const Status st = builder.Index().Validate(n);
    EXPECT_TRUE(st.ok()) << "n=" << n << ": " << st.ToString();
  }
  EXPECT_TRUE(CsrIndex().Validate(0).ok());
  EXPECT_TRUE(CsrIndex().Validate(100).ok());
}

TEST(CsrIndexValidateTest, OffsetsWithoutRowsDetected) {
  const std::vector<uint64_t> offsets = {0};
  CsrIndex a;
  a.offsets = offsets;
  const Status st = a.Validate(4);
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_NE(st.message().find("1 offsets for 0 non-empty rows"),
            std::string::npos)
      << st.ToString();
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

// Damage to one cluster's row index or columns, caught by the deep
// validator. Each graph below has exactly one cluster, so directory
// entry 0 locates the damaged arrays.

// Loads `bytes` and expects Corruption whose message contains `want`.
void ExpectLoadCorruption(const std::string& bytes, const std::string& want) {
  Ccsr back;
  Status st = testing::LoadCcsrBytes(bytes, &back);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_NE(st.message().find(want), std::string::npos) << st.ToString();
}

// Opens `bytes` with MmapCcsr and expects Corruption at Open whose
// message contains `want`, from the directory alone; the deep loader
// must refuse it too.
void ExpectOpenCorruption(const std::string& bytes, const std::string& want) {
  const std::string path = testing::ScratchArtifactPath("validators_open");
  testing::WriteFileBytes(path, bytes);
  std::unique_ptr<MmapCcsr> mapped;
  Status st = MmapCcsr::Open(path, &mapped);
  std::remove(path.c_str());
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_NE(st.message().find(want), std::string::npos) << st.ToString();
  ExpectLoadCorruption(bytes, want);
}

uint64_t IdOffset(const V2DirEntry& e, size_t i) {
  return V2CsrLayoutOf(e.out).ids + i * sizeof(VertexId);
}

uint64_t RowOffset(const V2DirEntry& e, size_t i) {
  return V2CsrLayoutOf(e.out).offsets + i * sizeof(uint64_t);
}

uint64_t ColOffset(const V2DirEntry& e, size_t col) {
  return V2CsrLayoutOf(e.out).cols + col * sizeof(VertexId);
}

// Undirected path 0-1-2-3, one label: ids {0, 1, 2, 3}, offsets
// {0, 1, 3, 5, 6}, longest row 2, and at 4 of 4 rows a one-word bitmap
// {0b1111} with rank {0}.
std::string PathArtifact() {
  Graph g = testing::MakeGraph(false, {1, 1, 1, 1},
                               {Edge{0, 1, 0}, Edge{1, 2, 0}, Edge{2, 3, 0}});
  return testing::CcsrV2Bytes(Ccsr::Build(g));
}

TEST(CcsrLoaderTest, RowIdsNotStrictlyIncreasingRejected) {
  std::string bytes = PathArtifact();
  const V2DirEntry e = testing::ReadV2DirEntry(bytes, 0);
  ASSERT_EQ(e.out.ids_count, 4u);
  testing::PokeBytes(&bytes, IdOffset(e, 2), VertexId{1});  // {0, 1, 1, 3}
  ExpectLoadCorruption(bytes,
                       "outgoing: row ids not strictly increasing at row 2");
}

TEST(CcsrLoaderTest, RowIdOutOfRangeRejected) {
  std::string bytes = PathArtifact();
  const V2DirEntry e = testing::ReadV2DirEntry(bytes, 0);
  testing::PokeBytes(&bytes, IdOffset(e, 3), VertexId{4});  // == |V|
  ExpectLoadCorruption(bytes, "outgoing: row id 4 out of range");
}

TEST(CcsrLoaderTest, FirstOffsetNotZeroRejected) {
  std::string bytes = PathArtifact();
  const V2DirEntry e = testing::ReadV2DirEntry(bytes, 0);
  testing::PokeBytes(&bytes, RowOffset(e, 0), uint64_t{1});
  ExpectLoadCorruption(bytes, "outgoing: first row offset is 1, expected 0");
}

TEST(CcsrLoaderTest, OffsetsNotIncreasingRejected) {
  const std::string clean = PathArtifact();
  const V2DirEntry e = testing::ReadV2DirEntry(clean, 0);
  const std::string want =
      "outgoing: row offsets not strictly increasing at row 1";
  std::string flat = clean;  // {0, 1, 1, 5, 6}: an empty row listed
  testing::PokeBytes(&flat, RowOffset(e, 2), uint64_t{1});
  ExpectLoadCorruption(flat, want);
  std::string falling = clean;  // {0, 1, 0, 5, 6}
  testing::PokeBytes(&falling, RowOffset(e, 2), uint64_t{0});
  ExpectLoadCorruption(falling, want);
}

TEST(CcsrLoaderTest, FinalOffsetNotColumnCountRejected) {
  // Directed arc 0 -> 1: out ids {0}, offsets {0, 1}.
  Graph g = testing::MakeGraph(true, {0, 1, 2}, {Edge{0, 1, 0}});
  std::string bytes = testing::CcsrV2Bytes(Ccsr::Build(g));
  const V2DirEntry e = testing::ReadV2DirEntry(bytes, 0);
  ASSERT_EQ(e.out.ids_count, 1u);
  testing::PokeBytes(&bytes, RowOffset(e, 1), uint64_t{2});
  ExpectLoadCorruption(bytes,
                       "dir(0,1,NULL)-cluster outgoing: final row offset 2 "
                       "!= column count 1");

  // Open reads no payload, so the mapping opens; the read's O(1) check
  // refuses the view instead of handing out a row past the columns.
  const std::string path = testing::ScratchArtifactPath("validators_final");
  testing::WriteFileBytes(path, bytes);
  std::unique_ptr<MmapCcsr> mapped;
  ASSERT_TRUE(MmapCcsr::Open(path, &mapped).ok());
  QueryClusters qc;
  Status st = ReadClusters(mapped->ccsr(),
                           testing::MakeGraph(true, {0, 1}, {Edge{0, 1, 0}}),
                           MatchVariant::kEdgeInduced, &qc);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_NE(st.message().find("final row offset"), std::string::npos)
      << st.ToString();
  mapped.reset();
  std::remove(path.c_str());
}

TEST(CcsrLoaderTest, BitmapPresentExactlyAtSixteenthFill) {
  // Dense: the path's 4 of 4 rows need the bitmap; drop it.
  std::string dense = PathArtifact();
  V2DirEntry e = testing::ReadV2DirEntry(dense, 0);
  ASSERT_EQ(e.out.words_count, 1u);
  e.out.words_count = 0;
  testing::WriteV2DirEntry(&dense, 0, e);
  ExpectOpenCorruption(dense, "array lengths inconsistent");

  // Sparse: 2 of 64 rows stay below 1/16 fill; give them a bitmap.
  std::vector<Label> labels(64, 0);
  labels[1] = 1;
  Graph g = testing::MakeGraph(false, labels, {Edge{0, 1, 0}});
  std::string sparse = testing::CcsrV2Bytes(Ccsr::Build(g));
  e = testing::ReadV2DirEntry(sparse, 0);
  ASSERT_EQ(e.out.words_count, 0u);
  e.out.words_count = 1;
  testing::WriteV2DirEntry(&sparse, 0, e);
  ExpectOpenCorruption(sparse, "array lengths inconsistent");
}

TEST(CcsrLoaderTest, BitmapWordNotTheRowIdsRejected) {
  std::string bytes = PathArtifact();
  const V2DirEntry e = testing::ReadV2DirEntry(bytes, 0);
  testing::PokeBytes(&bytes, V2CsrLayoutOf(e.out).words, uint64_t{0b0111});
  ExpectLoadCorruption(
      bytes, "outgoing: rank bitmap word 0 does not match the non-empty rows");
}

TEST(CcsrLoaderTest, RankCountNotTheRowsBeforeRejected) {
  // A 130-vertex path: every row non-empty, words {~0, ~0, 0b11} and
  // rank {0, 64, 128}.
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < 130; ++v) edges.push_back(Edge{v, v + 1, 0});
  Graph g = testing::MakeGraph(false, std::vector<Label>(130, 0), edges);
  std::string bytes = testing::CcsrV2Bytes(Ccsr::Build(g));
  const V2DirEntry e = testing::ReadV2DirEntry(bytes, 0);
  ASSERT_EQ(e.out.words_count, 3u);
  testing::PokeBytes(&bytes, V2CsrLayoutOf(e.out).rank + sizeof(uint32_t),
                     uint32_t{63});
  ExpectLoadCorruption(
      bytes, "outgoing: rank count of bitmap word 1 is 63, expected 64");
}

TEST(CcsrLoaderTest, StoredLongestRowWrongRejected) {
  const std::string clean = PathArtifact();
  V2DirEntry e = testing::ReadV2DirEntry(clean, 0);
  ASSERT_EQ(e.out.max_row_length, 2u);
  std::string short_row = clean;
  e.out.max_row_length = 1;
  testing::WriteV2DirEntry(&short_row, 0, e);
  ExpectLoadCorruption(short_row,
                       "outgoing: stored longest row 1 != longest row 2");
  // Longer than all columns: the executor would size buffers from it,
  // so Open refuses it from the directory.
  std::string huge_row = clean;
  e.out.max_row_length = 7;  // 6 columns
  testing::WriteV2DirEntry(&huge_row, 0, e);
  ExpectOpenCorruption(huge_row, "array lengths inconsistent");
}

TEST(CcsrLoaderTest, NonEmptyRowOnForeignLabelRejected) {
  // Undirected edge {0, 1}; vertex 2 (label 2) has no arcs. Ids {0, 1}
  // become {0, 2}, the bitmap word to match: vertex 2 now owns the row
  // [1, 2) and vertex 1 is empty.
  Graph g = testing::MakeGraph(false, {0, 1, 2}, {Edge{0, 1, 0}});
  std::string bytes = testing::CcsrV2Bytes(Ccsr::Build(g));
  const V2DirEntry e = testing::ReadV2DirEntry(bytes, 0);
  ASSERT_EQ(e.out.ids_count, 2u);
  ASSERT_EQ(e.out.words_count, 1u);
  testing::PokeBytes(&bytes, IdOffset(e, 1), VertexId{2});
  testing::PokeBytes(&bytes, V2CsrLayoutOf(e.out).words, uint64_t{0b101});
  ExpectLoadCorruption(bytes,
                       "outgoing: vertex 2 has label 2, not an endpoint "
                       "label of the cluster");
}

TEST(CcsrLoaderTest, IncomingNotTransposeRejected) {
  // Arcs 0 -> 2 and 1 -> 3: incoming rows 2: [0] and 3: [1] become
  // 2: [1] and 3: [0]. Each direction stays well-formed on its own.
  Graph g = testing::MakeGraph(true, {0, 0, 1, 1},
                               {Edge{0, 2, 0}, Edge{1, 3, 0}});
  std::string bytes = testing::CcsrV2Bytes(Ccsr::Build(g));
  const V2DirEntry e = testing::ReadV2DirEntry(bytes, 0);
  ASSERT_EQ(e.in.cols_count, 2u);
  testing::PokeBytes(&bytes, V2CsrLayoutOf(e.in).cols, VertexId{1});
  testing::PokeBytes(&bytes, V2CsrLayoutOf(e.in).cols + sizeof(VertexId),
                     VertexId{0});
  ExpectLoadCorruption(bytes,
                       "dir(0,1,NULL)-cluster: incoming CSR is not the "
                       "transpose of the outgoing CSR");
}

TEST(CcsrLoaderTest, AsymmetricUndirectedClusterRejected) {
  // Edges {0, 2} and {1, 3}: rows 0: [2], 1: [3], 2: [0], 3: [1]. Row 0
  // becomes [3]: arc 0 -> 3 without 3 -> 0, every row still well-formed.
  Graph g = testing::MakeGraph(false, {0, 0, 1, 1},
                               {Edge{0, 2, 0}, Edge{1, 3, 0}});
  std::string bytes = testing::CcsrV2Bytes(Ccsr::Build(g));
  const V2DirEntry e = testing::ReadV2DirEntry(bytes, 0);
  ASSERT_EQ(e.out.cols_count, 4u);
  testing::PokeBytes(&bytes, ColOffset(e, 0), VertexId{3});
  ExpectLoadCorruption(bytes,
                       "und(0,1,NULL)-cluster: undirected cluster arcs are "
                       "not symmetric");
}

TEST(CcsrLoaderTest, NeighborOutOfRangeRejected) {
  Graph g = testing::MakeGraph(false, {0, 1}, {Edge{0, 1, 0}});
  std::string bytes = testing::CcsrV2Bytes(Ccsr::Build(g));
  const V2DirEntry e = testing::ReadV2DirEntry(bytes, 0);
  ASSERT_EQ(e.out.cols_count, 2u);
  testing::PokeBytes(&bytes, ColOffset(e, 0), VertexId{2});  // == |V|
  ExpectLoadCorruption(bytes,
                       "outgoing: neighbor 2 of vertex 0 out of range");
}

TEST(CcsrLoaderTest, UnsortedNeighborsRejected) {
  // Vertex 0's row is the columns [1, 2].
  Graph g = testing::MakeGraph(false, {0, 1, 1},
                               {Edge{0, 1, 0}, Edge{0, 2, 0}});
  const std::string clean = testing::CcsrV2Bytes(Ccsr::Build(g));
  const V2DirEntry e = testing::ReadV2DirEntry(clean, 0);
  ASSERT_EQ(e.out.cols_count, 4u);
  const std::string want =
      "outgoing: neighbors of vertex 0 not sorted strictly increasing";
  std::string duplicate = clean;  // [1, 1]
  testing::PokeBytes(&duplicate, ColOffset(e, 1), VertexId{1});
  ExpectLoadCorruption(duplicate, want);
  std::string descending = clean;  // [2, 1]
  testing::PokeBytes(&descending, ColOffset(e, 0), VertexId{2});
  testing::PokeBytes(&descending, ColOffset(e, 1), VertexId{1});
  ExpectLoadCorruption(descending, want);
}

TEST(CcsrLoaderTest, ArcLabelPairMismatchRejected) {
  // Vertex 0's row [1, 2] becomes [1, 3]: still sorted and in range,
  // but vertex 3 carries label 2, outside the cluster's pair {0, 1}.
  Graph g = testing::MakeGraph(false, {0, 1, 1, 2},
                               {Edge{0, 1, 0}, Edge{0, 2, 0}});
  std::string bytes = testing::CcsrV2Bytes(Ccsr::Build(g));
  const V2DirEntry e = testing::ReadV2DirEntry(bytes, 0);
  ASSERT_EQ(e.out.cols_count, 4u);
  testing::PokeBytes(&bytes, ColOffset(e, 1), VertexId{3});
  ExpectLoadCorruption(bytes,
                       "outgoing: arc (0, 3) labels (0, 2) do not match "
                       "the cluster id");
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
