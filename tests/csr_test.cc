#include "ccsr/csr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <tuple>

#include "ccsr/ccsr.h"
#include "ccsr/ccsr_io.h"
#include "ccsr/ccsr_mmap.h"
#include "tests/ccsr_artifact_util.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace csce {
namespace {

// A finished builder holding the arrays of one direction over `n`
// vertices, from `arcs` in any order.
CsrBuilder BuildArrays(uint32_t n, std::vector<Edge> arcs) {
  std::sort(arcs.begin(), arcs.end());
  CsrBuilder builder;
  for (const Edge& a : arcs) builder.Add(a.src, a.dst);
  builder.Finish(n);
  return builder;
}

TEST(CsrIndexTest, BasicNeighbors) {
  const CsrBuilder b =
      BuildArrays(6, {{0, 1, 0}, {0, 5, 0}, {3, 2, 0}, {3, 4, 0}});
  const CsrIndex csr = b.Index();
  EXPECT_EQ(csr.cols.size(), 4u);
  auto n0 = csr.Neighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 5u);
  EXPECT_TRUE(csr.Neighbors(1).empty());
  EXPECT_EQ(csr.Neighbors(3).size(), 2u);
}

TEST(CsrIndexTest, HasArc) {
  const CsrBuilder b = BuildArrays(4, {{0, 1, 0}, {0, 3, 0}});
  const CsrIndex csr = b.Index();
  EXPECT_TRUE(csr.HasArc(0, 1));
  EXPECT_TRUE(csr.HasArc(0, 3));
  EXPECT_FALSE(csr.HasArc(0, 2));
  EXPECT_FALSE(csr.HasArc(1, 0));
}

TEST(CsrIndexTest, NonEmptyVertices) {
  const CsrBuilder b = BuildArrays(10, {{2, 0, 0}, {7, 1, 0}});
  const CsrIndex a = b.Index();
  std::vector<VertexId> expected = {2, 7};
  EXPECT_TRUE(std::ranges::equal(a.ids, expected));
  std::vector<uint64_t> offsets = {0, 1, 2};
  EXPECT_TRUE(std::ranges::equal(a.offsets, offsets));
}

TEST(CsrIndexTest, SparseLayoutForSmallClusters) {
  // 2 sources out of 10000 vertices: far below the density threshold.
  const CsrBuilder b = BuildArrays(10000, {{5, 6, 0}, {9000, 3, 0}});
  const CsrIndex csr = b.Index();
  EXPECT_FALSE(csr.dense());
  EXPECT_EQ(csr.Neighbors(5).size(), 1u);
  EXPECT_EQ(csr.Neighbors(9000)[0], 3u);
  EXPECT_TRUE(csr.Neighbors(4).empty());
}

TEST(CsrIndexTest, DenseLayoutForBigClusters) {
  std::vector<Edge> arcs;
  for (VertexId v = 0; v < 100; ++v) arcs.push_back({v, (v + 1) % 100, 0});
  const CsrBuilder b = BuildArrays(100, arcs);
  const CsrIndex csr = b.Index();
  EXPECT_TRUE(csr.dense());
  for (VertexId v = 0; v < 100; ++v) {
    ASSERT_EQ(csr.Neighbors(v).size(), 1u);
    EXPECT_EQ(csr.Neighbors(v)[0], (v + 1) % 100);
  }
}

TEST(CsrBuilderTest, NoArcsGiveNoArrays) {
  const CsrBuilder b = BuildArrays(100, {});
  const CsrIndex a = b.Index();
  EXPECT_EQ(a.SizeBytes(), 0u);
  EXPECT_EQ(a.max_row_length, 0u);
  EXPECT_TRUE(a.Validate(100).ok());
  EXPECT_TRUE(a.Neighbors(0).empty());
  EXPECT_TRUE(a.OffsetsEndAtColumns());
}

TEST(CsrBuilderTest, EveryVertexNonEmpty) {
  // 130 vertices (not a multiple of 64), each with one arc: the bitmap
  // has three words, the last one partly used.
  std::vector<Edge> arcs;
  for (VertexId v = 0; v < 130; ++v) arcs.push_back({v, (v + 7) % 130, 0});
  const CsrBuilder b = BuildArrays(130, arcs);
  const CsrIndex a = b.Index();
  ASSERT_EQ(a.words.size(), 3u);
  EXPECT_EQ(a.words[2], 0b11u);
  std::vector<uint32_t> rank = {0, 64, 128};
  EXPECT_TRUE(std::ranges::equal(a.rank, rank));
  EXPECT_EQ(a.RowIndexBytes(), 130 * sizeof(VertexId) +
                                   131 * sizeof(uint64_t) +
                                   3 * (sizeof(uint64_t) + sizeof(uint32_t)));
}

// The builder fed random rows by source, at every fill from empty to
// full: its arrays equal the dense-row oracle (the non-empty rows are
// exactly the strict increases of the prefix-summed row array).
class CsrBuilderRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsrBuilderRandomTest, ArraysEqualDenseRows) {
  Rng rng(GetParam());
  const uint32_t n = 1 + static_cast<uint32_t>(rng.Uniform(500));
  const double fill = rng.Uniform(101) / 100.0;
  std::vector<Edge> arcs;
  for (VertexId v = 0; v < n; ++v) {
    if (!rng.Bernoulli(fill)) continue;
    std::set<VertexId> dsts;
    const uint64_t degree = 1 + rng.Uniform(4);
    for (uint64_t k = 0; k < degree; ++k) {
      dsts.insert(static_cast<VertexId>(rng.Uniform(n)));
    }
    for (VertexId w : dsts) arcs.push_back({v, w, 0});
  }
  testing::ExpectMatchesDenseRows(BuildArrays(n, arcs).Index(), n, arcs,
                                  "fill " + std::to_string(fill));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrBuilderRandomTest,
                         ::testing::Range<uint64_t>(0, 20));

class CsrLayoutAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsrLayoutAgreementTest, DenseAndSparseAgree) {
  Rng rng(GetParam());
  // Vertex count chosen so some instances are dense and some sparse.
  uint32_t n = 50 + static_cast<uint32_t>(rng.Uniform(5000));
  size_t m = 1 + rng.Uniform(200);
  std::set<std::pair<VertexId, VertexId>> arc_set;
  for (size_t i = 0; i < m; ++i) {
    VertexId a = static_cast<VertexId>(rng.Uniform(n));
    VertexId b = static_cast<VertexId>(rng.Uniform(n));
    if (a != b) arc_set.insert({a, b});
  }
  std::vector<Edge> arcs;
  for (auto [a, b] : arc_set) arcs.push_back({a, b, 0});
  const CsrBuilder b = BuildArrays(n, arcs);
  const CsrIndex csr = b.Index();
  EXPECT_EQ(csr.cols.size(), arcs.size());
  // Every arc must be found; every probed non-arc must not.
  for (const Edge& e : arcs) EXPECT_TRUE(csr.HasArc(e.src, e.dst));
  for (int probe = 0; probe < 100; ++probe) {
    VertexId a = static_cast<VertexId>(rng.Uniform(n));
    VertexId b = static_cast<VertexId>(rng.Uniform(n));
    bool expected = arc_set.count({a, b}) > 0;
    EXPECT_EQ(csr.HasArc(a, b), expected);
  }
  // The non-empty rows are the distinct sources.
  std::set<VertexId> sources;
  for (const Edge& e : arcs) sources.insert(e.src);
  EXPECT_TRUE(std::ranges::equal(csr.ids, sources));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrLayoutAgreementTest,
                         ::testing::Range<uint64_t>(0, 25));

// Layout property test: on vertex counts that are not multiples of 64,
// at fills above and below the rank-bitmap threshold, the arrays of a
// one-cluster index — built in memory, and mapped from its v2 artifact
// — equal the dense-row oracle (ExpectMatchesDenseRows), lookups
// included. The word-boundary vertices 0, 63, 64, 127 and |V|-1 get
// arcs in one half of the cases and none in the other.
struct LayoutCase {
  uint32_t n;
  double fill;         // probability that a vertex has arcs
  bool edges_on_ends;  // word-boundary vertices with (true) or without arcs
  bool dense;          // the layout the fill must select
};

class CsrLayoutPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, LayoutCase>> {};

TEST_P(CsrLayoutPropertyTest, LookupsEqualDenseRows) {
  const auto& [seed, c] = GetParam();
  Rng rng(seed * 7919 + c.n);
  const std::vector<VertexId> ends = {0, 63, 64, 127, c.n - 1};
  std::vector<Edge> arcs;
  for (VertexId v = 0; v < c.n; ++v) {
    const bool end = std::find(ends.begin(), ends.end(), v) != ends.end();
    if (end ? !c.edges_on_ends : !rng.Bernoulli(c.fill)) continue;
    std::set<VertexId> dsts;
    const uint64_t degree = 1 + rng.Uniform(5);
    while (dsts.size() < degree) {
      const VertexId w = static_cast<VertexId>(rng.Uniform(c.n));
      if (w != v) dsts.insert(w);
    }
    for (VertexId w : dsts) arcs.push_back({v, w, 0});
  }
  // One unlabeled directed cluster whose outgoing CSR holds the arcs.
  const Graph g =
      testing::MakeGraph(true, std::vector<Label>(c.n, 0), arcs);
  const Ccsr built = Ccsr::Build(g);
  ASSERT_EQ(built.NumClusters(), 1u);
  testing::ExpectMatchesDenseRows(built.clusters()[0].out, c.n, arcs,
                                  "in memory");
  EXPECT_EQ(built.clusters()[0].out.dense(), c.dense)
      << built.clusters()[0].out.ids.size() << " of " << c.n;

  const std::string path = testing::ScratchArtifactPath("csr_layout");
  ASSERT_TRUE(SaveCcsrToFileV2(built, path).ok());
  std::unique_ptr<MmapCcsr> mapped;
  ASSERT_TRUE(MmapCcsr::Open(path, &mapped).ok());
  ASSERT_TRUE(mapped->ccsr().mapped());
  testing::ExpectMatchesDenseRows(mapped->ccsr().clusters()[0].out, c.n, arcs,
                                  "mmap'd");
  mapped.reset();
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Fills, CsrLayoutPropertyTest,
    ::testing::Combine(
        ::testing::Range<uint64_t>(0, 4),
        // Fills sit far from the 1/16 threshold on either side.
        ::testing::Values(LayoutCase{130, 0.5, true, true},
                          LayoutCase{130, 0.5, false, true},
                          LayoutCase{130, 0.0, true, false},
                          LayoutCase{1000, 0.2, false, true},
                          LayoutCase{1000, 0.01, true, false},
                          LayoutCase{4099, 0.15, true, true},
                          LayoutCase{4099, 0.005, false, false})));

}  // namespace
}  // namespace csce
