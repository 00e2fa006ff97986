#include "ccsr/csr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <tuple>

#include "ccsr/compressed_row.h"
#include "util/rng.h"

namespace csce {
namespace {

std::vector<Edge> SortedArcs(std::vector<Edge> arcs) {
  std::sort(arcs.begin(), arcs.end());
  return arcs;
}

TEST(CsrIndexTest, BasicNeighbors) {
  std::vector<Edge> arcs =
      SortedArcs({{0, 1, 0}, {0, 5, 0}, {3, 2, 0}, {3, 4, 0}});
  CsrIndex csr = CsrIndex::FromArcs(6, arcs);
  EXPECT_EQ(csr.NumArcs(), 4u);
  auto n0 = csr.Neighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 5u);
  EXPECT_TRUE(csr.Neighbors(1).empty());
  EXPECT_EQ(csr.Neighbors(3).size(), 2u);
}

TEST(CsrIndexTest, HasArc) {
  CsrIndex csr = CsrIndex::FromArcs(4, SortedArcs({{0, 1, 0}, {0, 3, 0}}));
  EXPECT_TRUE(csr.HasArc(0, 1));
  EXPECT_TRUE(csr.HasArc(0, 3));
  EXPECT_FALSE(csr.HasArc(0, 2));
  EXPECT_FALSE(csr.HasArc(1, 0));
}

TEST(CsrIndexTest, NonEmptyVertices) {
  CsrIndex csr = CsrIndex::FromArcs(10, SortedArcs({{2, 0, 0}, {7, 1, 0}}));
  std::vector<VertexId> expected = {2, 7};
  EXPECT_EQ(csr.NonEmptyVertices(), expected);
}

TEST(CsrIndexTest, SparseLayoutForSmallClusters) {
  // 2 sources out of 10000 vertices: far below the density threshold.
  CsrIndex csr =
      CsrIndex::FromArcs(10000, SortedArcs({{5, 6, 0}, {9000, 3, 0}}));
  EXPECT_FALSE(csr.dense());
  EXPECT_EQ(csr.Neighbors(5).size(), 1u);
  EXPECT_EQ(csr.Neighbors(9000)[0], 3u);
  EXPECT_TRUE(csr.Neighbors(4).empty());
}

TEST(CsrIndexTest, DenseLayoutForBigClusters) {
  std::vector<Edge> arcs;
  for (VertexId v = 0; v < 100; ++v) arcs.push_back({v, (v + 1) % 100, 0});
  CsrIndex csr = CsrIndex::FromArcs(100, SortedArcs(arcs));
  EXPECT_TRUE(csr.dense());
  for (VertexId v = 0; v < 100; ++v) {
    ASSERT_EQ(csr.Neighbors(v).size(), 1u);
    EXPECT_EQ(csr.Neighbors(v)[0], (v + 1) % 100);
  }
}

TEST(CsrIndexTest, SizeBytesCountsOnlyOwnedColumns) {
  // The same rows, once owning its columns and once borrowing them: the
  // row-lookup arrays are identical, so the two sizes differ by exactly
  // the column bytes.
  std::vector<Edge> arcs;
  for (VertexId v = 0; v < 100; v += 3) {
    arcs.push_back({v, (v + 1) % 100, 0});
    arcs.push_back({v, (v + 2) % 100, 0});
  }
  arcs = SortedArcs(arcs);
  CompressedRowBuilder builder;
  std::vector<VertexId> cols;
  for (const Edge& e : arcs) {
    builder.Add(e.src);
    cols.push_back(e.dst);
  }
  const CompressedRowIndex rows = std::move(builder).Finish(100);
  const CsrIndex borrowed = CsrIndex::FromCompressed(rows, std::span(cols));
  const CsrIndex owned = CsrIndex::FromArcs(100, arcs);
  EXPECT_GT(borrowed.SizeBytes(), 0u);
  EXPECT_EQ(owned.SizeBytes() - borrowed.SizeBytes(),
            arcs.size() * sizeof(VertexId));
}

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
  CsrIndex csr = CsrIndex::FromArcs(n, arcs);
  EXPECT_EQ(csr.NumArcs(), arcs.size());
  // Every arc must be found; every probed non-arc must not.
  for (const Edge& e : arcs) EXPECT_TRUE(csr.HasArc(e.src, e.dst));
  for (int probe = 0; probe < 100; ++probe) {
    VertexId a = static_cast<VertexId>(rng.Uniform(n));
    VertexId b = static_cast<VertexId>(rng.Uniform(n));
    bool expected = arc_set.count({a, b}) > 0;
    EXPECT_EQ(csr.HasArc(a, b), expected);
  }
  // NonEmptyVertices == distinct sources.
  std::set<VertexId> sources;
  for (const Edge& e : arcs) sources.insert(e.src);
  std::vector<VertexId> expected_sources(sources.begin(), sources.end());
  EXPECT_EQ(csr.NonEmptyVertices(), expected_sources);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrLayoutAgreementTest,
                         ::testing::Range<uint64_t>(0, 25));

// Layout property test: on vertex counts that are not multiples of 64,
// at fills above and below the rank-bitmap threshold, every lookup of a
// CsrIndex over borrowed columns equals the standard row array that
// CompressedRowIndex::Decompress() rebuilds. The word-boundary vertices
// 0, 63, 64, 127 and |V|-1 get arcs in one half of the cases and none
// in the other.
struct LayoutCase {
  uint32_t n;
  double fill;         // probability that a vertex has arcs
  bool edges_on_ends;  // word-boundary vertices with (true) or without arcs
  bool dense;          // the layout the fill must select
};

class CsrLayoutPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, LayoutCase>> {};

TEST_P(CsrLayoutPropertyTest, LookupsEqualDecompressedRows) {
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
      dsts.insert(static_cast<VertexId>(rng.Uniform(c.n)));
    }
    for (VertexId w : dsts) arcs.push_back({v, w, 0});
  }
  CompressedRowBuilder builder;
  std::vector<VertexId> cols;
  for (const Edge& e : arcs) {
    builder.Add(e.src);
    cols.push_back(e.dst);
  }
  const CompressedRowIndex rows = std::move(builder).Finish(c.n);
  const CsrIndex csr = CsrIndex::FromCompressed(rows, std::span(cols));

  const std::vector<uint64_t> row = rows.Decompress();
  ASSERT_EQ(row.size(), c.n + 1u);
  std::vector<VertexId> non_empty;
  size_t max_len = 0;
  for (VertexId v = 0; v < c.n; ++v) {
    const std::span<const VertexId> want(cols.data() + row[v],
                                         cols.data() + row[v + 1]);
    const std::span<const VertexId> got = csr.Neighbors(v);
    ASSERT_TRUE(std::ranges::equal(got, want)) << "v=" << v;
    if (!want.empty()) {
      // Borrowed: the row is the caller's column storage itself.
      EXPECT_EQ(got.data(), want.data()) << "v=" << v;
      non_empty.push_back(v);
    }
    max_len = std::max(max_len, want.size());
  }
  for (VertexId v : {c.n, c.n + 1, c.n + 64, ~VertexId{0}}) {
    EXPECT_TRUE(csr.Neighbors(v).empty()) << "v=" << v;
  }
  EXPECT_EQ(csr.MaxRowLength(), max_len);
  EXPECT_TRUE(std::ranges::equal(csr.NonEmptySpan(), non_empty));
  EXPECT_EQ(csr.NumArcs(), arcs.size());
  EXPECT_EQ(csr.dense(), c.dense) << non_empty.size() << " of " << c.n;
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
