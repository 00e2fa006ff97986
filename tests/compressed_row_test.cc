#include "ccsr/compressed_row.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.h"

namespace csce {
namespace {

TEST(CompressedRowTest, RoundTripsSimpleRow) {
  std::vector<uint64_t> row = {0, 2, 2, 2, 5, 5, 6};
  CompressedRowIndex c = CompressedRowIndex::Compress(row);
  EXPECT_EQ(c.Decompress(), row);
  EXPECT_EQ(c.uncompressed_length(), row.size());
}

TEST(CompressedRowTest, CompressesRuns) {
  std::vector<uint64_t> row(1000, 42);
  CompressedRowIndex c = CompressedRowIndex::Compress(row);
  EXPECT_EQ(c.num_runs(), 1u);
  EXPECT_EQ(c.Decompress(), row);
}

TEST(CompressedRowTest, EmptyRow) {
  CompressedRowIndex c = CompressedRowIndex::Compress({});
  EXPECT_EQ(c.num_runs(), 0u);
  EXPECT_TRUE(c.Decompress().empty());
}

TEST(CompressedRowTest, NonEmptyRowEnumeration) {
  // Row index of a 5-vertex CSR: vertex 0 has [0,2), vertex 3 has [2,3).
  std::vector<uint64_t> row = {0, 2, 2, 2, 3, 3};
  CompressedRowIndex c = CompressedRowIndex::Compress(row);
  std::vector<std::tuple<uint64_t, uint64_t, uint64_t>> got;
  c.ForEachNonEmptyRow([&got](uint64_t v, uint64_t b, uint64_t e) {
    got.emplace_back(v, b, e);
  });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], std::make_tuple(0u, 0u, 2u));
  EXPECT_EQ(got[1], std::make_tuple(3u, 2u, 3u));
}

TEST(CompressedRowTest, AllVerticesNonEmpty) {
  std::vector<uint64_t> row = {0, 1, 2, 3};
  CompressedRowIndex c = CompressedRowIndex::Compress(row);
  size_t count = 0;
  c.ForEachNonEmptyRow([&count](uint64_t v, uint64_t b, uint64_t e) {
    EXPECT_EQ(b, v);
    EXPECT_EQ(e, v + 1);
    ++count;
  });
  EXPECT_EQ(count, 3u);
}

TEST(CompressedRowTest, BuilderSplitsRunsAboveUint32Count) {
  // 2^33 vertices, one arc from vertex 5: the tail of 2^33 - 5 entries
  // is more than one uint32 count holds, so it splits in two runs.
  constexpr uint64_t kVertices = uint64_t{1} << 33;
  CompressedRowBuilder builder;
  builder.Add(5);
  CompressedRowIndex c = std::move(builder).Finish(kVertices);
  const std::vector<RleRun> want = {
      {0, 6}, {1, 0xFFFFFFFFu}, {1, 0xFFFFFFFCu}};
  EXPECT_TRUE(std::ranges::equal(c.runs(), want));
  EXPECT_EQ(c.uncompressed_length(), kVertices + 1);
  EXPECT_TRUE(c.Validate().ok()) << c.Validate().ToString();
}

class CompressedRowRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompressedRowRandomTest, RoundTripsRandomMonotoneRows) {
  Rng rng(GetParam());
  size_t n = 1 + rng.Uniform(500);
  std::vector<uint64_t> row(n);
  uint64_t value = 0;
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) value += rng.Uniform(5);
    row[i] = value;
  }
  CompressedRowIndex c = CompressedRowIndex::Compress(row);
  EXPECT_EQ(c.Decompress(), row);

  // ForEachNonEmptyRow must report exactly the strict increases.
  std::vector<uint64_t> non_empty;
  c.ForEachNonEmptyRow([&](uint64_t v, uint64_t b, uint64_t e) {
    EXPECT_EQ(row[v], b);
    EXPECT_EQ(row[v + 1], e);
    EXPECT_LT(b, e);
    non_empty.push_back(v);
  });
  std::vector<uint64_t> expected;
  for (size_t v = 0; v + 1 < n; ++v) {
    if (row[v + 1] > row[v]) expected.push_back(v);
  }
  EXPECT_EQ(non_empty, expected);

  // The builder, fed each vertex's arcs by source, emits the runs of the
  // same row shifted to start at 0.
  CompressedRowBuilder builder;
  std::vector<uint64_t> shifted(n);
  for (size_t v = 0; v < n; ++v) {
    shifted[v] = row[v] - row[0];
    if (v + 1 < n) {
      for (uint64_t k = row[v]; k < row[v + 1]; ++k) builder.Add(v);
    }
  }
  CompressedRowIndex built = std::move(builder).Finish(n - 1);
  CompressedRowIndex want = CompressedRowIndex::Compress(shifted);
  EXPECT_EQ(built.uncompressed_length(), want.uncompressed_length());
  EXPECT_TRUE(std::ranges::equal(built.runs(), want.runs()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressedRowRandomTest,
                         ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace csce
