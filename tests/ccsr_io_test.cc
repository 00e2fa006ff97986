#include "ccsr/ccsr_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "ccsr/ccsr_mmap.h"

#include "tests/ccsr_artifact_util.h"
#include "tests/test_util.h"

namespace csce {
namespace {

// Writes `gc` as a v2 artifact and loads it back into owned memory.
Status RoundTrip(const Ccsr& gc, Ccsr* back) {
  return testing::LoadCcsrBytes(testing::CcsrV2Bytes(gc), back);
}

void ExpectCcsrEqual(const Ccsr& a, const Ccsr& b) {
  EXPECT_EQ(a.directed(), b.directed());
  EXPECT_EQ(a.NumVertices(), b.NumVertices());
  EXPECT_EQ(a.NumEdges(), b.NumEdges());
  EXPECT_TRUE(std::ranges::equal(a.vertex_labels(), b.vertex_labels()));
  ASSERT_EQ(a.NumClusters(), b.NumClusters());
  for (size_t i = 0; i < a.NumClusters(); ++i) {
    const CompressedCluster& ca = a.clusters()[i];
    const CompressedCluster& cb = b.clusters()[i];
    EXPECT_EQ(ca.id, cb.id);
    EXPECT_EQ(ca.num_edges, cb.num_edges);
    EXPECT_TRUE(ca.out == cb.out) << ca.id.ToString();
    EXPECT_TRUE(ca.in == cb.in) << ca.id.ToString();
  }
}

TEST(CcsrIoTest, RoundTripsUndirected) {
  Rng rng(31);
  Graph g = testing::RandomGraph(rng, 50, 0.15, 4, 2, false);
  Ccsr gc = Ccsr::Build(g);
  Ccsr back;
  ASSERT_TRUE(RoundTrip(gc, &back).ok());
  ExpectCcsrEqual(gc, back);
  // The loaded index must answer lookups identically.
  for (const CompressedCluster& c : gc.clusters()) {
    EXPECT_EQ(back.ClusterSize(c.id), c.num_edges);
  }
}

TEST(CcsrIoTest, RoundTripsDirected) {
  Rng rng(32);
  Graph g = testing::RandomGraph(rng, 50, 0.15, 4, 2, true);
  Ccsr gc = Ccsr::Build(g);
  Ccsr back;
  ASSERT_TRUE(RoundTrip(gc, &back).ok());
  ExpectCcsrEqual(gc, back);
}

// One image: the built, the loaded and the mapped index of the same
// graph save identical bytes, whatever storage their spans point into.
TEST(CcsrIoTest, BuiltLoadedAndMappedSaveOneImage) {
  Rng rng(35);
  GraphBuilder empty_builder(false);
  Graph empty;
  ASSERT_TRUE(empty_builder.Build(&empty).ok());
  const Graph graphs[] = {testing::RandomGraph(rng, 80, 0.1, 4, 2, true),
                          testing::RandomGraph(rng, 80, 0.1, 4, 2, false),
                          empty};
  for (const Graph& g : graphs) {
    const std::string where =
        g.NumVertices() == 0 ? "empty"
                             : (g.directed() ? "directed" : "undirected");
    const Ccsr built = Ccsr::Build(g);
    const std::string image = testing::CcsrV2Bytes(built);
    const std::string path = testing::ScratchArtifactPath("ccsr_one_image");
    testing::WriteFileBytes(path, image);
    Ccsr loaded;
    ASSERT_TRUE(LoadCcsrFromFile(path, &loaded).ok()) << where;
    std::unique_ptr<MmapCcsr> mapped;
    ASSERT_TRUE(MmapCcsr::Open(path, &mapped).ok()) << where;
    std::remove(path.c_str());
    EXPECT_TRUE(testing::CcsrV2Bytes(loaded) == image) << where;
    EXPECT_TRUE(testing::CcsrV2Bytes(mapped->ccsr()) == image) << where;
  }
}

TEST(CcsrIoTest, RoundTripsEmptyGraph) {
  GraphBuilder b(false);
  Graph g;
  ASSERT_TRUE(b.Build(&g).ok());
  Ccsr gc = Ccsr::Build(g);
  Ccsr back;
  ASSERT_TRUE(RoundTrip(gc, &back).ok());
  EXPECT_EQ(back.NumClusters(), 0u);
  EXPECT_EQ(back.NumVertices(), 0u);
}

TEST(CcsrIoTest, RejectsBadMagic) {
  Ccsr back;
  EXPECT_EQ(testing::LoadCcsrBytes("this is not a ccsr file at all", &back)
                .code(),
            StatusCode::kCorruption);
  // A page-sized file with a foreign magic passes the size check first.
  EXPECT_EQ(testing::LoadCcsrBytes(std::string(kV2PageBytes, 'x'), &back)
                .code(),
            StatusCode::kCorruption);
}

TEST(CcsrIoTest, RejectsTruncatedFile) {
  Rng rng(33);
  Graph g = testing::RandomGraph(rng, 30, 0.2, 3, 1, false);
  Ccsr gc = Ccsr::Build(g);
  std::string full = testing::CcsrV2Bytes(gc);
  // Chop off the tail.
  Ccsr back;
  EXPECT_EQ(testing::LoadCcsrBytes(full.substr(0, full.size() / 2), &back)
                .code(),
            StatusCode::kCorruption);
}

TEST(CcsrIoTest, FileRoundTrip) {
  Rng rng(34);
  Graph g = testing::RandomGraph(rng, 30, 0.2, 3, 1, true);
  Ccsr gc = Ccsr::Build(g);
  std::string path = testing::ScratchArtifactPath("ccsr_io_test");
  ASSERT_TRUE(SaveCcsrToFileV2(gc, path).ok());
  Ccsr back;
  ASSERT_TRUE(LoadCcsrFromFile(path, &back).ok());
  std::remove(path.c_str());
  ExpectCcsrEqual(gc, back);
  EXPECT_EQ(LoadCcsrFromFile("/nonexistent/x.ccsr", &back).code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace csce
