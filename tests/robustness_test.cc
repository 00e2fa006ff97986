// Robustness: corrupted inputs must fail with Status (never crash or
// hang), limits must be honored, and deep recursion must be safe.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/matcher.h"
#include "graph/graph_io.h"
#include "tests/ccsr_artifact_util.h"
#include "tests/test_util.h"
#include "util/timer.h"

namespace csce {
namespace {

TEST(RobustnessTest, CcsrLoadSurvivesAllTruncations) {
  Rng rng(501);
  Graph g = testing::RandomGraph(rng, 25, 0.25, 3, 2, true);
  Ccsr ccsr = Ccsr::Build(g);
  const std::string bytes = testing::CcsrV2Bytes(ccsr);
  // Every proper prefix must be rejected cleanly: cut inside each
  // header, section and cluster array (and at the last byte).
  std::vector<size_t> lengths = {bytes.size() - 1};
  for (const auto& [begin, end] : testing::V2ContentRanges(bytes)) {
    for (size_t len = begin; len < end; len += 7) lengths.push_back(len);
  }
  for (size_t len : lengths) {
    Ccsr out;
    Status st = testing::LoadCcsrBytes(bytes.substr(0, len), &out);
    EXPECT_FALSE(st.ok()) << "prefix length " << len;
  }
}

TEST(RobustnessTest, CcsrLoadSurvivesBitFlips) {
  Rng rng(502);
  Graph g = testing::RandomGraph(rng, 15, 0.3, 2, 1, false);
  Ccsr ccsr = Ccsr::Build(g);
  const std::string bytes = testing::CcsrV2Bytes(ccsr);
  // Flipping a header, directory or array byte may still load (payload
  // bytes), but must never crash; magic/version corruption must be
  // rejected.
  for (const auto& [begin, end] : testing::V2ContentRanges(bytes)) {
    for (size_t pos = begin; pos < end; pos += 5) {
      std::string corrupted = bytes;
      corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x5A);
      Ccsr out;
      Status st = testing::LoadCcsrBytes(corrupted, &out);  // any code
      if (pos < 8) {
        EXPECT_FALSE(st.ok()) << "header corruption undetected";
      }
    }
  }
}

TEST(RobustnessTest, GraphLoadSurvivesGarbageLines) {
  const char* cases[] = {
      "",
      "garbage\n",
      "t undirected x y\n",
      "t undirected 1 0\nv 0\n",          // missing label still parses? no:
      "t undirected 2 1\nv 0 0\nv 1 0\ne 0\n",
      "t undirected 2 1\nv 0 0\nv 1 0\ne 0 5 0\n",  // endpoint range
      "t undirected 1 0\nv 0 0\nv 0 0\n",           // count mismatch
  };
  for (const char* text : cases) {
    Graph g;
    Status st = LoadGraphFromString(text, &g);
    EXPECT_FALSE(st.ok()) << "accepted: " << text;
  }
}

TEST(RobustnessTest, DeepPatternRecursionIsSafe) {
  // A 400-vertex path pattern on a 500-vertex path graph: recursion
  // depth equals pattern size.
  Graph data = testing::Path(500);
  Graph pattern = testing::Path(400);
  Ccsr gc = Ccsr::Build(data);
  CsceMatcher matcher(&gc);
  MatchOptions options;
  options.max_embeddings = 100;
  MatchResult result;
  ASSERT_TRUE(matcher.Match(pattern, options, &result).ok());
  EXPECT_GE(result.embeddings, 100u);
}

TEST(RobustnessTest, PatternLargerThanDataGivesZero) {
  Graph data = testing::Clique(4);
  Graph pattern = testing::Clique(6);
  Ccsr gc = Ccsr::Build(data);
  CsceMatcher matcher(&gc);
  for (auto variant :
       {MatchVariant::kEdgeInduced, MatchVariant::kVertexInduced}) {
    MatchOptions options;
    options.variant = variant;
    MatchResult result;
    ASSERT_TRUE(matcher.Match(pattern, options, &result).ok());
    EXPECT_EQ(result.embeddings, 0u);
  }
}

TEST(RobustnessTest, HomomorphismOntoSmallerGraphWorks) {
  // Unlike the injective variants, a big pattern can map onto a tiny
  // graph homomorphically.
  Graph data = testing::Path(2);
  Graph pattern = testing::Path(10);
  Ccsr gc = Ccsr::Build(data);
  CsceMatcher matcher(&gc);
  MatchOptions options;
  options.variant = MatchVariant::kHomomorphic;
  MatchResult result;
  ASSERT_TRUE(matcher.Match(pattern, options, &result).ok());
  EXPECT_EQ(result.embeddings, 2u);  // alternating walks
}

TEST(RobustnessTest, TimeLimitHonoredWithinTolerance) {
  Graph data = testing::Clique(40);
  Ccsr gc = Ccsr::Build(data);
  CsceMatcher matcher(&gc);
  MatchOptions options;
  options.variant = MatchVariant::kHomomorphic;
  options.time_limit_seconds = 0.05;
  WallTimer timer;
  MatchResult result;
  ASSERT_TRUE(matcher.Match(testing::Clique(9), options, &result).ok());
  EXPECT_TRUE(result.timed_out);
  EXPECT_LT(timer.Seconds(), 2.0);  // generous: deadline checks batch
}

TEST(RobustnessTest, DeterministicAcrossRuns) {
  Rng rng(503);
  Graph data = testing::RandomGraph(rng, 30, 0.2, 3, 2, true);
  Graph pattern = testing::RandomGraph(rng, 5, 0.5, 3, 2, true);
  Ccsr gc = Ccsr::Build(data);
  CsceMatcher matcher(&gc);
  MatchOptions options;
  MatchResult a;
  MatchResult b;
  ASSERT_TRUE(matcher.Match(pattern, options, &a).ok());
  ASSERT_TRUE(matcher.Match(pattern, options, &b).ok());
  EXPECT_EQ(a.embeddings, b.embeddings);
  EXPECT_EQ(a.search_nodes, b.search_nodes);
  EXPECT_EQ(a.candidate_sets_computed, b.candidate_sets_computed);
}

TEST(RobustnessTest, ReusedMatcherManyPatterns) {
  // One matcher, many patterns back to back: no state bleed.
  Rng rng(504);
  Graph data = testing::RandomGraph(rng, 25, 0.25, 2, 1, false);
  Ccsr gc = Ccsr::Build(data);
  CsceMatcher matcher(&gc);
  for (int i = 0; i < 20; ++i) {
    Graph pattern = testing::RandomGraph(rng, 4, 0.6, 2, 1, false);
    MatchOptions options;
    MatchResult once;
    MatchResult twice;
    ASSERT_TRUE(matcher.Match(pattern, options, &once).ok());
    ASSERT_TRUE(matcher.Match(pattern, options, &twice).ok());
    EXPECT_EQ(once.embeddings, twice.embeddings);
  }
}

TEST(RobustnessTest, EmptyDataGraph) {
  GraphBuilder b(false);
  Graph data;
  ASSERT_TRUE(b.Build(&data).ok());
  Ccsr gc = Ccsr::Build(data);
  CsceMatcher matcher(&gc);
  MatchOptions options;
  MatchResult result;
  ASSERT_TRUE(matcher.Match(testing::Path(2), options, &result).ok());
  EXPECT_EQ(result.embeddings, 0u);
}

}  // namespace
}  // namespace csce
