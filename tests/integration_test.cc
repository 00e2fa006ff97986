// Integration: the full pipeline (generate dataset analogue -> build
// CCSR -> persist -> reload -> plan -> execute) against the
// backtracking baseline on every variant each side supports.

#include <gtest/gtest.h>

#include <sstream>

#include "baselines/backtracking.h"
#include "ccsr/ccsr_io.h"
#include "engine/matcher.h"
#include "gen/datasets.h"
#include "gen/pattern_gen.h"
#include "tests/test_util.h"

namespace csce {
namespace {

// Time limit for the large-pattern test below. Its slowest variant
// (vertex-induced) takes ~0.3 s in an optimized build, ~2 s under
// ASan+UBSan and ~7 s under TSan, so sanitizer builds get more room.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr double kLargePatternLimitSeconds = 30;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr double kLargePatternLimitSeconds = 30;
#else
constexpr double kLargePatternLimitSeconds = 5;
#endif
#else
constexpr double kLargePatternLimitSeconds = 5;
#endif

struct DatasetCase {
  const char* name;
  Graph (*make)();
};

class DatasetIntegrationTest
    : public ::testing::TestWithParam<std::tuple<int, MatchVariant>> {
 protected:
  static Graph MakeDataset(int which) {
    switch (which) {
      case 0:
        return datasets::Dip();
      case 1:
        return datasets::Yeast();
      case 2:
        return datasets::Human();
      case 3:
        return datasets::Hprd();
      default:
        return datasets::Subcategory();
    }
  }
};

TEST_P(DatasetIntegrationTest, CsceAgreesWithBaselineEndToEnd) {
  auto [which, variant] = GetParam();
  Graph data = MakeDataset(which);

  // Round-trip the index through its binary format, as a deployment
  // would.
  Ccsr built = Ccsr::Build(data);
  std::stringstream buffer;
  ASSERT_TRUE(SaveCcsrToStream(built, buffer).ok());
  Ccsr index;
  ASSERT_TRUE(LoadCcsrFromStream(buffer, &index).ok());

  CsceMatcher matcher(&index);
  BacktrackingMatcher baseline(&data);
  Rng rng(1000 + which);
  for (uint32_t size : {4u, 6u}) {
    Graph pattern;
    ASSERT_TRUE(
        SamplePattern(data, size, PatternDensity::kDense, rng, &pattern)
            .ok());
    MatchOptions options;
    options.variant = variant;
    options.time_limit_seconds = 30;
    MatchResult ours;
    ASSERT_TRUE(matcher.Match(pattern, options, &ours).ok());

    BaselineOptions bopts;
    bopts.variant = variant;
    bopts.time_limit_seconds = 30;
    BaselineResult theirs;
    ASSERT_TRUE(baseline.Match(pattern, bopts, &theirs).ok());
    if (!ours.timed_out && !theirs.timed_out) {
      EXPECT_EQ(ours.embeddings, theirs.embeddings)
          << "dataset " << which << " size " << size;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallDatasets, DatasetIntegrationTest,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values(MatchVariant::kEdgeInduced,
                                         MatchVariant::kVertexInduced,
                                         MatchVariant::kHomomorphic)));

TEST(IntegrationTest, LargePatternPlansAndExecutesWithLimit) {
  // A 32-vertex pattern through the whole pipeline with the default
  // options, count capped. Every variant must find the pattern in its
  // source graph; with the label-pair filter on, all three finish in
  // well under a second, so the short limit fails a regression fast
  // instead of letting it wait out a long timeout.
  Graph data = datasets::Patent(20);
  Ccsr index = Ccsr::Build(data);
  CsceMatcher matcher(&index);
  Rng rng(77);
  Graph pattern;
  ASSERT_TRUE(
      SamplePattern(data, 32, PatternDensity::kDense, rng, &pattern).ok());
  for (auto variant :
       {MatchVariant::kEdgeInduced, MatchVariant::kVertexInduced,
        MatchVariant::kHomomorphic}) {
    MatchOptions options;
    options.variant = variant;
    options.max_embeddings = 1000;
    options.time_limit_seconds = kLargePatternLimitSeconds;
    MatchResult result;
    ASSERT_TRUE(matcher.Match(pattern, options, &result).ok());
    // Sampled patterns are induced subgraphs of their source, so they
    // occur at least once under every variant.
    EXPECT_FALSE(result.timed_out) << VariantName(variant);
    EXPECT_GE(result.embeddings, 1u) << VariantName(variant);
  }
}

TEST(IntegrationTest, DirectedHomomorphicPipeline) {
  Graph data = datasets::Subcategory();
  Ccsr index = Ccsr::Build(data);
  CsceMatcher matcher(&index);
  Rng rng(88);
  Graph pattern;
  ASSERT_TRUE(
      SamplePattern(data, 8, PatternDensity::kSparse, rng, &pattern).ok());
  MatchOptions options;
  options.variant = MatchVariant::kHomomorphic;
  options.time_limit_seconds = 20;
  MatchResult result;
  ASSERT_TRUE(matcher.Match(pattern, options, &result).ok());
  EXPECT_GE(result.embeddings, 1u);  // it was sampled from the graph
}

}  // namespace
}  // namespace csce
