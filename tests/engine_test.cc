#include "engine/matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/isomorphism.h"
#include "plan/symmetry.h"
#include "tests/test_util.h"

namespace csce {
namespace {

using testing::MakeGraph;

MatchResult MustMatch(const Ccsr& gc, const Graph& pattern,
                      const MatchOptions& options) {
  CsceMatcher matcher(&gc);
  MatchResult result;
  Status st = matcher.Match(pattern, options, &result);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return result;
}

TEST(EngineTest, TrianglesInClique) {
  Ccsr gc = Ccsr::Build(testing::Clique(5));
  MatchOptions options;
  options.variant = MatchVariant::kEdgeInduced;
  // C(5,3) triangles * 3! mappings.
  EXPECT_EQ(MustMatch(gc, testing::Cycle(3), options).embeddings, 60u);
}

TEST(EngineTest, VertexInducedPathInTriangleIsZero) {
  Ccsr gc = Ccsr::Build(testing::Cycle(3));
  MatchOptions options;
  options.variant = MatchVariant::kVertexInduced;
  EXPECT_EQ(MustMatch(gc, testing::Path(3), options).embeddings, 0u);
  options.variant = MatchVariant::kEdgeInduced;
  EXPECT_EQ(MustMatch(gc, testing::Path(3), options).embeddings, 6u);
}

TEST(EngineTest, HomomorphismFolds) {
  Ccsr gc = Ccsr::Build(testing::Path(2));
  MatchOptions options;
  options.variant = MatchVariant::kHomomorphic;
  EXPECT_EQ(MustMatch(gc, testing::Path(3), options).embeddings, 2u);
}

TEST(EngineTest, SingleVertexPattern) {
  Graph data = MakeGraph(false, {1, 1, 2}, {{0, 1, 0}});
  Ccsr gc = Ccsr::Build(data);
  Graph pattern = MakeGraph(false, {1}, {});
  for (auto variant :
       {MatchVariant::kEdgeInduced, MatchVariant::kVertexInduced,
        MatchVariant::kHomomorphic}) {
    MatchOptions options;
    options.variant = variant;
    EXPECT_EQ(MustMatch(gc, pattern, options).embeddings, 2u);
  }
}

TEST(EngineTest, MissingClusterShortCircuits) {
  Graph data = MakeGraph(false, {1, 1}, {{0, 1, 0}});
  Ccsr gc = Ccsr::Build(data);
  Graph pattern = MakeGraph(false, {1, 2}, {{0, 1, 0}});  // no (1,2) edges
  MatchOptions options;
  MatchResult result = MustMatch(gc, pattern, options);
  EXPECT_EQ(result.embeddings, 0u);
  EXPECT_EQ(result.clusters_read, 0u);
}

TEST(EngineTest, MaxEmbeddingsStopsEarly) {
  Ccsr gc = Ccsr::Build(testing::Clique(8));
  MatchOptions options;
  options.max_embeddings = 10;
  MatchResult result = MustMatch(gc, testing::Cycle(3), options);
  EXPECT_EQ(result.embeddings, 10u);
  EXPECT_TRUE(result.limit_reached);
}

TEST(EngineTest, CallbackReceivesValidEmbeddings) {
  Graph data = testing::Clique(5);
  Ccsr gc = Ccsr::Build(data);
  Graph pattern = testing::Cycle(3);
  CsceMatcher matcher(&gc);
  MatchOptions options;
  MatchResult result;
  uint64_t seen = 0;
  ASSERT_TRUE(matcher
                  .MatchWithCallback(
                      pattern, options,
                      [&](std::span<const VertexId> mapping) {
                        EXPECT_EQ(mapping.size(), 3u);
                        std::set<VertexId> distinct(mapping.begin(),
                                                    mapping.end());
                        EXPECT_EQ(distinct.size(), 3u);  // injective
                        pattern.ForEachEdge([&](const Edge& e) {
                          EXPECT_TRUE(
                              data.HasEdge(mapping[e.src], mapping[e.dst]));
                        });
                        ++seen;
                        return true;
                      },
                      &result)
                  .ok());
  EXPECT_EQ(seen, 60u);
  EXPECT_EQ(result.embeddings, 60u);
}

TEST(EngineTest, CallbackCanStop) {
  Ccsr gc = Ccsr::Build(testing::Clique(6));
  CsceMatcher matcher(&gc);
  MatchOptions options;
  MatchResult result;
  uint64_t seen = 0;
  ASSERT_TRUE(matcher
                  .MatchWithCallback(
                      testing::Cycle(3), options,
                      [&seen](std::span<const VertexId>) {
                        return ++seen < 5;
                      },
                      &result)
                  .ok());
  EXPECT_EQ(seen, 5u);
}

TEST(EngineTest, TimeLimitFlagsTimeout) {
  // A pathologically large workload with an absurdly small limit.
  Graph data = testing::Clique(40);
  Ccsr gc = Ccsr::Build(data);
  MatchOptions options;
  options.variant = MatchVariant::kHomomorphic;
  options.time_limit_seconds = 0.02;
  MatchResult result = MustMatch(gc, testing::Clique(8), options);
  EXPECT_TRUE(result.timed_out);
}

TEST(EngineTest, ExpiredLimitStopsWithinOneDeadlineInterval) {
  // The limit has passed before the first search node: the run must
  // notice at its first deadline check. At ~1 us a node, checking every
  // 1024 nodes enforces a limit within ~1 ms.
  Graph data = testing::Clique(40);
  Ccsr gc = Ccsr::Build(data);
  MatchOptions options;
  options.variant = MatchVariant::kEdgeInduced;
  options.time_limit_seconds = 1e-9;
  MatchResult result = MustMatch(gc, testing::Clique(8), options);
  EXPECT_TRUE(result.timed_out);
  EXPECT_GT(result.search_nodes, 0u);
  EXPECT_LE(result.search_nodes, 1024u);
}

TEST(EngineTest, SceReuseHappensAndPreservesCounts) {
  // Star data and star pattern: leaf candidates are reusable across
  // sibling leaves.
  Rng rng(71);
  Graph data = testing::RandomGraph(rng, 30, 0.25, 2, 1, false);
  Ccsr gc = Ccsr::Build(data);
  Graph pattern = testing::Star(3);
  MatchOptions with_sce;
  MatchOptions no_sce;
  no_sce.plan.use_sce = false;
  MatchResult a = MustMatch(gc, pattern, with_sce);
  MatchResult b = MustMatch(gc, pattern, no_sce);
  EXPECT_EQ(a.embeddings, b.embeddings);
  EXPECT_GT(a.candidate_sets_reused, 0u);  // reuse must actually occur
  EXPECT_EQ(b.candidate_sets_reused, 0u);
  EXPECT_LE(a.candidate_sets_computed, b.candidate_sets_computed);
}

TEST(EngineTest, RestrictionsGiveCanonicalCounts) {
  Rng rng(73);
  Graph data = testing::RandomGraph(rng, 15, 0.3, 1, 1, false);
  Ccsr gc = Ccsr::Build(data);
  Graph pattern = testing::Cycle(4);
  SymmetryInfo info = ComputeSymmetryBreaking(pattern);
  MatchOptions plain;
  MatchOptions restricted;
  restricted.restrictions = info.restrictions;
  uint64_t full = MustMatch(gc, pattern, plain).embeddings;
  uint64_t canonical = MustMatch(gc, pattern, restricted).embeddings;
  EXPECT_EQ(canonical * info.automorphism_count, full);
}

TEST(EngineTest, MatchesBruteForceOnLabeledDirected) {
  Rng rng(79);
  Graph data = testing::RandomGraph(rng, 12, 0.3, 3, 2, true);
  Graph pattern = testing::RandomGraph(rng, 4, 0.5, 3, 2, true);
  Ccsr gc = Ccsr::Build(data);
  for (auto variant :
       {MatchVariant::kEdgeInduced, MatchVariant::kVertexInduced,
        MatchVariant::kHomomorphic}) {
    MatchOptions options;
    options.variant = variant;
    EXPECT_EQ(MustMatch(gc, pattern, options).embeddings,
              CountEmbeddingsBruteForce(data, pattern, variant))
        << VariantName(variant);
  }
}

TEST(EngineTest, DisconnectedPatternSupported) {
  Graph data = testing::Clique(5);
  Ccsr gc = Ccsr::Build(data);
  // Two disjoint edges: 5*4 * 3*2 ordered choices.
  Graph pattern = MakeGraph(false, {0, 0, 0, 0}, {{0, 1, 0}, {2, 3, 0}});
  MatchOptions options;
  EXPECT_EQ(MustMatch(gc, pattern, options).embeddings,
            CountEmbeddingsBruteForce(data, pattern,
                                      MatchVariant::kEdgeInduced));
}

TEST(EngineTest, StageTimesPopulated) {
  Ccsr gc = Ccsr::Build(testing::Clique(6));
  MatchResult result = MustMatch(gc, testing::Cycle(3), MatchOptions{});
  EXPECT_GE(result.read_seconds, 0.0);
  EXPECT_GE(result.plan_seconds, 0.0);
  EXPECT_GE(result.enumerate_seconds, 0.0);
  EXPECT_GE(result.total_seconds, result.enumerate_seconds);
  EXPECT_GT(result.peak_rss_bytes, 0u);
  EXPECT_GT(result.search_nodes, 0u);
}

TEST(EngineTest, ExplainPlanExposesOrder) {
  Ccsr gc = Ccsr::Build(testing::Clique(6));
  CsceMatcher matcher(&gc);
  Plan plan;
  ASSERT_TRUE(
      matcher.ExplainPlan(testing::Cycle(4), MatchOptions{}, &plan).ok());
  EXPECT_EQ(plan.order.size(), 4u);
}

TEST(EngineTest, FailedRunZeroesStatsOnReusedExecutor) {
  // Regression: Run used to write `*stats` only on success, so a failed
  // Run on a reused executor left the previous run's counters in the
  // caller's struct — which then looked like a (wrong) completed run.
  Ccsr gc = Ccsr::Build(testing::Clique(5));
  Graph pattern = testing::Cycle(3);
  QueryClusters qc;
  ASSERT_TRUE(
      ReadClusters(gc, pattern, MatchVariant::kEdgeInduced, &qc).ok());
  Planner planner(&gc);
  Plan plan;
  ASSERT_TRUE(
      planner.MakePlan(pattern, MatchVariant::kEdgeInduced, PlanOptions{},
                       &plan)
          .ok());
  Executor executor(gc, qc, plan);

  ExecStats stats;
  ASSERT_TRUE(executor.Run(ExecOptions{}, &stats).ok());
  EXPECT_EQ(stats.embeddings, 60u);
  EXPECT_GT(stats.search_nodes, 0u);

  ExecOptions bad;
  bad.restrictions = {{99, 98}};  // out of range: Prepare fails
  EXPECT_FALSE(executor.Run(bad, &stats).ok());
  EXPECT_EQ(stats.embeddings, 0u);
  EXPECT_EQ(stats.search_nodes, 0u);
  EXPECT_EQ(stats.candidate_sets_computed, 0u);

  // The executor stays reusable after the failure.
  ASSERT_TRUE(executor.Run(ExecOptions{}, &stats).ok());
  EXPECT_EQ(stats.embeddings, 60u);
}

// The schedule's oracle: the same walk over the plan, deduplicated on
// first occurrence by a linear search.
std::vector<ClusterId> NaiveClusterSchedule(const Ccsr& gc, const Plan& plan) {
  std::vector<ClusterId> ids;
  auto add = [&ids](const ClusterId& id) {
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
  };
  for (const PlanPosition& p : plan.positions) {
    if (p.seed_valid) add(p.seed_cluster);
    for (const EdgeConstraint& e : p.edges) add(e.cluster);
    for (const NegConstraint& n : p.negations) {
      for (size_t slot : gc.StarClusters(p.label, n.other_label)) {
        add(gc.clusters()[slot].id);
      }
    }
  }
  return ids;
}

TEST(PlanClusterScheduleTest, EqualsFirstOccurrenceDeduplication) {
  // Pattern labels 0-3 and edge labels 0-2 over data labels 0-2 and
  // edge labels 0-1: some pattern edges name clusters the index lacks.
  Rng rng(27);
  size_t absent = 0;
  size_t stars = 0;
  size_t relabelled = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const bool directed = trial % 2 == 1;
    Ccsr gc = Ccsr::Build(testing::RandomGraph(rng, 40, 0.2, 3, 2, directed));
    Graph pattern = testing::RandomGraph(rng, 6 + trial % 7, 0.45, 4, 3,
                                         directed);
    Planner planner(&gc);
    for (MatchVariant variant :
         {MatchVariant::kEdgeInduced, MatchVariant::kVertexInduced,
          MatchVariant::kHomomorphic}) {
      Plan plan;
      ASSERT_TRUE(
          planner.MakePlan(pattern, variant, PlanOptions{}, &plan).ok());
      const std::vector<ClusterId> want = NaiveClusterSchedule(gc, plan);
      EXPECT_EQ(PlanClusterSchedule(gc, plan), want)
          << "trial " << trial << " variant " << static_cast<int>(variant);
      for (const ClusterId& id : want) absent += gc.Find(id) == nullptr;
      for (const PlanPosition& p : plan.positions) stars += p.negations.size();
      // A negation whose other_label is not the named position's label
      // (a decoded wire plan is not validated) is walked as it says.
      std::vector<NegConstraint>& last = plan.positions.back().negations;
      if (last.empty()) continue;
      for (NegConstraint& n : last) n.other_label = (n.other_label + 1) % 3;
      EXPECT_EQ(PlanClusterSchedule(gc, plan), NaiveClusterSchedule(gc, plan))
          << "trial " << trial << " relabelled negations";
      ++relabelled;
    }
  }
  EXPECT_GT(absent, 0u);      // the empty-cluster path ran
  EXPECT_GT(stars, 0u);       // and the negation path
  EXPECT_GT(relabelled, 0u);  // and the unvalidated-label path
}

}  // namespace
}  // namespace csce
