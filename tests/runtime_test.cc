// Tests for the concurrent query runtime: ThreadPool/StopToken
// substrate, morsel-parallel enumeration (ParallelExecutor via
// MatchOptions::num_threads), and the multi-query QueryRuntime session
// service. The crosscheck tests mirror crosscheck_property_test.cc's
// corpus: parallel counts must equal serial counts for every variant.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <tuple>
#include <vector>

#include "ccsr/ccsr.h"
#include "ccsr/cluster_cache.h"
#include "engine/matcher.h"
#include "runtime/parallel_executor.h"
#include "runtime/query_runtime.h"
#include "tests/test_util.h"
#include "util/stop_token.h"
#include "util/thread_pool.h"

namespace csce {
namespace {

// ---------------------------------------------------------------- util

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), (batch + 1) * 20);
  }
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(StopTokenTest, ParentChaining) {
  StopToken parent;
  StopToken child;
  child.SetParent(&parent);
  EXPECT_FALSE(child.StopRequested());
  parent.RequestStop();
  EXPECT_TRUE(child.StopRequested());
  parent.Reset();
  EXPECT_FALSE(child.StopRequested());
  child.RequestStop();
  EXPECT_TRUE(child.StopRequested());
  EXPECT_FALSE(parent.StopRequested());
}

// ------------------------------------------------- parallel crosscheck

class ParallelExecutorCrosscheckTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool, uint32_t>> {
};

TEST_P(ParallelExecutorCrosscheckTest, ParallelEqualsSerialAllVariants) {
  auto [seed, directed, vertex_labels] = GetParam();
  Rng rng(seed * 7919 + (directed ? 1 : 0) + vertex_labels * 13);
  Graph data =
      testing::RandomGraph(rng, 30, 0.22, vertex_labels, 2, directed);
  Graph pattern =
      testing::RandomGraph(rng, 5, 0.45, vertex_labels, 2, directed);

  Ccsr gc = Ccsr::Build(data);
  CsceMatcher matcher(&gc);
  for (auto variant :
       {MatchVariant::kEdgeInduced, MatchVariant::kVertexInduced,
        MatchVariant::kHomomorphic}) {
    SCOPED_TRACE(VariantName(variant));
    MatchOptions serial;
    serial.variant = variant;
    MatchResult sr;
    ASSERT_TRUE(matcher.Match(pattern, serial, &sr).ok());

    MatchOptions parallel = serial;
    parallel.num_threads = 4;
    parallel.morsel_size = 1;  // force many claims even on tiny graphs
    MatchResult pr;
    ASSERT_TRUE(matcher.Match(pattern, parallel, &pr).ok());
    EXPECT_EQ(pr.embeddings, sr.embeddings);
    EXPECT_FALSE(pr.timed_out);
    EXPECT_FALSE(pr.cancelled);

    // Larger morsels and auto sizing must agree too.
    parallel.morsel_size = 0;
    ASSERT_TRUE(matcher.Match(pattern, parallel, &pr).ok());
    EXPECT_EQ(pr.embeddings, sr.embeddings);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, ParallelExecutorCrosscheckTest,
                         ::testing::Combine(::testing::Range<uint64_t>(0, 6),
                                            ::testing::Bool(),
                                            ::testing::Values(1u, 3u)));

TEST(ParallelExecutorTest, RestrictionsAndCallbacksSurviveSharding) {
  Rng rng(99);
  Graph data = testing::RandomGraph(rng, 25, 0.3, 1, 1, false);
  Graph pattern = testing::Cycle(4);
  Ccsr gc = Ccsr::Build(data);
  CsceMatcher matcher(&gc);

  MatchOptions serial;
  serial.variant = MatchVariant::kEdgeInduced;
  serial.restrictions = {{0, 2}};  // f(0) < f(2): symmetry breaking
  MatchResult sr;
  ASSERT_TRUE(matcher.Match(pattern, serial, &sr).ok());

  MatchOptions parallel = serial;
  parallel.num_threads = 3;
  parallel.morsel_size = 2;
  std::atomic<uint64_t> delivered{0};
  MatchResult pr;
  ASSERT_TRUE(matcher
                  .MatchWithCallback(
                      pattern, parallel,
                      [&delivered](std::span<const VertexId> mapping) {
                        EXPECT_EQ(mapping.size(), 4u);
                        delivered.fetch_add(1, std::memory_order_relaxed);
                        return true;
                      },
                      &pr)
                  .ok());
  EXPECT_EQ(pr.embeddings, sr.embeddings);
  EXPECT_EQ(delivered.load(), sr.embeddings);
}

TEST(ParallelExecutorTest, LimitIsDeterministicAndBounded) {
  Rng rng(7);
  Graph data = testing::RandomGraph(rng, 40, 0.25, 1, 1, false);
  Graph pattern = testing::Path(5);
  Ccsr gc = Ccsr::Build(data);
  CsceMatcher matcher(&gc);

  MatchOptions full;
  full.variant = MatchVariant::kHomomorphic;
  MatchResult total;
  ASSERT_TRUE(matcher.Match(pattern, full, &total).ok());
  ASSERT_GT(total.embeddings, 100u);  // the workload is big enough

  MatchOptions limited = full;
  limited.max_embeddings = 57;
  limited.num_threads = 4;
  limited.morsel_size = 1;
  for (int run = 0; run < 5; ++run) {
    MatchResult r;
    ASSERT_TRUE(matcher.Match(pattern, limited, &r).ok());
    EXPECT_EQ(r.embeddings, 57u) << "run " << run;
    EXPECT_TRUE(r.limit_reached) << "run " << run;
  }

  // A limit above the total is never reached and never clips the count.
  limited.max_embeddings = total.embeddings + 10;
  for (int run = 0; run < 3; ++run) {
    MatchResult r;
    ASSERT_TRUE(matcher.Match(pattern, limited, &r).ok());
    EXPECT_EQ(r.embeddings, total.embeddings) << "run " << run;
    EXPECT_FALSE(r.limit_reached) << "run " << run;
  }
}

TEST(ParallelExecutorTest, TimeLimitSetsTimedOutFlag) {
  Rng rng(11);
  // Unlabeled and dense: homomorphic 8-path counts are astronomically
  // large, so the deadline always fires first.
  Graph data = testing::RandomGraph(rng, 60, 0.3, 1, 1, false);
  Graph pattern = testing::Path(8);
  Ccsr gc = Ccsr::Build(data);
  CsceMatcher matcher(&gc);
  MatchOptions options;
  options.variant = MatchVariant::kHomomorphic;
  options.time_limit_seconds = 0.05;
  options.num_threads = 4;
  MatchResult r;
  ASSERT_TRUE(matcher.Match(pattern, options, &r).ok());
  EXPECT_TRUE(r.timed_out);
  EXPECT_LT(r.enumerate_seconds, 5.0);
}

TEST(ParallelExecutorTest, PreStoppedTokenCancelsImmediately) {
  Rng rng(13);
  Graph data = testing::RandomGraph(rng, 30, 0.3, 1, 1, false);
  Graph pattern = testing::Path(6);
  Ccsr gc = Ccsr::Build(data);
  CsceMatcher matcher(&gc);
  StopToken stop;
  stop.RequestStop();
  for (uint32_t threads : {1u, 4u}) {
    MatchOptions options;
    options.variant = MatchVariant::kHomomorphic;
    options.num_threads = threads;
    options.stop = &stop;
    MatchResult r;
    ASSERT_TRUE(matcher.Match(pattern, options, &r).ok());
    EXPECT_TRUE(r.cancelled) << threads << " threads";
  }
}

TEST(ParallelExecutorTest, AsyncCancelUnblocksHugeQuery) {
  Rng rng(17);
  // Hours of serial work — only cancellation can end the run.
  Graph data = testing::RandomGraph(rng, 80, 0.35, 1, 1, false);
  Graph pattern = testing::Path(10);
  Ccsr gc = Ccsr::Build(data);
  CsceMatcher matcher(&gc);
  StopToken stop;
  std::thread canceller([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop.RequestStop();
  });
  MatchOptions options;
  options.variant = MatchVariant::kHomomorphic;
  options.num_threads = 2;
  options.stop = &stop;
  MatchResult r;
  ASSERT_TRUE(matcher.Match(pattern, options, &r).ok());
  canceller.join();
  EXPECT_TRUE(r.cancelled);
  EXPECT_FALSE(r.timed_out);
}

// ------------------------------------------------------- query runtime

std::vector<QueryJob> MixedJobs(uint32_t copies) {
  std::vector<QueryJob> jobs;
  Rng prng(5);
  Graph p1 = testing::RandomGraph(prng, 5, 0.5, 2, 1, false);
  // Label 0 == kNoLabel, so these match the label-0 slice of the data.
  Graph p2 = testing::Cycle(4);
  Graph p3 = testing::Path(4);
  for (uint32_t c = 0; c < copies; ++c) {
    for (auto variant :
         {MatchVariant::kEdgeInduced, MatchVariant::kVertexInduced,
          MatchVariant::kHomomorphic}) {
      QueryJob job;
      job.pattern = p1;
      job.options.variant = variant;
      job.tag = "p1";
      jobs.push_back(job);
      job.pattern = (variant == MatchVariant::kHomomorphic) ? p3 : p2;
      job.tag = "p23";
      jobs.push_back(job);
    }
  }
  return jobs;
}

TEST(QueryRuntimeTest, BatchAgreesWithSerialMatcher) {
  Rng rng(21);
  Graph data = testing::RandomGraph(rng, 40, 0.2, 2, 1, false);
  Ccsr gc = Ccsr::Build(data);
  std::vector<QueryJob> jobs = MixedJobs(2);

  RuntimeOptions runtime_options;
  runtime_options.worker_threads = 4;
  QueryRuntime runtime(&gc, runtime_options);
  std::vector<QueryOutcome> outcomes;
  ASSERT_TRUE(runtime.RunBatch(jobs, &outcomes).ok());
  ASSERT_EQ(outcomes.size(), jobs.size());

  CsceMatcher serial(&gc);
  for (size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(outcomes[i].status.ok()) << i;
    EXPECT_TRUE(outcomes[i].executed) << i;
    MatchResult expected;
    ASSERT_TRUE(serial.Match(jobs[i].pattern, jobs[i].options, &expected).ok());
    EXPECT_EQ(outcomes[i].result.embeddings, expected.embeddings) << i;
    EXPECT_GE(outcomes[i].queue_wait_seconds, 0.0);
    EXPECT_GE(outcomes[i].total_seconds, outcomes[i].queue_wait_seconds);
  }

  const RuntimeMetrics m = runtime.metrics();
  EXPECT_EQ(m.submitted, jobs.size());
  EXPECT_EQ(m.completed, jobs.size());
  EXPECT_EQ(m.failed, 0u);
  EXPECT_EQ(m.cancelled, 0u);
  // The second copy of the workload re-reads the same clusters.
  EXPECT_GT(m.cluster_cache_hits, 0u);
  EXPECT_GT(m.cluster_cache_misses, 0u);
}

TEST(QueryRuntimeTest, IntraQueryParallelismAgreesToo) {
  Rng rng(23);
  Graph data = testing::RandomGraph(rng, 40, 0.2, 2, 1, false);
  Ccsr gc = Ccsr::Build(data);
  std::vector<QueryJob> jobs = MixedJobs(1);

  RuntimeOptions runtime_options;
  runtime_options.worker_threads = 2;
  runtime_options.threads_per_query = 2;
  QueryRuntime runtime(&gc, runtime_options);
  std::vector<QueryOutcome> outcomes;
  ASSERT_TRUE(runtime.RunBatch(jobs, &outcomes).ok());

  CsceMatcher serial(&gc);
  for (size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(outcomes[i].status.ok()) << i;
    MatchResult expected;
    ASSERT_TRUE(serial.Match(jobs[i].pattern, jobs[i].options, &expected).ok());
    EXPECT_EQ(outcomes[i].result.embeddings, expected.embeddings) << i;
  }
}

TEST(QueryRuntimeTest, AdmissionControlSingleInflight) {
  Rng rng(25);
  Graph data = testing::RandomGraph(rng, 30, 0.25, 1, 1, false);
  Ccsr gc = Ccsr::Build(data);
  std::vector<QueryJob> jobs = MixedJobs(2);

  RuntimeOptions runtime_options;
  runtime_options.worker_threads = 4;
  runtime_options.max_inflight = 1;
  QueryRuntime runtime(&gc, runtime_options);
  std::vector<QueryOutcome> outcomes;
  ASSERT_TRUE(runtime.RunBatch(jobs, &outcomes).ok());
  EXPECT_EQ(runtime.metrics().completed, jobs.size());
  for (const QueryOutcome& o : outcomes) EXPECT_TRUE(o.status.ok());
}

TEST(QueryRuntimeTest, DeadlineExpiredInQueueIsReportedNotExecuted) {
  Rng rng(27);
  Graph data = testing::RandomGraph(rng, 30, 0.25, 1, 1, false);
  Ccsr gc = Ccsr::Build(data);
  QueryJob job;
  job.pattern = testing::Path(4);
  job.options.variant = MatchVariant::kHomomorphic;
  job.options.time_limit_seconds = 1e-12;  // expires while queued

  RuntimeOptions runtime_options;
  runtime_options.worker_threads = 1;
  QueryRuntime runtime(&gc, runtime_options);
  std::vector<QueryOutcome> outcomes;
  ASSERT_TRUE(runtime.RunBatch({job}, &outcomes).ok());
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].status.ok());
  EXPECT_FALSE(outcomes[0].executed);
  EXPECT_TRUE(outcomes[0].result.timed_out);
  EXPECT_EQ(outcomes[0].result.embeddings, 0u);
  EXPECT_EQ(runtime.metrics().timed_out, 1u);
}

TEST(QueryRuntimeTest, CancelAllStopsQueuedAndRunningQueries) {
  Rng rng(29);
  Graph data = testing::RandomGraph(rng, 80, 0.35, 1, 1, false);
  Ccsr gc = Ccsr::Build(data);
  // Each job is far too big to finish; the batch ends only via cancel.
  QueryJob job;
  job.pattern = testing::Path(10);
  job.options.variant = MatchVariant::kHomomorphic;
  std::vector<QueryJob> jobs(4, job);

  RuntimeOptions runtime_options;
  runtime_options.worker_threads = 2;
  runtime_options.max_inflight = 1;
  QueryRuntime runtime(&gc, runtime_options);

  std::thread canceller([&runtime] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    runtime.CancelAll();
  });
  std::vector<QueryOutcome> outcomes;
  ASSERT_TRUE(runtime.RunBatch(jobs, &outcomes).ok());
  canceller.join();

  ASSERT_EQ(outcomes.size(), jobs.size());
  for (const QueryOutcome& o : outcomes) {
    ASSERT_TRUE(o.status.ok());
    EXPECT_TRUE(o.result.cancelled);
  }
  EXPECT_TRUE(runtime.cancel_requested());
  EXPECT_GE(runtime.metrics().cancelled, jobs.size());

  // A reset re-arms the session for the next batch.
  runtime.ResetCancellation();
  EXPECT_FALSE(runtime.cancel_requested());
  QueryJob small;
  small.pattern = testing::Path(3);
  small.options.variant = MatchVariant::kEdgeInduced;
  ASSERT_TRUE(runtime.RunBatch({small}, &outcomes).ok());
  EXPECT_TRUE(outcomes[0].executed);
  EXPECT_FALSE(outcomes[0].result.cancelled);
}

// ------------------------------------------- cluster cache concurrency

TEST(ClusterCacheConcurrencyTest, ConcurrentGetsShareOneViewPerCluster) {
  Rng rng(31);
  Graph data = testing::RandomGraph(rng, 50, 0.2, 3, 2, false);
  Ccsr gc = Ccsr::Build(data);
  ASSERT_GT(gc.NumClusters(), 1u);
  ClusterCache cache(&gc);

  const auto& clusters = gc.clusters();
  std::vector<std::vector<const CompressedCluster*>> seen(8);
  {
    ThreadPool pool(8);
    for (int t = 0; t < 8; ++t) {
      pool.Submit([&cache, &clusters, &seen, t] {
        for (int round = 0; round < 50; ++round) {
          for (const CompressedCluster& c : clusters) {
            seen[t].push_back(cache.Get(c.id));
          }
        }
      });
    }
    pool.Wait();
  }

  // Every thread observed the index's own record for every cluster,
  // and the cache holds exactly one entry per cluster afterwards.
  for (const auto& views : seen) {
    ASSERT_EQ(views.size(), clusters.size() * 50);
    for (size_t i = 0; i < views.size(); ++i) {
      ASSERT_EQ(views[i], &clusters[i % clusters.size()]);
    }
  }
  EXPECT_EQ(cache.CachedViews(), clusters.size());
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<uint64_t>(8 * 50) * clusters.size());
  EXPECT_GE(cache.misses(), clusters.size());
}

TEST(ClusterCacheConcurrencyTest, ConcurrentQueriesThroughSharedCache) {
  Rng rng(33);
  Graph data = testing::RandomGraph(rng, 40, 0.2, 2, 2, false);
  Graph pattern = testing::RandomGraph(rng, 5, 0.5, 2, 2, false);
  Ccsr gc = Ccsr::Build(data);
  ClusterCache cache(&gc);
  CsceMatcher shared(&gc, &cache);
  CsceMatcher plain(&gc);

  MatchOptions options;
  options.variant = MatchVariant::kEdgeInduced;
  MatchResult expected;
  ASSERT_TRUE(plain.Match(pattern, options, &expected).ok());

  std::vector<uint64_t> counts(8, ~0ull);
  {
    ThreadPool pool(8);
    for (int t = 0; t < 8; ++t) {
      pool.Submit([&shared, &pattern, &options, &counts, t] {
        MatchResult r;
        if (shared.Match(pattern, options, &r).ok()) {
          counts[t] = r.embeddings;
        }
      });
    }
    pool.Wait();
  }
  for (uint64_t c : counts) EXPECT_EQ(c, expected.embeddings);
}

}  // namespace
}  // namespace csce
