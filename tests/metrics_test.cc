// The observability layer's load-bearing guarantee: metrics are pure
// observers. The registry must aggregate exactly (unit tests below),
// and the engine counters it exposes must equal the uninstrumented
// ExecStats — serially with exact golden values, and at 8 threads with
// the same totals (the deterministic-counter contract the trace/bench
// pipeline rests on). The multithreaded cases double as the TSan proof
// that thread-local sharding is race-free.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "ccsr/ccsr.h"
#include "engine/matcher.h"
#include "gen/datasets.h"
#include "gen/pattern_gen.h"
#include "obs/trace.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace csce {
namespace obs {
namespace {

TEST(MetricRegistryTest, CounterAddsAndSnapshots) {
  MetricRegistry registry;
  Counter c = registry.counter("test.counter");
  c.Increment();
  c.Add(41);
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.count("test.counter"), 1u);
  EXPECT_EQ(snap.counters["test.counter"], 42u);
}

TEST(MetricRegistryTest, RegistrationIsIdempotent) {
  // Two call sites registering the same name share one slot — the
  // mechanism the parallel executor uses to flush its probe into the
  // executor's counter.
  MetricRegistry registry;
  Counter a = registry.counter("shared");
  Counter b = registry.counter("shared");
  a.Add(2);
  b.Add(3);
  EXPECT_EQ(registry.Snapshot().counters["shared"], 5u);
}

TEST(MetricRegistryTest, GaugeSetAndSetMax) {
  MetricRegistry registry;
  Gauge g = registry.gauge("test.gauge");
  g.Set(7.5);
  EXPECT_DOUBLE_EQ(registry.Snapshot().gauges["test.gauge"], 7.5);
  g.SetMax(3.0);  // below current: no change
  EXPECT_DOUBLE_EQ(registry.Snapshot().gauges["test.gauge"], 7.5);
  g.SetMax(9.0);
  EXPECT_DOUBLE_EQ(registry.Snapshot().gauges["test.gauge"], 9.0);
}

TEST(MetricRegistryTest, HistogramAggregates) {
  MetricRegistry registry;
  Histogram h = registry.histogram("test.hist");
  h.Record(1.0);   // bucket 0: <= 1
  h.Record(3.0);   // bucket 2: (2, 4]
  h.Record(3.5);   // bucket 2
  h.Record(100.0); // bucket 7: (64, 128]
  HistogramData data = registry.Snapshot().histograms["test.hist"];
  EXPECT_EQ(data.count, 4u);
  EXPECT_DOUBLE_EQ(data.sum, 107.5);
  EXPECT_DOUBLE_EQ(data.Mean(), 107.5 / 4);
  EXPECT_DOUBLE_EQ(data.min, 1.0);
  EXPECT_DOUBLE_EQ(data.max, 100.0);
  EXPECT_EQ(data.buckets[0], 1u);
  EXPECT_EQ(data.buckets[2], 2u);
  EXPECT_EQ(data.buckets[7], 1u);
}

TEST(MetricRegistryTest, ResetKeepsRegistrations) {
  MetricRegistry registry;
  Counter c = registry.counter("test.counter");
  Histogram h = registry.histogram("test.hist");
  c.Add(5);
  h.Record(2.0);
  registry.ResetForTesting();
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.count("test.counter"), 1u);
  EXPECT_EQ(snap.counters["test.counter"], 0u);
  EXPECT_EQ(snap.histograms["test.hist"].count, 0u);
  c.Add(1);  // handles stay valid across resets
  EXPECT_EQ(registry.Snapshot().counters["test.counter"], 1u);
}

TEST(MetricRegistryTest, ConcurrentCountersSumExactly) {
  MetricRegistry registry;
  Counter c = registry.counter("test.concurrent");
  Histogram h = registry.histogram("test.concurrent_hist");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 50'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        c.Increment();
        if (i % 1000 == 0) h.Record(static_cast<double>(i));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  // Shards are owned by the registry, so counts survive thread exit.
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters["test.concurrent"],
            static_cast<uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(snap.histograms["test.concurrent_hist"].count,
            static_cast<uint64_t>(kThreads) * (kIncrements / 1000));
}

TEST(MetricRegistryTest, SnapshotDuringConcurrentWrites) {
  // Snapshotting must not block or race writers; totals are only
  // checked after the join, but TSan watches the overlap.
  MetricRegistry registry;
  Counter c = registry.counter("test.live");
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 20'000; ++i) c.Increment();
    });
  }
  for (int i = 0; i < 50; ++i) {
    MetricsSnapshot snap = registry.Snapshot();
    EXPECT_LE(snap.counters["test.live"], 80'000u);
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(registry.Snapshot().counters["test.live"], 80'000u);
}

// --- Deterministic engine counters ----------------------------------

uint64_t GlobalCounter(const MetricsSnapshot& snap, const std::string& name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

TEST(EngineMetricsTest, SerialCountersMatchUninstrumentedStats) {
  MetricRegistry::Global().ResetForTesting();
  Ccsr gc = Ccsr::Build(testing::Clique(4));
  CsceMatcher matcher(&gc);
  MatchOptions options;
  options.variant = MatchVariant::kEdgeInduced;
  MatchResult result;
  ASSERT_TRUE(matcher.Match(testing::Cycle(3), options, &result).ok());
  // C(4,3) triangles * 3! mappings — a golden value, so a metrics bug
  // cannot hide behind "both sides drifted together".
  EXPECT_EQ(result.embeddings, 24u);

  MetricsSnapshot snap = MetricRegistry::Global().Snapshot();
  EXPECT_EQ(GlobalCounter(snap, "engine.runs"), 1u);
  EXPECT_EQ(GlobalCounter(snap, "engine.embeddings"), result.embeddings);
  EXPECT_EQ(GlobalCounter(snap, "engine.search_nodes"), result.search_nodes);
  EXPECT_EQ(GlobalCounter(snap, "engine.sce_recomputes"),
            result.candidate_sets_computed);
  EXPECT_EQ(GlobalCounter(snap, "engine.sce_reuses"),
            result.candidate_sets_reused);
  EXPECT_EQ(GlobalCounter(snap, "engine.morsels_claimed"), 0u);
  EXPECT_EQ(GlobalCounter(snap, "match.queries"), 1u);
  EXPECT_GT(snap.histograms["engine.candidate_set_size"].count, 0u);
}

TEST(EngineMetricsTest, ParallelCountersMatchSerial) {
  Ccsr gc = Ccsr::Build(testing::Clique(8));
  CsceMatcher matcher(&gc);
  Graph pattern = testing::Cycle(3);

  MetricRegistry::Global().ResetForTesting();
  MatchOptions serial;
  serial.variant = MatchVariant::kEdgeInduced;
  MatchResult serial_result;
  ASSERT_TRUE(matcher.Match(pattern, serial, &serial_result).ok());
  MetricsSnapshot serial_snap = MetricRegistry::Global().Snapshot();

  MetricRegistry::Global().ResetForTesting();
  MatchOptions parallel = serial;
  parallel.num_threads = 8;
  parallel.morsel_size = 2;
  MatchResult parallel_result;
  ASSERT_TRUE(matcher.Match(pattern, parallel, &parallel_result).ok());
  MetricsSnapshot parallel_snap = MetricRegistry::Global().Snapshot();

  // The work-defining counters are sharding-invariant...
  EXPECT_EQ(parallel_result.embeddings, serial_result.embeddings);
  EXPECT_EQ(GlobalCounter(parallel_snap, "engine.embeddings"),
            GlobalCounter(serial_snap, "engine.embeddings"));
  EXPECT_EQ(GlobalCounter(parallel_snap, "engine.search_nodes"),
            GlobalCounter(serial_snap, "engine.search_nodes"));
  EXPECT_EQ(GlobalCounter(parallel_snap, "engine.sce_recomputes") +
                GlobalCounter(parallel_snap, "engine.sce_reuses"),
            GlobalCounter(serial_snap, "engine.sce_recomputes") +
                GlobalCounter(serial_snap, "engine.sce_reuses"));
  // ...and the metrics mirror the run's own ExecStats exactly, even
  // when eight workers flush concurrently.
  EXPECT_EQ(GlobalCounter(parallel_snap, "engine.embeddings"),
            parallel_result.embeddings);
  EXPECT_EQ(GlobalCounter(parallel_snap, "engine.search_nodes"),
            parallel_result.search_nodes);
  EXPECT_EQ(GlobalCounter(parallel_snap, "engine.sce_recomputes"),
            parallel_result.candidate_sets_computed);
  EXPECT_EQ(GlobalCounter(parallel_snap, "engine.sce_reuses"),
            parallel_result.candidate_sets_reused);
  // 8 root candidates / morsel_size 2.
  EXPECT_EQ(GlobalCounter(parallel_snap, "engine.morsels_claimed"), 4u);
  EXPECT_EQ(parallel_result.morsels_claimed, 4u);
  EXPECT_EQ(GlobalCounter(parallel_snap, "runtime.parallel_runs"), 1u);
}

// --- Prune counter invariance ---------------------------------------
//
// prune.candidates_removed, prune.extensions_skipped and the
// prune.shrink_ratio_pct sample count are work-defining: they depend
// only on the (graph, pattern, plan), never on how the search tree is
// split over workers. (engine.intersect_elements is deliberately NOT
// asserted — morsel splitting legitimately moves work between cached
// and per-morsel recomputed candidate sets.)

constexpr Label kLA = 0, kLB = 1, kLC = 2, kLD = 3, kLE = 4;

// N disjoint copies of the star-decoy gadget (see prune_test.cc): six
// B-decoys per copy that the lpi mask removes, with enough root
// candidates that an 8-thread run genuinely splits into morsels.
Graph PruneStarCopies(uint32_t copies) {
  std::vector<Label> vlabels;
  std::vector<Edge> edges;
  for (uint32_t k = 0; k < copies; ++k) {
    const VertexId base = static_cast<VertexId>(vlabels.size());
    // a, c, c', d, b_good
    vlabels.insert(vlabels.end(), {kLA, kLC, kLC, kLD, kLB});
    edges.push_back({base + 4, base + 0, 0});
    edges.push_back({base + 4, base + 1, 0});
    edges.push_back({base + 4, base + 3, 0});
    for (uint32_t i = 0; i < 6; ++i) {
      const VertexId b = static_cast<VertexId>(vlabels.size());
      vlabels.push_back(kLB);
      edges.push_back({b, base + 0, 0});
      edges.push_back({b, base + 1, 0});
      edges.push_back({b, base + 2, 0});
    }
    for (uint32_t i = 0; i < 10; ++i) {
      const VertexId b = static_cast<VertexId>(vlabels.size());
      vlabels.push_back(kLB);
      vlabels.push_back(kLD);
      edges.push_back({b, b + 1, 0});
    }
  }
  return testing::MakeGraph(false, vlabels, edges);
}

// N disjoint copies of a hub gadget for a triangle A-B-C with a
// pendant path A-D-E, planned in that order. Per copy, hub `a1`
// carries a 6x6 B-C block of triangles and one D neighbor with no E
// neighbor. The label-pair filter keeps a1 (it has B, C and D
// neighbors) and only empties D's candidates after each triangle;
// failing-set backjumping then skips the rest of the block, because
// D's candidate set depends on A's mapping alone.
Graph PruneHubCopies(uint32_t copies) {
  std::vector<Label> vlabels;
  std::vector<Edge> edges;
  for (uint32_t k = 0; k < copies; ++k) {
    const VertexId base = static_cast<VertexId>(vlabels.size());
    // a0, b0, c0, d0, e0, hub a1, d1
    vlabels.insert(vlabels.end(), {kLA, kLB, kLC, kLD, kLE, kLA, kLD});
    edges.push_back({base + 0, base + 1, 0});
    edges.push_back({base + 0, base + 2, 0});
    edges.push_back({base + 1, base + 2, 0});
    edges.push_back({base + 0, base + 3, 0});
    edges.push_back({base + 3, base + 4, 0});
    edges.push_back({base + 5, base + 6, 0});
    const VertexId first_b = static_cast<VertexId>(vlabels.size());
    for (uint32_t i = 0; i < 6; ++i) vlabels.push_back(kLB);
    const VertexId first_c = static_cast<VertexId>(vlabels.size());
    for (uint32_t i = 0; i < 6; ++i) vlabels.push_back(kLC);
    for (uint32_t i = 0; i < 6; ++i) {
      edges.push_back({base + 5, first_b + i, 0});
      edges.push_back({base + 5, first_c + i, 0});
      for (uint32_t j = 0; j < 6; ++j) {
        edges.push_back({first_b + i, first_c + j, 0});
      }
    }
    // Junk A-D and D-E pairs keep the pendant's clusters large, so the
    // planner orders the triangle first.
    for (uint32_t i = 0; i < 10; ++i) {
      const VertexId a = static_cast<VertexId>(vlabels.size());
      vlabels.insert(vlabels.end(), {kLA, kLD, kLD, kLE});
      edges.push_back({a, a + 1, 0});
      edges.push_back({a + 2, a + 3, 0});
    }
  }
  return testing::MakeGraph(false, vlabels, edges);
}

MetricsSnapshot RunPruneWorkload(uint32_t threads, PruneOptions prune) {
  MetricRegistry::Global().ResetForTesting();
  MatchOptions options;
  options.variant = MatchVariant::kEdgeInduced;
  options.num_threads = threads;
  options.morsel_size = 1;
  options.plan.prune = prune;

  Ccsr star = Ccsr::Build(PruneStarCopies(8));
  Graph star_pattern = testing::MakeGraph(false, {kLA, kLB, kLC, kLD},
                                          {{0, 1, 0}, {1, 2, 0}, {1, 3, 0}});
  MatchResult result;
  CSCE_CHECK(CsceMatcher(&star).Match(star_pattern, options, &result).ok());

  Ccsr hub = Ccsr::Build(PruneHubCopies(8));
  Graph hub_pattern = testing::MakeGraph(
      false, {kLA, kLB, kLC, kLD, kLE},
      {{0, 1, 0}, {1, 2, 0}, {0, 2, 0}, {0, 3, 0}, {3, 4, 0}});
  CSCE_CHECK(CsceMatcher(&hub).Match(hub_pattern, options, &result).ok());

  return MetricRegistry::Global().Snapshot();
}

TEST(EngineMetricsTest, PruneCountersThreadCountInvariant) {
  // Each pass alone (the default runs both, see below): only its own
  // counter moves — 6 lpi removals or >=5 skipped extensions per gadget
  // copy — and every work-defining counter is thread-count-invariant.
  for (bool lpi : {true, false}) {
    PruneOptions prune = NoPruneOptions();
    prune.lpi = lpi;
    prune.fs = !lpi;
    MetricsSnapshot serial = RunPruneWorkload(1, prune);
    const uint64_t removed = GlobalCounter(serial, "prune.candidates_removed");
    const uint64_t skipped = GlobalCounter(serial, "prune.extensions_skipped");
    if (lpi) {
      EXPECT_GE(removed, 8u * 6u);
      EXPECT_EQ(skipped, 0u);
      EXPECT_GT(serial.histograms["prune.shrink_ratio_pct"].count, 0u);
    } else {
      EXPECT_EQ(removed, 0u);
      EXPECT_GE(skipped, 8u * 5u);
    }

    MetricsSnapshot parallel = RunPruneWorkload(8, prune);
    EXPECT_EQ(GlobalCounter(parallel, "prune.candidates_removed"), removed);
    EXPECT_EQ(GlobalCounter(parallel, "prune.extensions_skipped"), skipped);
    EXPECT_EQ(GlobalCounter(parallel, "engine.search_nodes"),
              GlobalCounter(serial, "engine.search_nodes"));
    EXPECT_EQ(parallel.histograms["prune.shrink_ratio_pct"].count,
              serial.histograms["prune.shrink_ratio_pct"].count);
  }
}

TEST(EngineMetricsTest, DefaultFilterCountersThreadCountInvariant) {
  // Default options, as every run has them: the label-pair filter and
  // failing-set backjumping. Backjumps never fire at the root, so the
  // siblings they skip — and the search nodes left — do not depend on
  // how the roots are split into morsels.
  MetricsSnapshot serial = RunPruneWorkload(1, PruneOptions{});
  EXPECT_GE(GlobalCounter(serial, "prune.candidates_removed"), 8u * 6u);
  EXPECT_GE(GlobalCounter(serial, "prune.extensions_skipped"), 8u * 5u);
  EXPECT_GT(serial.histograms["prune.shrink_ratio_pct"].count, 0u);

  MetricsSnapshot parallel = RunPruneWorkload(8, PruneOptions{});
  EXPECT_EQ(GlobalCounter(parallel, "prune.candidates_removed"),
            GlobalCounter(serial, "prune.candidates_removed"));
  EXPECT_EQ(GlobalCounter(parallel, "prune.extensions_skipped"),
            GlobalCounter(serial, "prune.extensions_skipped"));
  EXPECT_EQ(GlobalCounter(parallel, "engine.search_nodes"),
            GlobalCounter(serial, "engine.search_nodes"));
  EXPECT_EQ(parallel.histograms["prune.shrink_ratio_pct"].count,
            serial.histograms["prune.shrink_ratio_pct"].count);
}

TEST(EngineMetricsTest, LargeVertexInducedPruneCountersThreadCountInvariant) {
  // Sparse vertex-induced patterns of 48 and 64 vertices on Patent(20),
  // enumerated to completion: neither has a vertex-induced embedding,
  // which the default passes prove in a few thousand search nodes
  // (the unpruned search does not finish in seconds). Their backjumps
  // come from negation-explained failing sets, and the siblings they
  // skip, like the search nodes left, do not depend on the threads.
  const Graph data = datasets::Patent(20);
  const Ccsr index = Ccsr::Build(data);
  for (const auto& [size, seed] : {std::pair{48u, 1u}, std::pair{64u, 2u}}) {
    Rng rng(seed);
    Graph pattern;
    ASSERT_TRUE(
        SamplePattern(data, size, PatternDensity::kSparse, rng, &pattern)
            .ok());
    uint64_t skipped[2] = {0, 0};
    uint64_t nodes[2] = {0, 0};
    for (int i = 0; i < 2; ++i) {
      MetricRegistry::Global().ResetForTesting();
      MatchOptions options;
      options.variant = MatchVariant::kVertexInduced;
      options.num_threads = i == 0 ? 1 : 8;
      options.morsel_size = 1;
      options.time_limit_seconds = 20.0;  // a guard, not a budget
      MatchResult result;
      ASSERT_TRUE(CsceMatcher(&index).Match(pattern, options, &result).ok());
      EXPECT_FALSE(result.timed_out) << "n=" << size;
      MetricsSnapshot snap = MetricRegistry::Global().Snapshot();
      skipped[i] = GlobalCounter(snap, "prune.extensions_skipped");
      nodes[i] = GlobalCounter(snap, "engine.search_nodes");
    }
    EXPECT_GT(skipped[0], 0u) << "n=" << size;
    EXPECT_EQ(skipped[1], skipped[0]) << "n=" << size;
    EXPECT_EQ(nodes[1], nodes[0]) << "n=" << size;
  }
}

TEST(EngineMetricsTest, RepeatedRunsAccumulate) {
  MetricRegistry::Global().ResetForTesting();
  Ccsr gc = Ccsr::Build(testing::Clique(4));
  CsceMatcher matcher(&gc);
  MatchOptions options;
  options.variant = MatchVariant::kEdgeInduced;
  for (int i = 0; i < 3; ++i) {
    MatchResult result;
    ASSERT_TRUE(matcher.Match(testing::Cycle(3), options, &result).ok());
  }
  MetricsSnapshot snap = MetricRegistry::Global().Snapshot();
  EXPECT_EQ(GlobalCounter(snap, "engine.runs"), 3u);
  EXPECT_EQ(GlobalCounter(snap, "engine.embeddings"), 72u);
  EXPECT_EQ(GlobalCounter(snap, "match.queries"), 3u);
}

}  // namespace
}  // namespace obs
}  // namespace csce
