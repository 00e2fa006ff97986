// Proactive-pruning differential crosschecks: every subset of the
// {fs, lpi} pass family must yield byte-identical sorted
// embedding sets — and equal counts — to the explicit `none` ablation
// (the default keeps lpi on, so references never use PruneOptions{}),
// across thread counts, shard counts, and mmap'd v2 artifacts (whose
// label-pair index sections feed the lpi pass from disk). The passes
// only shrink the work; a crafted workload additionally pins down that
// each pass actually fires (counters move) and actually helps (search
// shrinks).

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "ccsr/ccsr.h"
#include "ccsr/ccsr_io.h"
#include "ccsr/ccsr_mmap.h"
#include "engine/matcher.h"
#include "engine/prune/prune.h"
#include "gen/datasets.h"
#include "gen/pattern_gen.h"
#include "plan/planner.h"
#include "shard/coordinator.h"
#include "shard/shard_plan.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace csce {
namespace {

struct MatchSnapshot {
  MatchResult result;
  std::vector<std::vector<VertexId>> rows;  // sorted embeddings
};

std::vector<std::vector<VertexId>> SortedRows(
    const std::vector<VertexId>& flat, uint32_t width) {
  std::vector<std::vector<VertexId>> rows;
  if (width == 0) return rows;
  for (size_t off = 0; off + width <= flat.size(); off += width) {
    rows.emplace_back(flat.begin() + off, flat.begin() + off + width);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// The four pass subsets, `none` first.
std::vector<PruneOptions> AllSubsets() {
  std::vector<PruneOptions> subsets;
  for (int bits = 0; bits < 4; ++bits) {
    PruneOptions p;
    p.fs = (bits & 1) != 0;
    p.lpi = (bits & 2) != 0;
    subsets.push_back(p);
  }
  return subsets;
}

MatchSnapshot RunMatch(const Ccsr& index, const Graph& pattern,
                       MatchVariant variant, PruneOptions prune,
                       uint32_t threads) {
  CsceMatcher matcher(&index);
  MatchOptions options;
  options.variant = variant;
  options.num_threads = threads;
  options.plan.prune = prune;
  std::vector<VertexId> flat;
  std::mutex mu;  // the callback fires concurrently from worker threads
  MatchSnapshot snap;
  Status st = matcher.MatchWithCallback(
      pattern, options,
      [&](std::span<const VertexId> mapping) {
        std::lock_guard<std::mutex> lock(mu);
        flat.insert(flat.end(), mapping.begin(), mapping.end());
        return true;
      },
      &snap.result);
  CSCE_CHECK(st.ok());
  snap.rows = SortedRows(flat, pattern.NumVertices());
  return snap;
}

class PruneCrosscheckTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new Graph(datasets::Patent(18));
    index_ = new Ccsr(Ccsr::Build(*data_));
    // Per-process artifact name — see ccsr_mmap_test.cc: a shared path
    // would race concurrent test processes under `ctest -j`.
    path_ = new std::string(::testing::TempDir() + "/prune_test." +
                            std::to_string(::getpid()) + ".ccsr");
    CSCE_CHECK(SaveCcsrToFileV2(*index_, *path_).ok());
  }
  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete path_;
    path_ = nullptr;
    delete index_;
    index_ = nullptr;
    delete data_;
    data_ = nullptr;
  }

  static Graph* data_;
  static Ccsr* index_;
  static std::string* path_;
};

Graph* PruneCrosscheckTest::data_ = nullptr;
Ccsr* PruneCrosscheckTest::index_ = nullptr;
std::string* PruneCrosscheckTest::path_ = nullptr;

TEST_F(PruneCrosscheckTest, EverySubsetByteIdenticalAcrossThreadCounts) {
  Rng rng(31);
  Graph dense;
  ASSERT_TRUE(
      SamplePattern(*data_, 5, PatternDensity::kDense, rng, &dense).ok());
  Graph sparse;
  ASSERT_TRUE(
      SamplePattern(*data_, 5, PatternDensity::kSparse, rng, &sparse).ok());
  for (const Graph* pattern : {&dense, &sparse}) {
    // Vertex-induced plans carry negations, so failing sets compose
    // with the negation dependencies there.
    for (MatchVariant variant :
         {MatchVariant::kEdgeInduced, MatchVariant::kVertexInduced,
          MatchVariant::kHomomorphic}) {
      MatchSnapshot want =
          RunMatch(*index_, *pattern, variant, NoPruneOptions(),
                   /*threads=*/1);
      for (const PruneOptions& prune : AllSubsets()) {
        for (uint32_t threads : {1u, 8u}) {
          MatchSnapshot got =
              RunMatch(*index_, *pattern, variant, prune, threads);
          EXPECT_EQ(got.result.embeddings, want.result.embeddings)
              << "prune=" << PruneOptionsToString(prune)
              << " threads=" << threads;
          EXPECT_EQ(got.rows, want.rows)
              << "prune=" << PruneOptionsToString(prune)
              << " threads=" << threads;
          // Pruning may only ever shrink the search.
          EXPECT_LE(got.result.search_nodes, want.result.search_nodes)
              << "prune=" << PruneOptionsToString(prune)
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST_F(PruneCrosscheckTest, MmapV2ArtifactAgreesWithInMemory) {
  // The v2 artifact persists the label-pair index; the mapped run's
  // lpi pass consults masks straight from the file.
  std::unique_ptr<MmapCcsr> mapped;
  ASSERT_TRUE(MmapCcsr::Open(*path_, &mapped).ok());
  Ccsr borrowed = mapped->Release();

  Rng rng(47);
  Graph pattern;
  ASSERT_TRUE(
      SamplePattern(*data_, 5, PatternDensity::kDense, rng, &pattern).ok());
  MatchSnapshot want = RunMatch(*index_, pattern, MatchVariant::kEdgeInduced,
                                NoPruneOptions(), /*threads=*/1);
  for (const PruneOptions& prune : AllSubsets()) {
    for (uint32_t threads : {1u, 8u}) {
      MatchSnapshot got = RunMatch(borrowed, pattern,
                                   MatchVariant::kEdgeInduced, prune, threads);
      EXPECT_EQ(got.result.embeddings, want.result.embeddings)
          << "prune=" << PruneOptionsToString(prune) << " threads=" << threads;
      EXPECT_EQ(got.rows, want.rows)
          << "prune=" << PruneOptionsToString(prune) << " threads=" << threads;
    }
  }
}

TEST_F(PruneCrosscheckTest, ShardedRunsMatchSingleNodeForEveryPassSubset) {
  // Shard workers run the plan's passes like every other mode: owned
  // vertices have exact rows and label masks under 1-hop replication,
  // and a subtree that routed work elsewhere never triggers a backjump
  // (without that rule, backjumps skip siblings whose work is still on
  // another shard and embeddings go missing). Vertex-induced plans add
  // negations, whose recorded removals explain the failing sets.
  Rng rng(59);
  Graph pattern;
  ASSERT_TRUE(
      SamplePattern(*data_, 5, PatternDensity::kDense, rng, &pattern).ok());
  const std::vector<PruneOptions> subsets = AllSubsets();
  for (MatchVariant variant :
       {MatchVariant::kEdgeInduced, MatchVariant::kVertexInduced}) {
    std::vector<MatchSnapshot> want;
    for (const PruneOptions& prune : subsets) {
      want.push_back(RunMatch(*index_, pattern, variant, prune,
                              /*threads=*/1));
    }
    // AllSubsets() lists fs off before fs on: subset i ^ 1 flips fs.
    for (uint32_t shards : {1u, 2u, 4u}) {
      std::vector<uint64_t> nodes_at_one_thread(subsets.size(), 0);
      for (uint32_t threads : {1u, 8u}) {
        std::unique_ptr<shard::InProcessCluster> cluster;
        ASSERT_TRUE(shard::InProcessCluster::Create(
                        *data_, index_, shards,
                        shard::PartitionStrategy::kHash, threads, &cluster)
                        .ok());
        for (size_t i = 0; i < subsets.size(); ++i) {
          const PruneOptions& prune = subsets[i];
          SCOPED_TRACE(::testing::Message()
                       << VariantName(variant)
                       << " prune=" << PruneOptionsToString(prune)
                       << " shards=" << shards << " threads=" << threads);
          shard::CoordinatorOptions options;
          options.variant = variant;
          options.collect_embeddings = true;
          options.self_check = true;
          options.plan.prune = prune;
          shard::ShardResult result;
          Status st =
              cluster->coordinator().Execute(pattern, options, &result);
          ASSERT_TRUE(st.ok()) << st.ToString();
          EXPECT_EQ(result.embeddings, want[i].result.embeddings);
          EXPECT_EQ(SortedRows(result.embedding_data, result.embedding_width),
                    want[i].rows);
          if (prune.fs) {
            // Backjumps only shrink the search — never below
            // single-node, which skips every sibling a shard skips — and
            // decide per prefix, so the count is thread-count-invariant.
            EXPECT_LE(result.search_nodes, want[i ^ 1].result.search_nodes);
            EXPECT_GE(result.search_nodes, want[i].result.search_nodes);
            if (threads == 1) {
              nodes_at_one_thread[i] = result.search_nodes;
            } else {
              EXPECT_EQ(result.search_nodes, nodes_at_one_thread[i]);
            }
          } else {
            EXPECT_EQ(result.search_nodes, want[i].result.search_nodes);
            EXPECT_EQ(result.prune_extensions_skipped, 0u);
          }
          if (prune.lpi) {
            EXPECT_GT(result.prune_candidates_removed, 0u);
          } else {
            EXPECT_EQ(result.prune_candidates_removed, 0u);
          }
        }
      }
    }
  }
}

TEST_F(PruneCrosscheckTest, SelfCheckCleanWithAllPassesOn) {
  Rng rng(83);
  Graph pattern;
  ASSERT_TRUE(
      SamplePattern(*data_, 5, PatternDensity::kDense, rng, &pattern).ok());
  for (uint32_t threads : {1u, 8u}) {
    CsceMatcher matcher(index_);
    MatchOptions options;
    options.num_threads = threads;
    options.self_check = true;
    options.plan.prune = PruneOptions{};
    MatchResult result;
    ASSERT_TRUE(matcher.Match(pattern, options, &result).ok());
    EXPECT_EQ(result.embeddings_verified, result.embeddings)
        << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------
// Large patterns (the paper's 8-2000-vertex regime), where backjumps
// fire. The passes only skip subtrees that cannot produce an
// embedding, so at one thread the *ordered* callback sequence — and
// with it the first k embeddings — equals the `none` run's. Patent
// with 200 labels (the paper's scalability variant) keeps the
// unpruned reference fast enough to run at these sizes.

struct OrderedRun {
  MatchResult result;
  std::vector<VertexId> sequence;  // mappings in emission order
};

// `time_limit_seconds` defaults to a guard, not a budget: the sweeps
// finish in milliseconds, and a timed-out reference fails the test
// instead of being skipped.
OrderedRun RunOrdered(const Ccsr& index, const Graph& pattern,
                      MatchVariant variant, PruneOptions prune,
                      uint64_t max_embeddings,
                      double time_limit_seconds = 20.0,
                      bool self_check = false) {
  CsceMatcher matcher(&index);
  MatchOptions options;
  options.variant = variant;
  options.max_embeddings = max_embeddings;
  options.time_limit_seconds = time_limit_seconds;
  options.self_check = self_check;
  options.plan.prune = prune;
  OrderedRun run;
  Status st = matcher.MatchWithCallback(
      pattern, options,
      [&](std::span<const VertexId> mapping) {
        run.sequence.insert(run.sequence.end(), mapping.begin(),
                            mapping.end());
        return true;
      },
      &run.result);
  CSCE_CHECK(st.ok());
  return run;
}

class PruneLargePatternTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new Graph(datasets::Patent(200));
    index_ = new Ccsr(Ccsr::Build(*data_));
  }
  static void TearDownTestSuite() {
    delete index_;
    index_ = nullptr;
    delete data_;
    data_ = nullptr;
  }

  // Every pass subset against `none` on `pattern`, all three variants.
  // Returns the siblings the fs subsets skipped.
  static uint64_t CheckAgainstNone(const Graph& pattern,
                                   uint64_t max_embeddings) {
    uint64_t skipped = 0;
    for (MatchVariant variant :
         {MatchVariant::kEdgeInduced, MatchVariant::kVertexInduced,
          MatchVariant::kHomomorphic}) {
      OrderedRun want = RunOrdered(*index_, pattern, variant,
                                   NoPruneOptions(), max_embeddings);
      EXPECT_FALSE(want.result.timed_out) << VariantName(variant);
      for (const PruneOptions& prune : AllSubsets()) {
        OrderedRun got =
            RunOrdered(*index_, pattern, variant, prune, max_embeddings);
        const std::string where = std::string(VariantName(variant)) +
                                  " n=" +
                                  std::to_string(pattern.NumVertices()) +
                                  " prune=" + PruneOptionsToString(prune);
        EXPECT_FALSE(got.result.timed_out) << where;
        EXPECT_EQ(got.result.embeddings, want.result.embeddings) << where;
        EXPECT_EQ(got.sequence, want.sequence) << where;
        EXPECT_LE(got.result.search_nodes, want.result.search_nodes)
            << where;
        if (prune.fs) skipped += got.result.prune_extensions_skipped;
      }
    }
    return skipped;
  }

  static Graph* data_;
  static Ccsr* index_;
};

Graph* PruneLargePatternTest::data_ = nullptr;
Ccsr* PruneLargePatternTest::index_ = nullptr;

TEST_F(PruneLargePatternTest, OrderedFirstKMatchesNoneAt16To64Vertices) {
  Rng rng(7);
  uint64_t skipped = 0;
  for (uint32_t size : {16u, 32u, 64u}) {
    for (PatternDensity density :
         {PatternDensity::kDense, PatternDensity::kSparse}) {
      Graph pattern;
      ASSERT_TRUE(SamplePattern(*data_, size, density, rng, &pattern).ok());
      skipped += CheckAgainstNone(pattern, /*max_embeddings=*/100);
    }
  }
  // The sweep is in the regime it claims to cover: backjumps fired.
  EXPECT_GT(skipped, 0u);
}

TEST_F(PruneLargePatternTest, MultiWordFailingSetsAbove64Positions) {
  // More than 64 plan positions: base sets, negation records and
  // failing sets span two words.
  Rng rng(11);
  Graph pattern;
  ASSERT_TRUE(
      SamplePattern(*data_, 96, PatternDensity::kSparse, rng, &pattern)
          .ok());
  ASSERT_GE(pattern.NumVertices(), 80u);
  EXPECT_GT(CheckAgainstNone(pattern, /*max_embeddings=*/1000), 0u);
}

// ---------------------------------------------------------------------
// Beyond the reference: vertex-induced sparse patterns of 48 and 64
// vertices on Patent(20), the benchmark's graph, where the unpruned
// search runs out of its time limit while the default passes return the
// first 100 embeddings in a few thousand search nodes. Without an
// oracle the checks are: whatever `none` emits before its limit is a
// prefix of the default run's sequence, the default run finishes, and
// the self-check re-verifies every embedding and every SCE reuse. (On
// these two patterns `none` emits nothing within 0.2 s, so the last two
// checks carry the test.)

TEST(PruneOracleFreeTest, NoneIsPrefixOfDefaultOnLargeVertexInduced) {
  const Graph data = datasets::Patent(20);
  const Ccsr index = Ccsr::Build(data);
  for (const auto& [size, seed] : {std::pair{48u, 3u}, std::pair{64u, 1u}}) {
    Rng rng(seed);
    Graph pattern;
    ASSERT_TRUE(
        SamplePattern(data, size, PatternDensity::kSparse, rng, &pattern)
            .ok());
    SCOPED_TRACE(::testing::Message() << "n=" << pattern.NumVertices());
    const OrderedRun none =
        RunOrdered(index, pattern, MatchVariant::kVertexInduced,
                   NoPruneOptions(), /*max_embeddings=*/100,
                   /*time_limit_seconds=*/0.2);
    const OrderedRun got =
        RunOrdered(index, pattern, MatchVariant::kVertexInduced,
                   PruneOptions{}, /*max_embeddings=*/100,
                   /*time_limit_seconds=*/20.0, /*self_check=*/true);
    EXPECT_FALSE(got.result.timed_out);
    EXPECT_GT(got.result.embeddings, 0u);
    EXPECT_EQ(got.result.embeddings_verified, got.result.embeddings);
    EXPECT_GT(got.result.prune_extensions_skipped, 0u);
    ASSERT_LE(none.sequence.size(), got.sequence.size());
    EXPECT_TRUE(std::equal(none.sequence.begin(), none.sequence.end(),
                           got.sequence.begin()));
    if (!none.result.timed_out) {
      EXPECT_EQ(none.sequence, got.sequence);
    }
  }
}

// ---------------------------------------------------------------------
// Crafted workload where each pass provably fires. One A-hub `a0`
// carries a real triangle (b_good, c_good) plus `kDecoys` B-decoys that
// are adjacent only to {a0, x}: degree 2 (so the LDF keeps them) and
// no C neighbor (so their subtrees are empty). C-filler vertices
// hanging off `x` inflate the C label frequency so the planner roots
// the A-B-C path pattern at its unique-A end — making B (with its
// decoys) the enumerated middle position rather than a set already
// shrunk by a C-side intersection.
constexpr Label kA = 0, kB = 1, kC = 2, kD = 3;
constexpr uint32_t kDecoys = 6;

Graph DecoyTriangleGraph() {
  std::vector<Label> vlabels = {kA, kB, kC, kD};  // a0, b_good, c_good, x
  std::vector<Edge> edges = {{0, 1, 0}, {0, 2, 0}, {1, 2, 0}};
  for (uint32_t i = 0; i < kDecoys; ++i) {
    const VertexId b = static_cast<VertexId>(vlabels.size());
    vlabels.push_back(kB);
    edges.push_back({0, b, 0});  // a0 - decoy
    edges.push_back({b, 3, 0});  // decoy - x
  }
  for (uint32_t i = 0; i < kDecoys; ++i) {
    const VertexId c = static_cast<VertexId>(vlabels.size());
    vlabels.push_back(kC);  // filler: keeps C common, matches nothing
    edges.push_back({c, 3, 0});
  }
  Graph g = csce::testing::MakeGraph(false, vlabels, edges);
  return g;
}

Graph TrianglePattern() {
  return csce::testing::MakeGraph(false, {kA, kB, kC},
                                  {{0, 1, 0}, {1, 2, 0}, {0, 2, 0}});
}

// Star-pattern workload for the lpi firing test. The pattern is
// a star around B (A-B, B-C, B-D); the unique A vertex roots the plan,
// so B's candidates arrive via the backward A-edge — the full b-row of
// `a0`, decoys included — while the C- and D-edges point forward. The
// decoys carry A and C neighbors but no D neighbor, so only a forward-
// looking check (lpi's label mask) or descending into the subtree can
// eliminate them; GCF cluster seeding cannot. Junk B-D pairs keep the
// (B,D) cluster from being the smallest seed for a B root.
constexpr uint32_t kJunkPairs = 10;

Graph StarDecoyGraph() {
  // a0=0 (A), c0=1, c1=2 (C), d0=3 (D), b_good=4 (B).
  std::vector<Label> vlabels = {kA, kC, kC, kD, kB};
  std::vector<Edge> edges = {{4, 0, 0}, {4, 1, 0}, {4, 3, 0}};
  for (uint32_t i = 0; i < kDecoys; ++i) {
    const VertexId b = static_cast<VertexId>(vlabels.size());
    vlabels.push_back(kB);
    // Degree 3 (the LDF keeps them), no D neighbor (their subtrees
    // are empty).
    edges.push_back({b, 0, 0});
    edges.push_back({b, 1, 0});
    edges.push_back({b, 2, 0});
  }
  for (uint32_t i = 0; i < kJunkPairs; ++i) {
    const VertexId b = static_cast<VertexId>(vlabels.size());
    vlabels.push_back(kB);
    vlabels.push_back(kD);
    edges.push_back({b, b + 1, 0});
  }
  return csce::testing::MakeGraph(false, vlabels, edges);
}

Graph StarPattern() {
  return csce::testing::MakeGraph(false, {kA, kB, kC, kD},
                                  {{0, 1, 0}, {1, 2, 0}, {1, 3, 0}});
}

// Backjumping workload: triangle A-B-C plus a pendant D on A. Hub
// `a1` carries a complete B x C bipartite block of triangles but no D
// neighbor; `a0` carries one triangle and its D. The pendant has no
// descendants, so the planner orders it last: under `a1` every
// triangle completes and only then does D's candidate set (a1's
// D-row) come up empty. That failure depends on A's mapping alone, so
// the first empty D subtree proves every remaining B/C sibling under
// `a1` fails too. Junk A-D pairs keep the (A,D) cluster from being
// the smallest seed for a D root.
constexpr uint32_t kBlock = 6;

Graph HubPendantGraph() {
  // a0=0 (A), b0=1 (B), c0=2 (C), d0=3 (D), a1=4 (A).
  std::vector<Label> vlabels = {kA, kB, kC, kD, kA};
  std::vector<Edge> edges = {{0, 1, 0}, {0, 2, 0}, {1, 2, 0}, {0, 3, 0}};
  const VertexId first_b = static_cast<VertexId>(vlabels.size());
  for (uint32_t i = 0; i < kBlock; ++i) vlabels.push_back(kB);
  const VertexId first_c = static_cast<VertexId>(vlabels.size());
  for (uint32_t i = 0; i < kBlock; ++i) vlabels.push_back(kC);
  for (uint32_t i = 0; i < kBlock; ++i) {
    edges.push_back({4, first_b + i, 0});
    edges.push_back({4, first_c + i, 0});
    for (uint32_t j = 0; j < kBlock; ++j) {
      edges.push_back({first_b + i, first_c + j, 0});
    }
  }
  for (uint32_t i = 0; i < kJunkPairs; ++i) {
    const VertexId a = static_cast<VertexId>(vlabels.size());
    vlabels.push_back(kA);
    vlabels.push_back(kD);
    edges.push_back({a, a + 1, 0});
  }
  return csce::testing::MakeGraph(false, vlabels, edges);
}

Graph TriPendantPattern() {
  return csce::testing::MakeGraph(false, {kA, kB, kC, kD},
                                  {{0, 1, 0}, {1, 2, 0}, {0, 2, 0}, {0, 3, 0}});
}

// Vertex-induced backjumping workload: the same triangle-plus-pendant
// pattern, matched vertex-induced, so D carries negations against B and
// C. Hub `a1` carries a B x C block of triangles and one D neighbor
// `d1` adjacent to every block B: after each triangle, D's only
// candidate is removed by the negation against B. That failure depends
// on A's and B's mappings, not C's, so the first empty D subtree under
// (a1, b) proves every remaining C sibling fails too. A junk D-C pair
// makes the (D,C) star non-empty, which gives D a negation dependency
// on C: DAF's anc(D) then contains C, and that rule skips nothing here.
Graph HubNegationGraph() {
  // a0=0 (A), b0=1 (B), c0=2 (C), d0=3 (D), a1=4 (A), d1=5 (D).
  std::vector<Label> vlabels = {kA, kB, kC, kD, kA, kD};
  std::vector<Edge> edges = {
      {0, 1, 0}, {0, 2, 0}, {1, 2, 0}, {0, 3, 0}, {4, 5, 0}};
  const VertexId first_b = static_cast<VertexId>(vlabels.size());
  for (uint32_t i = 0; i < kBlock; ++i) vlabels.push_back(kB);
  const VertexId first_c = static_cast<VertexId>(vlabels.size());
  for (uint32_t i = 0; i < kBlock; ++i) vlabels.push_back(kC);
  for (uint32_t i = 0; i < kBlock; ++i) {
    edges.push_back({4, first_b + i, 0});
    edges.push_back({4, first_c + i, 0});
    edges.push_back({5, first_b + i, 0});
    for (uint32_t j = 0; j < kBlock; ++j) {
      edges.push_back({first_b + i, first_c + j, 0});
    }
  }
  for (uint32_t i = 0; i < kJunkPairs; ++i) {
    const VertexId a = static_cast<VertexId>(vlabels.size());
    vlabels.push_back(kA);
    vlabels.push_back(kD);
    edges.push_back({a, a + 1, 0});
  }
  const VertexId d = static_cast<VertexId>(vlabels.size());
  vlabels.push_back(kD);
  vlabels.push_back(kC);
  edges.push_back({d, d + 1, 0});
  return csce::testing::MakeGraph(false, vlabels, edges);
}

class PruneFiringTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = DecoyTriangleGraph();
    index_ = Ccsr::Build(data_);
    pattern_ = TrianglePattern();
  }
  Graph data_;
  Ccsr index_;
  Graph pattern_;
};

TEST_F(PruneFiringTest, LpiRemovesLabelDeficientCandidates) {
  Graph data = StarDecoyGraph();
  Ccsr index = Ccsr::Build(data);
  Graph star = StarPattern();
  MatchSnapshot off =
      RunMatch(index, star, MatchVariant::kEdgeInduced, NoPruneOptions(), 1);
  // The default options are exactly the label-pair filter.
  MatchSnapshot got =
      RunMatch(index, star, MatchVariant::kEdgeInduced, PruneOptions{}, 1);
  EXPECT_EQ(got.result.embeddings, 1u);
  EXPECT_EQ(got.rows, off.rows);
  // Every decoy lacks a D neighbor, so the label-pair prefilter drops
  // all of them from the B candidate set before enumeration.
  EXPECT_GE(got.result.prune_candidates_removed, kDecoys);
  EXPECT_LT(got.result.search_nodes, off.result.search_nodes);
}

TEST_F(PruneFiringTest, FailingSetsSkipDoomedSiblings) {
  Graph data = HubPendantGraph();
  Ccsr index = Ccsr::Build(data);
  Graph pattern = TriPendantPattern();
  for (MatchVariant variant :
       {MatchVariant::kEdgeInduced, MatchVariant::kVertexInduced,
        MatchVariant::kHomomorphic}) {
    MatchSnapshot off = RunMatch(index, pattern, variant, NoPruneOptions(), 1);
    PruneOptions fs = NoPruneOptions();
    fs.fs = true;
    MatchSnapshot got = RunMatch(index, pattern, variant, fs, 1);
    EXPECT_EQ(got.result.embeddings, 1u) << VariantName(variant);
    EXPECT_EQ(got.rows, off.rows) << VariantName(variant);
    // Under a1 the first completed triangle's empty D subtree backjumps
    // over the rest of the block.
    EXPECT_LT(got.result.search_nodes, off.result.search_nodes)
        << VariantName(variant);
    EXPECT_GE(got.result.prune_extensions_skipped, kBlock - 1)
        << VariantName(variant);
    EXPECT_EQ(off.result.prune_extensions_skipped, 0u);
  }
}

TEST_F(PruneFiringTest, NegationRecordExplainsVertexInducedBackjumps) {
  Graph data = HubNegationGraph();
  Ccsr index = Ccsr::Build(data);
  Graph pattern = TriPendantPattern();
  Plan plan;
  ASSERT_TRUE(Planner(&index)
                  .MakePlan(pattern, MatchVariant::kVertexInduced,
                            PlanOptions{}, &plan)
                  .ok());
  std::vector<Label> order;
  for (const PlanPosition& pos : plan.positions) order.push_back(pos.label);
  ASSERT_EQ(order, (std::vector<Label>{kA, kB, kC, kD}));
  ASSERT_EQ(plan.positions[3].negations.size(), 2u);

  OrderedRun off = RunOrdered(index, pattern, MatchVariant::kVertexInduced,
                              NoPruneOptions(), /*max_embeddings=*/0);
  PruneOptions fs = NoPruneOptions();
  fs.fs = true;
  OrderedRun got = RunOrdered(index, pattern, MatchVariant::kVertexInduced,
                              fs, /*max_embeddings=*/0);
  EXPECT_EQ(got.result.embeddings, 1u);
  EXPECT_EQ(got.sequence, off.sequence);
  // Under a1, each of the kBlock B mappings skips the kBlock - 1 C
  // siblings after the first. Failing sets seeded with anc(j) skip
  // nothing on this gadget (prune.extensions_skipped 0, search_nodes
  // 53, equal to `none`).
  EXPECT_EQ(off.result.search_nodes, 47u);
  EXPECT_EQ(got.result.prune_extensions_skipped, kBlock * (kBlock - 1));
  EXPECT_EQ(got.result.search_nodes, 17u);
}

TEST_F(PruneFiringTest, FullStackPrunesAtLeastAsMuchAsBestSinglePass) {
  MatchSnapshot off = RunMatch(index_, pattern_, MatchVariant::kEdgeInduced,
                               NoPruneOptions(), 1);
  uint64_t best_single = off.result.search_nodes;
  for (const PruneOptions& prune : AllSubsets()) {
    if (!prune.any()) continue;
    MatchSnapshot got =
        RunMatch(index_, pattern_, MatchVariant::kEdgeInduced, prune, 1);
    EXPECT_EQ(got.rows, off.rows)
        << "prune=" << PruneOptionsToString(prune);
    best_single = std::min(best_single, got.result.search_nodes);
  }
  MatchSnapshot all = RunMatch(index_, pattern_, MatchVariant::kEdgeInduced,
                               PruneOptions{}, 1);
  EXPECT_EQ(all.rows, off.rows);
  EXPECT_LE(all.result.search_nodes, best_single);
}

// ---------------------------------------------------------------------
// Planner: default PlanOptions compile the label-pair masks, `none`
// compiles none, and no mask keeps a bit its candidate source already
// guarantees.

// Label bits a candidate at `pos` is guaranteed to carry in its
// out- (first) and in- (second) masks by the way it is drawn.
std::pair<uint64_t, uint64_t> ImpliedBits(const Plan& plan,
                                          const PlanPosition& pos,
                                          bool directed) {
  uint64_t out = 0, in = 0;
  for (const EdgeConstraint& e : pos.edges) {
    const uint64_t bit = Ccsr::LabelBit(plan.positions[e.pos].label);
    (e.incoming || !directed ? out : in) |= bit;
  }
  if (pos.edges.empty() && pos.seed_valid) {
    const ClusterId& c = pos.seed_cluster;
    if (!directed) {
      out |= Ccsr::LabelBit(c.src_label == pos.label ? c.dst_label
                                                     : c.src_label);
    } else if (pos.seed_use_sources) {
      out |= Ccsr::LabelBit(c.dst_label);
    } else {
      in |= Ccsr::LabelBit(c.src_label);
    }
  }
  return {out, in};
}

TEST(PrunePlanTest, DefaultCompilesLabelPairMasksNoneDoesNot) {
  Graph data = StarDecoyGraph();
  Ccsr index = Ccsr::Build(data);
  Graph star = StarPattern();
  Planner planner(&index);

  Plan plan;
  ASSERT_TRUE(planner
                  .MakePlan(star, MatchVariant::kEdgeInduced, PlanOptions{},
                            &plan)
                  .ok());
  // B roots the plan, seeded from the (A,B) cluster. All three of its
  // neighbors come later, but the seed already guarantees an A
  // neighbor, so only the C and D bits stay.
  const PlanPosition& root = plan.positions[0];
  ASSERT_EQ(root.label, kB);
  ASSERT_TRUE(root.seed_valid);
  EXPECT_EQ(root.lpi_req_out, Ccsr::LabelBit(kC) | Ccsr::LabelBit(kD));

  PlanOptions none;
  none.prune = NoPruneOptions();
  ASSERT_TRUE(
      planner.MakePlan(star, MatchVariant::kEdgeInduced, none, &plan).ok());
  for (const PlanPosition& pos : plan.positions) {
    EXPECT_EQ(pos.lpi_req_out, 0u);
    EXPECT_EQ(pos.lpi_req_in, 0u);
  }
}

TEST(PrunePlanTest, MasksOmitBitsTheCandidateSourceImplies) {
  // Undirected (Patent) and directed (Subcategory) data, every variant:
  // the trimmed masks never repeat a guaranteed bit, and the default
  // still finds exactly the `none` embeddings (the crosschecks above
  // cover undirected data only).
  for (const Graph& data : {datasets::Patent(60), datasets::Subcategory()}) {
    Ccsr index = Ccsr::Build(data);
    Planner planner(&index);
    Rng rng(13);
    for (int i = 0; i < 3; ++i) {
      Graph pattern;
      ASSERT_TRUE(SamplePattern(data, 5, PatternDensity::kDense, rng,
                                &pattern)
                      .ok());
      for (MatchVariant variant :
           {MatchVariant::kEdgeInduced, MatchVariant::kVertexInduced,
            MatchVariant::kHomomorphic}) {
        Plan plan;
        ASSERT_TRUE(
            planner.MakePlan(pattern, variant, PlanOptions{}, &plan).ok());
        for (const PlanPosition& pos : plan.positions) {
          auto [out, in] = ImpliedBits(plan, pos, data.directed());
          EXPECT_EQ(pos.lpi_req_out & out, 0u);
          EXPECT_EQ(pos.lpi_req_in & in, 0u);
          if (!data.directed()) {
            EXPECT_EQ(pos.lpi_req_in, 0u);
          }
        }
        MatchSnapshot want =
            RunMatch(index, pattern, variant, NoPruneOptions(), 1);
        MatchSnapshot got =
            RunMatch(index, pattern, variant, PruneOptions{}, 1);
        EXPECT_EQ(got.rows, want.rows) << VariantName(variant);
        EXPECT_LE(got.result.search_nodes, want.result.search_nodes);
      }
    }
  }
}

}  // namespace
}  // namespace csce
