// Distributed-equals-single-node cross-checks: the sharded engine must
// produce byte-identical embedding sets — not just equal counts — to
// the serial executor, across shard counts, worker thread counts,
// partition strategies, match variants, and worker deployment (threads
// vs forked processes). Workers run the default engine (label-pair
// filter and failing-set backjumping) like the single-node reference.
// search_nodes is bracketed: every candidate is enumerated by exactly
// one owner, so with backjumping off it equals single-node's; with it
// on, a sibling is skipped only where single-node skips it too, and
// never past a subtree whose work was routed to another shard.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "ccsr/ccsr.h"
#include "engine/matcher.h"
#include "gen/datasets.h"
#include "gen/pattern_gen.h"
#include "obs/json.h"
#include "shard/coordinator.h"
#include "shard/shard_plan.h"
#include "shard/transport.h"
#include "shard/worker.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace csce {
namespace shard {
namespace {

struct Baseline {
  uint64_t embeddings = 0;
  uint64_t search_nodes = 0;             // default engine
  uint64_t search_nodes_without_fs = 0;  // lpi alone: the sharded ceiling
  std::vector<std::vector<VertexId>> rows;  // sorted
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

Baseline SingleNode(const Ccsr& index, const Graph& pattern,
                    MatchVariant variant) {
  CsceMatcher matcher(&index);
  MatchOptions options;
  options.variant = variant;
  options.plan.prune.fs = false;
  MatchResult without_fs;
  CSCE_CHECK(matcher.Match(pattern, options, &without_fs).ok());
  options.plan.prune = PruneOptions{};
  std::vector<VertexId> flat;
  MatchResult result;
  Status st = matcher.MatchWithCallback(
      pattern, options,
      [&](std::span<const VertexId> mapping) {
        flat.insert(flat.end(), mapping.begin(), mapping.end());
        return true;
      },
      &result);
  CSCE_CHECK(st.ok());
  Baseline b;
  b.embeddings = result.embeddings;
  b.search_nodes = result.search_nodes;
  b.search_nodes_without_fs = without_fs.search_nodes;
  b.rows = SortedRows(flat, pattern.NumVertices());
  return b;
}

void ExpectSearchNodesBracketed(uint64_t got, const Baseline& want) {
  EXPECT_GE(got, want.search_nodes);
  EXPECT_LE(got, want.search_nodes_without_fs);
}

void ExpectShardedMatches(const Graph& data, const Ccsr& index,
                          const Graph& pattern, MatchVariant variant,
                          uint32_t shards, uint32_t threads,
                          PartitionStrategy strategy,
                          const Baseline& want) {
  std::unique_ptr<InProcessCluster> cluster;
  ASSERT_TRUE(InProcessCluster::Create(data, &index, shards, strategy,
                                       threads, &cluster)
                  .ok());
  CoordinatorOptions options;
  options.variant = variant;
  options.collect_embeddings = true;
  options.self_check = true;
  ShardResult result;
  Status st = cluster->coordinator().Execute(pattern, options, &result);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(result.embeddings, want.embeddings)
      << "shards=" << shards << " threads=" << threads;
  {
    SCOPED_TRACE(::testing::Message()
                 << "shards=" << shards << " threads=" << threads);
    ExpectSearchNodesBracketed(result.search_nodes, want);
  }
  EXPECT_EQ(result.embeddings_verified, want.embeddings);
  EXPECT_EQ(SortedRows(result.embedding_data, result.embedding_width),
            want.rows)
      << "shards=" << shards << " threads=" << threads;
}

class ShardCrosscheckTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new Graph(datasets::Patent(18));
    index_ = new Ccsr(Ccsr::Build(*data_));
  }
  static void TearDownTestSuite() {
    delete index_;
    index_ = nullptr;
    delete data_;
    data_ = nullptr;
  }

  static Graph* data_;
  static Ccsr* index_;
};

Graph* ShardCrosscheckTest::data_ = nullptr;
Ccsr* ShardCrosscheckTest::index_ = nullptr;

TEST_F(ShardCrosscheckTest, AllVariantsMatchSingleNodeAcrossShardCounts) {
  Rng rng(31);
  Graph pattern;
  ASSERT_TRUE(
      SamplePattern(*data_, 5, PatternDensity::kDense, rng, &pattern).ok());
  for (MatchVariant variant :
       {MatchVariant::kEdgeInduced, MatchVariant::kVertexInduced,
        MatchVariant::kHomomorphic}) {
    Baseline want = SingleNode(*index_, pattern, variant);
    for (uint32_t shards : {1u, 2u, 4u}) {
      ExpectShardedMatches(*data_, *index_, pattern, variant, shards,
                           /*threads=*/1, PartitionStrategy::kHash, want);
    }
  }
}

TEST_F(ShardCrosscheckTest, EightThreadWorkersMatchSerial) {
  Rng rng(47);
  Graph pattern;
  ASSERT_TRUE(
      SamplePattern(*data_, 5, PatternDensity::kSparse, rng, &pattern).ok());
  Baseline want = SingleNode(*index_, pattern, MatchVariant::kEdgeInduced);
  for (uint32_t threads : {1u, 8u}) {
    ExpectShardedMatches(*data_, *index_, pattern,
                         MatchVariant::kEdgeInduced, /*shards=*/4, threads,
                         PartitionStrategy::kHash, want);
  }
}

TEST_F(ShardCrosscheckTest, LabelAwareStrategyAgrees) {
  Rng rng(59);
  Graph pattern;
  ASSERT_TRUE(
      SamplePattern(*data_, 4, PatternDensity::kDense, rng, &pattern).ok());
  Baseline want = SingleNode(*index_, pattern, MatchVariant::kHomomorphic);
  ExpectShardedMatches(*data_, *index_, pattern, MatchVariant::kHomomorphic,
                       /*shards=*/4, /*threads=*/2,
                       PartitionStrategy::kLabelAware, want);
}

TEST_F(ShardCrosscheckTest, DisconnectedPatternUsesBroadcastPath) {
  // Two disjoint pattern edges force an edge-less (label-scan) position
  // at depth > 0 — the kLocalOnly broadcast route. Labels/edge labels
  // are lifted from real data edges so the pattern occurs.
  std::vector<Edge> sample;
  data_->ForEachEdge([&](const Edge& e) {
    if (sample.size() < 2 && (sample.empty() || (e.src != sample[0].src &&
                                                 e.dst != sample[0].dst &&
                                                 e.src != sample[0].dst &&
                                                 e.dst != sample[0].src))) {
      sample.push_back(e);
    }
  });
  ASSERT_EQ(sample.size(), 2u);
  Graph pattern = csce::testing::MakeGraph(
      data_->directed(),
      {data_->VertexLabel(sample[0].src), data_->VertexLabel(sample[0].dst),
       data_->VertexLabel(sample[1].src), data_->VertexLabel(sample[1].dst)},
      {{0, 1, sample[0].elabel}, {2, 3, sample[1].elabel}});
  for (MatchVariant variant :
       {MatchVariant::kEdgeInduced, MatchVariant::kHomomorphic}) {
    Baseline want = SingleNode(*index_, pattern, variant);
    ASSERT_GE(want.embeddings, 1u);
    ExpectShardedMatches(*data_, *index_, pattern, variant, /*shards=*/4,
                         /*threads=*/2, PartitionStrategy::kHash, want);
  }
}

// A re-LOAD replaces every worker's index: the next query must read
// fresh cluster views, not reuse the previous load's (which point into
// the dropped index). The second load partitions differently, so a
// stale view also shows up as wrong embeddings, not only under ASan.
TEST_F(ShardCrosscheckTest, ReloadInlineDropsOldClusterViews) {
  Rng rng(83);
  Graph pattern;
  ASSERT_TRUE(
      SamplePattern(*data_, 5, PatternDensity::kDense, rng, &pattern).ok());
  Baseline want = SingleNode(*index_, pattern, MatchVariant::kEdgeInduced);
  ASSERT_GE(want.embeddings, 1u);

  std::unique_ptr<InProcessCluster> cluster;
  ASSERT_TRUE(InProcessCluster::Create(*data_, index_, 2,
                                       PartitionStrategy::kHash, 1, &cluster)
                  .ok());
  CoordinatorOptions options;
  options.collect_embeddings = true;
  options.self_check = true;
  for (PartitionStrategy strategy :
       {PartitionStrategy::kHash, PartitionStrategy::kLabelAware}) {
    SCOPED_TRACE(::testing::Message()
                 << "strategy=" << static_cast<int>(strategy));
    if (strategy != PartitionStrategy::kHash) {
      ShardPlanOptions popts;
      popts.num_shards = 2;
      popts.strategy = strategy;
      ShardPlan plan = ShardPlan::Build(*data_, popts);
      std::vector<Graph> shard_graphs(2);
      for (uint32_t s = 0; s < 2; ++s) {
        ASSERT_TRUE(plan.ExtractShard(*data_, s, &shard_graphs[s]).ok());
      }
      ASSERT_TRUE(cluster->coordinator()
                      .LoadInline(plan.owners(), std::move(shard_graphs),
                                  /*threads_per_worker=*/1)
                      .ok());
    }
    ShardResult result;
    Status st = cluster->coordinator().Execute(pattern, options, &result);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(result.embeddings, want.embeddings);
    EXPECT_EQ(result.embeddings_verified, want.embeddings);
    EXPECT_EQ(SortedRows(result.embedding_data, result.embedding_width),
              want.rows);
  }
}

TEST_F(ShardCrosscheckTest, WorkerMetricsDocumentsParse) {
  std::unique_ptr<InProcessCluster> cluster;
  ASSERT_TRUE(InProcessCluster::Create(*data_, index_, 2,
                                       PartitionStrategy::kHash, 1, &cluster)
                  .ok());
  std::vector<std::string> docs;
  ASSERT_TRUE(cluster->coordinator().CollectMetrics(&docs).ok());
  ASSERT_EQ(docs.size(), 2u);
  for (const std::string& text : docs) {
    obs::JsonValue doc;
    ASSERT_TRUE(obs::JsonParse(text, &doc).ok());
    ASSERT_TRUE(doc.Find("schema") != nullptr);
    EXPECT_EQ(doc.Find("schema")->AsString(), "csce.metrics.v1");
    EXPECT_TRUE(doc.Find("metrics") != nullptr);
  }
}

// Four real worker processes over Unix-domain socketpairs: the same
// query, same embedding set. The children serve a shard each and exit;
// the parent is the coordinator.
TEST_F(ShardCrosscheckTest, ForkedWorkerProcessesMatchSingleNode) {
  constexpr uint32_t kShards = 4;
  ShardPlanOptions popts;
  popts.num_shards = kShards;
  popts.strategy = PartitionStrategy::kHash;
  ShardPlan plan = ShardPlan::Build(*data_, popts);
  std::vector<Graph> shard_graphs(kShards);
  for (uint32_t s = 0; s < kShards; ++s) {
    ASSERT_TRUE(plan.ExtractShard(*data_, s, &shard_graphs[s]).ok());
  }

  std::vector<pid_t> pids;
  std::vector<int> parent_fds;
  for (uint32_t s = 0; s < kShards; ++s) {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      close(fds[0]);
      for (int fd : parent_fds) close(fd);
      std::unique_ptr<Transport> transport = MakeFdTransport(fds[1]);
      ShardWorker worker;
      Status st = worker.Serve(*transport);
      _exit(st.ok() ? 0 : 3);
    }
    close(fds[1]);
    pids.push_back(pid);
    parent_fds.push_back(fds[0]);
  }

  {
    ShardCoordinator coordinator(index_);
    for (int fd : parent_fds) coordinator.AttachWorker(MakeFdTransport(fd));
    ASSERT_TRUE(
        coordinator
            .LoadInline(plan.owners(), std::move(shard_graphs), /*threads=*/2)
            .ok());

    Rng rng(83);
    Graph pattern;
    ASSERT_TRUE(
        SamplePattern(*data_, 5, PatternDensity::kDense, rng, &pattern).ok());
    Baseline want = SingleNode(*index_, pattern, MatchVariant::kEdgeInduced);

    CoordinatorOptions options;
    options.collect_embeddings = true;
    options.self_check = true;
    ShardResult result;
    Status st = coordinator.Execute(pattern, options, &result);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(result.embeddings, want.embeddings);
    ExpectSearchNodesBracketed(result.search_nodes, want);
    EXPECT_EQ(SortedRows(result.embedding_data, result.embedding_width),
              want.rows);
    coordinator.Shutdown();
  }

  for (pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "worker exit status " << status;
  }
}

}  // namespace
}  // namespace shard
}  // namespace csce
