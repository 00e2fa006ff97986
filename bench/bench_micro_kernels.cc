// Micro-kernels (google-benchmark): the hot primitives behind the
// engine — sorted-set intersection/difference, CSR neighbor lookup in
// both layouts, CCSR build, cluster lookup vs raw adjacency probing,
// planning (Planner::MakePlan) on sampled large patterns, and the
// vertex-induced executor (construction plus Run) on such patterns.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "ccsr/ccsr.h"
#include "ccsr/csr.h"
#include "engine/candidates.h"
#include "engine/executor.h"
#include "gen/datasets.h"
#include "gen/pattern_gen.h"
#include "gen/random_graph.h"
#include "graph/graph_builder.h"
#include "plan/planner.h"
#include "util/rng.h"

namespace csce {
namespace {

std::vector<VertexId> SortedRandomSet(Rng& rng, size_t n, uint32_t universe) {
  std::vector<VertexId> v;
  v.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    v.push_back(static_cast<VertexId>(rng.Uniform(universe)));
  }
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

void BM_IntersectBalanced(benchmark::State& state) {
  Rng rng(1);
  auto a = SortedRandomSet(rng, state.range(0), 1 << 20);
  auto b = SortedRandomSet(rng, state.range(0), 1 << 20);
  std::vector<VertexId> out;
  for (auto _ : state) {
    IntersectSorted(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * (a.size() + b.size()));
}
BENCHMARK(BM_IntersectBalanced)->Range(1 << 8, 1 << 14);

void BM_IntersectGalloping(benchmark::State& state) {
  Rng rng(2);
  auto small_set = SortedRandomSet(rng, 64, 1 << 20);
  auto large_set = SortedRandomSet(rng, state.range(0), 1 << 20);
  std::vector<VertexId> out;
  for (auto _ : state) {
    IntersectSorted(small_set, large_set, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_IntersectGalloping)->Range(1 << 10, 1 << 18);

void BM_DifferenceInPlace(benchmark::State& state) {
  Rng rng(3);
  auto base = SortedRandomSet(rng, state.range(0), 1 << 20);
  auto remove = SortedRandomSet(rng, state.range(0) / 4, 1 << 20);
  for (auto _ : state) {
    std::vector<VertexId> acc = base;
    DifferenceInPlace(&acc, remove);
    benchmark::DoNotOptimize(acc.data());
  }
}
BENCHMARK(BM_DifferenceInPlace)->Range(1 << 8, 1 << 14);

// A finished builder holding one random direction's arrays.
CsrBuilder MakeCsr(uint32_t vertices, uint32_t arcs, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  for (uint32_t i = 0; i < arcs; ++i) {
    VertexId a = static_cast<VertexId>(rng.Uniform(vertices));
    VertexId b = static_cast<VertexId>(rng.Uniform(vertices));
    if (a != b) edges.push_back({a, b, 0});
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  CsrBuilder builder;
  for (const Edge& e : edges) builder.Add(e.src, e.dst);
  builder.Finish(vertices);
  return builder;
}

void BM_CsrNeighborsDense(benchmark::State& state) {
  const CsrBuilder arrays = MakeCsr(1 << 12, 1 << 15, 6);  // dense layout
  const CsrIndex csr = arrays.Index();
  Rng rng(7);
  for (auto _ : state) {
    auto nbrs = csr.Neighbors(static_cast<VertexId>(rng.Uniform(1 << 12)));
    benchmark::DoNotOptimize(nbrs.data());
  }
}
BENCHMARK(BM_CsrNeighborsDense);

void BM_CsrNeighborsSparse(benchmark::State& state) {
  const CsrBuilder arrays = MakeCsr(1 << 20, 1 << 10, 8);  // sparse layout
  const CsrIndex csr = arrays.Index();
  Rng rng(9);
  for (auto _ : state) {
    auto nbrs = csr.Neighbors(static_cast<VertexId>(rng.Uniform(1 << 20)));
    benchmark::DoNotOptimize(nbrs.data());
  }
}
BENCHMARK(BM_CsrNeighborsSparse);

void BM_CcsrBuild(benchmark::State& state) {
  LabelConfig labels;
  labels.vertex_labels = 16;
  Graph g = ErdosRenyi(10000, static_cast<uint64_t>(state.range(0)), false,
                       labels, 11);
  for (auto _ : state) {
    Ccsr gc = Ccsr::Build(g);
    benchmark::DoNotOptimize(gc.NumClusters());
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_CcsrBuild)->Range(1 << 14, 1 << 17);

void BM_ClusterHasArcVsGraphHasEdge(benchmark::State& state) {
  LabelConfig labels;
  labels.vertex_labels = 4;
  Graph g = ErdosRenyi(20000, 200000, false, labels, 12);
  Ccsr gc = Ccsr::Build(g);
  QueryClusters qc;
  GraphBuilder pb(false);
  pb.AddVertex(0);
  pb.AddVertex(1);
  pb.AddEdge(0, 1);
  Graph pattern;
  CSCE_CHECK(pb.Build(&pattern).ok());
  CSCE_CHECK(
      ReadClusters(gc, pattern, MatchVariant::kEdgeInduced, &qc).ok());
  const CompressedCluster* view = qc.Find(ClusterId::Undirected(0, 1, 0));
  if (view == nullptr) {
    state.SkipWithError("cluster missing");
    return;
  }
  Rng rng(13);
  for (auto _ : state) {
    VertexId a = static_cast<VertexId>(rng.Uniform(20000));
    VertexId b = static_cast<VertexId>(rng.Uniform(20000));
    benchmark::DoNotOptimize(view->HasArc(a, b));
    benchmark::DoNotOptimize(g.HasEdge(a, b));
  }
}
BENCHMARK(BM_ClusterHasArcVsGraphHasEdge);

// One full plan (GCF, both DAG builds, LDSF, compile) per iteration,
// cycling over eight sampled Patent(20) patterns of range(0) vertices
// (four dense, four sparse); range(1) = 1 plans vertex-induced, else
// edge-induced.
struct PatentIndex {
  Graph graph = datasets::Patent(20);
  Ccsr index = Ccsr::Build(graph);
};

void BM_MakePlan(benchmark::State& state) {
  static const PatentIndex patent;
  const Graph* data = &patent.graph;
  const uint32_t size = static_cast<uint32_t>(state.range(0));
  const MatchVariant variant = state.range(1) == 1
                                   ? MatchVariant::kVertexInduced
                                   : MatchVariant::kEdgeInduced;
  std::vector<Graph> patterns;
  std::vector<Graph> sparse;
  CSCE_CHECK(SamplePatterns(*data, size, PatternDensity::kDense, 4, 17,
                            &patterns)
                 .ok());
  CSCE_CHECK(
      SamplePatterns(*data, size, PatternDensity::kSparse, 4, 19, &sparse)
          .ok());
  for (Graph& g : sparse) patterns.push_back(std::move(g));
  const Planner planner(&patent.index);
  size_t next = 0;
  for (auto _ : state) {
    Plan plan;
    CSCE_CHECK(planner
                   .MakePlan(patterns[next], variant, PlanOptions(), &plan)
                   .ok());
    benchmark::DoNotOptimize(plan.order.data());
    next = (next + 1) % patterns.size();
  }
}
BENCHMARK(BM_MakePlan)
    ->ArgsProduct({{16, 64, 256, 1000, 2000}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// One vertex-induced query's executor: construction (the negation
// table) plus Run to the first 100 embeddings, over planned and read
// Patent(20) samples. The 25 ms limit only caps the rare sample that
// finds no embedding quickly.
void BM_ExecutorVertexInduced(benchmark::State& state) {
  static const PatentIndex patent;
  const uint32_t size = static_cast<uint32_t>(state.range(0));
  std::vector<Graph> patterns;
  std::vector<Graph> sparse;
  CSCE_CHECK(SamplePatterns(patent.graph, size, PatternDensity::kDense, 4, 23,
                            &patterns)
                 .ok());
  CSCE_CHECK(SamplePatterns(patent.graph, size, PatternDensity::kSparse, 4,
                            29, &sparse)
                 .ok());
  for (Graph& g : sparse) patterns.push_back(std::move(g));
  const Planner planner(&patent.index);
  std::vector<Plan> plans(patterns.size());
  std::vector<QueryClusters> reads(patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    CSCE_CHECK(planner
                   .MakePlan(patterns[i], MatchVariant::kVertexInduced,
                             PlanOptions(), &plans[i])
                   .ok());
    CSCE_CHECK(ReadClusters(patent.index, patterns[i],
                            MatchVariant::kVertexInduced, &reads[i])
                   .ok());
  }
  ExecOptions options;
  options.max_embeddings = 100;
  options.time_limit_seconds = 0.025;
  size_t next = 0;
  for (auto _ : state) {
    options.prune = plans[next].prune;
    Executor executor(patent.index, reads[next], plans[next]);
    ExecStats stats;
    CSCE_CHECK(executor.Run(options, &stats).ok());
    benchmark::DoNotOptimize(stats.embeddings);
    next = (next + 1) % patterns.size();
  }
}
BENCHMARK(BM_ExecutorVertexInduced)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace csce

BENCHMARK_MAIN();
