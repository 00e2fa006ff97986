// Micro-kernels (google-benchmark): the hot primitives behind the
// engine — sorted-set intersection/difference, RLE codec, CSR neighbor
// lookup in both layouts, per-query cluster decompression (Alg. 1 read),
// and cluster lookup vs raw adjacency probing.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "ccsr/ccsr.h"
#include "ccsr/cluster_cache.h"
#include "ccsr/compressed_row.h"
#include "ccsr/csr.h"
#include "engine/candidates.h"
#include "gen/datasets.h"
#include "gen/random_graph.h"
#include "graph/graph_builder.h"
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

void BM_RleCompress(benchmark::State& state) {
  // A row-index array with the sparsity typical of a cluster.
  Rng rng(4);
  std::vector<uint64_t> row(state.range(0));
  uint64_t value = 0;
  for (auto& r : row) {
    if (rng.Bernoulli(0.02)) value += 1 + rng.Uniform(4);
    r = value;
  }
  for (auto _ : state) {
    CompressedRowIndex c = CompressedRowIndex::Compress(row);
    benchmark::DoNotOptimize(c.num_runs());
  }
  state.SetItemsProcessed(state.iterations() * row.size());
}
BENCHMARK(BM_RleCompress)->Range(1 << 12, 1 << 18);

void BM_RleDecompress(benchmark::State& state) {
  Rng rng(5);
  std::vector<uint64_t> row(state.range(0));
  uint64_t value = 0;
  for (auto& r : row) {
    if (rng.Bernoulli(0.02)) value += 1 + rng.Uniform(4);
    r = value;
  }
  CompressedRowIndex c = CompressedRowIndex::Compress(row);
  for (auto _ : state) {
    auto out = c.Decompress();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * row.size());
}
BENCHMARK(BM_RleDecompress)->Range(1 << 12, 1 << 18);

CsrIndex MakeCsr(uint32_t vertices, uint32_t arcs, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  for (uint32_t i = 0; i < arcs; ++i) {
    VertexId a = static_cast<VertexId>(rng.Uniform(vertices));
    VertexId b = static_cast<VertexId>(rng.Uniform(vertices));
    if (a != b) edges.push_back({a, b, 0});
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return CsrIndex::FromArcs(vertices, edges);
}

void BM_CsrNeighborsDense(benchmark::State& state) {
  CsrIndex csr = MakeCsr(1 << 12, 1 << 15, 6);  // dense layout
  Rng rng(7);
  for (auto _ : state) {
    auto nbrs = csr.Neighbors(static_cast<VertexId>(rng.Uniform(1 << 12)));
    benchmark::DoNotOptimize(nbrs.data());
  }
}
BENCHMARK(BM_CsrNeighborsDense);

void BM_CsrNeighborsSparse(benchmark::State& state) {
  CsrIndex csr = MakeCsr(1 << 20, 1 << 10, 8);  // sparse layout
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

// One cluster read of Algorithm 1 (DecompressCluster) on Patent(20):
// arg 1 = the largest cluster with a rank bitmap (dense layout), arg 0 =
// the median-size cluster without one (sparse layout).
void BM_DecompressCluster(benchmark::State& state) {
  static const Ccsr gc = Ccsr::Build(datasets::Patent(20));
  const bool dense = state.range(0) != 0;
  std::vector<const CompressedCluster*> picked;
  for (const CompressedCluster& c : gc.clusters()) {
    if (CsrIndex::FromCompressed(c.out_rows, c.out_cols.span()).dense() ==
        dense) {
      picked.push_back(&c);
    }
  }
  if (picked.empty()) {
    state.SkipWithError("no cluster with this layout");
    return;
  }
  std::sort(picked.begin(), picked.end(),
            [](const CompressedCluster* a, const CompressedCluster* b) {
              return a->num_edges < b->num_edges;
            });
  const CompressedCluster& cluster =
      *(dense ? picked.back() : picked[picked.size() / 2]);
  for (auto _ : state) {
    std::shared_ptr<const ClusterView> view = DecompressCluster(cluster);
    benchmark::DoNotOptimize(view.get());
  }
  state.counters["edges"] = static_cast<double>(cluster.num_edges);
  state.counters["view_bytes"] =
      static_cast<double>(DecompressCluster(cluster)->SizeBytes());
}
BENCHMARK(BM_DecompressCluster)->ArgName("dense")->Arg(1)->Arg(0);

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
  const ClusterView* view = qc.Find(ClusterId::Undirected(0, 1, 0));
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

}  // namespace
}  // namespace csce

BENCHMARK_MAIN();
