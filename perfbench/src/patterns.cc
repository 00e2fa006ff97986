#include "patterns.h"

#include <numeric>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/subgraph.h"
#include "util/logging.h"

namespace perfbench {

using csce::Edge;
using csce::Graph;
using csce::Rng;
using csce::VertexId;

namespace {

bool GrowConnectedSet(const Graph& g, VertexId start, uint32_t size, Rng& rng,
                      std::vector<VertexId>* collected) {
  collected->assign(1, start);
  std::unordered_set<VertexId> in_set{start};
  uint32_t stale = 0;
  while (collected->size() < size && stale < 64 * size) {
    VertexId from = (*collected)[rng.Uniform(collected->size())];
    auto out = g.OutNeighbors(from);
    auto in = g.InNeighbors(from);
    size_t total = out.size() + (g.directed() ? in.size() : 0);
    if (total == 0) {
      ++stale;
      continue;
    }
    size_t pick = rng.Uniform(total);
    VertexId next = pick < out.size() ? out[pick].v : in[pick - out.size()].v;
    if (in_set.insert(next).second) {
      collected->push_back(next);
      stale = 0;
    } else {
      ++stale;
    }
  }
  return collected->size() == size;
}

// Spanning tree over shuffled edges (union-find), then extra edges in
// shuffled order until the pattern has |V| edges.
Graph Sparsify(const Graph& induced, Rng& rng) {
  const uint32_t n = induced.NumVertices();
  std::vector<Edge> all = induced.Edges();
  for (size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[rng.Uniform(i)]);
  }
  std::vector<uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0u);
  auto find = [&parent](uint32_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  std::vector<Edge> kept;
  std::vector<Edge> rest;
  for (const Edge& e : all) {
    uint32_t a = find(e.src);
    uint32_t b = find(e.dst);
    if (a != b) {
      parent[a] = b;
      kept.push_back(e);
    } else {
      rest.push_back(e);
    }
  }
  for (const Edge& e : rest) {
    if (kept.size() >= n) break;
    kept.push_back(e);
  }
  csce::GraphBuilder builder(induced.directed());
  for (VertexId v = 0; v < n; ++v) builder.AddVertex(induced.VertexLabel(v));
  for (const Edge& e : kept) builder.AddEdge(e.src, e.dst, e.elabel);
  Graph out;
  CSCE_CHECK(builder.Build(&out).ok());
  return out;
}

}  // namespace

Graph SamplePattern(const Graph& g, uint32_t size, Density density,
                    Rng& rng) {
  std::vector<VertexId> image;
  for (int attempt = 0;; ++attempt) {
    CSCE_CHECK(attempt < 1000) << "no connected region of " << size
                               << " vertices";
    const VertexId start = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
    if (GrowConnectedSet(g, start, size, rng, &image)) break;
  }
  Graph induced = csce::InducedSubgraph(g, image);
  return density == Density::kDense ? induced : Sparsify(induced, rng);
}

}  // namespace perfbench
