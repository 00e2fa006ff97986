// The bit-row dependency DAG against a naive reference: Algorithm 2
// written pair by pair from the paper (adjacency and star questions
// asked of the pattern and the index directly), and reachability by
// BFS from every vertex. Covers sampled patterns of 5-200 vertices,
// including the 63/64/65 and 128/129 word boundaries of the rows,
// under all three variants, with and without the index, on the GCF
// order and on a random permutation.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <queue>
#include <vector>

#include "ccsr/ccsr.h"
#include "gen/datasets.h"
#include "gen/pattern_gen.h"
#include "plan/dag.h"
#include "plan/descendants.h"
#include "plan/gcf.h"
#include "plan/pattern_context.h"
#include "plan/validate.h"
#include "util/rng.h"

namespace csce {
namespace {

using Matrix = std::vector<std::vector<bool>>;

Matrix NaiveAlgorithm2(const Graph& p, const std::vector<VertexId>& order,
                       MatchVariant variant, const Ccsr* gc) {
  const uint32_t n = p.NumVertices();
  Matrix edge(n, std::vector<bool>(n, false));
  for (uint32_t j = 1; j < n; ++j) {
    const VertexId uj = order[j];
    for (uint32_t i = 0; i < j; ++i) {
      const VertexId ui = order[i];
      if (p.HasEdgeAnyDirection(ui, uj)) {
        edge[ui][uj] = true;
        continue;
      }
      if (variant != MatchVariant::kVertexInduced) continue;
      bool anchored = false;
      for (uint32_t k = 0; k < i && !anchored; ++k) {
        anchored = p.HasEdgeAnyDirection(order[k], uj);
      }
      if (anchored && (gc == nullptr || gc->HasStarEdges(p.VertexLabel(ui),
                                                         p.VertexLabel(uj)))) {
        edge[ui][uj] = true;
      }
    }
  }
  return edge;
}

// reach[u][v]: v reachable from u (u reaches itself).
Matrix BfsReach(const Matrix& edge) {
  const uint32_t n = static_cast<uint32_t>(edge.size());
  Matrix reach(n, std::vector<bool>(n, false));
  for (VertexId s = 0; s < n; ++s) {
    std::queue<VertexId> frontier;
    frontier.push(s);
    reach[s][s] = true;
    while (!frontier.empty()) {
      VertexId x = frontier.front();
      frontier.pop();
      for (VertexId c = 0; c < n; ++c) {
        if (edge[x][c] && !reach[s][c]) {
          reach[s][c] = true;
          frontier.push(c);
        }
      }
    }
  }
  return reach;
}

void ExpectMatchesReference(const Graph& p, const std::vector<VertexId>& order,
                            MatchVariant variant, const Ccsr* gc) {
  const uint32_t n = p.NumVertices();
  const DependencyDag dag =
      DependencyDag::Build(PatternContext(p, gc, variant), order);
  const Matrix edge = NaiveAlgorithm2(p, order, variant, gc);
  const Matrix reach = BfsReach(edge);
  ASSERT_EQ(dag.NumVertices(), n);
  ASSERT_TRUE(ValidateDag(dag).ok());

  size_t edges = 0;
  const std::vector<uint32_t> sizes = ComputeDescendantSizes(dag);
  std::vector<VertexId> roots;
  for (VertexId u = 0; u < n; ++u) {
    std::vector<VertexId> children;
    std::vector<VertexId> parents;
    uint32_t descendants = 0;
    for (VertexId v = 0; v < n; ++v) {
      ASSERT_EQ(dag.HasEdge(u, v), edge[u][v]) << u << " -> " << v;
      ASSERT_EQ(dag.HasPath(u, v), reach[u][v]) << u << " ~> " << v;
      ASSERT_EQ(dag.Independent(u, v), !reach[u][v] && !reach[v][u]);
      if (edge[u][v]) children.push_back(v);
      if (edge[v][u]) parents.push_back(v);
      if (v != u && reach[u][v]) ++descendants;
    }
    edges += children.size();
    EXPECT_EQ(dag.Children(u), children);
    EXPECT_EQ(dag.Parents(u), parents);
    EXPECT_EQ(dag.NumParents(u), parents.size());
    EXPECT_EQ(sizes[u], descendants);
    if (parents.empty()) roots.push_back(u);
  }
  EXPECT_EQ(dag.NumEdges(), edges);
  EXPECT_EQ(dag.Roots(), roots);
}

TEST(DagPropertyTest, BitRowsMatchNaiveAlgorithm2AndBfs) {
  struct Data {
    Graph graph;
    Ccsr index;
  };
  std::vector<Data> data;
  data.push_back({datasets::Patent(20), Ccsr()});
  data.push_back({datasets::Subcategory(), Ccsr()});
  // Many label pairs without data edges: empty star clusters.
  data.push_back({datasets::Patent(200), Ccsr()});
  for (Data& d : data) d.index = Ccsr::Build(d.graph);

  const uint32_t kSizes[] = {5, 16, 63, 64, 65, 128, 129, 200};
  const MatchVariant kVariants[] = {MatchVariant::kEdgeInduced,
                                    MatchVariant::kVertexInduced,
                                    MatchVariant::kHomomorphic};
  uint64_t k = 0;
  for (const Data& d : data) {
    for (uint32_t size : kSizes) {
      for (MatchVariant variant : kVariants) {
        ++k;
        Rng rng(7919 * k);
        const PatternDensity density =
            k % 2 == 0 ? PatternDensity::kDense : PatternDensity::kSparse;
        Graph p;
        ASSERT_TRUE(SamplePattern(d.graph, size, density, rng, &p).ok());
        const Ccsr* gc = k % 3 == 0 ? nullptr : &d.index;
        SCOPED_TRACE(::testing::Message()
                     << "size " << size << " variant " << VariantName(variant)
                     << (gc == nullptr ? " nogc" : " gc") << " directed "
                     << p.directed());

        std::vector<VertexId> gcf = GreatestConstraintFirstOrder(
            PatternContext(p, gc, variant), GcfOptions{});
        ExpectMatchesReference(p, gcf, variant, gc);

        std::vector<VertexId> shuffled(p.NumVertices());
        std::iota(shuffled.begin(), shuffled.end(), 0);
        for (uint32_t i = p.NumVertices(); i > 1; --i) {
          std::swap(shuffled[i - 1], shuffled[rng.Uniform(i)]);
        }
        ExpectMatchesReference(p, shuffled, variant, gc);
      }
    }
  }
}

}  // namespace
}  // namespace csce
