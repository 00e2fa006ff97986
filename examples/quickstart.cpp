// Quickstart: build a small heterogeneous graph, index it with CCSR,
// and count matches of a pattern under all three SM variants.
//
//   ./quickstart
//
// Walks through the library's core flow: GraphBuilder -> Ccsr::Build
// (offline) -> CsceMatcher::Match (online), plus persisting the CCSR
// artifact to disk and loading it back.

#include <cstdio>

#include "csce/csce.h"

using namespace csce;  // NOLINT: example brevity

namespace {

constexpr Label kProtein = 1;
constexpr Label kComplex = 2;
constexpr Label kSite = 3;

Graph BuildDataGraph() {
  GraphBuilder b(/*directed=*/false);
  // A toy interaction network: two protein "hubs", each with binding
  // sites; one pair of hubs also shares a complex.
  VertexId p1 = b.AddVertex(kProtein);
  VertexId p2 = b.AddVertex(kProtein);
  VertexId p3 = b.AddVertex(kProtein);
  VertexId c1 = b.AddVertex(kComplex);
  b.AddEdge(p1, p2);
  b.AddEdge(p2, p3);
  b.AddEdge(p1, c1);
  b.AddEdge(p2, c1);
  for (int i = 0; i < 3; ++i) {
    VertexId s = b.AddVertex(kSite);
    b.AddEdge(p1, s);
  }
  for (int i = 0; i < 2; ++i) {
    VertexId s = b.AddVertex(kSite);
    b.AddEdge(p3, s);
  }
  Graph g;
  Status st = b.Build(&g);
  CSCE_CHECK(st.ok());
  return g;
}

Graph BuildPattern() {
  // Pattern: protein - protein edge where the first protein also binds
  // a site.  (A "partially characterized interaction".)
  GraphBuilder b(/*directed=*/false);
  VertexId a = b.AddVertex(kProtein);
  VertexId c = b.AddVertex(kProtein);
  VertexId s = b.AddVertex(kSite);
  b.AddEdge(a, c);
  b.AddEdge(a, s);
  Graph p;
  Status st = b.Build(&p);
  CSCE_CHECK(st.ok());
  return p;
}

}  // namespace

int main() {
  Graph g = BuildDataGraph();
  Graph pattern = BuildPattern();
  std::printf("data graph: %u vertices, %llu edges, %u labels\n",
              g.NumVertices(), static_cast<unsigned long long>(g.NumEdges()),
              g.VertexLabelCount());

  // Offline: cluster the graph into CCSR. The raw graph can be dropped.
  Ccsr index = Ccsr::Build(g);
  std::printf("ccsr: %zu clusters, %zu compressed bytes\n",
              index.NumClusters(), index.CompressedSizeBytes());

  // The index is a persistent artifact.
  const char* path = "/tmp/quickstart.ccsr";
  if (Status st = SaveCcsrToFileV2(index, path); !st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  Ccsr loaded;
  if (Status st = LoadCcsrFromFile(path, &loaded); !st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // Online: match under each variant.
  CsceMatcher matcher(&loaded);
  for (auto variant :
       {MatchVariant::kEdgeInduced, MatchVariant::kVertexInduced,
        MatchVariant::kHomomorphic}) {
    MatchOptions options;
    options.variant = variant;
    MatchResult result;
    if (Status st = matcher.Match(pattern, options, &result); !st.ok()) {
      std::fprintf(stderr, "match failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("%-15s %llu embeddings  (read %.3fms, plan %.3fms, "
                "enumerate %.3fms)\n",
                VariantName(variant),
                static_cast<unsigned long long>(result.embeddings),
                result.read_seconds * 1e3, result.plan_seconds * 1e3,
                result.enumerate_seconds * 1e3);
  }

  // Enumerate concrete embeddings through the callback API.
  std::printf("edge-induced embeddings (pattern vertex -> data vertex):\n");
  MatchOptions options;
  MatchResult result;
  Status st = matcher.MatchWithCallback(
      pattern, options,
      [&pattern](std::span<const VertexId> mapping) {
        std::printf("  {");
        for (VertexId u = 0; u < pattern.NumVertices(); ++u) {
          std::printf("%su%u->v%u", u ? ", " : "", u, mapping[u]);
        }
        std::printf("}\n");
        return true;
      },
      &result);
  if (!st.ok()) {
    std::fprintf(stderr, "match failed: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
