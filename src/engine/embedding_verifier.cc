#include "engine/embedding_verifier.h"

#include <string>

#include "util/logging.h"

namespace csce {
namespace {

std::string MapStr(VertexId u, VertexId v) {
  return std::to_string(u) + " -> " + std::to_string(v);
}

}  // namespace

EmbeddingVerifier::EmbeddingVerifier(const Ccsr& data, const Graph& pattern,
                                     MatchVariant variant)
    : data_(data), pattern_(pattern), variant_(variant) {
  CSCE_CHECK(pattern.directed() == data.directed())
      << "pattern and data directedness differ";

  // Every pattern edge's cluster, read from the CCSR's own arrays.
  pattern_.ForEachEdge([&](const Edge& e) {
    const CompressedCluster* c =
        data_.Find(ClusterId::ForPatternEdge(pattern_, e));
    edges_.push_back(PatternEdge{e, c != nullptr ? c->out : CsrIndex()});
  });

  if (variant_ != MatchVariant::kVertexInduced) return;

  // Every non-adjacent pattern pair, with the star clusters of its
  // label pair.
  const uint32_t n = pattern_.NumVertices();
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId w = u + 1; w < n; ++w) {
      std::span<const size_t> stars =
          data_.StarClusters(pattern_.VertexLabel(u), pattern_.VertexLabel(w));
      if (pattern_.directed()) {
        if (!pattern_.HasEdge(u, w)) anti_pairs_.push_back({u, w, stars});
        if (!pattern_.HasEdge(w, u)) anti_pairs_.push_back({w, u, stars});
      } else if (!pattern_.HasEdge(u, w)) {
        anti_pairs_.push_back({u, w, stars});
      }
    }
  }
}

Status EmbeddingVerifier::Verify(std::span<const VertexId> mapping) const {
  const uint32_t n = pattern_.NumVertices();
  if (mapping.size() != n) {
    return Status::Corruption(
        "embedding: mapping has " + std::to_string(mapping.size()) +
        " entries for a pattern of " + std::to_string(n) + " vertices");
  }

  // Range and label checks.
  for (VertexId u = 0; u < n; ++u) {
    VertexId v = mapping[u];
    if (v >= data_.NumVertices()) {
      return Status::Corruption("embedding: mapping " + MapStr(u, v) +
                                " is out of the data vertex range");
    }
    if (data_.VertexLabel(v) != pattern_.VertexLabel(u)) {
      return Status::Corruption(
          "embedding: mapping " + MapStr(u, v) + " has data label " +
          std::to_string(data_.VertexLabel(v)) + ", pattern requires " +
          std::to_string(pattern_.VertexLabel(u)));
    }
  }

  // Injectivity (edge- and vertex-induced).
  if (variant_ != MatchVariant::kHomomorphic) {
    for (VertexId a = 0; a < n; ++a) {
      for (VertexId b = a + 1; b < n; ++b) {
        if (mapping[a] == mapping[b]) {
          return Status::Corruption(
              "embedding: not injective — pattern vertices " +
              std::to_string(a) + " and " + std::to_string(b) +
              " both map to data vertex " + std::to_string(mapping[a]));
        }
      }
    }
  }

  // Every pattern edge must exist as a data arc in its cluster.
  for (const PatternEdge& pe : edges_) {
    VertexId fs = mapping[pe.edge.src];
    VertexId fd = mapping[pe.edge.dst];
    if (!pe.out.HasArc(fs, fd)) {
      return Status::Corruption(
          "embedding: pattern edge (" + std::to_string(pe.edge.src) + " -> " +
          std::to_string(pe.edge.dst) + ", label " +
          std::to_string(pe.edge.elabel) + ") has no data arc " +
          std::to_string(fs) + " -> " + std::to_string(fd));
    }
  }

  // Vertex-induced: non-adjacent pattern pairs must have no data arc in
  // the forbidden direction, under any edge label.
  for (const AntiPair& ap : anti_pairs_) {
    VertexId fu = mapping[ap.u];
    VertexId fw = mapping[ap.w];
    Label lu = pattern_.VertexLabel(ap.u);
    Label lw = pattern_.VertexLabel(ap.w);
    for (size_t slot : ap.stars) {
      const CompressedCluster& c = data_.clusters()[slot];
      // A directed cluster holds the forbidden arc only when oriented
      // from u's label to w's.
      if (c.id.directed &&
          (c.id.src_label != lu || c.id.dst_label != lw)) {
        continue;
      }
      if (c.out.HasArc(fu, fw)) {
        return Status::Corruption(
            "embedding: induced violation — pattern vertices " +
            std::to_string(ap.u) + " and " + std::to_string(ap.w) +
            " are non-adjacent but data has an arc " + std::to_string(fu) +
            " -> " + std::to_string(fw) + " in cluster " +
            ClusterId{c.id.src_label, c.id.dst_label, 0, c.id.directed}
                .ToString());
      }
    }
  }

  verified_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace csce
