#include "engine/embedding_verifier.h"

#include <string>
#include <utility>

#include "util/logging.h"

namespace csce {
namespace {

uint64_t StarKey(Label a, Label b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

std::string MapStr(VertexId u, VertexId v) {
  return std::to_string(u) + " -> " + std::to_string(v);
}

}  // namespace

EmbeddingVerifier::EmbeddingVerifier(const Ccsr& data, const Graph& pattern,
                                     MatchVariant variant)
    : data_(data), pattern_(pattern), variant_(variant) {
  CSCE_CHECK(pattern.directed() == data.directed())
      << "pattern and data directedness differ";

  // Every pattern edge's cluster, decompressed privately: the row
  // lookup is built here, not taken from any query view or cache; the
  // columns are the CCSR's own immutable arrays.
  pattern_.ForEachEdge([&](const Edge& e) {
    ClusterId id = ClusterId::ForPatternEdge(pattern_, e);
    auto it = edge_views_.find(id);
    if (it == edge_views_.end()) {
      const CompressedCluster* c = data_.Find(id);
      if (c != nullptr) {
        it = edge_views_
                 .emplace(id, CsrIndex::FromCompressed(c->out_rows,
                                                       c->out_cols.span()))
                 .first;
      } else {
        it = edge_views_.emplace(id, CsrIndex{}).first;
      }
    }
    const CsrIndex* view =
        it->second.NumArcs() > 0 ? &it->second : nullptr;
    edges_.push_back(PatternEdge{e, view});
  });

  if (variant_ != MatchVariant::kVertexInduced) return;

  // Star clusters for every label pair of a non-adjacent pattern pair.
  const uint32_t n = pattern_.NumVertices();
  auto load_stars = [&](Label a, Label b) {
    uint64_t key = StarKey(a, b);
    if (star_views_.count(key) > 0) return;
    std::vector<StarView>& views = star_views_[key];
    for (const CompressedCluster* c : data_.StarClusters(a, b)) {
      if (c->num_edges == 0) continue;
      views.push_back(StarView{
          c->id.src_label, c->id.dst_label, c->id.directed,
          CsrIndex::FromCompressed(c->out_rows, c->out_cols.span())});
    }
  };
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId w = u + 1; w < n; ++w) {
      bool missing = pattern_.directed()
                         ? (!pattern_.HasEdge(u, w) || !pattern_.HasEdge(w, u))
                         : !pattern_.HasEdge(u, w);
      if (missing) load_stars(pattern_.VertexLabel(u), pattern_.VertexLabel(w));
    }
  }
  // Second pass: the map is stable now, pointers into it are safe.
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId w = u + 1; w < n; ++w) {
      if (pattern_.directed()) {
        if (!pattern_.HasEdge(u, w)) {
          anti_pairs_.push_back(AntiPair{
              u, w,
              &star_views_.at(
                  StarKey(pattern_.VertexLabel(u), pattern_.VertexLabel(w)))});
        }
        if (!pattern_.HasEdge(w, u)) {
          anti_pairs_.push_back(AntiPair{
              w, u,
              &star_views_.at(
                  StarKey(pattern_.VertexLabel(u), pattern_.VertexLabel(w)))});
        }
      } else if (!pattern_.HasEdge(u, w)) {
        anti_pairs_.push_back(AntiPair{
            u, w,
            &star_views_.at(
                StarKey(pattern_.VertexLabel(u), pattern_.VertexLabel(w)))});
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
    if (pe.view == nullptr || !pe.view->HasArc(fs, fd)) {
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
    for (const StarView& sv : *ap.stars) {
      bool arc;
      if (!sv.directed) {
        arc = sv.out.HasArc(fu, fw);
      } else if (sv.src_label == lu && sv.dst_label == lw) {
        arc = sv.out.HasArc(fu, fw);
      } else {
        continue;
      }
      if (arc) {
        return Status::Corruption(
            "embedding: induced violation — pattern vertices " +
            std::to_string(ap.u) + " and " + std::to_string(ap.w) +
            " are non-adjacent but data has an arc " + std::to_string(fu) +
            " -> " + std::to_string(fw) + " in cluster " +
            ClusterId{sv.src_label, sv.dst_label, 0, sv.directed}.ToString());
      }
    }
  }

  verified_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace csce
