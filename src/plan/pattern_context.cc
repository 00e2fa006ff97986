#include "plan/pattern_context.h"

#include <algorithm>

#include "ccsr/cluster_id.h"

namespace csce {

PatternContext::PatternContext(const Graph& pattern, const Ccsr* data,
                               MatchVariant variant)
    : pattern_(pattern),
      data_(data),
      variant_(variant),
      adj_(pattern.NumVertices()),
      out_(pattern.directed() ? pattern.NumVertices() : 0) {
  const uint32_t n = pattern.NumVertices();

  // One cluster lookup per pattern edge; multi-edges between one pair
  // fold into the pair's minimum below.
  std::vector<Edge> edges;
  std::vector<uint64_t> edge_size;
  pattern.ForEachEdge([&](const Edge& e) {
    adj_.Set(e.src, e.dst);
    adj_.Set(e.dst, e.src);
    if (pattern.directed()) out_.Set(e.src, e.dst);
    edges.push_back(e);
    edge_size.push_back(data == nullptr
                            ? kNoCluster
                            : data->ClusterSize(
                                  ClusterId::ForPatternEdge(pattern, e)));
  });

  nbr_offsets_.resize(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    nbr_offsets_[v + 1] = nbr_offsets_[v] + adj_.RowCount(v);
  }
  nbrs_.reserve(nbr_offsets_[n]);
  for (VertexId v = 0; v < n; ++v) {
    adj_.ForEachInRow(v, [&](VertexId w) { nbrs_.push_back(w); });
  }
  nbr_cluster_.assign(nbrs_.size(), kNoCluster);
  auto fold = [&](VertexId a, VertexId b, uint64_t size) {
    std::span<const VertexId> row = Neighbors(a);
    size_t k = nbr_offsets_[a] +
               static_cast<size_t>(std::lower_bound(row.begin(), row.end(), b) -
                                   row.begin());
    nbr_cluster_[k] = std::min(nbr_cluster_[k], size);
  };
  for (size_t i = 0; i < edges.size(); ++i) {
    fold(edges[i].src, edges[i].dst, edge_size[i]);
    fold(edges[i].dst, edges[i].src, edge_size[i]);
  }

  std::vector<Label> labels(pattern.vertex_labels().begin(),
                            pattern.vertex_labels().end());
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  num_labels_ = static_cast<uint32_t>(labels.size());
  label_index_.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    label_index_[v] = static_cast<uint32_t>(
        std::lower_bound(labels.begin(), labels.end(),
                         pattern.VertexLabel(v)) -
        labels.begin());
  }
  // Star questions arise only from vertex-induced negations.
  if (variant == MatchVariant::kVertexInduced && data != nullptr) {
    star_.assign(size_t{num_labels_} * num_labels_, 0);
    for (uint32_t a = 0; a < num_labels_; ++a) {
      for (uint32_t b = a; b < num_labels_; ++b) {
        const uint8_t s = data->HasStarEdges(labels[a], labels[b]) ? 1 : 0;
        star_[a * num_labels_ + b] = s;
        star_[b * num_labels_ + a] = s;
      }
    }
  }
}

}  // namespace csce
